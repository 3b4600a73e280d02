//! Directory-based invalidation cache-coherence protocol.
//!
//! Each Origin-2000 hub maintains a directory over the memory it homes,
//! tracking which processors cache each line and invalidating them on
//! writes (Section 2 of the paper).  Like the hub, which keeps a line's
//! directory state beside the line in memory, we index it by physical
//! line address: a sharer bitmap (up to [`MAX_PROCS`]) per line,
//! sufficient to charge writers for invalidations and to count coherence
//! traffic — the effect behind cache-line false sharing in the
//! `(block,block)` convolution.
//!
//! The table has two levels: frame number → the block of that frame's
//! line states, allocated the first time a line of the frame is cached.
//! Memory therefore grows with the frames a run touches, not with the
//! frame-number range (about a million frames on the unscaled
//! 128-processor machine).

use crate::ProcId;

/// Most processors a machine may have ([`crate::MachineConfig::validate`]):
/// one bit each in a line's sharer set — the paper's Origin-2000.
pub const MAX_PROCS: usize = u128::BITS as usize;

/// Sharing state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineState {
    /// Bit i set = processor i holds the line.
    pub sharers: u128,
    /// Some processor holds it modified (at most one bit of `sharers`).
    pub exclusive: bool,
}

/// Marks a frame with no block in [`Directory::blocks`].
const NO_BLOCK: u32 = u32::MAX;

/// Machine-wide coherence directory (MSI-style).
#[derive(Debug, Clone)]
pub struct Directory {
    /// log2 of the lines per frame (block length).
    frame_shift: u32,
    /// Frame number → index of its block in `lines`, or [`NO_BLOCK`].
    /// Grown on demand to the highest frame touched.
    blocks: Vec<u32>,
    /// Every allocated block, back to back, `1 << frame_shift` states
    /// each. A line no processor caches holds the default state.
    lines: Vec<LineState>,
    /// Lines with at least one sharer.
    tracked: usize,
    invalidations: u64,
}

/// Processors that must be invalidated as a result of an access.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoherenceResult {
    /// Caches that must drop the line (invalidation messages sent).
    pub invalidate: Vec<ProcId>,
    /// A dirty copy had to be fetched from another cache (cache-to-cache
    /// intervention rather than a memory read).
    pub intervention: bool,
}

/// The processors whose bits are set in a sharer set, ascending.
fn procs_of(mut sharers: u128) -> Vec<ProcId> {
    let mut out = Vec::new();
    while sharers != 0 {
        out.push(ProcId(sharers.trailing_zeros() as usize));
        sharers &= sharers - 1;
    }
    out
}

impl Directory {
    /// An empty directory over frames of `lines_per_frame` lines (a power
    /// of two: page size over L2 line size).
    ///
    /// # Panics
    ///
    /// Panics if `lines_per_frame` is not a power of two.
    pub fn new(lines_per_frame: usize) -> Self {
        assert!(
            lines_per_frame.is_power_of_two(),
            "lines per frame must be a power of two, got {lines_per_frame}"
        );
        Directory {
            frame_shift: lines_per_frame.trailing_zeros(),
            blocks: Vec::new(),
            lines: Vec::new(),
            tracked: 0,
            invalidations: 0,
        }
    }

    /// Index of `line`'s state in `lines`, if its frame has a block.
    #[inline]
    fn slot(&self, line: u64) -> Option<usize> {
        let block = *self.blocks.get((line >> self.frame_shift) as usize)?;
        (block != NO_BLOCK).then(|| self.index(block, line))
    }

    #[inline]
    fn index(&self, block: u32, line: u64) -> usize {
        ((block as usize) << self.frame_shift) | (line as usize & ((1 << self.frame_shift) - 1))
    }

    /// `line`'s state, allocating its frame's block on first touch.
    #[inline]
    fn state_mut(&mut self, line: u64) -> &mut LineState {
        let frame = (line >> self.frame_shift) as usize;
        if frame >= self.blocks.len() {
            self.blocks.resize(frame + 1, NO_BLOCK);
        }
        if self.blocks[frame] == NO_BLOCK {
            self.blocks[frame] = (self.lines.len() >> self.frame_shift) as u32;
            self.lines.resize(
                self.lines.len() + (1 << self.frame_shift),
                LineState::default(),
            );
        }
        let i = self.index(self.blocks[frame], line);
        &mut self.lines[i]
    }

    /// Record a read of physical line `line` by `proc`.
    ///
    /// If another processor held the line exclusive, it is downgraded (we
    /// model the downgrade as an intervention without an invalidation).
    #[inline]
    pub fn read(&mut self, line: u64, proc: ProcId) -> CoherenceResult {
        let st = self.state_mut(line);
        let me = 1u128 << proc.0;
        let mut res = CoherenceResult::default();
        if st.exclusive && st.sharers & !me != 0 {
            res.intervention = true;
            st.exclusive = false;
        }
        let fresh = st.sharers == 0;
        st.sharers |= me;
        self.tracked += usize::from(fresh);
        res
    }

    /// Record a write of physical line `line` by `proc`.
    ///
    /// Every other sharer must be invalidated; the returned list tells the
    /// machine whose caches to purge and how many messages to charge.
    #[inline]
    pub fn write(&mut self, line: u64, proc: ProcId) -> CoherenceResult {
        let st = self.state_mut(line);
        let me = 1u128 << proc.0;
        let mut res = CoherenceResult::default();
        let others = st.sharers & !me;
        let fresh = st.sharers == 0;
        if others != 0 {
            res.intervention = st.exclusive;
            res.invalidate = procs_of(others);
        }
        st.sharers = me;
        st.exclusive = true;
        self.tracked += usize::from(fresh);
        self.invalidations += res.invalidate.len() as u64;
        res
    }

    /// Note that `proc` silently dropped `line` (eviction). Keeps the
    /// directory from over-invalidating.
    #[inline]
    pub fn evict(&mut self, line: u64, proc: ProcId) {
        if let Some(i) = self.slot(line) {
            let st = &mut self.lines[i];
            if st.sharers != 0 {
                st.sharers &= !(1u128 << proc.0);
                if st.sharers == 0 {
                    *st = LineState::default();
                    self.tracked -= 1;
                }
            }
        }
    }

    /// Forget a line entirely (its physical frame was released). Unlike
    /// [`Directory::evict`] this drops every sharer at once.
    pub fn clear_line(&mut self, line: u64) {
        if let Some(i) = self.slot(line) {
            let st = std::mem::take(&mut self.lines[i]);
            self.tracked -= usize::from(st.sharers != 0);
        }
    }

    /// Current sharer set of a line (empty if uncached).
    pub fn sharers(&self, line: u64) -> Vec<ProcId> {
        self.slot(line)
            .map_or_else(Vec::new, |i| procs_of(self.lines[i].sharers))
    }

    /// Total invalidation messages sent since construction.
    pub fn total_invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of tracked (cached-somewhere) lines.
    pub fn tracked_lines(&self) -> usize {
        self.tracked
    }

    /// Number of frames with a block of line states.
    pub fn frame_blocks(&self) -> usize {
        self.lines.len() >> self.frame_shift
    }

    /// Overwrite this directory with `other`, reusing the allocations
    /// (a pooled machine's restore).
    pub(crate) fn restore(&mut self, other: &Directory) {
        self.frame_shift = other.frame_shift;
        self.blocks.clone_from(&other.blocks);
        self.lines.clone_from(&other.lines);
        self.tracked = other.tracked;
        self.invalidations = other.invalidations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        Directory::new(8)
    }

    #[test]
    fn read_read_no_invalidation() {
        let mut d = dir();
        assert_eq!(d.read(10, ProcId(0)), CoherenceResult::default());
        assert_eq!(d.read(10, ProcId(1)), CoherenceResult::default());
        assert_eq!(d.sharers(10), vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut d = dir();
        d.read(10, ProcId(0));
        d.read(10, ProcId(1));
        d.read(10, ProcId(2));
        let res = d.write(10, ProcId(0));
        assert_eq!(res.invalidate, vec![ProcId(1), ProcId(2)]);
        assert_eq!(d.sharers(10), vec![ProcId(0)]);
        assert_eq!(d.total_invalidations(), 2);
    }

    #[test]
    fn write_after_own_read_is_free() {
        let mut d = dir();
        d.read(10, ProcId(3));
        let res = d.write(10, ProcId(3));
        assert!(res.invalidate.is_empty());
        assert!(!res.intervention);
    }

    #[test]
    fn read_of_exclusive_line_is_intervention() {
        let mut d = dir();
        d.write(10, ProcId(0));
        let res = d.read(10, ProcId(1));
        assert!(res.intervention);
        assert!(res.invalidate.is_empty());
        // Both now share it.
        assert_eq!(d.sharers(10), vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn write_of_exclusive_line_invalidates_and_intervenes() {
        let mut d = dir();
        d.write(10, ProcId(0));
        let res = d.write(10, ProcId(1));
        assert_eq!(res.invalidate, vec![ProcId(0)]);
        assert!(res.intervention);
    }

    #[test]
    fn evict_removes_sharer() {
        let mut d = dir();
        d.read(10, ProcId(0));
        d.read(10, ProcId(1));
        d.evict(10, ProcId(1));
        let res = d.write(10, ProcId(0));
        assert!(
            res.invalidate.is_empty(),
            "evicted sharer must not be invalidated"
        );
    }

    #[test]
    fn fully_evicted_line_dropped() {
        let mut d = dir();
        d.read(10, ProcId(0));
        d.evict(10, ProcId(0));
        assert_eq!(d.tracked_lines(), 0);
        // Evicting a line nobody holds changes nothing.
        d.evict(10, ProcId(0));
        d.evict(1 << 20, ProcId(0));
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn high_proc_ids_fit_bitmap() {
        let mut d = dir();
        d.read(1, ProcId(127));
        let res = d.write(1, ProcId(0));
        assert_eq!(res.invalidate, vec![ProcId(127)]);
    }

    #[test]
    fn sums_invalidations_and_tracked_lines_across_frames() {
        let mut d = dir();
        d.read(1, ProcId(0));
        d.read(1, ProcId(1));
        let res = d.write(1, ProcId(0));
        assert_eq!(res.invalidate, vec![ProcId(1)]);
        // A line of another frame.
        d.read(8 * 5 + 2, ProcId(2));
        d.write(8 * 5 + 2, ProcId(3));
        assert_eq!(d.total_invalidations(), 2);
        assert_eq!(d.tracked_lines(), 2);
        d.clear_line(1);
        assert_eq!(d.tracked_lines(), 1);
        assert!(d.sharers(1).is_empty());
    }

    #[test]
    fn the_highest_frame_allocates_one_block_not_the_range() {
        // The unscaled 128-processor machine numbers about a million
        // frames of 128 lines each.
        let mut d = Directory::new(128);
        let last_frame = 64 * 16_000 - 1;
        let line = last_frame * 128 + 127;
        d.read(line, ProcId(5));
        assert_eq!(d.frame_blocks(), 1);
        assert_eq!(d.tracked_lines(), 1);
        assert_eq!(d.sharers(line), vec![ProcId(5)]);
        // Reading a neighbour frame's line never allocates.
        assert!(d.sharers(line - 128).is_empty());
        d.evict(line - 128, ProcId(5));
        assert_eq!(d.frame_blocks(), 1);
    }
}
