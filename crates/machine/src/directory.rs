//! Directory-based invalidation cache-coherence protocol.
//!
//! Each Origin-2000 hub maintains a directory over the memory it homes,
//! tracking which processors cache each line and invalidating them on
//! writes (Section 2 of the paper).  We keep a machine-wide directory keyed
//! by physical line address with a sharer bitmap (up to [`MAX_PROCS`]),
//! sufficient to charge writers for invalidations and to count coherence
//! traffic — the effect behind cache-line false sharing in the
//! `(block,block)` convolution.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ProcId;

/// Hasher for line numbers: one multiply by the 64-bit golden ratio, high
/// half folded onto the low (the table takes its bucket from the low bits,
/// which a bare product would leave to the line's own low bits — equal
/// for every line of one directory shard). Keyed SipHash buys nothing:
/// the keys are the simulated program's own lines, and contriving
/// collisions would only slow that program's already-bounded run.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line numbers hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, line: u64) {
        let h = line.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

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

/// Machine-wide coherence directory (MSI-style).
#[derive(Debug, Clone, Default)]
pub struct Directory {
    lines: HashMap<u64, LineState, BuildHasherDefault<LineHasher>>,
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
    /// Create an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of physical line `line` by `proc`.
    ///
    /// If another processor held the line exclusive, it is downgraded (we
    /// model the downgrade as an intervention without an invalidation).
    pub fn read(&mut self, line: u64, proc: ProcId) -> CoherenceResult {
        let st = self.lines.entry(line).or_default();
        let me = 1u128 << proc.0;
        let mut res = CoherenceResult::default();
        if st.exclusive && st.sharers & !me != 0 {
            res.intervention = true;
            st.exclusive = false;
        }
        st.sharers |= me;
        res
    }

    /// Record a write of physical line `line` by `proc`.
    ///
    /// Every other sharer must be invalidated; the returned list tells the
    /// machine whose caches to purge and how many messages to charge.
    pub fn write(&mut self, line: u64, proc: ProcId) -> CoherenceResult {
        let st = self.lines.entry(line).or_default();
        let me = 1u128 << proc.0;
        let mut res = CoherenceResult::default();
        let others = st.sharers & !me;
        if others != 0 {
            res.intervention = st.exclusive;
            res.invalidate = procs_of(others);
            self.invalidations += res.invalidate.len() as u64;
        }
        st.sharers = me;
        st.exclusive = true;
        res
    }

    /// Note that `proc` silently dropped `line` (eviction). Keeps the
    /// directory from over-invalidating.
    pub fn evict(&mut self, line: u64, proc: ProcId) {
        if let Some(st) = self.lines.get_mut(&line) {
            st.sharers &= !(1u128 << proc.0);
            if st.sharers == 0 {
                self.lines.remove(&line);
            }
        }
    }

    /// Forget a line entirely (its physical frame was released). Unlike
    /// [`Directory::evict`] this drops every sharer at once.
    pub fn clear_line(&mut self, line: u64) {
        self.lines.remove(&line);
    }

    /// Current sharer set of a line (empty if uncached).
    pub fn sharers(&self, line: u64) -> Vec<ProcId> {
        self.lines
            .get(&line)
            .map_or_else(Vec::new, |st| procs_of(st.sharers))
    }

    /// Total invalidation messages sent since construction.
    pub fn total_invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of tracked (cached-somewhere) lines.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_read_no_invalidation() {
        let mut d = Directory::new();
        assert_eq!(d.read(10, ProcId(0)), CoherenceResult::default());
        assert_eq!(d.read(10, ProcId(1)), CoherenceResult::default());
        assert_eq!(d.sharers(10), vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut d = Directory::new();
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
        let mut d = Directory::new();
        d.read(10, ProcId(3));
        let res = d.write(10, ProcId(3));
        assert!(res.invalidate.is_empty());
        assert!(!res.intervention);
    }

    #[test]
    fn read_of_exclusive_line_is_intervention() {
        let mut d = Directory::new();
        d.write(10, ProcId(0));
        let res = d.read(10, ProcId(1));
        assert!(res.intervention);
        assert!(res.invalidate.is_empty());
        // Both now share it.
        assert_eq!(d.sharers(10), vec![ProcId(0), ProcId(1)]);
    }

    #[test]
    fn write_of_exclusive_line_invalidates_and_intervenes() {
        let mut d = Directory::new();
        d.write(10, ProcId(0));
        let res = d.write(10, ProcId(1));
        assert_eq!(res.invalidate, vec![ProcId(0)]);
        assert!(res.intervention);
    }

    #[test]
    fn evict_removes_sharer() {
        let mut d = Directory::new();
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
        let mut d = Directory::new();
        d.read(10, ProcId(0));
        d.evict(10, ProcId(0));
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn high_proc_ids_fit_bitmap() {
        let mut d = Directory::new();
        d.read(1, ProcId(127));
        let res = d.write(1, ProcId(0));
        assert_eq!(res.invalidate, vec![ProcId(127)]);
    }
}
