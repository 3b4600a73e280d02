//! State shared by every simulated processor.
//!
//! The machine splits into two halves:
//!
//! * **per-processor** state — L1/L2 caches, TLB, counters, cycle clock —
//!   lives in `Processor`;
//! * **shared** state — the page table, the coherence directory, the flat
//!   data store, per-node service counts and the migration reference
//!   counters — lives here.
//!
//! Both are plain owned data. The [`crate::Machine`] owns them, and a
//! [`crate::MachineShard`] borrows the whole machine for one processor's
//! operation, so a writer's coherence action purges the other sharers'
//! caches at once. A TLB entry carries its page's translation, which
//! cannot go stale: every remap goes through `Machine::retire_frame`,
//! which drops the page from every TLB.

use crate::directory::Directory;
use crate::migrate::RefCounters;
use crate::pagetable::PageTable;

/// The flat simulated data store, one `u64` per 8 bytes.
#[derive(Debug, Default, Clone)]
pub struct WordMem {
    words: Vec<u64>,
}

impl WordMem {
    /// Ensure at least `bytes` bytes are addressable.
    pub fn grow_to(&mut self, bytes: u64) {
        let need = (bytes as usize).div_ceil(8);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }

    #[inline]
    fn word(&self, idx: usize, addr: u64) -> u64 {
        *self
            .words
            .get(idx)
            .unwrap_or_else(|| panic!("address {addr:#x} outside any allocated region"))
    }

    #[inline]
    fn word_mut(&mut self, idx: usize, addr: u64) -> &mut u64 {
        self.words
            .get_mut(idx)
            .unwrap_or_else(|| panic!("address {addr:#x} outside any allocated region"))
    }

    /// Load 8 bytes at `addr` (little-endian byte order, like the previous
    /// `Vec<u8>` store).
    #[inline]
    pub fn load_u64(&self, addr: u64) -> u64 {
        let idx = (addr / 8) as usize;
        let sh = (addr % 8) * 8;
        if sh == 0 {
            self.word(idx, addr)
        } else {
            // Straddling load: splice two words.
            let lo = self.word(idx, addr);
            let hi = self.word(idx + 1, addr);
            (lo >> sh) | (hi << (64 - sh))
        }
    }

    /// Store 8 bytes at `addr`.
    #[inline]
    pub fn store_u64(&mut self, addr: u64, v: u64) {
        let idx = (addr / 8) as usize;
        let sh = (addr % 8) * 8;
        if sh == 0 {
            *self.word_mut(idx, addr) = v;
        } else {
            let lo = self.word_mut(idx, addr);
            *lo = (*lo & !(u64::MAX << sh)) | (v << sh);
            let hi = self.word_mut(idx + 1, addr);
            *hi = (*hi & (u64::MAX << sh)) | (v >> (64 - sh));
        }
    }
}

/// Machine state every processor reaches: page table (including frame
/// free lists and pin bits), coherence directory, word store, per-node
/// service counts and migration reference counters.
///
/// A clone is a bit-exact snapshot; [`crate::Machine::restore`] writes
/// one back without re-allocating the large tables.
#[derive(Debug, Clone)]
pub struct SharedState {
    pub(crate) pt: PageTable,
    pub(crate) dir: Directory,
    pub(crate) mem: WordMem,
    pub(crate) node_served: Vec<u64>,
    /// Per-page per-node reference counters feeding the migration
    /// daemon; grown (like `mem`) by allocation.
    pub(crate) refs: RefCounters,
}

impl SharedState {
    pub(crate) fn new(pt: PageTable, lines_per_frame: usize, n_nodes: usize) -> Self {
        SharedState {
            pt,
            dir: Directory::new(lines_per_frame),
            mem: WordMem::default(),
            node_served: vec![0; n_nodes],
            refs: RefCounters::new(n_nodes),
        }
    }

    /// Overwrite all shared state from a snapshot taken on a machine of
    /// identical geometry, bit-for-bit, reusing this state's allocations.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's node count differs.
    pub(crate) fn restore(&mut self, snap: &SharedState) {
        assert_eq!(
            snap.node_served.len(),
            self.node_served.len(),
            "node count mismatch between snapshot and machine"
        );
        self.pt.clone_from(&snap.pt);
        self.dir.restore(&snap.dir);
        self.mem.words.clone_from(&snap.mem.words);
        self.node_served.clone_from(&snap.node_served);
        self.refs.restore(&snap.refs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wordmem_round_trips_aligned_and_straddling() {
        let mut m = WordMem::default();
        m.grow_to(64);
        m.store_u64(8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.load_u64(8), 0x0123_4567_89ab_cdef);
        // Straddling store/load across a word boundary.
        m.store_u64(13, 0xfeed_face_dead_beef);
        assert_eq!(m.load_u64(13), 0xfeed_face_dead_beef);
        // Bytes 8..13 were not touched by the store at 13.
        assert_eq!(
            m.load_u64(8) & 0xff_ffff_ffff,
            0x0123_4567_89ab_cdef & 0xff_ffff_ffff
        );
    }

    #[test]
    #[should_panic(expected = "outside any allocated region")]
    fn wordmem_bounds_checked() {
        let m = WordMem::default();
        m.load_u64(0);
    }
}
