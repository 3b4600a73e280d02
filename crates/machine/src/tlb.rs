//! Fully-associative TLB with LRU replacement.
//!
//! The R10000 has a 64-entry fully associative TLB with a software refill
//! handler; the paper's matrix-transpose analysis (Section 8.2) shows the
//! round-robin version spending ~15% of its time in TLB misses while the
//! reshaped version — whose portions are contiguous and therefore touch far
//! fewer pages — spends less than half that.
//!
//! Like the real one, an entry holds the page's translation, not just its
//! tag: a hit hands the [`Mapping`] back and the access pipeline never
//! looks at the page table. That is exact because a mapping only changes
//! through a remap, and every remap shoots the page out of every TLB
//! (`Machine::retire_frame`); pages are never unmapped.
//!
//! A hit is found without scanning: `hints`, indexed by the low bits of
//! the page number, remembers where such a page was last placed or found.
//! A hint is only a guess — stale once a shootdown moved an entry, shared
//! by pages equal modulo `HINTS`, truncated past `u16` — so it is checked
//! on use and a mismatch falls back to the scan: hits, evictions and LRU
//! ticks are those of the plain scan.

use crate::pagetable::Mapping;

/// Position hints (power of two): four per entry of the R10000's TLB.
const HINTS: usize = 256;

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpage: u64,
    /// LRU timestamp; larger = more recently used.
    lru: u64,
    mapping: Mapping,
}

/// A per-processor translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<Entry>,
    hints: [u16; HINTS],
    capacity: usize,
    tick: u64,
}

impl Tlb {
    /// Create an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            hints: [0; HINTS],
            capacity,
            tick: 0,
        }
    }

    /// Probe the TLB for `vpage`. A hit refreshes the entry's recency and
    /// returns its translation; a miss returns `None` and the caller
    /// refills with [`Tlb::fill`] once it has walked the page table.
    #[inline]
    pub fn lookup(&mut self, vpage: u64) -> Option<Mapping> {
        self.tick += 1;
        let hint = &mut self.hints[vpage as usize % HINTS];
        let mut pos = *hint as usize;
        if self.entries.get(pos).is_none_or(|e| e.vpage != vpage) {
            pos = self.entries.iter().position(|e| e.vpage == vpage)?;
            *hint = pos as u16;
        }
        let e = &mut self.entries[pos];
        e.lru = self.tick;
        Some(e.mapping)
    }

    /// Refill after a missed [`Tlb::lookup`] of `vpage`, evicting the least
    /// recently used entry if the TLB is full. The new entry is as recent
    /// as the lookup that missed.
    pub fn fill(&mut self, vpage: u64, mapping: Mapping) {
        debug_assert!(self.entries.iter().all(|e| e.vpage != vpage));
        let e = Entry {
            vpage,
            lru: self.tick,
            mapping,
        };
        let mut pos = self.entries.len();
        if pos < self.capacity {
            self.entries.push(e);
        } else {
            let lru = |i: &usize| self.entries[*i].lru;
            pos = (0..pos).min_by_key(lru).expect("non-empty TLB");
            self.entries[pos] = e;
        }
        self.hints[vpage as usize % HINTS] = pos as u16;
    }

    /// Drop the translation for `vpage` (page remap / migration shootdown).
    pub fn invalidate(&mut self, vpage: u64) {
        if let Some(pos) = self.entries.iter().position(|e| e.vpage == vpage) {
            self.entries.swap_remove(pos);
        }
    }

    /// Drop every cached translation.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn map(frame: u64) -> Mapping {
        Mapping {
            node: NodeId(0),
            frame,
        }
    }

    /// Probe and refill on a miss, as the access pipeline does; the frame
    /// doubles as a check that a hit returns what the fill stored.
    fn access(t: &mut Tlb, vpage: u64) -> bool {
        match t.lookup(vpage) {
            Some(m) => {
                assert_eq!(m, map(vpage + 1000));
                true
            }
            None => {
                t.fill(vpage, map(vpage + 1000));
                false
            }
        }
    }

    #[test]
    fn hit_after_refill() {
        let mut t = Tlb::new(4);
        assert!(!access(&mut t, 7));
        assert!(access(&mut t, 7));
    }

    #[test]
    fn lru_replacement() {
        let mut t = Tlb::new(2);
        access(&mut t, 1);
        access(&mut t, 2);
        access(&mut t, 1); // 2 is now LRU
        access(&mut t, 3); // evicts 2
        assert!(access(&mut t, 1));
        assert!(access(&mut t, 3));
        assert!(!access(&mut t, 2));
    }

    #[test]
    fn colliding_hints_fall_back_to_the_scan() {
        let mut t = Tlb::new(4);
        let (a, b) = (5, 5 + HINTS as u64);
        access(&mut t, a);
        access(&mut t, b); // takes over a's hint
        assert!(access(&mut t, a), "found by scan, hint repointed");
        assert!(access(&mut t, b));
        t.invalidate(a); // b moves into a's slot; its hint is now stale
        assert!(access(&mut t, b));
        assert!(!access(&mut t, a));
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut t = Tlb::new(4);
        access(&mut t, 9);
        t.invalidate(9);
        assert!(!access(&mut t, 9));
    }

    #[test]
    fn flush_empties() {
        let mut t = Tlb::new(4);
        access(&mut t, 1);
        access(&mut t, 2);
        t.flush();
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_respected() {
        let mut t = Tlb::new(3);
        for p in 0..100 {
            access(&mut t, p);
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }
}
