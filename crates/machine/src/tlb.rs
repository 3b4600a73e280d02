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
//! Neither a hit nor a miss scans. The entries are threaded on two
//! intrusive lists: a hash chain per bucket of the page number — an exact
//! page → position index, so the end of a (usually empty or one-entry)
//! chain *proves* absence — and a recency list from most to least
//! recently used, whose tail is the entry a timestamp scan would pick
//! (every probe touches exactly one entry, so recency is a total order).
//! Hits, evictions and shootdowns are those of the scan-and-stamp TLB the
//! proptests keep as the reference.

use crate::pagetable::Mapping;

/// Hash buckets (power of two): four per entry of the R10000's TLB.
const BUCKETS: usize = 256;

/// "No entry" in the intrusive links.
const NIL: u16 = u16::MAX;

/// Page number of a free slot; no access produces it (page numbers are
/// addresses shifted right by the page bits).
const NO_PAGE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpage: u64,
    mapping: Mapping,
    /// Recency list, towards the most recently used entry.
    newer: u16,
    /// Recency list, towards the least recently used entry.
    older: u16,
    /// Next entry of the same hash bucket — or, on a free slot, the next
    /// free slot.
    chain: u16,
}

/// A per-processor translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Slots, allocated on demand up to `capacity`; a position is stable
    /// for as long as the entry lives.
    entries: Vec<Entry>,
    buckets: [u16; BUCKETS],
    mru: u16,
    lru: u16,
    /// Head of the free-slot list (slots emptied by a shootdown).
    free: u16,
    len: usize,
    capacity: usize,
    /// Position the latest hit or fill touched.
    last: u16,
}

/// Multiplicative hash of the page number: strided page sequences (a
/// column walk) spread over the buckets as sequential ones do.
#[inline]
fn bucket(vpage: u64) -> usize {
    (vpage.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BUCKETS.trailing_zeros())) as usize
}

impl Tlb {
    /// Create an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the 16-bit links.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        assert!(capacity < NIL as usize, "TLB too large for 16-bit links");
        Tlb {
            entries: Vec::with_capacity(capacity),
            buckets: [NIL; BUCKETS],
            mru: NIL,
            lru: NIL,
            free: NIL,
            len: 0,
            capacity,
            last: NIL,
        }
    }

    /// Probe the TLB for `vpage`. A hit refreshes the entry's recency and
    /// returns its translation; a miss returns `None` and the caller
    /// refills with [`Tlb::fill`] once it has walked the page table.
    #[inline]
    pub fn lookup(&mut self, vpage: u64) -> Option<Mapping> {
        let mut pos = self.buckets[bucket(vpage)];
        while pos != NIL {
            let e = &self.entries[pos as usize];
            if e.vpage == vpage {
                let mapping = e.mapping;
                self.touch(pos);
                return Some(mapping);
            }
            pos = e.chain;
        }
        None
    }

    /// [`Tlb::lookup`] for a caller that remembers where `vpage` was: a hit
    /// (recency refreshed, translation returned) if the entry at `pos`
    /// still holds the page, `None` — and nothing touched — if not. Any
    /// `pos` is a valid guess.
    #[inline]
    pub fn hit_at(&mut self, pos: u16, vpage: u64) -> Option<Mapping> {
        let e = self.entries.get(pos as usize)?;
        if e.vpage != vpage {
            return None;
        }
        let mapping = e.mapping;
        self.touch(pos);
        Some(mapping)
    }

    /// Position of the entry the latest hit or fill touched — what
    /// [`Tlb::hit_at`] wants to be told next time.
    #[inline]
    pub fn last_pos(&self) -> u16 {
        self.last
    }

    /// Make `pos` the most recently used entry.
    #[inline]
    fn touch(&mut self, pos: u16) {
        self.last = pos;
        if self.mru != pos {
            self.unlink_recency(pos);
            self.push_mru(pos);
        }
    }

    fn unlink_recency(&mut self, pos: u16) {
        let Entry { newer, older, .. } = self.entries[pos as usize];
        match newer {
            NIL => self.mru = older,
            n => self.entries[n as usize].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.entries[o as usize].newer = newer,
        }
    }

    fn push_mru(&mut self, pos: u16) {
        let e = &mut self.entries[pos as usize];
        e.newer = NIL;
        e.older = self.mru;
        match self.mru {
            NIL => self.lru = pos,
            m => self.entries[m as usize].newer = pos,
        }
        self.mru = pos;
    }

    /// Take the entry at `pos` off its hash chain.
    fn unlink_chain(&mut self, pos: u16) {
        let Entry { vpage, chain, .. } = self.entries[pos as usize];
        let b = bucket(vpage);
        if self.buckets[b] == pos {
            self.buckets[b] = chain;
            return;
        }
        let mut at = self.buckets[b];
        while self.entries[at as usize].chain != pos {
            at = self.entries[at as usize].chain;
        }
        self.entries[at as usize].chain = chain;
    }

    /// Refill after a missed [`Tlb::lookup`] of `vpage`, evicting the least
    /// recently used entry if the TLB is full. The new entry is the most
    /// recently used.
    pub fn fill(&mut self, vpage: u64, mapping: Mapping) {
        debug_assert!(self.entries.iter().all(|e| e.vpage != vpage));
        let pos = if self.len == self.capacity {
            let pos = self.lru;
            self.unlink_recency(pos);
            self.unlink_chain(pos);
            pos
        } else {
            self.len += 1;
            match self.free {
                NIL => {
                    self.entries.push(Entry {
                        vpage,
                        mapping,
                        newer: NIL,
                        older: NIL,
                        chain: NIL,
                    });
                    (self.entries.len() - 1) as u16
                }
                pos => {
                    self.free = self.entries[pos as usize].chain;
                    pos
                }
            }
        };
        let b = bucket(vpage);
        let e = &mut self.entries[pos as usize];
        e.vpage = vpage;
        e.mapping = mapping;
        e.chain = self.buckets[b];
        self.buckets[b] = pos;
        self.push_mru(pos);
        self.last = pos;
    }

    /// Drop the translation for `vpage` (page remap / migration shootdown).
    pub fn invalidate(&mut self, vpage: u64) {
        let mut pos = self.buckets[bucket(vpage)];
        while pos != NIL && self.entries[pos as usize].vpage != vpage {
            pos = self.entries[pos as usize].chain;
        }
        if pos == NIL {
            return;
        }
        self.unlink_recency(pos);
        self.unlink_chain(pos);
        let e = &mut self.entries[pos as usize];
        e.vpage = NO_PAGE;
        e.chain = self.free;
        self.free = pos;
        self.len -= 1;
    }

    /// Drop every cached translation.
    pub fn flush(&mut self) {
        *self = Tlb::new(self.capacity);
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    fn pages_of_one_bucket_chain() {
        let mut t = Tlb::new(4);
        let a = 5;
        let b = (a + 1..).find(|&p| bucket(p) == bucket(a)).expect("a colliding page");
        access(&mut t, a);
        access(&mut t, b); // heads a's chain
        assert!(access(&mut t, a), "found behind b");
        assert!(access(&mut t, b));
        t.invalidate(a); // unlinked from the middle of the chain
        assert!(access(&mut t, b));
        assert!(!access(&mut t, a), "refilled into the freed slot");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remembered_positions_are_checked() {
        let mut t = Tlb::new(2);
        access(&mut t, 1);
        let pos = t.last_pos();
        assert_eq!(t.hit_at(pos, 1), Some(map(1001)));
        assert_eq!(t.hit_at(pos, 2), None, "another page");
        assert_eq!(t.hit_at(9, 1), None, "no such slot");
        access(&mut t, 2);
        assert_eq!(t.hit_at(pos, 1), Some(map(1001)), "1 is the MRU again");
        access(&mut t, 3); // evicts 2, not 1
        assert!(access(&mut t, 1));
        t.invalidate(1);
        assert_eq!(t.hit_at(pos, 1), None, "shot down");
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
