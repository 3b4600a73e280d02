//! Per-array / per-region attribution of memory behavior.
//!
//! The paper's whole argument is about *where* references land (local
//! vs. remote memory, Sections 3–4 and 8), but hardware counters are
//! machine-wide: they say *that* remote misses happened, not *which array*
//! or *which doacross region* caused them. This module adds the missing
//! attribution layer.
//!
//! The interpreter tags each access it issues with an [`AccessTag`] — the
//! interned symbol of the array being touched and the id of the enclosing
//! parallel region — via [`crate::Machine::set_tag`] /
//! [`crate::MachineShard::set_tag`]. The access pipeline then credits the
//! outcome (L1/L2 hit, local or remote memory fill with hop count, TLB
//! miss, invalidations sent) to that tag in the issuing processor's private
//! [`AttributionTable`].
//!
//! Tables are strictly per-processor — each processor's state carries its
//! own — and are merged with [`AttributionTable::merge`] only when a
//! report is assembled. When profiling is off (`Processor::attr == None`)
//! the entire machinery costs one branch per pipeline exit.
//!
//! Besides per-tag counters the table keeps a per-page record of which
//! *node* missed to each page ([`PageAttr`]), which lets a report compare a
//! page's home node against its dominant accessor — the signature of an
//! array that wants `c$distribute_reshape` rather than page-granularity
//! placement.

use std::collections::HashMap;

use crate::machine::AccessKind;
use crate::topology::NodeId;

/// Interned symbol id meaning "no array known" (accesses issued outside any
/// tagged context, e.g. test drivers poking the machine directly).
pub const UNTAGGED_SYM: u32 = u32::MAX;

/// Region id meaning "serial code" (outside any parallel region).
pub const SERIAL_REGION: u32 = u32::MAX;

/// What the interpreter was touching when it issued an access: the interned
/// array symbol and the enclosing parallel-region id. Both default to the
/// sentinel "unknown" values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessTag {
    /// Interned array symbol ([`crate::Machine::intern_symbol`]), or
    /// [`UNTAGGED_SYM`].
    pub sym: u32,
    /// Parallel-region id assigned by the executor, or [`SERIAL_REGION`].
    pub region: u32,
}

impl Default for AccessTag {
    fn default() -> Self {
        AccessTag {
            sym: UNTAGGED_SYM,
            region: SERIAL_REGION,
        }
    }
}

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillLevel {
    /// Satisfied by the L1 cache.
    L1,
    /// Satisfied by the L2 cache.
    L2,
    /// Went to memory.
    Mem {
        /// Home node of the page was the accessor's own node.
        local: bool,
        /// Router hops to the home node (0 when local).
        hops: u32,
    },
}

/// Attribution counters for one (array, region) tag. Field meanings mirror
/// [`crate::CounterSet`]; only the events attributable to a specific access
/// are kept here (cycles, for example, are not, because barrier levelling
/// rewrites clocks after the fact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Loads issued under this tag.
    pub loads: u64,
    /// Stores issued under this tag.
    pub stores: u64,
    /// Accesses satisfied by the L1 cache.
    pub l1_hits: u64,
    /// Accesses satisfied by the L2 cache.
    pub l2_hits: u64,
    /// Memory fills served by the accessor's own node.
    pub local_misses: u64,
    /// Memory fills served by a remote node.
    pub remote_misses: u64,
    /// Total router hops over all remote fills (for the mean distance).
    pub remote_hops: u64,
    /// TLB refills taken under this tag.
    pub tlb_misses: u64,
    /// Coherence invalidations this tag's writes sent to other caches.
    pub invalidations_sent: u64,
}

impl TagStats {
    /// Total accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Accesses that missed L1.
    pub fn l1_misses(&self) -> u64 {
        self.accesses() - self.l1_hits
    }

    /// Accesses that went to memory.
    pub fn mem_fills(&self) -> u64 {
        self.local_misses + self.remote_misses
    }

    /// Fraction of memory fills that were remote, or 0.0 when none.
    pub fn remote_fraction(&self) -> f64 {
        let fills = self.mem_fills();
        if fills == 0 {
            0.0
        } else {
            self.remote_misses as f64 / fills as f64
        }
    }

    /// Mean router hops per remote fill, or 0.0 when none.
    pub fn mean_hops(&self) -> f64 {
        if self.remote_misses == 0 {
            0.0
        } else {
            self.remote_hops as f64 / self.remote_misses as f64
        }
    }

    /// Sum this tag's counters with another's.
    pub fn add(&mut self, o: &TagStats) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.local_misses += o.local_misses;
        self.remote_misses += o.remote_misses;
        self.remote_hops += o.remote_hops;
        self.tlb_misses += o.tlb_misses;
        self.invalidations_sent += o.invalidations_sent;
    }
}

/// Per-page memory-fill attribution: which array the page belongs to (last
/// tag to miss on it) and how many fills each node took from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageAttr {
    /// Interned symbol of the array whose accesses missed on this page.
    pub sym: u32,
    /// Fills served to the page's own home node.
    pub local: u64,
    /// Fills served to other nodes.
    pub remote: u64,
    /// Fills broken down by accessing node.
    pub by_node: Vec<u64>,
}

impl PageAttr {
    fn new(sym: u32, n_nodes: usize) -> Self {
        PageAttr {
            sym,
            local: 0,
            remote: 0,
            by_node: vec![0; n_nodes],
        }
    }

    /// Node that took the most fills from this page (ties break low).
    pub fn dominant_node(&self) -> NodeId {
        let mut best = 0;
        for (i, &c) in self.by_node.iter().enumerate() {
            if c > self.by_node[best] {
                best = i;
            }
        }
        NodeId(best)
    }
}

/// One processor's private attribution table: per-tag outcome counters plus
/// per-page fill counts. Lives inside the processor (no sharing, no locks);
/// merged across the team when a report is assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionTable {
    n_nodes: usize,
    tags: HashMap<AccessTag, TagStats>,
    pages: HashMap<u64, PageAttr>,
}

impl AttributionTable {
    /// Empty table for a machine with `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        AttributionTable {
            n_nodes,
            tags: HashMap::new(),
            pages: HashMap::new(),
        }
    }

    /// Number of nodes the per-page breakdown covers.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Record one finished access under `tag`.
    #[inline]
    pub fn note_access(
        &mut self,
        tag: AccessTag,
        kind: AccessKind,
        tlb_miss: bool,
        level: FillLevel,
    ) {
        let s = self.tags.entry(tag).or_default();
        match kind {
            AccessKind::Read => s.loads += 1,
            AccessKind::Write => s.stores += 1,
        }
        if tlb_miss {
            s.tlb_misses += 1;
        }
        match level {
            FillLevel::L1 => s.l1_hits += 1,
            FillLevel::L2 => s.l2_hits += 1,
            FillLevel::Mem { local, hops } => {
                if local {
                    s.local_misses += 1;
                } else {
                    s.remote_misses += 1;
                    s.remote_hops += hops as u64;
                }
            }
        }
    }

    /// Record a memory fill against the page it hit: `accessor` took a line
    /// from `vpage`, which was `local` iff the page's home is the
    /// accessor's node.
    #[inline]
    pub fn note_page_fill(&mut self, tag: AccessTag, vpage: u64, accessor: NodeId, local: bool) {
        let n = self.n_nodes;
        let pa = self
            .pages
            .entry(vpage)
            .or_insert_with(|| PageAttr::new(tag.sym, n));
        if pa.sym == UNTAGGED_SYM {
            pa.sym = tag.sym; // adopt the first real symbol seen
        }
        if local {
            pa.local += 1;
        } else {
            pa.remote += 1;
        }
        if accessor.0 < pa.by_node.len() {
            pa.by_node[accessor.0] += 1;
        }
    }

    /// Record `n` coherence invalidations sent by a write under `tag`.
    #[inline]
    pub fn note_invalidations(&mut self, tag: AccessTag, n: u64) {
        self.tags.entry(tag).or_default().invalidations_sent += n;
    }

    /// Fold another processor's table into this one (team join).
    pub fn merge(&mut self, other: &AttributionTable) {
        for (tag, stats) in &other.tags {
            self.tags.entry(*tag).or_default().add(stats);
        }
        for (vpage, pa) in &other.pages {
            let mine = self
                .pages
                .entry(*vpage)
                .or_insert_with(|| PageAttr::new(pa.sym, pa.by_node.len()));
            if mine.sym == UNTAGGED_SYM {
                mine.sym = pa.sym;
            }
            mine.local += pa.local;
            mine.remote += pa.remote;
            for (i, c) in pa.by_node.iter().enumerate() {
                if i < mine.by_node.len() {
                    mine.by_node[i] += c;
                }
            }
        }
    }

    /// Iterate over the (tag, stats) pairs.
    pub fn tags(&self) -> impl Iterator<Item = (&AccessTag, &TagStats)> {
        self.tags.iter()
    }

    /// Iterate over the (vpage, page-attribution) pairs.
    pub fn pages(&self) -> impl Iterator<Item = (&u64, &PageAttr)> {
        self.pages.iter()
    }

    /// Sum of stats over every tag (should equal the machine-wide counter
    /// totals for the attributable fields when every access was issued
    /// through the tagged path).
    pub fn grand_total(&self) -> TagStats {
        let mut t = TagStats::default();
        for s in self.tags.values() {
            t.add(s);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_tags_and_pages() {
        let tag = AccessTag { sym: 0, region: 1 };
        let mut a = AttributionTable::new(2);
        let mut b = AttributionTable::new(2);
        a.note_access(
            tag,
            AccessKind::Read,
            false,
            FillLevel::Mem {
                local: true,
                hops: 0,
            },
        );
        a.note_page_fill(tag, 7, NodeId(0), true);
        b.note_access(
            tag,
            AccessKind::Write,
            true,
            FillLevel::Mem {
                local: false,
                hops: 2,
            },
        );
        b.note_page_fill(tag, 7, NodeId(1), false);
        b.note_invalidations(tag, 3);
        a.merge(&b);
        let t = a.grand_total();
        assert_eq!(t.loads, 1);
        assert_eq!(t.stores, 1);
        assert_eq!(t.local_misses, 1);
        assert_eq!(t.remote_misses, 1);
        assert_eq!(t.remote_hops, 2);
        assert_eq!(t.tlb_misses, 1);
        assert_eq!(t.invalidations_sent, 3);
        let (_, pa) = a.pages().next().unwrap();
        assert_eq!(pa.local, 1);
        assert_eq!(pa.remote, 1);
        assert_eq!(pa.by_node, vec![1, 1]);
    }

    #[test]
    fn dominant_node_breaks_ties_low() {
        let mut pa = PageAttr::new(0, 3);
        pa.by_node = vec![2, 5, 5];
        assert_eq!(pa.dominant_node(), NodeId(1));
    }
}
