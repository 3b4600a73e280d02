//! The `Profile` section of a run report: per-array and per-region
//! attribution of memory behavior, assembled from the machine's merged
//! [`AttributionTable`].
//!
//! The table answers the question the raw counters cannot: *which array*
//! (and *which doacross*) caused the remote misses that a
//! `c$distribute_reshape` would fix. The per-page breakdown compares each
//! hot page's home node with its dominant accessor, which is exactly the
//! evidence the paper uses to argue for reshaping over page-granularity
//! placement (Sections 3–4, 8).

use std::fmt;

use dsm_ir::Dist;
use dsm_machine::{AttributionTable, Machine, NodeId, TagStats, SERIAL_REGION, UNTAGGED_SYM};
use dsm_runtime::DimDesc;

/// How many remote-heavy pages a profile keeps.
const TOP_PAGES: usize = 8;

/// Minimum memory fills before an array is eligible for a placement hint
/// (tiny arrays produce noise, not guidance).
const HINT_MIN_FILLS: u64 = 32;

/// Attribution rolled up for one array (over all regions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayProfile {
    /// Array name (as interned by the runtime; views appear as
    /// `name@view`).
    pub name: String,
    /// Summed outcome counters.
    pub stats: TagStats,
    /// Pages of this array moved by the reactive migration daemon.
    pub pages_migrated: u64,
}

/// Attribution rolled up for one parallel region (over all arrays), or for
/// serial code as a whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionProfile {
    /// Region label (`sub:do var`), or `(serial)`.
    pub label: String,
    /// Summed outcome counters.
    pub stats: TagStats,
}

/// Attribution of one (array, region) pair — the full-resolution cell the
/// rollups above are computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellProfile {
    /// Array name.
    pub array: String,
    /// Region label, or `(serial)`.
    pub region: String,
    /// Outcome counters for accesses to this array inside this region.
    pub stats: TagStats,
}

/// One remote-heavy page: where it lives vs. who actually misses on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPage {
    /// Virtual page number.
    pub vpage: u64,
    /// Array whose accesses missed on the page.
    pub array: String,
    /// Node the page resides on.
    pub home: usize,
    /// Node that took the most fills from the page.
    pub dominant: usize,
    /// Fills served to the home node.
    pub local: u64,
    /// Fills served to other nodes.
    pub remote: u64,
}

/// Per-dimension distribution suggestion of a [`PlacementHint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimSuggestion {
    /// Distribute this dimension blockwise.
    Block,
    /// Leave this dimension undistributed (`*`).
    Star,
}

impl DimSuggestion {
    /// Directive spelling of the item.
    pub fn as_str(self) -> &'static str {
        match self {
            DimSuggestion::Block => "block",
            DimSuggestion::Star => "*",
        }
    }
}

/// The counters a [`PlacementHint`] is grounded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HintEvidence {
    /// Memory fills (local + remote misses) attributed to the array.
    pub mem_fills: u64,
    /// Fills served by a node other than the accessor's.
    pub remote_fills: u64,
    /// Pages of the array whose dominant accessor is not their home.
    pub misplaced_pages: usize,
}

impl HintEvidence {
    /// Remote share of the array's memory fills.
    pub fn remote_fraction(&self) -> f64 {
        if self.mem_fills == 0 {
            0.0
        } else {
            self.remote_fills as f64 / self.mem_fills as f64
        }
    }
}

/// One structured placement hint: an array whose memory fills are
/// dominated by remote traffic, together with the distribution the page
/// evidence suggests and the counters backing it. The advisor consumes
/// this struct; [`fmt::Display`] renders the human prose.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementHint {
    /// Array the hint applies to.
    pub array: String,
    /// Suggested distribution per dimension (Block on the dimension whose
    /// page-aligned spans best predict the dominant accessor nodes, `*`
    /// elsewhere). Empty when the array's shape was not visible to the
    /// profiler (e.g. formal-parameter views).
    pub suggested: Vec<DimSuggestion>,
    /// True when page-granularity placement cannot express the
    /// suggestion — per-node portions smaller than a page — i.e. the hint
    /// calls for `c$distribute_reshape` rather than `c$distribute`.
    pub reshape: bool,
    /// The counters that triggered the hint.
    pub evidence: HintEvidence,
}

impl PlacementHint {
    /// The suggested directive reference, e.g. `c$distribute_reshape
    /// b(block, *)` (falls back to `(...)` when the shape was unknown).
    pub fn directive(&self) -> String {
        let kw = if self.reshape {
            "c$distribute_reshape"
        } else {
            "c$distribute"
        };
        let items = if self.suggested.is_empty() {
            "...".to_string()
        } else {
            self.suggested
                .iter()
                .map(|d| d.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!("{kw} {}({items})", self.array)
    }
}

impl fmt::Display for PlacementHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}`: {:.0}% of its {} memory fills were remote ({} page(s) \
             dominated by a non-home node) — consider `{}` \
             or an affinity schedule that keeps its accessors on the home nodes",
            self.array,
            self.evidence.remote_fraction() * 100.0,
            self.evidence.mem_fills,
            self.evidence.misplaced_pages,
            self.directive(),
        )
    }
}

/// The memory-behavior profile of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Per-array rollup, sorted by access count (descending).
    pub arrays: Vec<ArrayProfile>,
    /// Per-region rollup, in region-execution order; `(serial)` last.
    pub regions: Vec<RegionProfile>,
    /// Full-resolution (array, region) cells, sorted by remote misses
    /// (descending).
    pub cells: Vec<CellProfile>,
    /// Top remote-heavy pages (home vs. dominant accessor).
    pub hot_pages: Vec<HotPage>,
    /// Automatic placement hints ("this array wants `distribute_reshape`").
    pub hints: Vec<PlacementHint>,
    /// Total pages moved by the reactive migration daemon (0 with
    /// migration off).
    pub pages_migrated: u64,
    /// Cycles charged by the daemon for page copies and shootdowns.
    pub migration_cycles: u64,
}

impl Profile {
    /// Grand totals over every array row (equals the machine-wide counter
    /// totals for the attributable fields).
    pub fn totals(&self) -> TagStats {
        let mut t = TagStats::default();
        for a in &self.arrays {
            t.add(&a.stats);
        }
        t
    }

    /// The per-array row for `name`, if present.
    pub fn array(&self, name: &str) -> Option<&ArrayProfile> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// The (array, region) cell for `array` inside `region`, if present.
    pub fn cell(&self, array: &str, region: &str) -> Option<&CellProfile> {
        self.cells
            .iter()
            .find(|c| c.array == array && c.region == region)
    }

    /// Serialize as a self-contained JSON document (hand-rolled; the
    /// workspace is offline and carries no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"arrays\": [");
        for (i, a) in self.arrays.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            json_str(&mut s, "name", &a.name);
            s.push(',');
            json_stats(&mut s, &a.stats);
            s.push_str(&format!(", \"pages_migrated\": {}", a.pages_migrated));
            s.push('}');
        }
        s.push_str("\n  ],\n  \"regions\": [");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            json_str(&mut s, "label", &r.label);
            s.push(',');
            json_stats(&mut s, &r.stats);
            s.push('}');
        }
        s.push_str("\n  ],\n  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            json_str(&mut s, "array", &c.array);
            s.push(',');
            json_str(&mut s, "region", &c.region);
            s.push(',');
            json_stats(&mut s, &c.stats);
            s.push('}');
        }
        s.push_str("\n  ],\n  \"hot_pages\": [");
        for (i, p) in self.hot_pages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"vpage\": {}, ", p.vpage));
            json_str(&mut s, "array", &p.array);
            s.push_str(&format!(
                ", \"home\": {}, \"dominant\": {}, \"local\": {}, \"remote\": {}",
                p.home, p.dominant, p.local, p.remote
            ));
            s.push('}');
        }
        s.push_str("\n  ],\n  \"hints\": [");
        for (i, h) in self.hints.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            json_str(&mut s, "array", &h.array);
            s.push_str(", \"dists\": [");
            for (j, d) in h.suggested.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push('"');
                s.push_str(d.as_str());
                s.push('"');
            }
            s.push_str(&format!(
                "], \"reshape\": {}, \"mem_fills\": {}, \"remote_fills\": {}, \
                 \"misplaced_pages\": {}, ",
                h.reshape,
                h.evidence.mem_fills,
                h.evidence.remote_fills,
                h.evidence.misplaced_pages
            ));
            json_str(&mut s, "text", &h.to_string());
            s.push('}');
        }
        s.push_str(&format!(
            "\n  ],\n  \"pages_migrated\": {},\n  \"migration_cycles\": {}\n}}\n",
            self.pages_migrated, self.migration_cycles
        ));
        s
    }
}

fn json_str(out: &mut String, key: &str, v: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    crate::wire::push_json_str(out, v);
}

fn json_stats(out: &mut String, s: &TagStats) {
    out.push_str(&format!(
        "\"loads\": {}, \"stores\": {}, \"l1_hits\": {}, \"l2_hits\": {}, \
         \"local_misses\": {}, \"remote_misses\": {}, \"remote_hops\": {}, \
         \"tlb_misses\": {}, \"invalidations_sent\": {}",
        s.loads,
        s.stores,
        s.l1_hits,
        s.l2_hits,
        s.local_misses,
        s.remote_misses,
        s.remote_hops,
        s.tlb_misses,
        s.invalidations_sent
    ));
}

/// Build the user-facing [`Profile`] from the machine's merged attribution
/// table. `region_names` maps region ids to labels (execution order).
pub(crate) fn build_profile(
    attr: &AttributionTable,
    machine: &Machine,
    region_names: &[String],
    shapes: &[(String, Vec<u64>)],
) -> Profile {
    let names = machine.symbol_names();
    let sym_name = |sym: u32| -> String {
        if sym == UNTAGGED_SYM {
            "(untagged)".to_string()
        } else {
            names
                .get(sym as usize)
                .cloned()
                .unwrap_or_else(|| format!("sym#{sym}"))
        }
    };
    let region_label = |region: u32| -> String {
        if region == SERIAL_REGION {
            "(serial)".to_string()
        } else {
            region_names
                .get(region as usize)
                .cloned()
                .unwrap_or_else(|| format!("region#{region}"))
        }
    };

    // Roll the (sym, region) tags up three ways.
    let mut by_sym: Vec<(u32, TagStats)> = Vec::new();
    let mut by_region: Vec<(u32, TagStats)> = Vec::new();
    let mut cells: Vec<(u32, u32, TagStats)> = Vec::new();
    for (tag, stats) in attr.tags() {
        roll(&mut by_sym, tag.sym, stats);
        roll(&mut by_region, tag.region, stats);
        match cells
            .iter_mut()
            .find(|(s, r, _)| *s == tag.sym && *r == tag.region)
        {
            Some((_, _, acc)) => acc.add(stats),
            None => cells.push((tag.sym, tag.region, *stats)),
        }
    }
    by_sym.sort_by(|a, b| b.1.accesses().cmp(&a.1.accesses()).then(a.0.cmp(&b.0)));
    // Regions in execution order, serial last.
    by_region.sort_by_key(|(r, _)| *r);
    cells.sort_by(|a, b| {
        b.2.remote_misses
            .cmp(&a.2.remote_misses)
            .then(b.2.accesses().cmp(&a.2.accesses()))
            .then((a.0, a.1).cmp(&(b.0, b.1)))
    });

    // Top remote-heavy pages, with home-vs-dominant evidence.
    let page_bits = machine.config().page_size.trailing_zeros();
    let mut pages: Vec<HotPage> = attr
        .pages()
        .filter(|(_, pa)| pa.remote > 0)
        .map(|(&vpage, pa)| {
            let home = machine.home_of(vpage << page_bits).unwrap_or(NodeId(0)).0;
            HotPage {
                vpage,
                array: sym_name(pa.sym),
                home,
                dominant: pa.dominant_node().0,
                local: pa.local,
                remote: pa.remote,
            }
        })
        .collect();
    pages.sort_by(|a, b| b.remote.cmp(&a.remote).then(a.vpage.cmp(&b.vpage)));
    pages.truncate(TOP_PAGES);

    // Per-array migration attribution: the daemon reports which vpages it
    // moved; the attribution table knows which array owns each vpage.
    let mut migrated_by_sym: Vec<(u32, u64)> = Vec::new();
    for (vpage, n) in machine.migration_pages() {
        let sym = attr
            .pages()
            .find(|(&vp, _)| vp == vpage)
            .map(|(_, pa)| pa.sym)
            .unwrap_or(UNTAGGED_SYM);
        match migrated_by_sym.iter_mut().find(|(s, _)| *s == sym) {
            Some((_, c)) => *c += u64::from(n),
            None => migrated_by_sym.push((sym, u64::from(n))),
        }
    }

    // Placement hints: an array dominated by remote fills, whose pages are
    // mostly missed from nodes other than their homes, is the paper's
    // textbook case for `c$distribute_reshape`.
    let mut hints = Vec::new();
    let n_nodes = machine.config().n_nodes;
    let elems_per_page = (machine.config().page_size / 8).max(1);
    for &(sym, ref stats) in &by_sym {
        if sym == UNTAGGED_SYM
            || stats.mem_fills() < HINT_MIN_FILLS
            || stats.remote_misses <= stats.local_misses
        {
            continue;
        }
        let name = sym_name(sym);
        if name.ends_with("@view") {
            continue; // hint on the underlying array, not the window
        }
        let misplaced = attr
            .pages()
            .filter(|(_, pa)| pa.sym == sym && pa.remote > pa.local)
            .count();
        let dims = shapes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d.as_slice());
        let (suggested, reshape) = suggest_dims(attr, sym, dims, n_nodes, elems_per_page);
        hints.push(PlacementHint {
            array: name,
            suggested,
            reshape,
            evidence: HintEvidence {
                mem_fills: stats.mem_fills(),
                remote_fills: stats.remote_misses,
                misplaced_pages: misplaced,
            },
        });
    }

    Profile {
        arrays: by_sym
            .into_iter()
            .map(|(sym, stats)| ArrayProfile {
                name: sym_name(sym),
                stats,
                pages_migrated: migrated_by_sym
                    .iter()
                    .find(|(s, _)| *s == sym)
                    .map_or(0, |(_, c)| *c),
            })
            .collect(),
        regions: by_region
            .into_iter()
            .map(|(region, stats)| RegionProfile {
                label: region_label(region),
                stats,
            })
            .collect(),
        cells: cells
            .into_iter()
            .map(|(sym, region, stats)| CellProfile {
                array: sym_name(sym),
                region: region_label(region),
                stats,
            })
            .collect(),
        hot_pages: pages,
        hints,
        pages_migrated: machine.pages_migrated(),
        migration_cycles: machine.migration_cycles(),
    }
}

/// Pick the dimension whose blockwise partition best predicts each
/// remote page's dominant accessor node, `*` for the rest.
///
/// Pages are mapped back to (column-major) element indices relative to the
/// array's lowest touched page — the base address is not page-aligned, so
/// this is approximate by up to one page, which is fine for a hint. A
/// suggestion whose contiguous per-node run is smaller than a page cannot
/// be realized by page-granularity placement, so it is flagged `reshape`.
fn suggest_dims(
    attr: &AttributionTable,
    sym: u32,
    dims: Option<&[u64]>,
    n_nodes: usize,
    elems_per_page: usize,
) -> (Vec<DimSuggestion>, bool) {
    let Some(dims) = dims else {
        return (Vec::new(), true);
    };
    if dims.is_empty() || dims.contains(&0) || n_nodes == 0 {
        return (Vec::new(), true);
    }
    let pages: Vec<(u64, usize)> = attr
        .pages()
        .filter(|(_, pa)| pa.sym == sym && pa.remote > 0)
        .map(|(&vp, pa)| (vp, pa.dominant_node().0))
        .collect();
    let base = pages.iter().map(|&(vp, _)| vp).min().unwrap_or(0);
    let total: u64 = dims.iter().product();
    // Default to the outermost dimension: under column-major layout its
    // blocks are the contiguous ones, the safest page-level choice.
    let mut best = (dims.len() - 1, 0usize);
    for d in 0..dims.len() {
        let stride: u64 = dims[..d].iter().product();
        let node_of = DimDesc::new(dims[d], Dist::Block, n_nodes as u64);
        let mut agree = 0usize;
        for &(vp, dom) in &pages {
            let mid = ((vp - base) * elems_per_page as u64 + elems_per_page as u64 / 2)
                .min(total.saturating_sub(1));
            if node_of.owner((mid / stride) % dims[d]) as usize == dom {
                agree += 1;
            }
        }
        if agree > best.1 {
            best = (d, agree);
        }
    }
    let d = best.0;
    let suggested = (0..dims.len())
        .map(|i| {
            if i == d {
                DimSuggestion::Block
            } else {
                DimSuggestion::Star
            }
        })
        .collect();
    let stride: u64 = dims[..d].iter().product();
    let covers = block_covers_page(dims[d], stride, n_nodes, elems_per_page as u64);
    (suggested, !covers)
}

/// Can page-granularity placement honour `block` over `n_nodes` along a
/// dimension of `extent` indices, each `stride` elements of column-major
/// storage: does a node's run span at least a page (`elems_per_page`)?
/// The one copy of that test — the hints above flag `reshape` on it, the
/// advisor's static pruning calls it.
pub fn block_covers_page(extent: u64, stride: u64, n_nodes: usize, elems_per_page: u64) -> bool {
    stride * DimDesc::new(extent, Dist::Block, n_nodes as u64).chunk >= elems_per_page
}

fn roll(acc: &mut Vec<(u32, TagStats)>, key: u32, stats: &TagStats) {
    match acc.iter_mut().find(|(k, _)| *k == key) {
        Some((_, s)) => s.add(stats),
        None => acc.push((key, *stats)),
    }
}

fn write_stats_row(f: &mut fmt::Formatter<'_>, label: &str, s: &TagStats) -> fmt::Result {
    writeln!(
        f,
        "  {label:<24} {:>10} {:>8} {:>9} {:>9} {:>7.1}% {:>8} {:>7} {:>8.2}",
        s.accesses(),
        s.l1_misses(),
        s.local_misses,
        s.remote_misses,
        s.remote_fraction() * 100.0,
        s.tlb_misses,
        s.invalidations_sent,
        s.mean_hops(),
    )
}

const STATS_HEADER: &str =
    "                            accesses  L1-miss     local    remote  remote%  TLB-miss   inval avg-hops";

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== memory-behavior profile ===")?;
        writeln!(f, "per-array attribution:")?;
        writeln!(f, "{STATS_HEADER}")?;
        for a in &self.arrays {
            write_stats_row(f, &a.name, &a.stats)?;
        }
        writeln!(f, "per-region attribution:")?;
        writeln!(f, "{STATS_HEADER}")?;
        for r in &self.regions {
            write_stats_row(f, &r.label, &r.stats)?;
        }
        if !self.hot_pages.is_empty() {
            writeln!(f, "top remote-heavy pages:")?;
            for p in &self.hot_pages {
                writeln!(
                    f,
                    "  page {:#08x}  array={:<12} home=node{} dominant=node{}  local={} remote={}",
                    p.vpage, p.array, p.home, p.dominant, p.local, p.remote
                )?;
            }
        }
        if self.pages_migrated > 0 {
            let moved: Vec<String> = self
                .arrays
                .iter()
                .filter(|a| a.pages_migrated > 0)
                .map(|a| format!("{}={}", a.name, a.pages_migrated))
                .collect();
            writeln!(
                f,
                "migration: {} page(s) moved ({} cycles): {}",
                self.pages_migrated,
                self.migration_cycles,
                moved.join(" ")
            )?;
        }
        if self.hints.is_empty() {
            writeln!(f, "placement hints: none — placement looks healthy")?;
        } else {
            writeln!(f, "placement hints:")?;
            for h in &self.hints {
                writeln!(f, "  {h}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let stats = TagStats {
            loads: 10,
            stores: 5,
            l1_hits: 8,
            l2_hits: 3,
            local_misses: 1,
            remote_misses: 3,
            remote_hops: 5,
            tlb_misses: 2,
            invalidations_sent: 1,
        };
        Profile {
            arrays: vec![ArrayProfile {
                name: "a".into(),
                stats,
                pages_migrated: 2,
            }],
            regions: vec![RegionProfile {
                label: "(serial)".into(),
                stats,
            }],
            cells: vec![CellProfile {
                array: "a".into(),
                region: "(serial)".into(),
                stats,
            }],
            hot_pages: vec![HotPage {
                vpage: 3,
                array: "a".into(),
                home: 0,
                dominant: 1,
                local: 1,
                remote: 3,
            }],
            hints: vec![PlacementHint {
                array: "a".into(),
                suggested: vec![DimSuggestion::Block, DimSuggestion::Star],
                reshape: true,
                evidence: HintEvidence {
                    mem_fills: 4,
                    remote_fills: 3,
                    misplaced_pages: 1,
                },
            }],
            pages_migrated: 2,
            migration_cycles: 9000,
        }
    }

    #[test]
    fn display_mentions_sections_and_names() {
        let text = sample().to_string();
        assert!(text.contains("per-array attribution"));
        assert!(text.contains("per-region attribution"));
        assert!(text.contains("top remote-heavy pages"));
        assert!(text.contains("placement hints"));
        assert!(text.contains("(serial)"));
    }

    #[test]
    fn json_round_trips_fields() {
        let j = sample().to_json();
        assert!(j.contains("\"arrays\""));
        assert!(j.contains("\"remote_misses\": 3"));
        assert!(j.contains("\"dists\": [\"block\", \"*\"]"), "{j}");
        assert!(j.contains("\"reshape\": true"));
        assert!(j.contains("\"vpage\": 3"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escape_handles_specials() {
        let mut s = String::new();
        json_str(&mut s, "k", "a\"b\\c\n");
        assert_eq!(s, "\"k\": \"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn hint_prose_renders_directive() {
        let h = &sample().hints[0];
        let text = h.to_string();
        assert!(text.contains("`a`: 75% of its 4 memory fills were remote"));
        assert!(
            text.contains("`c$distribute_reshape a(block, *)`"),
            "{text}"
        );
    }

    #[test]
    fn totals_sum_rows() {
        let p = sample();
        assert_eq!(p.totals().accesses(), 15);
        assert!(p.array("a").is_some());
        assert!(p.cell("a", "(serial)").is_some());
    }
}
