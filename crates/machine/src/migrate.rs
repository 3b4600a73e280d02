//! Reactive page migration: the OS-level alternative to explicit data
//! distribution that the paper's related work compares against
//! (Verghese et al. \[VDG+96\], the Origin-2000's per-page reference
//! counters).
//!
//! The machine keeps a per-page, per-node table of L2-miss reference
//! counters ([`RefCounters`]).  Every memory fill bumps the accessor
//! node's counter for the touched page.  At *epoch* boundaries (every
//! [`crate::MachineConfig::migration_epoch`] serial accesses, and at
//! every parallel-team join) the machine scans the
//! counters and asks the configured [`MigrationPolicy`] whether any
//! page should move.  A migrating page is remapped to the dominant
//! node through the same frame-free/shoot-down path as explicit
//! `place_page` redistribution, and the copy + TLB-shootdown cost is
//! charged through the hop-aware [`crate::CostModel`].
//!
//! Counter hygiene: a migrated page's counters reset to zero; every
//! other page's counters halve each epoch, so stale history decays and
//! a page cannot ping-pong on ancient reference patterns.

use crate::topology::NodeId;

/// When (and whether) the OS migrates pages toward the nodes that
/// reference them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationPolicy {
    /// No migration (the default; the paper's system relies on explicit
    /// directives instead).
    #[default]
    Off,
    /// Migrate when a remote node's reference count reaches `threshold`
    /// and exceeds the home node's count.
    Threshold {
        /// Minimum remote reference count before a page may move.
        threshold: u32,
    },
    /// Competitive (Verghese-style) rule: migrate only when the remote
    /// count reaches `threshold` *and* is at least twice the home
    /// node's, so a page shared evenly between nodes stays put.
    Competitive {
        /// Minimum remote reference count before a page may move.
        threshold: u32,
    },
}

impl MigrationPolicy {
    /// Reference-count trigger used when a policy is named without an
    /// explicit threshold (`--migrate=threshold`).
    pub const DEFAULT_THRESHOLD: u32 = 4;

    /// Threshold policy with the given trigger count.
    pub fn threshold(threshold: u32) -> Self {
        MigrationPolicy::Threshold { threshold }
    }

    /// Competitive policy with the given trigger count.
    pub fn competitive(threshold: u32) -> Self {
        MigrationPolicy::Competitive { threshold }
    }

    /// Whether this policy never migrates.
    pub fn is_off(&self) -> bool {
        matches!(self, MigrationPolicy::Off)
    }

    /// Parse `off`, `threshold[:N]` or `competitive[:N]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the expected syntax on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, thr) = match s.split_once(':') {
            Some((n, t)) => {
                let t: u32 = t
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| format!("invalid migration threshold `{t}` in `{s}`"))?;
                (n, t)
            }
            None => (s, Self::DEFAULT_THRESHOLD),
        };
        match name {
            "off" if !s.contains(':') => Ok(MigrationPolicy::Off),
            "threshold" => Ok(MigrationPolicy::Threshold { threshold: thr }),
            "competitive" => Ok(MigrationPolicy::Competitive { threshold: thr }),
            _ => Err(format!(
                "unknown migration policy `{s}` (expected off, threshold[:N] or competitive[:N])"
            )),
        }
    }

    /// Given one page's per-node reference counts and its current home,
    /// the node the page should migrate to (`None` to stay put).
    ///
    /// The dominant node is the highest count, lowest node index on
    /// ties — so the decision is deterministic for a given counter
    /// state regardless of scan order.
    pub fn decide(&self, counts: &[u32], home: NodeId) -> Option<NodeId> {
        let (thr, competitive) = match *self {
            MigrationPolicy::Off => return None,
            MigrationPolicy::Threshold { threshold } => (threshold, false),
            MigrationPolicy::Competitive { threshold } => (threshold, true),
        };
        let (dom, &dom_count) = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        if dom == home.0 || dom_count < thr {
            return None;
        }
        let home_count = counts.get(home.0).copied().unwrap_or(0);
        let wins = if competitive {
            dom_count >= 2 * home_count.max(1)
        } else {
            dom_count > home_count
        };
        wins.then_some(NodeId(dom))
    }
}

impl std::fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationPolicy::Off => write!(f, "off"),
            MigrationPolicy::Threshold { threshold } => write!(f, "threshold:{threshold}"),
            MigrationPolicy::Competitive { threshold } => write!(f, "competitive:{threshold}"),
        }
    }
}

/// Per-page, per-node reference counters (the Origin-2000 hub's
/// per-page counters), bumped by every memory fill.
///
/// Stored flat as `counts[vpage * n_nodes + node]`.  The table grows
/// with allocation (like [`crate::WordMem`]); increments saturate, so a
/// counter can neither overflow nor — being add/reset-only — underflow.
#[derive(Debug, Default, Clone)]
pub struct RefCounters {
    n_nodes: usize,
    counts: Vec<u32>,
}

impl RefCounters {
    pub(crate) fn new(n_nodes: usize) -> Self {
        RefCounters {
            n_nodes,
            counts: Vec::new(),
        }
    }

    /// Ensure the table covers virtual pages `0..pages`.
    pub(crate) fn grow_to(&mut self, pages: u64) {
        let need = pages as usize * self.n_nodes;
        if self.counts.len() < need {
            self.counts.resize(need, 0);
        }
    }

    /// Pages the table currently covers.
    pub fn pages(&self) -> u64 {
        self.counts.len().checked_div(self.n_nodes).unwrap_or(0) as u64
    }

    /// Record one reference to `vpage` from `node` (saturating).
    /// References to pages beyond the table are ignored.
    #[inline]
    pub fn record(&mut self, vpage: u64, node: NodeId) {
        let idx = vpage as usize * self.n_nodes + node.0;
        if let Some(c) = self.counts.get_mut(idx) {
            *c = c.saturating_add(1);
        }
    }

    /// One page's per-node counts (zeros when the page is beyond the
    /// table).
    pub fn counts(&self, vpage: u64) -> Vec<u32> {
        let base = vpage as usize * self.n_nodes;
        (0..self.n_nodes)
            .map(|n| self.counts.get(base + n).copied().unwrap_or(0))
            .collect()
    }

    /// Sum of every counter in the table.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// One page's counters, for update (empty beyond the table).
    fn page_mut(&mut self, vpage: u64) -> &mut [u32] {
        let base = (vpage as usize * self.n_nodes).min(self.counts.len());
        let end = (base + self.n_nodes).min(self.counts.len());
        &mut self.counts[base..end]
    }

    /// Zero one page's counters (it just migrated; history restarts).
    pub(crate) fn reset_page(&mut self, vpage: u64) {
        self.page_mut(vpage).fill(0);
    }

    /// Overwrite the table from a snapshot, reusing the allocation (the
    /// node count never changes for a given machine).
    pub(crate) fn restore(&mut self, other: &RefCounters) {
        self.counts.clone_from(&other.counts);
    }

    /// Halve one page's counters (end-of-epoch decay).
    pub(crate) fn decay_page(&mut self, vpage: u64) {
        for c in self.page_mut(vpage) {
            *c /= 2;
        }
    }
}

/// Running totals of the migration engine's work.
#[derive(Debug, Clone, Default)]
pub struct MigrationStats {
    /// Pages moved to a new home.
    pub pages_migrated: u64,
    /// Cycles charged for page copies and TLB shootdowns.
    pub migration_cycles: u64,
    /// Migration count per virtual page (feeds per-array attribution).
    pub per_page: std::collections::HashMap<u64, u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["off", "threshold:4", "competitive:16"] {
            assert_eq!(MigrationPolicy::parse(s).unwrap().to_string(), s);
        }
        assert_eq!(
            MigrationPolicy::parse("threshold").unwrap(),
            MigrationPolicy::threshold(MigrationPolicy::DEFAULT_THRESHOLD)
        );
        assert!(MigrationPolicy::parse("eager").is_err());
        assert!(MigrationPolicy::parse("threshold:0").is_err());
        assert!(MigrationPolicy::parse("off:3").is_err());
    }

    #[test]
    fn threshold_decides_on_dominance() {
        let p = MigrationPolicy::threshold(4);
        // Remote node 1 dominates: migrate there.
        assert_eq!(p.decide(&[2, 6], NodeId(0)), Some(NodeId(1)));
        // Below the trigger: stay.
        assert_eq!(p.decide(&[2, 3], NodeId(0)), None);
        // Home dominates: stay.
        assert_eq!(p.decide(&[9, 6], NodeId(0)), None);
        // Exact tie goes to the lower node (here the home): stay.
        assert_eq!(p.decide(&[6, 6], NodeId(0)), None);
    }

    #[test]
    fn competitive_needs_double_the_home_count() {
        let p = MigrationPolicy::competitive(4);
        assert_eq!(p.decide(&[3, 6], NodeId(0)), Some(NodeId(1)));
        // Dominant but not 2x: an evenly shared page stays put.
        assert_eq!(p.decide(&[5, 6], NodeId(0)), None);
        // Untouched home still needs the remote side to clear 2.
        assert_eq!(p.decide(&[0, 1], NodeId(0)), None);
        assert_eq!(p.decide(&[0, 4], NodeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn counters_saturate_and_reset() {
        let mut r = RefCounters::new(2);
        r.grow_to(2);
        r.counts[2] = u32::MAX;
        r.record(1, NodeId(0));
        assert_eq!(r.counts(1), vec![u32::MAX, 0]);
        r.record(1, NodeId(1));
        r.decay_page(1);
        assert_eq!(r.counts(1), vec![u32::MAX / 2, 0]);
        r.reset_page(1);
        assert_eq!(r.counts(1), vec![0, 0]);
        // Beyond the table: silently ignored.
        r.record(99, NodeId(0));
        assert_eq!(r.counts(99), vec![0, 0]);
    }
}
