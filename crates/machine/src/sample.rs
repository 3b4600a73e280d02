//! Statistically-sampled simulation: systematic cache-set sampling.
//!
//! At paper scale (1000²–5000² arrays on a 128-processor Origin) the exact
//! simulator spends almost all of its time in the cache/directory stages of
//! the access pipeline. Sampled mode keeps translation, data movement and
//! placement *exact* for every access, but simulates the cache hierarchy
//! and directory for only `1/N` of the machine's L2 sets — a deterministic,
//! seeded subset — and extrapolates the miss counts and miss cycles of the
//! remaining sets from per-set fill counters.
//!
//! # Why per-set sampling is exact for the sampled subset
//!
//! Both caches index modularly on the physical address
//! ([`crate::cache::Cache`]), so the residency of a set depends only on the
//! accesses that map to that set. An address is *selected* when the `log2 N`
//! physical-address bits just above the L2 line offset equal a seeded
//! offset:
//!
//! ```text
//! sampled(paddr)  ⇔  (paddr >> log2(l2_line)) & (N-1) == seed mod N
//! ```
//!
//! Two geometry conditions make the selected subset closed under every
//! cache interaction, so the sampled sets behave bit-for-bit as they do in
//! the exact simulation:
//!
//! * `N ≤ n_l2_sets` — the selection bits are the low bits of the L2 set
//!   index, so selection picks whole L2 sets (and whole directory lines:
//!   the directory also tracks L2-line granules).
//! * `log2(l2_line) + log2(N) ≤ log2(l1_line) + log2(n_l1_sets)` — the
//!   selection bits lie inside the L1 set-index field too, so every L1 set
//!   is either fully selected or fully unselected. L1 victims writing back
//!   into L2, L2 victims invalidating their L1 lines, and coherence
//!   invalidations (L2-line granules) therefore never cross the
//!   sampled/unsampled boundary.
//!
//! [`SamplingConfig::validate_geometry`] enforces both conditions.
//!
//! # What the unsampled stream costs
//!
//! Unselected accesses skip the cache, directory and memory stages
//! entirely (their directory events are coalesced away — no per-line
//! transactions, no invalidations). They still pay exact translation
//! (TLB probe + page walk + first-touch fault) and are charged the
//! guaranteed L1-hit latency. The miss cycles of the unselected sets are
//! charged by a *catch-up estimator*: under the systematic-sampling
//! assumption the `N-1` unselected residue classes cost what the selected
//! one does, so the estimator's running target is
//! `(N-1) × sampled_extra_cycles`, and each unselected line transition
//! charges whatever of that target has not been charged yet (coalescing
//! the skipped stream's directory events into occasional lump charges).
//! All integer arithmetic, hence deterministic. Consecutive accesses to
//! the same L1 line coalesce into guaranteed hits exactly as the exact
//! bulk walker's same-line shortcut does.
//!
//! Miss *counts* are extrapolated the same way: the raw counters hold the
//! selected subset's misses, and the summary scales them by `N` (with the
//! per-set fill counters' between-set variance giving an approximate 95%
//! confidence interval). Transition counts are deliberately *not* used as
//! the scale factor — access patterns alias unevenly across residue
//! classes, but sets partition the address space, so per-set symmetry is
//! the estimator that systematic set sampling actually justifies.
//!
//! # Determinism and exactness contract
//!
//! * Captured data is **bit-identical** to the exact engine at *any* rate:
//!   caches and directory are tag-only cost models; program data lives in
//!   the flat word store, which sampling never touches.
//! * At rate 1/1 the sampled mode *is* the exact engine: no sampling state
//!   is installed and every access takes the ordinary pipeline.
//! * At rates > 1 the raw [`CounterSet`]s hold the *sampled subset's*
//!   misses (so the internal balance `local+remote == L2 ≤ L1 ≤ accesses`
//!   still holds); the extrapolated estimates and confidence intervals
//!   live in the separate [`SamplingSummary`].
//! * Runs are deterministic for a fixed `(rate, seed)`: the selector and
//!   the online estimator use only integer arithmetic on the access
//!   stream.

use crate::cache::CacheConfig;
use crate::config::MachineConfig;
use crate::counters::CounterSet;

/// Systematic cache-set sampling parameters (`1/rate` of L2 sets, seeded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Sample `1/rate` of the L2 sets. Must be a power of two; `1` means
    /// exact simulation (the default).
    pub rate: u32,
    /// Selects *which* residue class of sets is simulated
    /// (`seed mod rate`). Different seeds give independent systematic
    /// samples for validating the error bounds.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::EXACT
    }
}

impl SamplingConfig {
    /// Exact simulation (rate 1).
    pub const EXACT: SamplingConfig = SamplingConfig { rate: 1, seed: 0 };

    /// Sample `1/rate` of the L2 sets with the default seed.
    pub fn new(rate: u32) -> Self {
        SamplingConfig { rate, seed: 0 }
    }

    /// Use this seed's residue class of sets.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this configuration is the exact simulation.
    pub fn is_exact(&self) -> bool {
        self.rate <= 1
    }

    /// Parse a `--sample` argument: `1/N` or plain `N`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let body = spec.strip_prefix("1/").unwrap_or(spec);
        let rate: u32 = body
            .parse()
            .map_err(|_| format!("bad sampling rate `{spec}` (want 1/N or N)"))?;
        if rate == 0 || !rate.is_power_of_two() {
            return Err(format!(
                "sampling rate 1/{rate} must have a power-of-two denominator"
            ));
        }
        Ok(SamplingConfig::new(rate))
    }

    /// Check that `1/rate` set sampling is exact on this cache geometry
    /// (see the module docs for the two conditions).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated geometry condition.
    pub fn validate_geometry(&self, l1: &CacheConfig, l2: &CacheConfig) -> Result<(), String> {
        if self.rate == 0 {
            return Err("sampling rate must be at least 1 (1/1 = exact)".into());
        }
        if self.is_exact() {
            return Ok(());
        }
        if !self.rate.is_power_of_two() {
            return Err(format!(
                "sampling rate 1/{} must have a power-of-two denominator",
                self.rate
            ));
        }
        let n = self.rate as usize;
        let sel_bits = self.rate.trailing_zeros();
        if n > l2.n_sets() {
            return Err(format!(
                "1/{n} sampling needs at least {n} L2 sets (cache has {})",
                l2.n_sets()
            ));
        }
        let sel_top = l2.line_size.trailing_zeros() + sel_bits;
        let l1_index_top = l1.line_size.trailing_zeros() + l1.n_sets().trailing_zeros();
        if sel_top > l1_index_top {
            return Err(format!(
                "1/{n} sampling selects on paddr bits [{}, {}), outside the \
                 L1 set-index field [{}, {}): sampled L1 sets would also \
                 hold unsampled lines",
                l2.line_size.trailing_zeros(),
                sel_top,
                l1.line_size.trailing_zeros(),
                l1_index_top
            ));
        }
        Ok(())
    }

    /// The address selector for this configuration on the given L2
    /// geometry.
    pub(crate) fn selector(&self, l2: &CacheConfig) -> SampleSel {
        let mask = (self.rate as u64).saturating_sub(1);
        SampleSel {
            shift: l2.line_size.trailing_zeros(),
            mask,
            offset: self.seed & mask,
        }
    }
}

/// The systematic address selector: `(paddr >> shift) & mask == offset`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampleSel {
    shift: u32,
    mask: u64,
    offset: u64,
}

impl SampleSel {
    /// Whether this physical address falls in the simulated set subset.
    #[inline]
    pub(crate) fn sampled(&self, paddr: u64) -> bool {
        (paddr >> self.shift) & self.mask == self.offset
    }
}

/// Per-processor sampling state: the selector plus the transition counters
/// that drive the online estimator, and per-sampled-set fill counters for
/// the confidence interval.
#[derive(Debug, Clone)]
pub(crate) struct SampleStats {
    pub(crate) sel: SampleSel,
    /// Line transitions that took the exact pipeline.
    pub(crate) sampled_transitions: u64,
    /// Cycles those transitions cost beyond the L1-hit latency (the
    /// estimator's numerator; same-line coherence upgrades fold in too so
    /// no sampled coherence cost is lost).
    pub(crate) sampled_extra_cycles: u64,
    /// Line transitions on unselected lines (charged the estimate).
    pub(crate) skipped_transitions: u64,
    /// Same-line repeats on unselected lines (charged `l1_hit` only).
    pub(crate) skipped_hits: u64,
    /// Total estimator cycles charged for skipped transitions.
    pub(crate) est_cycles: u64,
    /// Memory fills per sampled L2 set (slot = set_index / rate); the
    /// between-set variance gives the extrapolation's confidence interval.
    pub(crate) per_set_fills: Vec<u64>,
    /// L1 line of the previous access (same-line classification).
    pub(crate) last_line: Option<u64>,
    set_mask: u64,
    slot_shift: u32,
    rate_minus_one: u64,
}

impl SampleStats {
    pub(crate) fn new(s: &SamplingConfig, l2: &CacheConfig) -> Self {
        let slots = (l2.n_sets() / s.rate as usize).max(1);
        SampleStats {
            sel: s.selector(l2),
            sampled_transitions: 0,
            sampled_extra_cycles: 0,
            skipped_transitions: 0,
            skipped_hits: 0,
            est_cycles: 0,
            per_set_fills: vec![0; slots],
            last_line: None,
            set_mask: (l2.n_sets() as u64) - 1,
            slot_shift: s.rate.trailing_zeros(),
            rate_minus_one: (s.rate as u64) - 1,
        }
    }

    /// The catch-up charge for one unselected line transition: bring the
    /// charged estimator cycles up to the running target
    /// `(rate-1) × sampled_extra_cycles` (integer arithmetic, hence
    /// deterministic; 0 while no sampled cost has accrued).
    #[inline]
    pub(crate) fn due(&self) -> u64 {
        (self.rate_minus_one * self.sampled_extra_cycles).saturating_sub(self.est_cycles)
    }

    /// Count a memory fill of (sampled) directory line `dir_line`.
    #[inline]
    pub(crate) fn count_fill(&mut self, dir_line: u64) {
        let slot = ((dir_line & self.set_mask) >> self.slot_shift) as usize;
        self.per_set_fills[slot] += 1;
    }

    /// Fold another processor's stats into this one (fleet totals).
    pub(crate) fn merge(&mut self, other: &SampleStats) {
        self.sampled_transitions += other.sampled_transitions;
        self.sampled_extra_cycles += other.sampled_extra_cycles;
        self.skipped_transitions += other.skipped_transitions;
        self.skipped_hits += other.skipped_hits;
        self.est_cycles += other.est_cycles;
        for (a, b) in self.per_set_fills.iter_mut().zip(&other.per_set_fills) {
            *a += b;
        }
    }
}

/// Whole-run sampling summary: what fraction ran exactly, the extrapolated
/// miss counts, and approximate 95% confidence intervals derived from the
/// between-set variance of the per-set fill counters.
///
/// At rate 1 (`exact == true`) the estimates simply restate the exact
/// counters and the intervals are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingSummary {
    /// Denominator N of the 1/N set-sampling rate.
    pub rate: u32,
    /// Seed that chose the residue class of sets.
    pub seed: u64,
    /// Whether the run was exact (rate 1): estimates restate the counters.
    pub exact: bool,
    /// Total timed accesses (loads + stores), always exact.
    pub accesses: u64,
    /// Accesses that took the full exact pipeline.
    pub exact_accesses: u64,
    /// Accesses charged by the estimator instead.
    pub estimated_accesses: u64,
    /// L2 sets simulated exactly.
    pub sampled_sets: usize,
    /// Total L2 sets in the cache.
    pub total_sets: usize,
    /// Extrapolated L1 miss count (= the raw counter when exact).
    pub est_l1_misses: u64,
    /// Extrapolated L2 miss count.
    pub est_l2_misses: u64,
    /// Extrapolated local-memory fill count.
    pub est_local_misses: u64,
    /// Extrapolated remote-memory fill count.
    pub est_remote_misses: u64,
    /// Cycles the online estimator charged (already inside the reported
    /// cycle totals; 0 when exact).
    pub estimator_cycles: u64,
    /// Approximate ±95% confidence half-width on the extrapolated L2 miss
    /// count, as a percentage of the estimate.
    pub ci95_miss_pct: f64,
    /// Approximate ±95% confidence half-width on the reported cycle
    /// totals, as a percentage (only the estimator-charged share of the
    /// cycles is uncertain).
    pub ci95_cycle_pct: f64,
}

impl SamplingSummary {
    /// Build the summary from the machine's aggregate counters and merged
    /// per-processor sampling stats (`None` ⇒ exact run).
    pub(crate) fn build(
        cfg: &MachineConfig,
        totals: &CounterSet,
        stats: Option<&SampleStats>,
    ) -> Self {
        let total_sets = cfg.l2.n_sets();
        let Some(s) = stats else {
            return SamplingSummary {
                rate: 1,
                seed: cfg.sampling.seed,
                exact: true,
                accesses: totals.accesses(),
                exact_accesses: totals.accesses(),
                estimated_accesses: 0,
                sampled_sets: total_sets,
                total_sets,
                est_l1_misses: totals.l1_misses,
                est_l2_misses: totals.l2_misses,
                est_local_misses: totals.local_misses,
                est_remote_misses: totals.remote_misses,
                estimator_cycles: 0,
                ci95_miss_pct: 0.0,
                ci95_cycle_pct: 0.0,
            };
        };
        let rate = cfg.sampling.rate;
        let accesses = totals.accesses();
        let estimated = s.skipped_transitions + s.skipped_hits;
        // Set-based extrapolation: sets partition the address space and
        // the geometry conditions make both caches' sets whole-selected,
        // so the raw counters are the selected residue class's misses and
        // the population estimate is simply rate × raw. Scale local and
        // remote independently, derive L2 from their sum and clamp L1 so
        // the estimated counters satisfy the same balance invariants the
        // raw ones do.
        let est = |raw: u64| raw * rate as u64;
        let est_local = est(totals.local_misses);
        let est_remote = est(totals.remote_misses);
        let est_l2 = est_local + est_remote;
        let est_l1 = est(totals.l1_misses).max(est_l2).min(accesses);
        // Between-set variance of the sampled sets' fill counts: treat the
        // k sampled sets as a sample of the n_sets population. The
        // extrapolated fill total is rate * sum, with standard error
        // ~ rate * sqrt(k) * s. 1.96 standard errors ≈ 95%.
        let k = s.per_set_fills.len() as f64;
        let sum: u64 = s.per_set_fills.iter().sum();
        let mean = sum as f64 / k;
        let var = if s.per_set_fills.len() > 1 {
            s.per_set_fills
                .iter()
                .map(|&x| (x as f64 - mean).powi(2))
                .sum::<f64>()
                / (k - 1.0)
        } else {
            0.0
        };
        let est_fills = rate as f64 * sum as f64;
        let ci_fills = 1.96 * rate as f64 * (k * var).sqrt();
        let ci95_miss_pct = 100.0 * ci_fills / est_fills.max(1.0);
        // Only the estimator-charged cycles are uncertain; the sampled
        // stream's cycles are exact.
        let ci95_cycle_pct = if totals.cycles == 0 {
            0.0
        } else {
            ci95_miss_pct * s.est_cycles as f64 / totals.cycles as f64
        };
        SamplingSummary {
            rate,
            seed: cfg.sampling.seed,
            exact: false,
            accesses,
            exact_accesses: accesses - estimated,
            estimated_accesses: estimated,
            sampled_sets: total_sets / rate as usize,
            total_sets,
            est_l1_misses: est_l1,
            est_l2_misses: est_l2,
            est_local_misses: est_local,
            est_remote_misses: est_remote,
            estimator_cycles: s.est_cycles,
            ci95_miss_pct,
            ci95_cycle_pct,
        }
    }

    /// Fraction of timed accesses that took the exact pipeline.
    pub fn exact_fraction(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.exact_accesses as f64 / self.accesses as f64
        }
    }
}

impl std::fmt::Display for SamplingSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.exact {
            return write!(f, "sampling 1/1 (exact): all counters measured");
        }
        write!(
            f,
            "sampling 1/{} (seed {}): {}/{} L2 sets, {:.1}% of accesses exact; \
             est L2 misses {} (local {} / remote {}) ±{:.1}%, cycles ±{:.2}%",
            self.rate,
            self.seed,
            self.sampled_sets,
            self.total_sets,
            100.0 * self.exact_fraction(),
            self.est_l2_misses,
            self.est_local_misses,
            self.est_remote_misses,
            self.ci95_miss_pct,
            self.ci95_cycle_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_forms() {
        assert_eq!(SamplingConfig::parse("1/8").unwrap().rate, 8);
        assert_eq!(SamplingConfig::parse("8").unwrap().rate, 8);
        assert_eq!(SamplingConfig::parse("1").unwrap(), SamplingConfig::EXACT);
        assert!(SamplingConfig::parse("1/3").is_err());
        assert!(SamplingConfig::parse("0").is_err());
        assert!(SamplingConfig::parse("fast").is_err());
    }

    #[test]
    fn geometry_validation_enforces_both_conditions() {
        // Origin-2000 geometry: L1 32K/32B/2-way (512 sets, index bits
        // [5,14)), L2 4M/128B/2-way (16384 sets, line bits 7). Selection
        // bits fit the L1 index for N up to 128.
        let l1 = CacheConfig::new(32 * 1024, 32, 2);
        let l2 = CacheConfig::new(4 * 1024 * 1024, 128, 2);
        for n in [1u32, 2, 4, 8, 16, 64, 128] {
            assert!(SamplingConfig::new(n).validate_geometry(&l1, &l2).is_ok());
        }
        assert!(SamplingConfig::new(256)
            .validate_geometry(&l1, &l2)
            .is_err());
        // small_test geometry: L1 1K/32B/2 (16 sets, bits [5,9)), L2
        // 8K/64B/2 (64 sets, line bits 6): N ≤ 8.
        let l1 = CacheConfig::new(1024, 32, 2);
        let l2 = CacheConfig::new(8 * 1024, 64, 2);
        assert!(SamplingConfig::new(8).validate_geometry(&l1, &l2).is_ok());
        assert!(SamplingConfig::new(16).validate_geometry(&l1, &l2).is_err());
    }

    #[test]
    fn selector_partitions_addresses_evenly() {
        let l2 = CacheConfig::new(8 * 1024, 64, 2);
        let sel = SamplingConfig::new(4).selector(&l2);
        let hits = (0..4096u64).filter(|&i| sel.sampled(i * 64)).count();
        assert_eq!(hits, 1024);
        // Different seeds pick disjoint residue classes.
        let s1 = SamplingConfig::new(4).with_seed(1).selector(&l2);
        assert!((0..4096u64).all(|i| !(sel.sampled(i * 64) && s1.sampled(i * 64))));
    }

    #[test]
    fn seeds_reduce_modulo_rate() {
        let l2 = CacheConfig::new(8 * 1024, 64, 2);
        let a = SamplingConfig::new(4).with_seed(1).selector(&l2);
        let b = SamplingConfig::new(4).with_seed(5).selector(&l2);
        for i in 0..512u64 {
            assert_eq!(a.sampled(i * 64), b.sampled(i * 64));
        }
    }
}
