//! Error-bound parity suite for sampled simulation (DESIGN.md §9).
//!
//! For every workload generator in `workloads.rs` the suite runs the
//! exact engine and the sampled engine at 1/4, 1/8 and 1/16 and asserts:
//!
//! * captured array data is **bit-identical** at every rate (sampling is
//!   a cost model only — it must never touch program results);
//! * the extrapolated miss estimates and the reported cycle totals land
//!   within the documented error bounds ([`MISS_BOUND_PCT`],
//!   [`CYCLE_BOUND_PCT`]) of the exact run;
//! * the raw counters of a sampled run stay internally balanced
//!   (`local + remote == L2 ≤ L1 ≤ accesses`), as do the estimates;
//! * 1/1 sampling is bit-identical to the exact engine — same cycles,
//!   same counters, same data (the `identity_` tests, which are the
//!   cheap PR-time leg of the `paper-scale-smoke` CI job).
//!
//! Every run is deterministic, so exact-vs-sampled differences are pure
//! estimator error.

use dsm_core::workloads::{
    conv2d_source, fill_sweep_source, lu_source, transpose_source, Policy,
};
use dsm_core::{CompiledProgram, ExecOptions, RunOutcome, SamplingConfig, Session};

/// Documented bound on the extrapolated L2/local/remote miss estimates,
/// percent of the exact value, at rates up to 1/16.
const MISS_BOUND_PCT: f64 = 20.0;

/// Documented bound on the reported cycle totals, percent of the exact
/// value, at rates up to 1/16.
const CYCLE_BOUND_PCT: f64 = 10.0;

const NPROCS: usize = 8;
/// Machine scale for the suite: scale 4 keeps the runs fast while its
/// geometry (L1 8 KB/32 B, L2 1 MB/128 B) admits rates up to 1/32.
const SCALE: usize = 4;

struct Workload {
    name: &'static str,
    source: String,
    captures: &'static [&'static str],
    policy: Policy,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "transpose",
            source: transpose_source(200, 2, Policy::Reshaped),
            captures: &["a", "b"],
            policy: Policy::Reshaped,
        },
        Workload {
            name: "fill_sweep",
            source: fill_sweep_source(128, 2),
            captures: &["a"],
            policy: Policy::FirstTouch,
        },
        Workload {
            name: "conv2d",
            source: conv2d_source(150, 1, Policy::Regular, false),
            captures: &["a", "b"],
            policy: Policy::Regular,
        },
        Workload {
            name: "conv2d_two_level",
            source: conv2d_source(160, 1, Policy::Reshaped, true),
            captures: &["a", "b"],
            policy: Policy::Reshaped,
        },
        Workload {
            name: "lu",
            source: lu_source(12, 12, 8, 2, Policy::Reshaped),
            captures: &["u", "rsd"],
            policy: Policy::Reshaped,
        },
    ]
}

fn compile(w: &Workload) -> CompiledProgram {
    Session::new()
        .source(w.name, &w.source)
        .compile()
        .unwrap_or_else(|e| panic!("{} failed to compile: {e:?}", w.name))
}

fn run(w: &Workload, prog: &CompiledProgram, sampling: Option<SamplingConfig>) -> RunOutcome {
    let cfg = w.policy.machine(NPROCS, SCALE);
    let mut opts = ExecOptions::new(NPROCS).capture(w.captures);
    if let Some(s) = sampling {
        opts = opts.sampling(s);
    }
    prog.run(&cfg, &opts)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name))
}

fn err_pct(est: u64, exact: u64) -> f64 {
    100.0 * (est as f64 - exact as f64).abs() / (exact.max(1)) as f64
}

#[test]
fn estimates_within_documented_bounds() {
    for w in workloads() {
        let prog = compile(&w);
        let exact = run(&w, &prog, None);
        let et = &exact.report.total;
        for rate in [4u32, 8, 16] {
            let sampled = run(&w, &prog, Some(SamplingConfig::new(rate)));
            // Data is bit-identical at any rate.
            assert_eq!(
                sampled.captures, exact.captures,
                "{}: captures diverged at 1/{rate}",
                w.name
            );
            // Raw counters hold the sampled subset and stay balanced.
            let t = &sampled.report.total;
            assert_eq!(t.local_misses + t.remote_misses, t.l2_misses, "{}", w.name);
            assert!(t.l2_misses <= t.l1_misses, "{}", w.name);
            assert!(t.l1_misses <= t.accesses(), "{}", w.name);
            assert_eq!(t.accesses(), et.accesses(), "{}: access totals", w.name);
            // Estimates land within the documented bounds.
            let s = sampled
                .report
                .sampling
                .as_ref()
                .unwrap_or_else(|| panic!("{}: no sampling summary", w.name));
            assert!(!s.exact);
            assert_eq!(s.rate, rate);
            let miss_err = err_pct(s.est_l2_misses, et.l2_misses);
            let local_err = err_pct(s.est_local_misses, et.local_misses);
            let remote_err = err_pct(s.est_remote_misses, et.remote_misses);
            let cycle_err = err_pct(sampled.report.total_cycles, exact.report.total_cycles);
            eprintln!(
                "{:<18} 1/{rate:<3} L2 {:>8} est {:>8} ({miss_err:>5.1}%) \
                 local {local_err:>5.1}% remote {remote_err:>5.1}% \
                 cycles {cycle_err:>5.2}% (ci ±{:.1}%/±{:.2}%)",
                w.name, et.l2_misses, s.est_l2_misses, s.ci95_miss_pct, s.ci95_cycle_pct
            );
            assert!(
                miss_err <= MISS_BOUND_PCT,
                "{}: 1/{rate} L2-miss estimate off by {miss_err:.1}% (> {MISS_BOUND_PCT}%)",
                w.name
            );
            // The local/remote split is noisier on small absolute counts;
            // hold it to the documented bound once the population is big
            // enough to extrapolate from, and to the estimator's own
            // (honest) confidence interval below that.
            let split_bound = |count: u64| {
                if count >= 1000 {
                    MISS_BOUND_PCT
                } else {
                    MISS_BOUND_PCT.max(s.ci95_miss_pct)
                }
            };
            assert!(
                local_err <= split_bound(et.local_misses),
                "{}: 1/{rate} local-miss estimate off by {local_err:.1}%",
                w.name
            );
            assert!(
                remote_err <= split_bound(et.remote_misses),
                "{}: 1/{rate} remote-miss estimate off by {remote_err:.1}%",
                w.name
            );
            assert!(
                cycle_err <= CYCLE_BOUND_PCT,
                "{}: 1/{rate} cycle total off by {cycle_err:.2}% (> {CYCLE_BOUND_PCT}%)",
                w.name
            );
            // The estimated counters satisfy the same balance invariants.
            assert_eq!(s.est_local_misses + s.est_remote_misses, s.est_l2_misses);
            assert!(s.est_l1_misses >= s.est_l2_misses);
            assert!(s.est_l1_misses <= s.accesses);
        }
    }
}

#[test]
fn identity_rate_one_is_bit_identical_to_exact() {
    // 1/1 sampling must be the exact engine: same cycles, same counters,
    // same placement, same data. (This is the cheap PR-time CI leg.)
    for w in workloads() {
        let prog = compile(&w);
        let exact = run(&w, &prog, None);
        let one = run(&w, &prog, Some(SamplingConfig::EXACT));
        assert_eq!(one.captures, exact.captures, "{}", w.name);
        assert_eq!(
            one.report.total_cycles, exact.report.total_cycles,
            "{}: cycles",
            w.name
        );
        assert_eq!(one.report.per_proc, exact.report.per_proc, "{}", w.name);
        assert_eq!(one.report.total, exact.report.total, "{}", w.name);
        assert_eq!(
            one.report.parallel_cycles, exact.report.parallel_cycles,
            "{}",
            w.name
        );
        assert_eq!(
            one.report.pages_per_node, exact.report.pages_per_node,
            "{}",
            w.name
        );
        // The run advertises its exactness.
        let s = one.report.sampling.as_ref().unwrap();
        assert!(s.exact);
        assert_eq!(s.est_l2_misses, exact.report.total.l2_misses);
        assert_eq!(s.ci95_miss_pct, 0.0);
        // The exact run carries no summary at all.
        assert!(exact.report.sampling.is_none(), "{}", w.name);
    }
}

#[test]
fn identity_seeds_only_move_estimates_never_data() {
    // Different seeds sample disjoint set classes: data must not move,
    // estimates may (within bounds, checked above for seed 0).
    let w = &workloads()[0];
    let prog = compile(w);
    let a = run(w, &prog, Some(SamplingConfig::new(8)));
    let b = run(w, &prog, Some(SamplingConfig::new(8).with_seed(5)));
    assert_eq!(a.captures, b.captures);
    assert_ne!(
        a.report.total.l2_misses, b.report.total.l2_misses,
        "different set classes should measure different raw subsets"
    );
}
