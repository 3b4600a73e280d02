//! Paper-scale regression pins (Figure 6, Section 8.3).
//!
//! These tests run the 2-D convolution at the paper's true input size
//! (1000×1000) on the **full-scale** Origin-2000 model — no cache or
//! page scaling — and pin the Figure-6 results the scaled benches
//! cannot reproduce (see EXPERIMENTS.md):
//!
//! * two-level `(block,block)`: **reshaped clearly first**, regular
//!   page-granular distribution degrading behind even round-robin as
//!   its per-sweep coherence misses pile up ("reshaping is the only
//!   option for such distributions");
//! * one-level `(*,block)`: reshaped and regular both clearly ahead of
//!   round-robin. At P=64 each processor's portion spans ≥ 8 pages, so
//!   page-granular placement is adequate here — the regime the paper
//!   itself describes for the large input — and our model keeps it so
//!   (the paper's 1000² "chaotic" regular leg does not reproduce; the
//!   deviation is recorded in EXPERIMENTS.md).
//!
//! They also validate the statistical sampling estimator at the same
//! scale: a 1/8 sampled run of the paper-size input must land within
//! the documented error bounds of the exact run.
//!
//! Every pinned number is deterministic and exactly repeatable. Each test costs tens of seconds in release, so
//! the file is gated behind `DSM_PAPER_SCALE=1` (run by the nightly
//! `paper-scale-smoke` CI job):
//!
//! ```text
//! DSM_PAPER_SCALE=1 cargo test --release -p dsm-core --test paper_scale -- --nocapture
//! ```

use dsm_core::workloads::{conv2d_source, Policy};
use dsm_core::{ExecOptions, RunReport, SamplingConfig, Session};

const N: usize = 1000;
const P: usize = 64;
/// Full-scale Origin-2000: scale divisor 1.
const SCALE: usize = 1;
/// Sweeps of the two-level kernel: the separation is a steady-state
/// coherence effect, so it needs more than the cold pass.
const REPS: usize = 3;

fn gated() -> bool {
    if std::env::var("DSM_PAPER_SCALE").ok().as_deref() == Some("1") {
        return true;
    }
    eprintln!("skipped: paper-scale run (set DSM_PAPER_SCALE=1 to enable)");
    false
}

fn run_conv(
    policy: Policy,
    reps: usize,
    two_level: bool,
    sampling: Option<SamplingConfig>,
) -> RunReport {
    let src = conv2d_source(N, reps, policy, two_level);
    let prog = Session::new()
        .source("conv.f", &src)
        .compile()
        .unwrap_or_else(|e| panic!("conv2d failed to compile: {e:?}"));
    let mut opts = ExecOptions::new(P);
    if let Some(s) = sampling {
        opts = opts.sampling(s);
    }
    prog.run(&policy.machine(P, SCALE), &opts)
        .unwrap_or_else(|e| panic!("conv2d failed to run: {e}"))
        .report
}

fn print_row(label: &str, r: &RunReport) {
    eprintln!(
        "  {label:<12} kernel {:>9}  rem {:.2}  l2 {}",
        r.kernel_cycles(),
        r.total.remote_fraction(),
        r.total.l2_misses
    );
}

#[test]
fn fig6_two_level_ordering_reshaped_first_regular_last() {
    if !gated() {
        return;
    }
    let reshaped = run_conv(Policy::Reshaped, REPS, true, None);
    let round_robin = run_conv(Policy::RoundRobin, REPS, true, None);
    let regular = run_conv(Policy::Regular, REPS, true, None);
    eprintln!("fig6 (block,block) {N}x{N} P={P} reps={REPS}:");
    print_row("reshaped", &reshaped);
    print_row("round-robin", &round_robin);
    print_row("regular", &regular);
    let (rs, rr, rg) = (
        reshaped.kernel_cycles(),
        round_robin.kernel_cycles(),
        regular.kernel_cycles(),
    );
    // The paper's Figure 6 separation at the true input size: reshaped
    // clearly first; regular — paying page- and line-level false
    // sharing on every sweep (its L2 misses keep growing with reps
    // while the others' stay flat) — behind even round-robin.
    assert!(
        rs < rr,
        "(block,block): reshaped ({rs}) must beat round-robin ({rr})"
    );
    assert!(
        rr < rg,
        "(block,block): round-robin ({rr}) must beat page-granular regular ({rg})"
    );
}

#[test]
fn fig6_one_level_page_policies_beat_round_robin() {
    if !gated() {
        return;
    }
    let reshaped = run_conv(Policy::Reshaped, 1, false, None);
    let round_robin = run_conv(Policy::RoundRobin, 1, false, None);
    let regular = run_conv(Policy::Regular, 1, false, None);
    eprintln!("fig6 (*,block) {N}x{N} P={P} reps=1:");
    print_row("reshaped", &reshaped);
    print_row("round-robin", &round_robin);
    print_row("regular", &regular);
    let (rs, rr, rg) = (
        reshaped.kernel_cycles(),
        round_robin.kernel_cycles(),
        regular.kernel_cycles(),
    );
    // One-level at P=64: portions span ≥ 8 pages, so both placement
    // policies localize the stencil and round-robin's ~97% remote
    // fraction loses. (Deviation from the paper's 1000² panel — where
    // regular is chaotic — recorded in EXPERIMENTS.md.)
    assert!(
        rs < rr,
        "(*,block): reshaped ({rs}) must beat round-robin ({rr})"
    );
    assert!(
        rg < rr,
        "(*,block): regular ({rg}) must beat round-robin ({rr})"
    );
}

#[test]
fn sampled_estimates_hold_at_paper_scale() {
    if !gated() {
        return;
    }
    // Documented bounds (DESIGN.md §9): miss estimates within 20%,
    // cycle totals within 10%, at rates up to 1/16.
    let exact = run_conv(Policy::Regular, 1, false, None);
    let sampled = run_conv(Policy::Regular, 1, false, Some(SamplingConfig::new(8)));
    let s = sampled.sampling.as_ref().expect("sampling summary");
    let err = |est: u64, ex: u64| 100.0 * (est as f64 - ex as f64).abs() / (ex.max(1)) as f64;
    let miss_err = err(s.est_l2_misses, exact.total.l2_misses);
    let cycle_err = err(sampled.total_cycles, exact.total_cycles);
    eprintln!(
        "paper-scale 1/8 sampling: L2 {} est {} ({miss_err:.1}%), \
         cycles {} est {} ({cycle_err:.2}%), ci ±{:.1}%/±{:.2}%",
        exact.total.l2_misses,
        s.est_l2_misses,
        exact.total_cycles,
        sampled.total_cycles,
        s.ci95_miss_pct,
        s.ci95_cycle_pct
    );
    assert!(
        miss_err <= 20.0,
        "paper-scale miss estimate off by {miss_err:.1}%"
    );
    assert!(
        cycle_err <= 10.0,
        "paper-scale cycle total off by {cycle_err:.2}%"
    );
    // Sampling never perturbs the simulated program: same access total.
    assert_eq!(sampled.total.accesses(), exact.total.accesses());
}
