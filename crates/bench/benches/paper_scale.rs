//! **Paper-scale runs** — Figures 5/6/7 at the paper's true input sizes.
//!
//! Unlike every other bench (which scales the machine down by
//! `DSM_BENCH_SCALE` and shrinks the arrays to match), this target runs
//! the **full-scale** Origin-2000 model on the paper's own inputs:
//!
//! * 2-D convolution 1000×1000 — Figure 6, exact: the one-level
//!   `(*,block)` sweep plus the two-level `(block,block)` panel whose
//!   ordering (reshaped < round-robin < regular) is the pinned
//!   regression (`crates/core/tests/paper_scale.rs`);
//! * 2-D convolution 5000×5000, `(*,block)` — Figure 7, sampled at 1/8
//!   (the exact run is ~25× the 1000² cost);
//! * transpose 5000×5000 — Figure 5, sampled at 1/8.
//!
//! Exact legs report measured cycles; sampled legs report extrapolated
//! estimates with their 95% confidence intervals (DESIGN.md §9 — miss
//! estimates documented within ±20%, cycles within ±10% at these
//! rates). Processor counts sweep to 128 to cover the paper's 96-proc
//! points.
//!
//! The 1000² legs are under a minute in release; the 5000² legs are
//! minutes even sampled, so they sit behind an explicit opt-in:
//!
//! ```text
//! cargo bench -p dsm-bench --bench paper_scale
//! DSM_PAPER_SCALE_FULL=1 cargo bench -p dsm-bench --bench paper_scale  # adds 5000² legs
//! ```

use dsm_core::workloads::{conv2d_source, transpose_source, Policy};
use dsm_core::{ExecOptions, RunReport, SamplingConfig, Session};

/// Full-scale machine: divisor 1.
const SCALE: usize = 1;

fn run(source: &str, policy: Policy, p: usize, sampling: Option<SamplingConfig>) -> RunReport {
    let prog = Session::new()
        .source("bench.f", source)
        .compile()
        .unwrap_or_else(|e| panic!("paper-scale workload failed to compile: {e:?}"));
    let mut opts = ExecOptions::new(p);
    if let Some(s) = sampling {
        opts = opts.sampling(s);
    }
    prog.run(&policy.machine(p, SCALE), &opts)
        .unwrap_or_else(|e| panic!("paper-scale workload failed to run: {e}"))
        .report
}

fn report_row(label: &str, p: usize, r: &RunReport) {
    match &r.sampling {
        Some(s) if !s.exact => println!(
            "{label:<28} P={p:<4} kernel {:>12}  est L2 {:>9} ±{:>4.1}%  rem {:.2}  [sampled 1/{}]",
            r.kernel_cycles(),
            s.est_l2_misses,
            s.ci95_miss_pct,
            s.est_remote_misses as f64 / s.est_l2_misses.max(1) as f64,
            s.rate
        ),
        _ => println!(
            "{label:<28} P={p:<4} kernel {:>12}  L2 {:>9}          rem {:.2}  [exact]",
            r.kernel_cycles(),
            r.total.l2_misses,
            r.total.remote_fraction()
        ),
    }
}

fn main() {
    let procs: &[usize] = &[16, 64, 128];
    let policies: &[Policy] = &[Policy::Reshaped, Policy::RoundRobin, Policy::Regular];

    println!("=== Figure 6 (left) at paper scale: conv 1000x1000, (*,block), exact ===");
    for &policy in policies {
        let src = conv2d_source(1000, 1, policy, false);
        for &p in procs {
            let r = run(&src, policy, p, None);
            report_row(&format!("conv 1000^2 {}", policy.label()), p, &r);
        }
    }

    println!("\n=== Figure 6 (right) at paper scale: conv 1000x1000, (block,block), 3 sweeps, exact ===");
    let mut fig6: Vec<(Policy, u64)> = Vec::new();
    for &policy in policies {
        let src = conv2d_source(1000, 3, policy, true);
        let r = run(&src, policy, 64, None);
        report_row(&format!("conv 1000^2 2-level {}", policy.label()), 64, &r);
        fig6.push((policy, r.kernel_cycles()));
    }
    let cycles_of = |want: Policy| fig6.iter().find(|(p, _)| *p == want).unwrap().1;
    assert!(
        cycles_of(Policy::Reshaped) < cycles_of(Policy::RoundRobin)
            && cycles_of(Policy::RoundRobin) < cycles_of(Policy::Regular),
        "Fig-6 (block,block) paper-scale separation must hold: \
         reshaped < round-robin < regular"
    );
    println!("FIG6 PAPER-SCALE OK (2-level: reshaped < round-robin < regular)");

    // The 5000² legs are ~25× the work even sampled; keep them behind
    // an explicit opt-in so the default invocation stays a coffee break.
    if std::env::var("DSM_PAPER_SCALE_FULL").ok().as_deref() != Some("1") {
        println!("\n(5000^2 legs skipped: set DSM_PAPER_SCALE_FULL=1 to run them)");
        return;
    }

    println!("\n=== Figure 7 (left) at paper scale: conv 5000x5000, (*,block), sampled 1/8 ===");
    for &policy in policies {
        let src = conv2d_source(5000, 1, policy, false);
        for &p in procs {
            let r = run(&src, policy, p, Some(SamplingConfig::new(8)));
            report_row(&format!("conv 5000^2 {}", policy.label()), p, &r);
        }
    }

    println!("\n=== Figure 5 at paper scale: transpose 5000x5000, sampled 1/8 ===");
    for &policy in policies {
        let src = transpose_source(5000, 1, policy);
        for &p in procs {
            let r = run(&src, policy, p, Some(SamplingConfig::new(8)));
            report_row(&format!("transpose 5000^2 {}", policy.label()), p, &r);
        }
    }
    println!("\nPAPER-SCALE SWEEP COMPLETE");
}
