//! **Figure 5** — Performance of matrix transpose, 5000×5000
//! (Section 8.2).
//!
//! `A(j,i) = B(i,j)` with A `(*, block)` and B `(block, *)`, data
//! initialized *serially*.
//!
//! Paper shape: the `(block, *)` matrix cannot be distributed properly
//! without reshaping, so first-touch and regular distribution leave most
//! data on one or two nodes — those nodes bottleneck and performance is
//! extremely poor. Round-robin spreads pages and does much better.
//! Reshaping makes every portion contiguous and local, wins by 30–50%
//! over round-robin at moderate P, and also cuts TLB misses (the paper
//! measured round-robin spending ~15% of its time in TLB misses at 32
//! procs, the reshaped version less than half that).

use dsm_bench::{final_speedup, print_figure, proc_counts, run_policy_with, scale, sweep};
use dsm_core::workloads::{transpose_source, Policy};
use dsm_core::{ExecOptions, Profile};

/// Remote misses attributed to `array` inside parallel regions (the
/// serial-init cell is excluded: first-touch necessarily initializes
/// locally, so the interesting traffic is the kernel's).
fn kernel_remote(profile: &Profile, array: &str) -> u64 {
    profile
        .cells
        .iter()
        .filter(|c| c.array == array && c.region != "(serial)")
        .map(|c| c.stats.remote_misses)
        .sum()
}

fn main() {
    let scale = scale();
    let procs = proc_counts();
    let (n, reps) = (320, 6);
    let series = sweep(&|p| transpose_source(n, reps, p), &procs, scale);
    print_figure(
        "Figure 5: matrix transpose speedups (scaled 5000x5000)",
        &series,
    );

    let ft = final_speedup(&series, Policy::FirstTouch);
    let rr = final_speedup(&series, Policy::RoundRobin);
    let rg = final_speedup(&series, Policy::Regular);
    let rs = final_speedup(&series, Policy::Reshaped);
    println!("\nshape checks:");
    println!("  reshaped {rs:.2} > round-robin {rr:.2} > first-touch {ft:.2} / regular {rg:.2}");
    assert!(rs > rr, "reshaped must beat round-robin");
    assert!(
        rr > ft,
        "round-robin must beat the hot-node first-touch version"
    );
    assert!(
        rr > rg * 0.9,
        "regular cannot fix (block,*) placement; ~first-touch level"
    );
    // TLB effect: reshaped touches fewer pages than round-robin.
    let top = series[0].procs.len() - 1;
    let tlb_rr = series
        .iter()
        .find(|s| s.policy == Policy::RoundRobin)
        .unwrap()
        .tlb_misses[top];
    let tlb_rs = series
        .iter()
        .find(|s| s.policy == Policy::Reshaped)
        .unwrap()
        .tlb_misses[top];
    println!("  TLB misses at top P: reshaped {tlb_rs} vs round-robin {tlb_rr}");
    assert!(tlb_rs < tlb_rr, "reshaping must reduce TLB misses");

    // Attribution study: the profiler must name the culprit. Under
    // first-touch the serially-initialized `(block,*)` matrix B is homed
    // on node 0, so the kernel's remote misses charge to B; reshaping
    // gives every processor its own local portions of both arrays, and
    // the (small) residual remote traffic flips to A's boundary lines.
    let nprocs = 8;
    let profile_of = |policy: Policy| {
        run_policy_with(
            &transpose_source(n, reps, policy),
            policy,
            scale,
            &ExecOptions::new(nprocs).profile(true),
        )
        .report
        .profile
        .expect("profiling was on")
    };
    let ft_prof = profile_of(Policy::FirstTouch);
    let rs_prof = profile_of(Policy::Reshaped);
    let (ft_a, ft_b) = (kernel_remote(&ft_prof, "a"), kernel_remote(&ft_prof, "b"));
    let (rs_a, rs_b) = (kernel_remote(&rs_prof, "a"), kernel_remote(&rs_prof, "b"));
    println!("\nkernel remote-miss attribution at P={nprocs}:");
    println!("  first-touch: a={ft_a} b={ft_b}");
    println!("  reshaped:    a={rs_a} b={rs_b}");
    assert!(
        ft_b > ft_a,
        "under first-touch the remote misses must charge to B"
    );
    assert!(
        rs_a >= rs_b,
        "after reshaping the residual remote misses flip to A"
    );
    assert!(
        rs_b * 10 < ft_b.max(1),
        "reshaping must collapse B's remote misses (got {rs_b} vs {ft_b})"
    );
    assert!(
        ft_prof.hints.iter().any(|h| h.array == "b"),
        "first-touch profile must hint at reshaping B: {:?}",
        ft_prof.hints
    );
    println!("FIG5 OK");
}
