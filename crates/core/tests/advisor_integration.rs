//! Advisor integration: the feedback-directed planner must rediscover
//! the paper's hand-written directive choices — the Figure-5 transpose
//! reshape, the Section-3.3 phases redistribute point — and match or
//! beat the hand-annotated programs, with everything oracle-verified.
//!
//! Workloads here are scaled-down versions of the paper's (the advisor
//! evaluates dozens of candidate simulations per search; full-size runs
//! belong in `dsm-bench`).

use dsm_advisor::{advise, analyze, search, AdvisorConfig, Di};
use dsm_compile::{compile_strings, OptConfig};
use dsm_core::workloads::{transpose_source, Policy};
use dsm_core::{ExecOptions, Machine, MachineConfig, Profile, RunOutcome};

const SCALE: usize = 64;

fn cfg(nprocs: usize, budget: usize) -> AdvisorConfig {
    AdvisorConfig {
        nprocs,
        scale: SCALE,
        budget,
        ..AdvisorConfig::default()
    }
}

/// Compile and run `src` exactly as the advisor's search does
/// (scaled Origin-2000), profiled.
fn run_annotated(src: &str, nprocs: usize) -> RunOutcome {
    let compiled = compile_strings(&[("hand.f", src)], &OptConfig::default()).expect("compiles");
    let mut machine = Machine::new(MachineConfig::scaled_origin2000(nprocs, SCALE));
    let opts = ExecOptions::new(nprocs).profile(true);
    dsm_exec::run_outcome(&mut machine, &compiled.program, &opts).expect("runs")
}

/// Remote misses attributed to `array` inside parallel regions that only
/// *read* it — for the transpose, that is the kernel's `b(i, j)` stream,
/// the access Figure 5 attributes (the init loop writes `b` and is a
/// separate story).
fn kernel_read_remote(profile: &Profile, array: &str) -> u64 {
    profile
        .cells
        .iter()
        .filter(|c| c.array == array && c.region != "(serial)" && c.stats.stores == 0)
        .map(|c| c.stats.remote_misses)
        .sum()
}

fn example(name: &str) -> String {
    let path = format!(
        "{}/../../examples/fortran/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Figure 5: starting from the *stripped* transpose, the advisor must
/// rediscover that `b` wants the reshaped `(block, *)` distribution the
/// paper hand-writes, collapsing `b`'s kernel remote misses to zero —
/// and its whole-program plan must beat the hand-annotated version.
#[test]
fn advisor_rediscovers_the_fig5_transpose_reshape() {
    let (n, reps, nprocs) = (160, 3, 8);
    let stripped = transpose_source(n, reps, Policy::FirstTouch);
    let advice = advise(
        &[("transpose.f".to_string(), stripped.clone())],
        &cfg(nprocs, 30),
    )
    .expect("advise");

    let b = advice.plan.dist_of("b").expect("b is distributed");
    assert!(b.reshape, "b must be reshaped: {:?}", advice.plan);
    assert_eq!(b.items, vec![Di::Block, Di::Star], "{:?}", advice.plan);
    assert!(advice.verified_runs > 0, "winner must be oracle-verified");

    // The first-touch parallel port (the doacross with no distributions)
    // bottlenecks on b: its kernel remote misses are the Figure-5 story.
    let ft = run_annotated(&stripped, nprocs);
    let ft_b = kernel_read_remote(ft.report.profile.as_ref().expect("profile"), "b");
    let win_b = kernel_read_remote(advice.profile.as_ref().expect("winner profile"), "b");
    assert!(ft_b > 1000, "first-touch must miss remotely on b: {ft_b}");
    assert_eq!(
        win_b, 0,
        "the reshape must collapse b's kernel remote misses"
    );

    // Match-or-beat the hand annotation, measured identically.
    let hand = run_annotated(&transpose_source(n, reps, Policy::Reshaped), nprocs);
    assert!(
        advice.best.total_cycles <= hand.report.total_cycles,
        "auto {} > hand {}",
        advice.best.total_cycles,
        hand.report.total_cycles
    );
    assert!(
        advice.best.remote_misses <= hand.report.total.remote_misses,
        "auto remote {} > hand remote {}",
        advice.best.remote_misses,
        hand.report.total.remote_misses
    );
}

/// Section 3.3: on the shipped `examples/fortran/phases.f`, candidate
/// enumeration must propose exactly the hand-written plan — `a(*, block)`
/// at declaration, `c$redistribute a(block, *)` immediately before the
/// second phase.
#[test]
fn advisor_proposes_the_hand_written_redistribute_point_of_phases() {
    let src = example("phases.f");
    let an = analyze(&[("phases.f".to_string(), src)]).expect("analyzes");
    assert_eq!(an.sites.len(), 2);
    assert_eq!(an.sites[0].writes, vec![("a".to_string(), 1)]);
    assert_eq!(an.sites[1].writes, vec![("a".to_string(), 0)]);

    let incumbent = search::parallelize_candidates(&an).remove(1);
    let cands = search::redistribute_candidates(&an, &incumbent);
    let plan = cands
        .iter()
        .find(|p| {
            p.dist_of("a")
                .is_some_and(|d| !d.reshape && d.items == vec![Di::Star, Di::Block])
        })
        .expect("the (*, block) start is proposed");
    assert_eq!(plan.redists.len(), 1);
    assert_eq!(plan.redists[0].items, vec![Di::Block, Di::Star]);
    assert_eq!(
        plan.redists[0].before_line, an.sites[1].line,
        "redistribute goes immediately before the second phase"
    );
}

/// The dynamic side of the phases story, on a scaled-down program: the
/// search must *evaluate* a redistribute-bearing plan and find it
/// profitable, and the overall winner must match or beat the
/// hand-annotated redistribute version.
#[test]
fn advisor_search_finds_redistribution_profitable_on_phases() {
    let n = 128;
    let nprocs = 4;
    let stripped = format!(
        "      program phases
      integer i, j
      real*8 a({n}, {n})
      do j = 1, {n}
        do i = 1, {n}
          a(i, j) = i + j
        enddo
      enddo
      do i = 1, {n}
        do j = 1, {n}
          a(i, j) = a(i, j) * 0.5
        enddo
      enddo
      end
"
    );
    let an = analyze(&[("phases.f".to_string(), stripped)]).expect("analyzes");
    let outcome = search::search(&an, &cfg(nprocs, 28)).expect("search");
    let redist = outcome
        .ranked
        .iter()
        .find(|e| !e.plan.redists.is_empty())
        .expect("a redistribute plan was evaluated");
    assert!(
        redist.total_cycles < outcome.baseline.total_cycles,
        "redistribution must beat the serial baseline: {} !< {}",
        redist.total_cycles,
        outcome.baseline.total_cycles
    );

    let hand = format!(
        "      program phases
      integer i, j
      real*8 a({n}, {n})
c$distribute a(*, block)
c$doacross local(i, j) affinity(j) = data(a(1, j))
      do j = 1, {n}
        do i = 1, {n}
          a(i, j) = i + j
        enddo
      enddo
c$redistribute a(block, *)
c$doacross local(i, j) affinity(i) = data(a(i, 1))
      do i = 1, {n}
        do j = 1, {n}
          a(i, j) = a(i, j) * 0.5
        enddo
      enddo
      end
"
    );
    let hand_out = run_annotated(&hand, nprocs);
    assert!(
        outcome.ranked[0].total_cycles <= hand_out.report.total_cycles,
        "auto {} > hand {}",
        outcome.ranked[0].total_cycles,
        hand_out.report.total_cycles
    );
}

/// The quickstart walkthrough: `dsmfc --auto` on `heat.f` stripped of its
/// annotations must match or beat the hand-written directives, and the
/// emitted annotated Fortran must recompile to the winner's exact
/// measurement (the round-trip the `--emit-fortran` flag promises).
#[test]
fn advisor_matches_hand_annotated_heat_and_round_trips() {
    let nprocs = 8;
    let src = example("heat.f");
    let advice = advise(&[("heat.f".to_string(), src.clone())], &cfg(nprocs, 24)).expect("advise");

    let hand = run_annotated(&src, nprocs);
    assert!(
        advice.best.total_cycles <= hand.report.total_cycles,
        "auto {} > hand {}",
        advice.best.total_cycles,
        hand.report.total_cycles
    );

    // Round-trip: recompiling the emitted Fortran reproduces the winner.
    let rerun = run_annotated(advice.emitted(), nprocs);
    assert_eq!(rerun.report.total_cycles, advice.best.total_cycles);
    assert_eq!(rerun.report.total.remote_misses, advice.best.remote_misses);

    // The search accounts its own concurrency: summed candidate wall is
    // what a serial search would cost. On a multicore host the wave
    // evaluation must come in under it (on a single core, spawn overhead
    // makes the comparison meaningless, so gate on the core count).
    if std::thread::available_parallelism().map_or(1, usize::from) >= 2 {
        assert!(
            advice.search_wall < advice.serial_eval_wall,
            "candidate evaluation did not overlap: search {:?} vs serial {:?}",
            advice.search_wall,
            advice.serial_eval_wall
        );
    }
}
