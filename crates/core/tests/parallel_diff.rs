//! Differential test: host-parallel team simulation must be
//! observationally identical to the serial reference mode.
//!
//! The parallel path (one host thread per team member, see
//! `dsm-exec`'s `team.rs` and `docs/SIMULATOR.md`) is only deterministic
//! for conflict-free regions — regions in which no cache line is written
//! by one member while another member reads or writes it, and no page is
//! first-touched by two members.  The paper's evaluation workloads are
//! exactly that shape, so for each of them the serial
//! (`ExecOptions::serial_team`) and parallel runs must agree on
//!
//! * the final contents of every array, and
//! * every per-processor counter set — including cycle counts — because a
//!   member's access stream, cache state, and invalidation traffic are
//!   all independent of how the host interleaved the other members.  (The
//!   zero-cost intervention event counter is the one exception; see
//!   [`normalize`].)

use dsm_core::workloads::{conv2d_source, lu_source, transpose_source, Policy};
use dsm_core::{CounterSet, ExecOptions, RunReport, Session};

/// Zero the one interleaving-sensitive counter. An *intervention* is a
/// read-triggered downgrade of a line some other member wrote in an earlier
/// region; if the owner silently evicts that line (capacity) in the same
/// region another member first reads it, host interleaving decides whether
/// the reader finds it exclusive (intervention) or already dropped (plain
/// read). Interventions cost zero cycles in this model, so cycle counts are
/// still exact; only the event count can wobble by the handful of lines in
/// that transient state.
fn normalize(c: &CounterSet) -> CounterSet {
    let mut c = *c;
    c.interventions = 0;
    c
}

fn run_both(
    src: &str,
    policy: Policy,
    nprocs: usize,
    arrays: &[&str],
) -> [(RunReport, Vec<Vec<f64>>); 2] {
    let prog = Session::new()
        .source("w.f", src)
        .compile()
        .unwrap_or_else(|e| panic!("workload failed to compile: {e:?}"));
    let cfg = policy.machine(nprocs, 2048);
    let serial = prog
        .run(
            &cfg,
            &ExecOptions::new(nprocs).serial_team(true).capture(arrays),
        )
        .expect("serial run");
    let parallel = prog
        .run(&cfg, &ExecOptions::new(nprocs).capture(arrays))
        .expect("parallel run");
    [
        (serial.report, serial.captures),
        (parallel.report, parallel.captures),
    ]
}

fn assert_contents_identical(
    src: &str,
    policy: Policy,
    nprocs: usize,
    arrays: &[&str],
    what: &str,
) -> [(RunReport, Vec<Vec<f64>>); 2] {
    let both = run_both(src, policy, nprocs, arrays);
    let [(_, sc), (_, pc)] = &both;
    for (name, (s, p)) in arrays.iter().zip(sc.iter().zip(pc)) {
        assert_eq!(
            s, p,
            "{what}: array `{name}` differs between serial and parallel"
        );
    }
    both
}

fn assert_identical(src: &str, policy: Policy, nprocs: usize, arrays: &[&str], what: &str) {
    let [(sr, _), (pr, _)] = assert_contents_identical(src, policy, nprocs, arrays, what);
    assert_eq!(
        sr.total_cycles, pr.total_cycles,
        "{what}: total cycles differ"
    );
    for (i, (s, p)) in sr.per_proc.iter().zip(&pr.per_proc).enumerate() {
        assert_eq!(
            normalize(s),
            normalize(p),
            "{what}: P{i} counters differ between serial and parallel"
        );
    }
    assert_eq!(
        normalize(&sr.total),
        normalize(&pr.total),
        "{what}: aggregate counters differ"
    );
    assert_eq!(
        sr.parallel_cycles, pr.parallel_cycles,
        "{what}: region cycle totals differ"
    );
}

#[test]
fn transpose_parallel_matches_serial() {
    for policy in [Policy::Reshaped, Policy::Regular] {
        assert_identical(
            &transpose_source(320, 2, policy),
            policy,
            8,
            &["a", "b"],
            &format!("transpose/{policy:?}"),
        );
    }
}

/// First-touch transpose is *not* conflict-free: page homes are assigned by
/// whichever member faults a boundary page first, and unaligned portions
/// falsely share lines (the serial run itself sends invalidations). Cycle
/// counts therefore legitimately depend on host interleaving; the data — and
/// the deterministic access totals — must not.
#[test]
fn transpose_first_touch_data_matches_serial() {
    let [(sr, _), (pr, _)] = assert_contents_identical(
        &transpose_source(320, 2, Policy::FirstTouch),
        Policy::FirstTouch,
        8,
        &["a", "b"],
        "transpose/FirstTouch",
    );
    assert_eq!(sr.total.loads, pr.total.loads);
    assert_eq!(sr.total.stores, pr.total.stores);
    assert_eq!(sr.total.page_faults, pr.total.page_faults);
}

#[test]
fn conv2d_parallel_matches_serial() {
    assert_identical(
        &conv2d_source(320, 2, Policy::Reshaped, false),
        Policy::Reshaped,
        8,
        &["a", "b"],
        "conv2d/Reshaped",
    );
}

#[test]
fn lu_parallel_matches_serial() {
    assert_identical(
        &lu_source(32, 32, 8, 2, Policy::Reshaped),
        Policy::Reshaped,
        8,
        &["u", "rsd"],
        "lu/Reshaped",
    );
}
