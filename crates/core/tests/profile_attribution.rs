//! The profiler's books must balance: every L2 miss the machine counts
//! is attributed to exactly one (array, region) cell, so the per-array
//! table's local/remote split sums to the machine-wide counter totals.

use dsm_core::{ExecOptions, MachineConfig, Session};

fn compile_heat() -> dsm_core::CompiledProgram {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/fortran/heat.f"
    ))
    .expect("heat.f readable");
    Session::new()
        .source("heat.f", &src)
        .compile()
        .unwrap_or_else(|e| panic!("heat.f failed to compile: {e:?}"))
}

#[test]
fn heat_attribution_sums_to_machine_counters() {
    let prog = compile_heat();
    for nprocs in [1, 8] {
        let out = prog
            .run(
                &MachineConfig::scaled_origin2000(nprocs, 64),
                &ExecOptions::new(nprocs).profile(true),
            )
            .expect("runs");
        let profile = out.profile().expect("profiling was on");

        let arrays = &profile.arrays;
        assert!(arrays.iter().any(|a| a.name == "u"), "{arrays:?}");
        assert!(arrays.iter().any(|a| a.name == "unew"), "{arrays:?}");
        assert!(!profile.regions.is_empty());

        // Per-array local/remote miss split sums to the machine totals.
        let local: u64 = arrays.iter().map(|a| a.stats.local_misses).sum();
        let remote: u64 = arrays.iter().map(|a| a.stats.remote_misses).sum();
        let total = &out.report.total;
        assert_eq!(local, total.local_misses, "P={nprocs}");
        assert_eq!(remote, total.remote_misses, "P={nprocs}");

        // So does the per-region split (same accesses, rolled the other way),
        // and the grand totals agree between the two breakdowns.
        let rl: u64 = profile.regions.iter().map(|r| r.stats.local_misses).sum();
        let rr: u64 = profile.regions.iter().map(|r| r.stats.remote_misses).sum();
        assert_eq!((rl, rr), (local, remote), "P={nprocs}");
        let t = profile.totals();
        assert_eq!(t.local_misses, local);
        assert_eq!(t.remote_misses, remote);

        // TLB misses and invalidations balance too.
        assert_eq!(t.tlb_misses, total.tlb_misses, "P={nprocs}");
        assert_eq!(t.invalidations_sent, total.invalidations_sent, "P={nprocs}");

        // Element loads/stores are a subset of the machine's (scalar spills
        // and argument-check traffic also count there), never more.
        assert!(t.loads <= total.loads);
        assert!(t.stores <= total.stores);
        assert!(t.loads + t.stores > 0);
    }
}

#[test]
fn profile_off_reports_none_and_matches_cycles() {
    let prog = compile_heat();
    let cfg = MachineConfig::scaled_origin2000(4, 64);
    let profiled = prog
        .run(&cfg, &ExecOptions::new(4).profile(true))
        .expect("runs");
    let plain = prog.run(&cfg, &ExecOptions::new(4)).expect("runs");
    assert!(plain.profile().is_none());
    // Attribution is observational: simulated time must be identical.
    assert_eq!(plain.report.total_cycles, profiled.report.total_cycles);
    assert_eq!(plain.report.total, profiled.report.total);
}
