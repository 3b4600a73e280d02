//! Property-based end-to-end tests: for randomly chosen sizes,
//! distributions and processor counts, the compiled-and-executed program
//! computes exactly what a reference evaluation computes, at every
//! optimization level.

use dsm_compile::{compile_strings, OptConfig};
use dsm_exec::{run_outcome, ExecOptions};
use dsm_machine::{Machine, MachineConfig};
use proptest::prelude::*;

fn dist_str(d: usize) -> &'static str {
    match d {
        0 => "block",
        1 => "cyclic",
        _ => "cyclic(3)",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1-D saxpy-style sweep over a reshaped array: results equal the
    /// reference for every (n, dist, nprocs, opt) combination.
    #[test]
    fn reshaped_sweep_matches_reference(
        n in 8usize..120,
        d in 0usize..3,
        nprocs in 1usize..9,
        opt_idx in 0usize..4,
    ) {
        let opt = [
            OptConfig::none(),
            OptConfig::tile_peel_only(),
            OptConfig::tile_peel_hoist(),
            OptConfig::default(),
        ][opt_idx];
        let src = format!(
            "      program main\n      integer i\n      real*8 a({n})\nc$distribute_reshape a({})\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, {n}\n        a(i) = 3*i + 1\n      enddo\n      end\n",
            dist_str(d)
        );
        let c = compile_strings(&[("p.f", &src)], &opt).expect("compiles");
        let mut m = Machine::new(MachineConfig::small_test(nprocs));
        let (_, cap) =
            run_outcome(&mut m, &c.program, &ExecOptions::new(nprocs).capture(&["a"])).map(|o| (o.report, o.captures))
                .expect("runs");
        let expect: Vec<f64> = (1..=n).map(|i| (3 * i + 1) as f64).collect();
        prop_assert_eq!(&cap[0], &expect);
    }

    /// Stencils with random offsets: peeling must preserve exact results
    /// vs the unoptimized build.
    #[test]
    fn random_stencil_peeling_exact(
        n in 20usize..100,
        lo_off in 1usize..3,
        hi_off in 1usize..3,
        nprocs in 1usize..7,
    ) {
        let lb = 1 + lo_off;
        let ub = n - hi_off;
        let src = format!(
            "      program main\n      integer i\n      real*8 a({n}), b({n})\nc$distribute_reshape a(block)\nc$distribute_reshape b(block)\n      do i = 1, {n}\n        b(i) = i * 1.5\n      enddo\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = {lb}, {ub}\n        a(i) = b(i-{lo_off}) + b(i) + b(i+{hi_off})\n      enddo\n      end\n"
        );
        let run = |opt: &OptConfig| {
            let c = compile_strings(&[("p.f", &src)], opt).expect("compiles");
            let mut m = Machine::new(MachineConfig::small_test(nprocs));
            run_outcome(&mut m, &c.program, &ExecOptions::new(nprocs).capture(&["a"])).map(|o| (o.report, o.captures))
                .expect("runs")
                .1
                .remove(0)
        };
        let reference = run(&OptConfig::none());
        let optimized = run(&OptConfig::default());
        prop_assert_eq!(reference, optimized);
    }

    /// 2-D (block, block) nests: results independent of processor count.
    #[test]
    fn two_dim_results_independent_of_procs(
        n in 6usize..40,
        p1 in 1usize..9,
        p2 in 1usize..9,
    ) {
        let src = format!(
            "      program main\n      integer i, j\n      real*8 a({n}, {n})\nc$distribute_reshape a(block, block)\nc$doacross nest(i, j) local(i, j) affinity(i, j) = data(a(i, j))\n      do i = 1, {n}\n        do j = 1, {n}\n          a(i, j) = i * 100 + j\n        enddo\n      enddo\n      end\n"
        );
        let run = |nprocs: usize| {
            let c = compile_strings(&[("p.f", &src)], &OptConfig::default()).expect("compiles");
            let mut m = Machine::new(MachineConfig::small_test(nprocs));
            run_outcome(&mut m, &c.program, &ExecOptions::new(nprocs).capture(&["a"])).map(|o| (o.report, o.captures))
                .expect("runs")
                .1
                .remove(0)
        };
        prop_assert_eq!(run(p1), run(p2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A machine restored to its pristine snapshot re-runs a program
    /// bit-identically to the first run — captures, counters and total
    /// cycles — across engines, migration and sampling. This is the
    /// exec-level contract behind the daemon's machine pool: a pooled
    /// run must be indistinguishable from a fresh-machine run.
    #[test]
    fn restored_machine_reruns_bit_identically(
        n in 16usize..96,
        d in 0usize..3,
        nprocs in 1usize..5,
        engine_interp in proptest::arbitrary::any::<bool>(),
        migrate in proptest::arbitrary::any::<bool>(),
        sample in proptest::arbitrary::any::<bool>(),
    ) {
        let src = format!(
            "      program main\n      integer i\n      real*8 a({n})\nc$distribute_reshape a({})\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, {n}\n        a(i) = 3*i + 1\n      enddo\n      end\n",
            dist_str(d)
        );
        let c = compile_strings(&[("t.f", src.as_str())], &OptConfig::default())
            .expect("compiles");
        let mut opts = ExecOptions::new(nprocs).capture(&["a"]);
        if engine_interp {
            opts = opts.engine(dsm_exec::Engine::Interp);
        }
        if migrate {
            opts = opts.migration(dsm_machine::MigrationPolicy::threshold(2));
        }
        if sample {
            opts = opts.sampling(dsm_machine::SamplingConfig { rate: 4, seed: 2 });
        }
        let mut m = Machine::new(MachineConfig::small_test(nprocs));
        let pristine = m.snapshot();
        let first = run_outcome(&mut m, &c.program, &opts).expect("first run");
        m.restore(&pristine);
        let second = run_outcome(&mut m, &c.program, &opts).expect("re-run");
        prop_assert_eq!(second.report.digest_json(), first.report.digest_json());
        prop_assert_eq!(
            second.captures.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>(),
            first.captures.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}
