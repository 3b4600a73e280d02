//! End-to-end behaviour tests: mini-Fortran source → frontend → directive
//! compiler → executor → verified results and machine effects.

use dsm_compile::{compile_strings, OptConfig};
use dsm_exec::{run_outcome, Engine, ExecError, ExecOptions};
use dsm_machine::{Machine, MachineConfig};

fn run_with(
    src: &str,
    opt: &OptConfig,
    nprocs: usize,
    captures: &[&str],
) -> (dsm_exec::RunReport, Vec<Vec<f64>>) {
    let c = compile_strings(&[("t.f", src)], opt).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(nprocs));
    let o = run_outcome(
        &mut m,
        &c.program,
        &ExecOptions::new(nprocs).capture(captures),
    )
    .expect("runs");
    (o.report, o.captures)
}

fn run_ok(src: &str, nprocs: usize, captures: &[&str]) -> (dsm_exec::RunReport, Vec<Vec<f64>>) {
    run_with(src, &OptConfig::default(), nprocs, captures)
}

#[test]
fn serial_loop_computes_values() {
    let (_, cap) = run_ok(
        "      program main\n      integer i\n      real*8 a(8)\n      do i = 1, 8\n        a(i) = 3*i + 1\n      enddo\n      end\n",
        1,
        &["a"],
    );
    let expect: Vec<f64> = (1..=8).map(|i| (3 * i + 1) as f64).collect();
    assert_eq!(cap[0], expect);
}

#[test]
fn doacross_simple_covers_all_iterations() {
    let (r, cap) = run_ok(
        "      program main\n      integer i\n      real*8 a(100)\nc$doacross local(i) shared(a)\n      do i = 1, 100\n        a(i) = i*i\n      enddo\n      end\n",
        4,
        &["a"],
    );
    assert_eq!(r.parallel_regions, 1);
    for (i, v) in cap[0].iter().enumerate() {
        assert_eq!(*v, ((i + 1) * (i + 1)) as f64, "element {i}");
    }
}

#[test]
fn reshaped_block_affinity_correct_all_optimization_levels() {
    let src = "      program main\n      integer i\n      real*8 a(64)\nc$distribute_reshape a(block)\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 64\n        a(i) = 2*i\n      enddo\n      end\n";
    let expect: Vec<f64> = (1..=64).map(|i| (2 * i) as f64).collect();
    for opt in [
        OptConfig::none(),
        OptConfig::tile_peel_only(),
        OptConfig::tile_peel_hoist(),
        OptConfig::default(),
    ] {
        let (_, cap) = run_with(src, &opt, 4, &["a"]);
        assert_eq!(cap[0], expect, "wrong results under {opt:?}");
    }
}

#[test]
fn reshaped_stencil_peeling_preserves_semantics() {
    // Stencil across portion boundaries: peeled vs unpeeled must agree.
    let src = "      program main\n      integer i\n      real*8 a(64), b(64)\nc$distribute_reshape a(block)\nc$distribute_reshape b(block)\n      do i = 1, 64\n        b(i) = i\n      enddo\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 2, 63\n        a(i) = (b(i-1) + b(i) + b(i+1)) / 3.0\n      enddo\n      end\n";
    let (_, unopt) = run_with(src, &OptConfig::none(), 4, &["a"]);
    let (_, opt) = run_with(src, &OptConfig::default(), 4, &["a"]);
    assert_eq!(unopt[0], opt[0]);
    // Interior element sanity: a(10) = (9+10+11)/3 = 10.
    assert_eq!(opt[0][9], 10.0);
    // Untouched boundary stays zero.
    assert_eq!(opt[0][0], 0.0);
}

#[test]
fn cyclic_k_distribution_correct() {
    let src = "      program main\n      integer i\n      real*8 a(100)\nc$distribute_reshape a(cyclic(5))\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 100\n        a(i) = i + 0.5\n      enddo\n      end\n";
    let (_, cap) = run_with(src, &OptConfig::default(), 4, &["a"]);
    for (i, v) in cap[0].iter().enumerate() {
        assert_eq!(*v, (i + 1) as f64 + 0.5, "element {i}");
    }
}

#[test]
fn two_dim_nest_block_block() {
    // Paper's nest example: all (i,j) iterations concurrent.
    let src = "      program main\n      integer i, j\n      real*8 b(16, 16)\nc$distribute_reshape b(block, block)\nc$doacross nest(i, j) local(i, j) affinity(i, j) = data(b(i, j))\n      do i = 1, 16\n        do j = 1, 16\n          b(i, j) = i + 10*j\n        enddo\n      enddo\n      end\n";
    let (_, cap) = run_with(src, &OptConfig::default(), 4, &["b"]);
    // Column-major: element (i,j) at (i-1) + 16*(j-1).
    for j in 1..=16usize {
        for i in 1..=16usize {
            assert_eq!(
                cap[0][(i - 1) + 16 * (j - 1)],
                (i + 10 * j) as f64,
                "({i},{j})"
            );
        }
    }
}

#[test]
fn transpose_with_mixed_distributions() {
    let src = "      program main\n      integer i, j\n      real*8 a(32, 32), b(32, 32)\nc$distribute_reshape a(*, block)\nc$distribute_reshape b(block, *)\n      do j = 1, 32\n        do i = 1, 32\n          b(i, j) = 100*i + j\n        enddo\n      enddo\nc$doacross local(i, j) affinity(j) = data(a(i, j))\n      do j = 1, 32\n        do i = 1, 32\n          a(j, i) = b(i, j)\n        enddo\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 4, &["a"]);
    // a(j,i) == b(i,j) = 100 i + j.
    for i in 1..=32usize {
        for j in 1..=32usize {
            assert_eq!(
                cap[0][(j - 1) + 32 * (i - 1)],
                (100 * i + j) as f64,
                "a({j},{i})"
            );
        }
    }
}

#[test]
fn subroutine_call_binds_whole_arrays_and_scalars() {
    let src = "      program main\n      real*8 a(20)\n      integer n\n      n = 20\n      call fill(a, n)\n      end\n      subroutine fill(x, n)\n      integer n, i\n      real*8 x(n)\n      do i = 1, n\n        x(i) = 7*i\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 2, &["a"]);
    let expect: Vec<f64> = (1..=20).map(|i| (7 * i) as f64).collect();
    assert_eq!(cap[0], expect);
}

#[test]
fn reshaped_array_through_call_chain() {
    // Propagation + cloning must produce correct execution.
    let src = "      program main\n      real*8 a(64)\nc$distribute_reshape a(block)\n      call init(a)\n      call scale2(a)\n      end\n      subroutine init(x)\n      integer i\n      real*8 x(64)\n      do i = 1, 64\n        x(i) = i\n      enddo\n      end\n      subroutine scale2(x)\n      integer i\n      real*8 x(64)\n      do i = 1, 64\n        x(i) = 2 * x(i)\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 4, &["a"]);
    let expect: Vec<f64> = (1..=64).map(|i| (2 * i) as f64).collect();
    assert_eq!(cap[0], expect);
}

#[test]
fn portion_element_passing_paper_example() {
    // The Section 3.2.1 example: call mysub once per 5-element portion.
    let src = "      program main\n      integer i\n      real*8 a(1000)\nc$distribute_reshape a(cyclic(5))\n      do i = 1, 1000, 5\n        call mysub(a(i), i)\n      enddo\n      end\n      subroutine mysub(x, base)\n      integer j, base\n      real*8 x(5)\n      do j = 1, 5\n        x(j) = base + j\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 4, &["a"]);
    for i in (1..=1000).step_by(5) {
        for j in 1..=5usize {
            assert_eq!(
                cap[0][i - 1 + j - 1],
                (i + j) as f64,
                "portion {i} elem {j}"
            );
        }
    }
}

#[test]
fn runtime_check_catches_oversized_formal() {
    let src = "      program main\n      integer i\n      real*8 a(1000)\nc$distribute_reshape a(cyclic(5))\n      i = 1\n      call mysub(a(i))\n      end\n      subroutine mysub(x)\n      real*8 x(6)\n      x(1) = 0.0\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(4));
    let err = run_outcome(&mut m, &c.program, &ExecOptions::new(4).with_checks(true))
        .expect_err("formal larger than portion must fail");
    match err {
        ExecError::Runtime(e) => assert!(e.to_string().contains("portion"), "{e}"),
        other => panic!("unexpected error {other}"),
    }
    // Without checks the (incorrect) program is not caught — the paper's
    // point about silent corruption.
    let mut m2 = Machine::new(MachineConfig::small_test(4));
    let c2 = compile_strings(&[("t.f", src)], &OptConfig::default()).unwrap();
    assert!(run_outcome(&mut m2, &c2.program, &ExecOptions::new(4)).is_ok());
}

#[test]
fn runtime_check_passes_for_correct_program() {
    let src = "      program main\n      integer i\n      real*8 a(1000)\nc$distribute_reshape a(cyclic(5))\n      do i = 1, 1000, 5\n        call mysub(a(i))\n      enddo\n      end\n      subroutine mysub(x)\n      integer j\n      real*8 x(5)\n      do j = 1, 5\n        x(j) = 1.0\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(4));
    let r = run_outcome(&mut m, &c.program, &ExecOptions::new(4).with_checks(true))
        .expect("runs")
        .report;
    let (inserts, lookups) = r.argcheck_ops;
    assert_eq!(inserts, 200, "one hash insert per call");
    assert!(lookups >= 200, "one lookup per array formal");
}

#[test]
fn out_of_bounds_detected() {
    let src = "      program main\n      integer i\n      real*8 a(10)\n      do i = 1, 11\n        a(i) = i\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(1));
    let err = run_outcome(&mut m, &c.program, &ExecOptions::new(1)).unwrap_err();
    assert!(matches!(err, ExecError::OutOfBounds { .. }), "{err}");
}

#[test]
fn redistribute_changes_page_homes() {
    let src = "      program main\n      integer i\n      real*8 a(512)\nc$distribute a(block)\n      do i = 1, 512\n        a(i) = i\n      enddo\nc$redistribute a(cyclic(128))\n      do i = 1, 512\n        a(i) = a(i) + 1\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 4, &["a"]);
    for (i, v) in cap[0].iter().enumerate() {
        assert_eq!(*v, (i + 2) as f64);
    }
}

#[test]
fn common_block_shared_across_subroutines() {
    let src = "      program main\n      integer i\n      real*8 a(32)\n      common /blk/ a\nc$distribute_reshape a(block)\n      call setup\n      do i = 1, 32\n        a(i) = a(i) * 10\n      enddo\n      end\n      subroutine setup\n      integer i\n      real*8 a(32)\n      common /blk/ a\nc$distribute_reshape a(block)\n      do i = 1, 32\n        a(i) = i\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 2, &["a"]);
    let expect: Vec<f64> = (1..=32).map(|i| (10 * i) as f64).collect();
    assert_eq!(cap[0], expect);
}

// ---------------------------------------------------------------------
// Performance-shape tests: the machine effects the paper relies on.
// ---------------------------------------------------------------------

#[test]
fn parallel_run_is_faster_than_serial() {
    let src = "      program main\n      integer i\n      real*8 a(4096)\nc$distribute_reshape a(block)\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 4096\n        a(i) = a(i) + 1.5\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m1 = Machine::new(MachineConfig::small_test(1));
    let r1 = run_outcome(&mut m1, &c.program, &ExecOptions::new(1)).unwrap().report;
    let c8 = compile_strings(&[("t.f", src)], &OptConfig::default()).unwrap();
    let mut m8 = Machine::new(MachineConfig::small_test(8));
    let r8 = run_outcome(&mut m8, &c8.program, &ExecOptions::new(8)).unwrap().report;
    let speedup = r8.speedup_over(&r1);
    assert!(speedup > 2.0, "8-way speedup only {speedup:.2}");
}

#[test]
fn tiling_reduces_cycles_on_reshaped_access() {
    let src = "      program main\n      integer i, rep\n      real*8 a(2048)\nc$distribute_reshape a(block)\n      do rep = 1, 4\n        do i = 1, 2048\n          a(i) = a(i) + 1.0\n        enddo\n      enddo\n      end\n";
    let (raw, _) = run_with(src, &OptConfig::none(), 4, &[]);
    let (tiled, _) = run_with(src, &OptConfig::tile_peel_only(), 4, &[]);
    let (hoisted, _) = run_with(src, &OptConfig::tile_peel_hoist(), 4, &[]);
    assert!(
        raw.total_cycles > tiled.total_cycles,
        "tiling must help: raw {} vs tiled {}",
        raw.total_cycles,
        tiled.total_cycles
    );
    assert!(
        tiled.total_cycles > hoisted.total_cycles,
        "hoisting must help: tiled {} vs hoisted {}",
        tiled.total_cycles,
        hoisted.total_cycles
    );
}

#[test]
fn fp_divmod_cheaper_than_integer() {
    // Cyclic serial loop stays raw; FP emulation should shave cycles.
    let src = "      program main\n      integer i\n      real*8 a(2048)\nc$distribute_reshape a(cyclic)\n      do i = 1, 2048\n        a(i) = i\n      enddo\n      end\n";
    let (int_div, _) = run_with(src, &OptConfig::tile_peel_hoist(), 4, &[]);
    let (fp_div, _) = run_with(src, &OptConfig::default(), 4, &[]);
    assert!(
        int_div.total_cycles > fp_div.total_cycles,
        "fp emulation must help: {} vs {}",
        int_div.total_cycles,
        fp_div.total_cycles
    );
}

#[test]
fn affinity_scheduling_cuts_remote_misses() {
    // Parallel-init block array: with affinity, each processor touches
    // its own portion; with plain simple scheduling over a *cyclic*
    // array, work lands away from data.
    let good = "      program main\n      integer i, rep\n      real*8 a(8192)\nc$distribute_reshape a(block)\n      do rep = 1, 3\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 8192\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      end\n";
    let bad = "      program main\n      integer i, rep\n      real*8 a(8192)\nc$distribute_reshape a(cyclic(8))\n      do rep = 1, 3\nc$doacross local(i) shared(a)\n      do i = 1, 8192\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      end\n";
    let (rg, _) = run_ok(good, 8, &[]);
    // The shipping compiler would tile even the no-affinity loop (and our
    // tiler does); compile the bad case unoptimized to expose the raw
    // simple-schedule behaviour the comparison needs.
    let (rb, _) = run_with(bad, &OptConfig::none(), 8, &[]);
    let good_remote = rg.total.remote_fraction();
    let bad_remote = rb.total.remote_fraction();
    assert!(
        good_remote < bad_remote,
        "affinity should be more local: {good_remote:.2} vs {bad_remote:.2}"
    );
}

#[test]
fn reshaped_beats_first_touch_on_serial_init() {
    // Serial init places all pages on node 0 under first-touch; the
    // parallel sweep then hammers node 0. Reshaping fixes placement.
    let plain = "      program main\n      integer i, rep\n      real*8 a(16384)\n      do i = 1, 16384\n        a(i) = 1.0\n      enddo\n      do rep = 1, 3\nc$doacross local(i) shared(a)\n      do i = 1, 16384\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      end\n";
    let reshaped = "      program main\n      integer i, rep\n      real*8 a(16384)\nc$distribute_reshape a(block)\n      do i = 1, 16384\n        a(i) = 1.0\n      enddo\n      do rep = 1, 3\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 16384\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      end\n";
    let (rp, _) = run_ok(plain, 8, &[]);
    let (rr, _) = run_ok(reshaped, 8, &[]);
    assert!(
        rr.total.remote_misses < rp.total.remote_misses,
        "reshaped should localize misses: {} vs {}",
        rr.total.remote_misses,
        rp.total.remote_misses
    );
}

#[test]
fn nprocs_one_still_works_with_distributions() {
    // Table 2 scenario: full reshaped program on a single processor.
    let src = "      program main\n      integer i\n      real*8 a(256)\nc$distribute_reshape a(block)\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 256\n        a(i) = i\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 1, &["a"]);
    assert_eq!(cap[0][255], 256.0);
}

#[test]
fn os_page_migration_extension_fixes_first_touch_over_time() {
    // Extension (not in the paper's system; its related work cites
    // Verghese et al.): with the OS migration daemon on, a serially
    // initialized array drifts to the processors that use it, repairing
    // first-touch placement without any directives.
    let src = "      program main\n      integer i, rep\n      real*8 a(8192)\n      do i = 1, 8192\n        a(i) = 1.0\n      enddo\n      do rep = 1, 8\nc$doacross local(i) shared(a)\n      do i = 1, 8192\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut cfg = MachineConfig::small_test(8);
    // Small caches so the sweeps keep missing to memory.
    cfg.l2 = dsm_machine::CacheConfig::new(2048, 64, 2);
    cfg.l1 = dsm_machine::CacheConfig::new(512, 32, 2);
    let mut plain = Machine::new(cfg.clone());
    let r_plain = run_outcome(&mut plain, &c.program, &ExecOptions::new(8)).unwrap().report;
    cfg.migration = dsm_machine::MigrationPolicy::threshold(4);
    let c2 = compile_strings(&[("t.f", src)], &OptConfig::default()).unwrap();
    let mut migrating = Machine::new(cfg);
    let r_mig = run_outcome(&mut migrating, &c2.program, &ExecOptions::new(8)).unwrap().report;
    assert!(migrating.migrations() > 0, "daemon must migrate hot pages");
    assert!(
        r_mig.total.remote_misses < r_plain.total.remote_misses,
        "migration should localize misses: {} vs {}",
        r_mig.total.remote_misses,
        r_plain.total.remote_misses
    );
}

#[test]
fn idle_processors_do_no_work_in_small_grids() {
    // 8 processors, but the 1-D grid of a 6-element-per-portion array
    // still uses all 8; with onto-restricted 2-D grids, processors beyond
    // the grid stay idle yet the barrier still levels their clocks.
    let src = "      program main\n      integer i, j\n      real*8 a(12, 12)\nc$distribute_reshape a(block, block) onto(3, 1)\nc$doacross nest(i, j) local(i, j) affinity(i, j) = data(a(i, j))\n      do i = 1, 12\n        do j = 1, 12\n          a(i, j) = i * j\n        enddo\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(8));
    let (r, cap) =
        run_outcome(&mut m, &c.program, &ExecOptions::new(8).capture(&["a"])).map(|o| (o.report, o.captures)).expect("runs");
    for i in 1..=12usize {
        for j in 1..=12usize {
            assert_eq!(cap[0][(i - 1) + 12 * (j - 1)], (i * j) as f64);
        }
    }
    // Every processor's clock reaches the end (levelled at the barrier).
    let end = r.per_proc.iter().map(|c| c.cycles).max().unwrap();
    for p in 0..8 {
        assert_eq!(r.per_proc[p].cycles, end, "P{p} not levelled");
    }
}

#[test]
fn cyclic_nest_two_dims() {
    let src = "      program main\n      integer i, j\n      real*8 a(18, 18)\nc$distribute_reshape a(cyclic(2), cyclic(3))\nc$doacross nest(i, j) local(i, j) affinity(i, j) = data(a(i, j))\n      do i = 1, 18\n        do j = 1, 18\n          a(i, j) = 100*i + j\n        enddo\n      enddo\n      end\n";
    let (_, cap) = run_ok(src, 4, &["a"]);
    for i in 1..=18usize {
        for j in 1..=18usize {
            assert_eq!(
                cap[0][(i - 1) + 18 * (j - 1)],
                (100 * i + j) as f64,
                "({i},{j})"
            );
        }
    }
}

#[test]
fn step_limit_catches_runaway_programs() {
    let src = "      program main\n      integer i\n      real*8 a(4)\n      do i = 1, 100000\n        a(1) = i\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(1));
    let mut opts = ExecOptions::new(1);
    opts.max_steps = 1000;
    let err = dsm_exec::run_outcome(&mut m, &c.program, &opts).unwrap_err();
    assert!(matches!(err, ExecError::StepLimit));
}

#[test]
fn nprocs_out_of_range_is_an_options_error() {
    let src = "      program main\n      real*8 a(4)\n      a(1) = 1.0\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    for engine in [Engine::Bytecode, Engine::Interp] {
        for nprocs in [0, 3] {
            let mut m = Machine::new(MachineConfig::small_test(2));
            let err = run_outcome(&mut m, &c.program, &ExecOptions::new(nprocs).engine(engine))
                .unwrap_err();
            assert!(matches!(err, ExecError::Options(_)), "{engine} P={nprocs}");
            assert_eq!(err.code(), "exec.options");
        }
    }
}

/// The fork/join core is one function for both engines, including its
/// duplicate-member merge. No source program reaches that path (every
/// descriptor is re-chunked with the team), so build the one IR that
/// does: an array of kind `None` that a `redistribute` nevertheless
/// distributes over four processors, which `resize_team(2)` then leaves
/// alone. The runtime-affinity loop's four grid coordinates clamp onto a
/// team of two — P1 stands in for coordinates 1, 2 and 3 — and both
/// engines must agree.
#[test]
fn clamped_affinity_members_merge_identically_in_every_cell() {
    let src = "      program main\n      integer i\n      real*8 a(256)\nc$distribute a(block)\nc$redistribute a(block)\nc$resize_team(2)\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 256\n        a(i) = 2*i\n      enddo\n      end\n";
    let mut program = compile_strings(&[("t.f", src)], &OptConfig::none())
        .expect("compiles")
        .program;
    let main = program.main;
    program.subs[main].arrays[0].dist_kind = dsm_ir::DistKind::None;
    let expect: Vec<f64> = (1..=256).map(|i| f64::from(2 * i)).collect();
    let mut cells = Vec::new();
    for engine in [Engine::Bytecode, Engine::Interp] {
        let mut m = Machine::new(MachineConfig::small_test(4));
        let opts = ExecOptions::new(4).engine(engine).capture(&["a"]);
        let o = run_outcome(&mut m, &program, &opts).expect("runs");
        assert_eq!(o.captures[0], expect, "{engine}");
        let stores: Vec<u64> = o.report.per_proc.iter().map(|c| c.stores).collect();
        assert_eq!(stores, [64, 192, 0, 0], "{engine}");
        cells.push((
            o.report.total_cycles,
            o.report.parallel_cycles,
            o.report.parallel_regions,
            o.report.per_proc,
        ));
    }
    assert!(cells.windows(2).all(|w| w[0] == w[1]), "{cells:#?}");
}

/// A member that faults inside a parallel region must not leave the
/// machine with access-count migration epochs paused: the next run on the
/// same `Machine` would never fire one in its serial sections. Report
/// counters are machine totals, so the reference is not a fresh machine
/// but a twin with the same history on which the caller resumed epochs
/// by hand — which a correct exit path makes a no-op.
#[test]
fn faulting_serial_team_member_leaves_epochs_running() {
    let faulty = "      program main\n      integer i\n      real*8 a(10)\nc$doacross local(i) shared(a)\n      do i = 1, 10\n        a(i + 100) = i\n      enddo\n      end\n";
    // Serial first touch, parallel sweeps that pull the pages to their
    // users, then serial sweeps whose access-count epochs pull them back.
    let migrating = "      program main\n      integer i, rep\n      real*8 a(8192)\n      do i = 1, 8192\n        a(i) = 1.0\n      enddo\n      do rep = 1, 4\nc$doacross local(i) shared(a)\n      do i = 1, 8192\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      do rep = 1, 4\n      do i = 1, 8192\n        a(i) = a(i) + 1.0\n      enddo\n      enddo\n      end\n";
    let compile = |src: &str| {
        compile_strings(&[("t.f", src)], &OptConfig::default())
            .expect("compiles")
            .program
    };
    let (faulty, migrating) = (compile(faulty), compile(migrating));
    let mut cfg = MachineConfig::small_test(8);
    // Small caches so the sweeps keep missing to memory.
    cfg.l2 = dsm_machine::CacheConfig::new(2048, 64, 2);
    cfg.l1 = dsm_machine::CacheConfig::new(512, 32, 2);
    let opts = ExecOptions::new(8).migration(dsm_machine::MigrationPolicy::threshold(4));
    let second_run = |resume_by_hand: bool| {
        let mut m = Machine::new(cfg.clone());
        let err = run_outcome(&mut m, &faulty, &opts).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { .. }), "{err}");
        if resume_by_hand {
            m.pause_epochs(false);
        }
        run_outcome(&mut m, &migrating, &opts).expect("runs").report
    };
    let (after_fault, resumed) = (second_run(false), second_run(true));
    assert!(resumed.pages_migrated > 0, "the reference run must migrate");
    assert_eq!(after_fault.digest_json(), resumed.digest_json());
}

// ---------------------------------------------------------------------
// Bytecode against the interpreter: literal operands and tile hints.
// ---------------------------------------------------------------------

/// One engine's run of a program on a fresh machine.
#[derive(PartialEq)]
struct Cell {
    /// Captured arrays, as bits.
    captures: Vec<Vec<u64>>,
    /// Loads and stores per processor.
    traffic: Vec<(u64, u64)>,
    /// `RunReport::digest_json`: cycles and every counter.
    digest: String,
    /// `Profile::to_json` when profiling is on: per-array, per-region and
    /// per-page attribution.
    profile: Option<String>,
}

fn cell(
    program: &dsm_ir::Program,
    nprocs: usize,
    opts: &ExecOptions,
    engine: Engine,
) -> Result<Cell, ExecError> {
    let mut m = Machine::new(MachineConfig::small_test(nprocs));
    let opts = opts.clone().engine(engine);
    let o = run_outcome(&mut m, program, &opts)?;
    let bits = |c: &Vec<f64>| c.iter().map(|x| x.to_bits()).collect();
    Ok(Cell {
        captures: o.captures.iter().map(bits).collect(),
        traffic: o.report.per_proc.iter().map(|c| (c.loads, c.stores)).collect(),
        digest: o.report.digest_json(),
        profile: o.report.profile.as_ref().map(|p| p.to_json()),
    })
}

/// The bytecode engine agrees with the interpreter: on the error, or on
/// the captures, every processor's loads and stores, and the whole report
/// digest (every run is deterministic, docs/SIMULATOR.md). Returns the
/// captures.
fn cells_agree(
    program: &dsm_ir::Program,
    nprocs: usize,
    opts: &ExecOptions,
) -> Result<Vec<Vec<f64>>, ExecError> {
    let reference = cell(program, nprocs, opts, Engine::Interp);
    match (cell(program, nprocs, opts, Engine::Bytecode), &reference) {
        (Ok(got), Ok(want)) => {
            assert!(got.captures == want.captures, "captures differ");
            assert_eq!(got.traffic, want.traffic);
            assert_eq!(got.digest, want.digest);
            assert_eq!(got.profile, want.profile);
        }
        (Err(got), Err(want)) => assert_eq!(&got, want),
        (got, _) => panic!(
            "bytecode: {:?}, the reference {:?}",
            got.map(|_| ()),
            reference.as_ref().map(|_| ())
        ),
    }
    let floats = |c: &Vec<u64>| c.iter().map(|&b| f64::from_bits(b)).collect();
    Ok(reference?.captures.iter().map(floats).collect())
}

/// Every `BinOp` with a literal on the right and on the left, integer and
/// real, against variables of both types: the literal-carrying ops the
/// bytecode compiler emits compute the interpreter's value at the
/// interpreter's cost (the cycle total tells `int_div` from `fp_div`, so
/// a wrong promotion shows even where the stored value is the same).
#[test]
fn literal_operands_match_the_interpreter() {
    use dsm_ir::{BinOp::*, Expr, Stmt};
    let ops = [Add, Sub, Mul, Div, Rem, Pow, Lt, Le, Gt, Ge, Eq, Ne, And, Or];
    let skeleton = "      program main\n      integer n, m, z, big\n      real*8 x, y, r(200)\n      n = 7\n      m = 2\n      z = 0\n      big = 70\n      x = 7.0\n      y = 2.0\n      r(1) = 0.0\n      end\n";
    let compiled = compile_strings(&[("t.f", skeleton)], &OptConfig::none()).expect("compiles");
    let main = compiled.program.main;
    let sub = &compiled.program.subs[main];
    let var = |name: &str| Expr::Var(sub.scalar_named(name).expect("declared"));
    let r = sub.array_named("r").expect("declared");
    let (i, f) = (Expr::IConst, Expr::FConst);
    let with_body = |exprs: Vec<Expr>| {
        let mut program = compiled.program.clone();
        let body = &mut program.subs[main].body;
        body.pop();
        for (k, value) in exprs.into_iter().enumerate() {
            body.push(Stmt::Assign {
                array: r,
                indices: vec![Expr::IConst(k as i64 + 1)],
                value,
                mode: dsm_ir::AddrMode::Direct,
            });
        }
        program
    };
    let bin = |op, a: &Expr, b: &Expr| Expr::Binary(op, Box::new(a.clone()), Box::new(b.clone()));
    let opts = ExecOptions::new(1).capture(&["r"]);

    let mut exprs = Vec::new();
    for op in ops {
        for v in [var("n"), var("x")] {
            for lit in [i(2), f(2.0)] {
                exprs.push(bin(op, &v, &lit));
            }
        }
        for lit in [i(7), f(7.0)] {
            for v in [var("m"), var("y")] {
                exprs.push(bin(op, &lit, &v));
            }
        }
        // Both sides literal: the right one rides, the left is a `Const`.
        exprs.push(bin(op, &i(7), &f(2.0)));
    }
    // `**` leaves the integers on a negative exponent and clamps a huge
    // one; `mod` is non-negative; real division by zero is IEEE.
    exprs.extend([
        bin(Pow, &var("m"), &i(-1)),
        bin(Pow, &i(2), &bin(Sub, &i(0), &var("n"))),
        bin(Pow, &var("m"), &i(70)),
        bin(Pow, &i(2), &var("big")),
        bin(Rem, &bin(Sub, &i(0), &var("n")), &i(3)),
        bin(Rem, &i(-7), &var("m")),
        bin(Div, &var("x"), &i(0)),
        bin(Div, &f(1.0), &var("z")),
    ]);
    let n_table = ops.len() * 9;
    let caps = cells_agree(&with_body(exprs), 1, &opts).expect("runs");
    // Spot values, so that agreeing on nonsense cannot pass: the `Div`
    // and `Pow` rows, and the edge cases.
    let row = |op| {
        let at = ops.iter().position(|o| *o == op).expect("in the table") * 9;
        &caps[0][at..at + 9]
    };
    assert_eq!(row(Div), [3.0, 3.5, 3.5, 3.5, 3.0, 3.5, 3.5, 3.5, 3.5]);
    assert_eq!(row(Pow), [49.0; 9]);
    assert_eq!(row(Rem), [1.0; 9]);
    let min = i64::MIN as f64;
    assert_eq!(
        caps[0][n_table..n_table + 8],
        [0.5, 2f64.powi(-7), min, min, 2.0, 1.0, f64::INFINITY, f64::INFINITY]
    );

    // Integer zero divisors are errors — the same one from every cell,
    // whichever side the literal is on.
    for (expr, msg) in [
        (bin(Div, &var("n"), &i(0)), "division by zero"),
        (bin(Div, &i(7), &var("z")), "division by zero"),
        (bin(Rem, &var("n"), &i(0)), "mod by zero"),
        (bin(Rem, &var("x"), &f(0.5)), "mod by zero"),
        (bin(Rem, &i(7), &var("z")), "mod by zero"),
        (bin(Rem, &f(7.0), &var("z")), "mod by zero"),
    ] {
        let err = cells_agree(&with_body(vec![expr.clone()]), 1, &opts).unwrap_err();
        assert!(err.to_string().ends_with(msg), "{expr:?}: {err}");
    }
}

fn compiled(src: &str) -> dsm_ir::Program {
    compile_strings(&[("t.f", src)], &OptConfig::default())
        .expect("compiles")
        .program
}

/// One reference site sweeps an array whose plan is rebuilt under it: by
/// `c$redistribute`, by `c$resize_team` mid-run and by `resize_to` before
/// the first statement. A tile hint is only a guess, so no rebuild has
/// anything to invalidate — every cell agrees with the interpreter.
#[test]
fn a_site_keeps_working_across_redistribute_and_resize() {
    let src = "      program main\n      integer i, j, rep\n      real*8 a(64, 8)\nc$distribute a(block, *)\n      do rep = 1, 4\nc$doacross local(i, j) affinity(i) = data(a(i, 1))\n        do i = 1, 64\n          do j = 1, 8\n            a(i, j) = a(i, j) + i*rep + j\n          enddo\n        enddo\n        if (rep .eq. 1) then\nc$redistribute a(cyclic(4), *)\n        endif\n        if (rep .eq. 2) then\nc$resize_team(2)\n        endif\n        if (rep .eq. 3) then\nc$redistribute a(*, block)\n        endif\n      enddo\n      end\n";
    let program = compiled(src);
    let expect: Vec<f64> = (0..64 * 8)
        .map(|e| f64::from((e % 64 + 1) * 10 + 4 * (e / 64 + 1)))
        .collect();
    for opts in [ExecOptions::new(4), ExecOptions::new(4).resize_to(3)] {
        let caps = cells_agree(&program, 4, &opts.capture(&["a"])).expect("runs");
        assert_eq!(caps[0], expect);
    }
}

/// One subroutine, so one reference site, bound in turn to two reshaped
/// actuals: each call starts on the hint the other array's sweep left
/// (its last tile) and must find its own array's first tile.
#[test]
fn a_site_serves_two_actuals() {
    let src = "      program main\n      real*8 a(8, 12), b(8, 12)\nc$distribute_reshape a(*, block)\nc$distribute_reshape b(*, block)\n      call bump(a, 1)\n      call bump(b, 2)\n      call bump(a, 3)\n      call bump(b, 4)\n      end\n      subroutine bump(x, k)\n      integer i, j, k\n      real*8 x(8, 12)\nc$doacross local(i, j) affinity(j) = data(x(1, j))\n      do j = 1, 12\n        do i = 1, 8\n          x(i, j) = x(i, j) + k*(i + 100*j)\n        enddo\n      enddo\n      do j = 12, 1, -1\n        x(1, j) = x(1, j) + 0.5\n      enddo\n      end\n";
    let program = compiled(src);
    let caps = cells_agree(&program, 4, &ExecOptions::new(4).capture(&["a", "b"])).expect("runs");
    for (cap, k) in caps.iter().zip([4.0, 6.0]) {
        for (e, v) in cap.iter().enumerate() {
            let (i, j) = ((e % 8 + 1) as f64, (e / 8 + 1) as f64);
            let edge = if e % 8 == 0 { 1.0 } else { 0.0 };
            assert_eq!(*v, k * (i + 100.0 * j) + edge, "element {e}");
        }
    }
}

/// A sweep that leaves the array part-way: the tile test on the hinted
/// tile is the only bounds check a hit performs, so the access that
/// leaves the last tile — upward, downward, in either dimension, from a
/// bulk loop — must still raise the interpreter's error, payload and all.
#[test]
fn a_tiled_site_running_out_of_bounds_reports_the_interpreters_error() {
    let head = "      program main\n      integer i, j\n      real*8 a(8, 12)\nc$distribute_reshape a(block, block)\n";
    for (sweep, indices) in [
        ("      do j = 1, 13\n        do i = 1, 8\n          a(i, j) = i + j\n        enddo\n      enddo\n", [1, 13]),
        ("      do j = 1, 12\n        do i = 1, 9\n          a(i, j) = i + j\n        enddo\n      enddo\n", [9, 1]),
        ("      do j = 12, 0, -1\n        do i = 8, 1, -1\n          a(i, j) = a(i, j) + 1.0\n        enddo\n      enddo\n", [8, 0]),
        ("      do i = 8, -3, -1\n        a(i, 5) = 1.0\n      enddo\n", [0, 5]),
        ("      j = 4\n      do i = 1, 8\n        a(i, 3*j + 1) = 1.0\n      enddo\n", [1, 13]),
        ("c$doacross local(i, j) shared(a)\n      do j = 13, 13\n        do i = 1, 8\n          a(i, j) = i + j\n        enddo\n      enddo\n", [1, 13]),
    ] {
        let program = compiled(&format!("{head}{sweep}      end\n"));
        let err = cells_agree(&program, 4, &ExecOptions::new(4).capture(&["a"])).unwrap_err();
        let want = ExecError::OutOfBounds {
            array: "a".into(),
            indices: indices.to_vec(),
            extents: vec![8, 12],
        };
        assert_eq!(err, want, "{sweep}");
    }
}

// ---------------------------------------------------------------------
// Stream kernels against the interpreter, at every fallback edge.
// ---------------------------------------------------------------------

/// `b` filled serially, then `body` — the loops under test — then the
/// scalars `s` and `x` stored where the captures see them.
fn stencil_program(decls: &str, body: &str) -> dsm_ir::Program {
    compiled(&format!(
        "      program main\n      integer i, j, n, k(64)\n      real*8 a(64), b(64), c(64, 4), s, x\n{decls}      n = 3\n      s = 0.5\n      do i = 1, 64\n        b(i) = 2*i + 0.25\n        k(i) = 64 - i\n      enddo\n{body}      c(1, 1) = s\n      c(2, 1) = x\n      end\n"
    ))
}

/// Innermost loops the bytecode engine runs as stream kernels — or, at
/// each edge where a kernel's preconditions end, as the generic loop —
/// against the interpreter: captures, cycles and every counter, from all
/// four engine × team-mode cells, over contiguous, `block`-reshaped and
/// `cyclic(k)`-reshaped arrays, exact, profiled, sampled and migrating.
#[test]
fn loop_kernels_match_the_interpreter_at_every_fallback_edge() {
    let bodies = [
        // A stencil, forwards; trip counts 1 and 0; backwards; strided.
        "      do i = 2, 63\n        a(i) = (b(i-1) + b(i) + b(i+1)) / 3.0\n      enddo\n",
        "      do i = 7, 7\n        a(i) = b(i-1) + b(i+1)\n      enddo\n      do i = 9, 8\n        a(i) = b(i-1) + b(i+1)\n      enddo\n",
        "      do i = 63, 2, -1\n        a(i) = b(i+1) - b(i-1)\n      enddo\n      do i = 31, 60, 3\n        a(i) = a(i) + b(2*i - 59)\n      enddo\n",
        // The same loop inside a region, in chunks that ignore the tiles.
        "c$doacross local(i) shared(a, b)\n      do i = 2, 63\n        a(i) = (b(i-1) + b(i) + b(i+1)) / 3.0\n      enddo\n",
        // A loop-carried recurrence through memory.
        "      a(1) = 1.0\n      do i = 2, 64\n        a(i) = a(i-1) + b(i)\n      enddo\n",
        // One element loaded ten times in one statement (LU's shape).
        "      do i = 1, 64\n        a(i) = b(i) + b(i)*b(i) - 0.5*b(i)*b(i)*b(i) / (1.0 + b(i)*b(i)) + b(i) / (2.0 + b(i))\n      enddo\n",
        // Scalars written and read across statements and iterations.
        "      do i = 1, 64\n        x = b(i) * 2\n        s = s + x\n        a(i) = x + s + b(i)\n      enddo\n",
        // Integer arrays, both conversions, intrinsics, unary minus, the
        // loop variable as a value.
        "      do i = 1, 64\n        k(i) = b(i) + k(i) * i\n        a(i) = max(b(i), 40.0) - sqrt(abs(-b(i))) + k(i) + dble(i) + int(b(i))\n      enddo\n",
        // An integer division in the body: no kernel, same numbers.
        "      do i = 1, 64\n        a(i) = i / n + mod(i, n)\n      enddo\n",
        // A two-dimensional sweep: an invariant index, a fill, a copy.
        "      do j = 1, 4\n        do i = 1, 64\n          c(i, j) = b(i) * j\n        enddo\n      enddo\n      do j = 2, 4\n        do i = 1, 64\n          c(i, 1) = c(i, j)\n        enddo\n        do i = 1, 64\n          c(i, j) = 1.5 * n\n        enddo\n      enddo\n",
    ];
    let layouts = [
        "",
        "c$distribute a(block)\nc$distribute b(block)\nc$distribute c(block, *)\n",
        // A serial sweep crosses every tile boundary inside the loop.
        "c$distribute_reshape a(block)\nc$distribute_reshape b(block)\nc$distribute_reshape c(block, *)\n",
        "c$distribute_reshape a(cyclic(5))\nc$distribute_reshape b(cyclic(3))\nc$distribute_reshape c(*, cyclic(1))\n",
    ];
    // Affinity-scheduled (tiled and peeled when reshaped): each member's
    // chunk lies in its own tile, the stencil's halo in the neighbour's.
    let tiled = "c$doacross local(i) affinity(i) = data(a(i))\n      do i = 2, 63\n        a(i) = (b(i-1) + b(i) + b(i+1)) / 3.0\n      enddo\n";
    let plain = ExecOptions::new(4).capture(&["a", "c"]);
    for decls in layouts {
        for body in bodies.into_iter().chain((!decls.is_empty()).then_some(tiled)) {
            let program = stencil_program(decls, body);
            cells_agree(&program, 4, &plain).unwrap_or_else(|e| panic!("{decls}{body}: {e}"));
        }
    }
    // The observers and the page movers, over everything at once.
    let all: String = bodies.concat();
    for decls in layouts {
        let program = stencil_program(decls, &all);
        for opts in [
            plain.clone().profile(true),
            plain.clone().sampling(dsm_machine::SamplingConfig::parse("1/2").expect("valid rate")),
            plain.clone().migration(dsm_machine::MigrationPolicy::parse("threshold:4").expect("valid policy")),
        ] {
            cells_agree(&program, 4, &opts).unwrap_or_else(|e| panic!("{decls}: {e}"));
        }
    }
}

/// An index that leaves the array on the loop's last iteration: the
/// endpoint test refuses the kernel, and the generic loop runs up to the
/// faulting access and raises the interpreter's error there.
#[test]
fn a_kernel_loop_running_out_of_bounds_reports_the_interpreters_error() {
    for decls in ["", "c$distribute_reshape a(block)\nc$distribute_reshape b(block)\n"] {
        for (body, index) in [
            ("      do i = 2, 64\n        a(i) = b(i-1) + b(i+1)\n      enddo\n", 65),
            ("      do i = 63, 1, -1\n        a(i) = b(i-1) + b(i+1)\n      enddo\n", 0),
        ] {
            let program = stencil_program(decls, body);
            let err = cells_agree(&program, 4, &ExecOptions::new(4)).unwrap_err();
            let want = ExecError::OutOfBounds {
                array: "b".into(),
                indices: vec![index],
                extents: vec![64],
            };
            assert_eq!(err, want, "{decls}{body}");
        }
    }
}

/// Under a step budget a kernel or a fill runs only if the whole loop
/// fits what is left, and is charged all of it; otherwise the generic
/// loop aborts. For every budget from one statement to one more than the
/// program needs — so one below, equal to and one above each loop's total
/// among them — both engines end the same way: the budget at which the
/// program first completes is the same (each counted the same steps), a
/// completed run agrees on everything, and an aborted one stopped no
/// later than the interpreter's statement (the bytecode engine counts a
/// straight-line block when it enters it).
#[test]
fn step_budgets_end_both_engines_the_same_way() {
    use dsm_machine::ProcId;
    // A fill, a copy and a stencil.
    let body = "      do i = 1, 6\n        a(i) = 1.5 * n\n      enddo\n      do i = 1, 6\n        c(i, 2) = a(i)\n      enddo\n      do i = 2, 5\n        x = b(i-1) + b(i+1)\n        a(i) = x / 2.0\n      enddo\n";
    let program = stencil_program("", body);
    let outcome = |engine: Engine, budget: u64| {
        let mut m = Machine::new(MachineConfig::small_test(1));
        let opts = (ExecOptions::new(1).engine(engine))
            .max_steps(budget)
            .capture(&["a", "c"]);
        let result = run_outcome(&mut m, &program, &opts).map(|o| (o.captures, o.report.digest_json()));
        let c = m.counters(ProcId(0));
        (result, c.loads, c.stores)
    };
    let mut completed = 0;
    for budget in 1.. {
        let (interp, bytecode) = (outcome(Engine::Interp, budget), outcome(Engine::Bytecode, budget));
        match (&interp.0, &bytecode.0) {
            (Ok(_), Ok(_)) => {
                assert_eq!(bytecode, interp, "budget {budget}");
                completed += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!((a, b), (&ExecError::StepLimit, &ExecError::StepLimit));
                assert!(
                    bytecode.1 <= interp.1 && bytecode.2 <= interp.2,
                    "budget {budget}: the bytecode engine ran past the interpreter's abort"
                );
                assert_eq!(completed, 0, "budget {budget} aborts, a smaller one did not");
            }
            _ => panic!("budget {budget}: one engine aborted, the other completed"),
        }
        if completed == 2 {
            assert!(budget > 100, "the whole program in {budget} steps?");
            break;
        }
    }
}
