//! Language-semantics tests: the mini-Fortran constructs the workloads
//! don't exercise — intrinsics, mixed arithmetic, schedtype clauses,
//! `onto` grids, integer arrays, nested calls with scalar arguments.

use dsm_compile::{compile_strings, OptConfig};
use dsm_exec::{run_outcome, ExecOptions};
use dsm_machine::{Machine, MachineConfig};

fn run(src: &str, nprocs: usize, captures: &[&str]) -> (dsm_exec::RunReport, Vec<Vec<f64>>) {
    let c = compile_strings(&[("t.f", src)], &OptConfig::default())
        .unwrap_or_else(|e| panic!("compile failed: {e:?}"));
    let mut m = Machine::new(MachineConfig::small_test(nprocs));
    run_outcome(&mut m, &c.program, &ExecOptions::new(nprocs).capture(captures)).map(|o| (o.report, o.captures)).expect("runs")
}

#[test]
fn intrinsics_compute_correctly() {
    let (_, cap) = run(
        "      program main\n      real*8 a(8)\n      integer i\n      i = 3\n      a(1) = max(2, 7, 5)\n      a(2) = min(2.5, 1.5)\n      a(3) = mod(17, 5)\n      a(4) = abs(-4.5)\n      a(5) = sqrt(81.0)\n      a(6) = dble(i)\n      a(7) = int(3.9)\n      a(8) = 2 ** 10\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0], vec![7.0, 1.5, 2.0, 4.5, 9.0, 3.0, 3.0, 1024.0]);
}

#[test]
fn mixed_arithmetic_promotes() {
    let (_, cap) = run(
        "      program main\n      real*8 a(3)\n      integer i\n      i = 7\n      a(1) = i / 2\n      a(2) = i / 2.0\n      a(3) = 1 + 0.5\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0][0], 3.0, "integer division truncates");
    assert_eq!(cap[0][1], 3.5, "mixed division promotes");
    assert_eq!(cap[0][2], 1.5);
}

#[test]
fn logical_operators_and_branches() {
    let (_, cap) = run(
        "      program main\n      real*8 a(4)\n      integer i\n      do i = 1, 4\n        if (i .ge. 2 .and. i .le. 3) then\n          a(i) = 1.0\n        else\n          a(i) = -1.0\n        endif\n      enddo\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0], vec![-1.0, 1.0, 1.0, -1.0]);
}

#[test]
fn negative_step_loops() {
    let (_, cap) = run(
        "      program main\n      real*8 a(6)\n      integer i, k\n      k = 0\n      do i = 6, 1, -2\n        k = k + 1\n        a(i) = k\n      enddo\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0], vec![0.0, 3.0, 0.0, 2.0, 0.0, 1.0]);
}

#[test]
fn schedtype_interleave_covers_all() {
    let (_, cap) = run(
        "      program main\n      integer i\n      real*8 a(100)\nc$doacross local(i) schedtype(interleave(3))\n      do i = 1, 100\n        a(i) = i\n      enddo\n      end\n",
        4,
        &["a"],
    );
    for (i, v) in cap[0].iter().enumerate() {
        assert_eq!(*v, (i + 1) as f64);
    }
}

#[test]
fn schedtype_dynamic_covers_all() {
    let (r, cap) = run(
        "      program main\n      integer i\n      real*8 a(64)\nc$doacross local(i) schedtype(dynamic(4))\n      do i = 1, 64\n        a(i) = 2*i\n      enddo\n      end\n",
        4,
        &["a"],
    );
    assert_eq!(r.parallel_regions, 1);
    for (i, v) in cap[0].iter().enumerate() {
        assert_eq!(*v, (2 * (i + 1)) as f64);
    }
}

#[test]
fn onto_clause_shapes_the_grid() {
    // onto(4, 1) gives the first dimension four times the processors.
    let src = "      program main\n      integer i, j\n      real*8 a(32, 32)\nc$distribute_reshape a(block, block) onto(4, 1)\nc$doacross nest(i, j) local(i, j) affinity(i, j) = data(a(i, j))\n      do i = 1, 32\n        do j = 1, 32\n          a(i, j) = i + j\n        enddo\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(MachineConfig::small_test(8));
    let (_, cap) =
        run_outcome(&mut m, &c.program, &ExecOptions::new(8).capture(&["a"])).map(|o| (o.report, o.captures)).expect("runs");
    for i in 1..=32usize {
        for j in 1..=32usize {
            assert_eq!(cap[0][(i - 1) + 32 * (j - 1)], (i + j) as f64);
        }
    }
}

#[test]
fn integer_arrays_work() {
    let (_, cap) = run(
        "      program main\n      integer b(10), i\n      real*8 a(10)\n      do i = 1, 10\n        b(i) = i * i\n      enddo\n      do i = 1, 10\n        a(i) = b(i) + 0.5\n      enddo\n      end\n",
        2,
        &["a"],
    );
    for (i, v) in cap[0].iter().enumerate() {
        let k = (i + 1) as f64;
        assert_eq!(*v, k * k + 0.5);
    }
}

#[test]
fn scalar_arguments_pass_by_value() {
    let (_, cap) = run(
        "      program main\n      real*8 a(4)\n      integer n\n      n = 10\n      call twice(a, n + 5)\n      a(2) = n\n      end\n      subroutine twice(x, m)\n      integer m\n      real*8 x(4)\n      x(1) = 2 * m\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0][0], 30.0, "expression actual evaluated at call");
    assert_eq!(cap[0][1], 10.0, "caller's n unchanged (by-value model)");
}

#[test]
fn nested_subroutine_chain_with_portions() {
    let (_, cap) = run(
        "      program main\n      integer i\n      real*8 a(32)\nc$distribute_reshape a(block)\n      do i = 1, 32, 8\n        call outer(a(i))\n      enddo\n      end\n      subroutine outer(x)\n      real*8 x(8)\n      call inner(x)\n      end\n      subroutine inner(y)\n      integer j\n      real*8 y(8)\n      do j = 1, 8\n        y(j) = j\n      enddo\n      end\n",
        4,
        &["a"],
    );
    for (i, v) in cap[0].iter().enumerate() {
        assert_eq!(*v, (i % 8 + 1) as f64, "portion element {i}");
    }
}

#[test]
fn parameter_statement_in_directives_and_loops() {
    let (_, cap) = run(
        "      program main\n      integer n, k, i\n      parameter (n = 48, k = 6)\n      real*8 a(n)\nc$distribute_reshape a(cyclic(k))\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, n\n        a(i) = i\n      enddo\n      end\n",
        3,
        &["a"],
    );
    assert_eq!(cap[0][47], 48.0);
}

#[test]
fn empty_loops_execute_zero_times() {
    let (_, cap) = run(
        "      program main\n      real*8 a(4)\n      integer i\n      a(1) = 5.0\n      do i = 3, 2\n        a(1) = -1.0\n      enddo\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0][0], 5.0);
}

#[test]
fn one_line_if_executes() {
    let (_, cap) = run(
        "      program main\n      real*8 a(2)\n      integer i\n      do i = 1, 2\n        if (i == 2) a(i) = 9.0\n      enddo\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0], vec![0.0, 9.0]);
}

#[test]
fn deeply_nested_serial_loops() {
    let (_, cap) = run(
        "      program main\n      real*8 a(2, 3, 4)\n      integer i, j, k\n      do k = 1, 4\n        do j = 1, 3\n          do i = 1, 2\n            a(i, j, k) = i + 10*j + 100*k\n          enddo\n        enddo\n      enddo\n      end\n",
        1,
        &["a"],
    );
    // Column-major: a(2,3,4) at (i-1) + 2*(j-1) + 6*(k-1).
    assert_eq!(
        cap[0][(2 - 1) + 2 * (3 - 1) + 6 * (4 - 1)],
        2.0 + 30.0 + 400.0
    );
}

#[test]
fn equivalenced_arrays_share_storage() {
    let (_, cap) = run(
        "      program main\n      real*8 a(10), b(10)\n      equivalence (a, b)\n      integer i\n      do i = 1, 10\n        a(i) = i\n      enddo\n      b(3) = 99.0\n      end\n",
        1,
        &["a"],
    );
    assert_eq!(cap[0][2], 99.0, "write through b must be visible in a");
    assert_eq!(cap[0][4], 5.0);
}

#[test]
fn numthreads_intrinsic_reports_team_size() {
    let (_, cap) = run(
        "      program main\n      real*8 a(1)\n      a(1) = numthreads()\n      end\n",
        6,
        &["a"],
    );
    assert_eq!(cap[0][0], 6.0);
}

#[test]
fn redistribute_localizes_second_phase() {
    // Phase 1 matches (*,block); redistribute to (block,*) before the
    // row-wise phase 2. The remapped run must be more local in phase 2
    // than a run that keeps the phase-1 distribution.
    // Sizes chosen so the (block,*) portions are page-aligned (512 rows
    // over 4 processors = 128 rows = 1 KB = one small_test page) —
    // otherwise page granularity defeats the regular redistribution,
    // which is the paper's own point about (block,*).
    let with_redist = "      program main\n      integer i, j\n      real*8 a(512, 512)\nc$distribute a(*, block)\nc$doacross local(i, j) affinity(j) = data(a(1, j))\n      do j = 1, 512\n        do i = 1, 512\n          a(i, j) = i + j\n        enddo\n      enddo\nc$redistribute a(block, *)\nc$doacross local(i, j) affinity(i) = data(a(i, 1))\n      do i = 1, 512\n        do j = 1, 512\n          a(i, j) = a(i, j) * 2.0\n        enddo\n      enddo\n      end\n";
    let without = with_redist.replace("c$redistribute a(block, *)\n", "");
    let (r_with, cap_with) = run(with_redist, 4, &["a"]);
    let (r_without, cap_without) = run(&without, 4, &["a"]);
    assert_eq!(
        cap_with[0], cap_without[0],
        "redistribution must not change results"
    );
    assert!(
        r_with.total.remote_misses < r_without.total.remote_misses,
        "redistribution should localize phase 2: {} vs {}",
        r_with.total.remote_misses,
        r_without.total.remote_misses
    );
}

#[test]
fn distribution_query_intrinsics() {
    // blocksize / distnprocs resolve against the runtime descriptor, so
    // the same executable reports different values per processor count
    // (the paper's start-up-time resolution property).
    let src = "      program main\n      real*8 a(120), q(3)\nc$distribute_reshape a(block)\n      q(1) = distnprocs(a, 1)\n      q(2) = blocksize(a, 1)\n      q(3) = numthreads()\n      end\n";
    for nprocs in [2usize, 4, 8] {
        let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
        let mut m = Machine::new(MachineConfig::small_test(nprocs));
        let (_, cap) = run_outcome(&mut m, &c.program, &ExecOptions::new(nprocs).capture(&["q"])).map(|o| (o.report, o.captures))
            .expect("runs");
        assert_eq!(cap[0][0], nprocs as f64, "distnprocs at P={nprocs}");
        assert_eq!(
            cap[0][1],
            (120usize.div_ceil(nprocs)) as f64,
            "blocksize at P={nprocs}"
        );
        assert_eq!(cap[0][2], nprocs as f64);
    }
}

#[test]
fn dist_intrinsic_bad_args_rejected() {
    let src = "      program main\n      real*8 a(10), x\nc$distribute a(block)\n      x = blocksize(a)\n      end\n";
    let err = compile_strings(&[("t.f", src)], &OptConfig::default())
        .expect_err("missing dimension argument");
    assert!(err.iter().any(|e| e.msg.contains("blocksize")), "{err:?}");
}

#[test]
fn loop_variable_has_sequential_final_value_after_doacross() {
    // The `lastlocal` guarantee: after the parallel loop the loop
    // variable holds the value a serial execution would leave.
    let (_, cap) = run(
        "      program main\n      integer i\n      real*8 a(10), q(1)\nc$doacross local(i) shared(a)\n      do i = 1, 10\n        a(i) = i\n      enddo\n      q(1) = i\n      end\n",
        4,
        &["q"],
    );
    assert_eq!(cap[0][0], 11.0);
}

#[test]
fn full_scale_origin_config_works() {
    // The unscaled 16 KB-page / 4 MB-L2 configuration must execute
    // programs too (experiments use the scaled one purely for speed).
    let src = "      program main\n      integer i\n      real*8 a(4096)\nc$distribute_reshape a(block)\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 4096\n        a(i) = i\n      enddo\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let mut m = Machine::new(dsm_machine::MachineConfig::origin2000(8));
    let (_, cap) =
        run_outcome(&mut m, &c.program, &ExecOptions::new(8).capture(&["a"])).map(|o| (o.report, o.captures)).expect("runs");
    assert_eq!(cap[0][4095], 4096.0);
}

/// Integer arithmetic wraps — `i64::MIN / -1`, `mod(i64::MIN, -1)`,
/// `abs` and negation of `i64::MIN` included — with the same captures
/// from both engines, in debug and release builds alike.
#[test]
fn integer_overflow_wraps_identically_in_both_engines() {
    let src = "      program main\n      integer k, m\n      real*8 r(5)\n      k = 2**62\n      k = k*2\n      m = -1\n      r(1) = k\n      k = k/m\n      r(2) = k\n      r(3) = mod(k, m)\n      r(4) = abs(k)\n      r(5) = -k\n      end\n";
    let c = compile_strings(&[("t.f", src)], &OptConfig::default()).expect("compiles");
    let min = i64::MIN as f64;
    for engine in [dsm_exec::Engine::Bytecode, dsm_exec::Engine::Interp] {
        let mut m = Machine::new(MachineConfig::small_test(1));
        let opts = ExecOptions::new(1).engine(engine).capture(&["r"]);
        let o = run_outcome(&mut m, &c.program, &opts).expect("wraps instead of panicking");
        assert_eq!(o.captures[0], vec![min, min, 0.0, min, min], "{engine}");
    }
}
