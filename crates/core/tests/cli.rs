//! End-to-end tests of the `dsmfc` driver binary: flag parsing, exit
//! codes, the golden quickstart output, and the profile surfaces.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dsmfc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsmfc"))
        .args(args)
        .output()
        .expect("dsmfc spawns")
}

fn quickstart() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/fortran/quickstart.f")
}

fn write_fixture(name: &str, text: &str) -> PathBuf {
    let p = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&p, text).expect("fixture writes");
    p
}

#[test]
fn usage_without_files_exits_2() {
    let out = dsmfc(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_flag_exits_2() {
    let out = dsmfc(&["--frobnicate", "x.f"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_proc_count_exits_2() {
    let out = dsmfc(&["-p", "many", "x.f"]);
    assert_eq!(out.status.code(), Some(2));
    let out = dsmfc(&["--profile-json"]);
    assert_eq!(out.status.code(), Some(2));
}

/// A processor count the machine cannot host is an options error with a
/// stable code, not a panic.
#[test]
fn zero_procs_exits_1_with_options_code() {
    for engine in ["bytecode", "interp"] {
        let quickstart = quickstart();
        let out = dsmfc(&["-p", "0", "--engine", engine, quickstart.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{engine}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("exec.options"), "{engine}: {err}");
        assert!(!err.contains("panicked"), "{engine}: {err}");
    }
}

/// `--scale 0` is the same stable options error (it was an assert in
/// `MachineConfig::scaled_origin2000`, with a backtrace).
#[test]
fn zero_scale_exits_1_with_options_code() {
    let quickstart = quickstart();
    for extra in [&[][..], &["--auto"], &["--dump-ir"]] {
        let mut args = vec!["--scale", "0"];
        args.extend_from_slice(extra);
        args.push(quickstart.to_str().unwrap());
        let out = dsmfc(&args);
        assert_eq!(out.status.code(), Some(1), "{extra:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--scale must be a positive integer"), "{extra:?}: {err}");
        assert!(err.contains("dsmfc: error code exec.options"), "{extra:?}: {err}");
        assert!(!err.contains("panicked"), "{extra:?}: {err}");
    }
}

/// An array of rank > `MAX_RANK` (8) is a located compile error in both
/// engines — it used to run under `--engine interp` and panic the
/// bytecode VM; rank 8 keeps working.
#[test]
fn rank_above_max_rank_exits_1_with_compile_code() {
    let program = |rank: usize| {
        let ones = vec!["1"; rank].join(",");
        let twos = vec!["2"; rank].join(",");
        format!("      program main\n      real*8 a({twos})\n      a({ones}) = 1.0\n      end\n")
    };
    let rank9 = write_fixture("cli_rank9.f", &program(9));
    let rank8 = write_fixture("cli_rank8.f", &program(8));
    for engine in ["bytecode", "interp"] {
        let out = dsmfc(&["--engine", engine, rank9.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{engine}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("array `a` has rank 9, the maximum is 8"), "{engine}: {err}");
        assert!(err.contains("cli_rank9.f:2"), "{engine}: {err}");
        assert!(err.contains("dsmfc: error code compile"), "{engine}: {err}");
        assert!(!err.contains("panicked"), "{engine}: {err}");
        let ok = dsmfc(&["--engine", engine, rank8.to_str().unwrap()]);
        assert_eq!(ok.status.code(), Some(0), "{engine}: rank 8 runs");
    }
}

/// More processors than the directory's sharer set holds (the paper's
/// 128) is the same stable options error, not a panic in a debug build
/// or processor 128 + k aliased onto k in a release one.
#[test]
fn more_than_128_procs_exits_1_with_options_code() {
    let quickstart = quickstart();
    let ok = dsmfc(&["-p", "128", "--scale", "512", quickstart.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0));
    for procs in ["129", "200"] {
        let out = dsmfc(&["-p", procs, "--scale", "512", quickstart.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "-p {procs}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("256 processors"), "-p {procs}: {err}");
        assert!(err.contains("exec.options"), "-p {procs}: {err}");
        assert!(!err.contains("panicked"), "-p {procs}: {err}");
    }
}

/// Integer overflow wraps — `i64::MIN / -1` included — instead of
/// unwinding the simulator, identically in both engines (and, run under
/// `cargo test --release` in CI, in both build profiles).
#[test]
fn integer_overflow_wraps_in_both_engines() {
    let f = write_fixture(
        "cli_overflow.f",
        "      program main\n      integer k, m\n      k = 2**62\n      k = k*2\n      m = -1\n      k = k/m\n      end\n",
    );
    let report = |engine: &str| {
        let out = dsmfc(&["--engine", engine, f.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{engine}");
        let s = String::from_utf8_lossy(&out.stdout).into_owned();
        let lines: Vec<String> = s.lines().map(str::to_owned).collect();
        assert!(lines[0].starts_with("cycles:"), "{engine}: {s}");
        lines
            .into_iter()
            .filter(|l| !l.starts_with("host wall-clock:"))
            .collect::<Vec<_>>()
    };
    assert_eq!(report("bytecode"), report("interp"));
}

#[test]
fn compile_error_exits_1_with_diagnostics() {
    let f = write_fixture("cli_bad.f", "      program main\n      x = 1\n      end\n");
    let out = dsmfc(&[f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains('x'), "diagnostics name the symbol: {err}");
}

#[test]
fn runtime_error_exits_1_under_check() {
    // The paper's Section-6 bug: formal larger than the passed portion.
    let f = write_fixture(
        "cli_runtime.f",
        "      program main\n      integer i\n      real*8 a(1000)\nc$distribute_reshape a(cyclic(5))\n      i = 1\n      call mysub(a(i))\n      end\n      subroutine mysub(x)\n      real*8 x(6)\n      x(1) = 0.0\n      end\n",
    );
    let path = f.to_str().unwrap();
    let out = dsmfc(&["--check", path]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("runtime error"));
    // Without --check the same program runs to completion.
    let out = dsmfc(&[path]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn missing_file_exits_1() {
    let out = dsmfc(&["/nonexistent/nope.f"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn dump_ir_prints_ir_and_skips_execution() {
    let out = dsmfc(&["--dump-ir", quickstart().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("do"), "{s}");
    assert!(!s.contains("cycles:"), "--dump-ir must not run the program");
}

/// Golden output for the quickstart program. `--serial-team` keeps the
/// simulation on one host thread, so every line here is deterministic
/// except the host wall-clock (which the test skips).
#[test]
fn quickstart_golden_stdout() {
    let out = dsmfc(&["-p", "4", "--serial-team", quickstart().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let s = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = s.lines().collect();
    assert_eq!(
        lines[0],
        "cycles: 104432 total (51087 in parallel regions, 1 regions)"
    );
    assert_eq!(lines[1], "simulated seconds at 195 MHz: 0.000536");
    assert!(lines[2].starts_with("host wall-clock:"));
    assert_eq!(
        lines[3],
        "aggregate: cycles=417728 loads=16384 stores=8190 L1$miss=4495 \
         L2$miss=713 (local=581 remote=132 intv=192) tlb=97 inval(tx/rx)=0/0 faults=0 wb=1"
    );
    assert_eq!(lines[4], "pages/node: [33, 32]");
}

/// At P=1 there is only one team member, so serializing the team must
/// change nothing observable: the whole stdout (minus the wall-clock
/// line) matches the default threaded run exactly.
#[test]
fn serial_team_at_p1_matches_threaded_run() {
    let path = quickstart();
    let path = path.to_str().unwrap();
    let serial = dsmfc(&["-p", "1", "--serial-team", path]);
    let plain = dsmfc(&["-p", "1", path]);
    assert_eq!(serial.status.code(), Some(0));
    assert_eq!(plain.status.code(), Some(0));
    let strip = |out: &Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("host wall-clock:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(strip(&serial), strip(&plain));
    let s = String::from_utf8_lossy(&serial.stdout);
    assert!(s.starts_with("cycles:"), "{s}");
}

/// `--profile-json` at P=1: the file is written, parses as a JSON
/// object, and reports the uniprocessor shape (every access local, no
/// invalidation traffic).
#[test]
fn profile_json_at_p1_reports_local_only_traffic() {
    let json_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_profile_p1.json");
    let out = dsmfc(&[
        "-p",
        "1",
        "--profile-json",
        json_path.to_str().unwrap(),
        quickstart().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    for key in ["\"arrays\"", "\"regions\"", "\"name\": \"a\""] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // One node holds every page: remote misses cannot occur.
    assert!(!json.contains("\"remote_misses\": 1"), "{json}");
    assert!(
        json.contains("\"remote_misses\": 0"),
        "expected explicit zero remote misses: {json}"
    );
}

#[test]
fn counters_flag_prints_per_proc_rows() {
    let out = dsmfc(&["-p", "2", "--counters", quickstart().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("P0"), "{s}");
    assert!(s.contains("P1"), "{s}");
}

#[test]
fn profile_flag_prints_attribution_tables() {
    let out = dsmfc(&["-p", "4", "--profile", quickstart().to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("=== memory-behavior profile ==="), "{s}");
    assert!(s.contains("per-array attribution:"), "{s}");
    assert!(s.contains("per-region attribution:"), "{s}");
    // Both program arrays appear as rows.
    assert!(s.lines().any(|l| l.trim_start().starts_with("a ")), "{s}");
    assert!(s.lines().any(|l| l.trim_start().starts_with("b ")), "{s}");
}

#[test]
fn profile_json_writes_file() {
    let json_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_profile.json");
    let out = dsmfc(&[
        "-p",
        "4",
        "--profile-json",
        json_path.to_str().unwrap(),
        quickstart().to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    // --profile-json alone must not print the table…
    assert!(!String::from_utf8_lossy(&out.stdout).contains("memory-behavior profile"));
    // …but the file holds the same data as JSON.
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    for key in [
        "\"arrays\"",
        "\"regions\"",
        "\"cells\"",
        "\"hot_pages\"",
        "\"hints\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert!(json.contains("\"name\": \"a\""), "{json}");
}
