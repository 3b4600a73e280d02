//! `dsmbench` — the repo's benchmark: five workloads, end-to-end and
//! per-layer numbers for the simulator and the daemon. See `README.md`
//! beside this package for the workloads, the metrics and how to claim
//! a gain with them.
//!
//! With `--workload NAME` one workload runs in this process and the
//! last line of standard output is the result object the driver reads.
//! Without it every workload runs in a child process of its own (so
//! peak RSS is per workload) and the results are printed as a table.

mod compile;
mod compile_cold;
mod daemon_mix;
mod gen;
mod metrics;
mod probes;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{END_TO_END, PER_LAYER};
use trace::{Summary, Tracer};

/// What a workload's measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Work units (simulated accesses, source lines, requests) per host
    /// second, one sample per iteration, compile or request slice.
    /// `work_per_s` is their median, so a stall of the host during a
    /// few operations does not read as a slower program.
    pub units_per_s: Vec<f64>,
    /// Latency of each operation, milliseconds, in completion order.
    pub lat_ms: Vec<f64>,
    /// The slow end of operation latency, milliseconds: `stats::tail`
    /// of `lat_ms` where there are samples enough for a percentile,
    /// else the workload's own definition.
    pub tail_ms: f64,
    /// Source lines compiled through [`compile::compile`].
    pub source_lines: u64,
    /// Per-layer values only the workload can know (counts, per-class
    /// latencies); reported by the traced run.
    pub layer: BTreeMap<&'static str, f64>,
}

/// A set-up workload: call it to run the measured phase. Dropping it
/// releases what set-up built (the daemon shuts down).
pub type Run = Box<dyn FnOnce(&mut Tracer) -> Measured>;

/// How much work a run does. Work is a fixed count, not a time limit:
/// counts repeat exactly, peak RSS is comparable between commits, and a
/// faster commit finishes sooner instead of doing more.
pub struct Scale {
    seconds: u64,
    quick: bool,
}

impl Scale {
    /// `per_10s`, the count that takes ten seconds on the two-core
    /// reference host, scaled to `--seconds` (÷ 20 under `--quick`).
    pub fn count(&self, per_10s: usize) -> usize {
        let n = per_10s * self.seconds as usize / 10;
        (if self.quick { n / 20 } else { n }).max(1)
    }
}

/// A workload: its name, why it exists, and its set-up.
struct Workload {
    name: &'static str,
    why: &'static str,
    prepare: fn(u64, &Scale) -> Run,
}

const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper_kernels",
        why: "transpose, two convolutions and LU go one element at a time through bytecode dispatch into the access path; unit = simulated accesses",
        prepare: sim::paper_kernels,
    },
    Workload {
        name: "bulk_fill",
        why: "unit-stride invariant-RHS columns take the bulk AccessRun walkers and bypass scalar dispatch; unit = simulated accesses",
        prepare: sim::bulk_fill,
    },
    Workload {
        name: "dynamic_placement",
        why: "live migration, scheduled redistribution with a team resize, and 1/2 sampling write the page table beside reading it; unit = simulated accesses",
        prepare: sim::dynamic_placement,
    },
    Workload {
        name: "compile_cold",
        why: "distinct 2.8k-line programs compiled once and dropped: front end, lowering, pre-linker and reshape passes, no simulation; unit = source lines",
        prepare: compile_cold::compile_cold,
    },
    Workload {
        name: "daemon_mix",
        why: "closed loop of 2 clients on an in-process dsmd: 90 % cache hits over 1/8/60 KB bodies, 10 % first-seen programs; unit = requests",
        prepare: daemon_mix::daemon_mix,
    },
];

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the driver passes,
/// and the default.
const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`.
fn describe() -> String {
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    metrics::describe(&workloads, RUN_SECONDS)
}

/// Set-ups per run (one under `--quick`); `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Where a run may leave files (the daemon's socket): the directory of
/// this executable, which the build put inside the checkout. Relative
/// to the working directory when possible — a Unix socket path is
/// limited to ~100 bytes.
pub fn run_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let dir = exe.parent().expect("an executable lives in a directory");
    let cwd = std::env::current_dir().unwrap_or_default();
    dir.strip_prefix(&cwd).unwrap_or(dir).to_path_buf()
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    check: bool,
    describe: bool,
    out: Option<PathBuf>,
}

impl Args {
    /// Printed beside a workload's name: quick numbers are never compared.
    fn label(&self) -> &'static str {
        if self.quick {
            " (quick: not comparable)"
        } else {
            ""
        }
    }
}

const USAGE: &str = "usage: dsmbench [--workload NAME] [--seed N] [--seconds 1..60] [--trace 0|1] \
[--quick] [--check] [--out FILE] | --describe";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        check: false,
        describe: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--describe" => args.describe = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.check && args.workload.is_some() {
        return Err("--check runs every workload; drop --workload".into());
    }
    Ok(args)
}

/// One run's result: the object printed as the last line.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Set up `workload` [`SETUP_REPS`] times, run its measured phase once,
/// and reduce it to the metrics of the requested kind.
fn run_workload(workload: &Workload, args: &Args) -> (RunResult, Tracer) {
    let scale = Scale {
        seconds: args.seconds,
        quick: args.quick,
    };
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut run: Option<Run> = None;
    for _ in 0..reps {
        drop(run.take());
        let start = Instant::now();
        run = Some((workload.prepare)(args.seed, &scale));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let run = run.expect("set up at least once");

    let mut tr = Tracer::new(args.trace, Instant::now());
    let m = run(&mut tr);
    let work_per_s = stats::median(&m.units_per_s) / 1e3;

    let metrics = if args.trace {
        let mut values = layer_values(&m, &Summary::of(tr.spans()), tr.spans().len());
        values.insert("trace.work_per_s", work_per_s);
        values.extend(probes::run_all(args.seed));
        PER_LAYER
            .iter()
            .map(|d| (d.name, values.get(d.name).copied().unwrap_or(0.0), d.unit))
            .collect()
    } else {
        let value = |name| match name {
            "setup_s" => stats::median(&setup_s),
            "work_per_s" => work_per_s,
            "lat_p50_ms" => stats::median(&m.lat_ms),
            "lat_tail_ms" => m.tail_ms,
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END
            .iter()
            .map(|d| (d.name, value(d.name), d.unit))
            .collect()
    };
    let result = RunResult {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    };
    (result, tr)
}

/// The per-layer values a traced run derives from its spans and from
/// what the workload counted.
fn layer_values(m: &Measured, sum: &Summary, spans: usize) -> BTreeMap<&'static str, f64> {
    let mut v = m.layer.clone();
    for d in PER_LAYER {
        if let Some(layer) = d.name.strip_prefix("share.") {
            v.insert(d.name, sum.share(layer));
        }
    }
    v.insert("trace.wall_s", sum.wall_s);
    v.insert("trace.spans", spans as f64);
    for (metric, span, unit_ns) in [
        ("frontend.lex_ms", "frontend.lex", 1e6),
        ("frontend.sema_ms", "frontend.sema", 1e6),
        ("compile.lower_ms", "compile.lower", 1e6),
        ("compile.prelink_ms", "compile.prelink", 1e6),
        ("compile.stmtcse_ms", "compile.stmtcse", 1e6),
        ("compile.skew_ms", "compile.skew", 1e6),
        ("compile.tile_ms", "compile.tile", 1e6),
        ("compile.hoist_ms", "compile.hoist", 1e6),
        ("compile.divmod_ms", "compile.divmod", 1e6),
        ("ir.validate_ms", "ir.validate", 1e6),
        ("ir.print_ms", "ir.print", 1e6),
        ("core.compile_source_ms", "core.compile_source", 1e6),
        ("core.run_ms", "core.run", 1e6),
        ("exec.report_json_us", "exec.report_json", 1e3),
        ("exec.report_render_us", "exec.report_render", 1e3),
    ] {
        v.insert(metric, sum.median(span, unit_ns));
    }
    // `parse_source` lexes internally; the parser's own time is the rest.
    let parse_self = sum.median("frontend.parse_source", 1e6) - sum.median("frontend.lex", 1e6);
    v.insert("frontend.parse_ms", parse_self.max(0.0));
    let frontend_s = sum.total_s("frontend.parse_source") + sum.total_s("frontend.sema");
    if frontend_s > 0.0 {
        v.insert(
            "frontend.klines_per_s",
            m.source_lines as f64 / 1e3 / frontend_s,
        );
    }
    v
}

fn print_metrics(title: &str, result: &RunResult) {
    println!(
        "{title}: attempted {} failed {}",
        result.attempted, result.failed
    );
    for (name, value, unit) in &result.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `FILE`'s sibling that holds the spans of `workload`'s traced run.
fn trace_path(out: &Path, workload: &str) -> PathBuf {
    out.with_file_name(format!("trace.{workload}.json"))
}

fn run_single(name: &str, args: &Args) -> Result<(), String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (result, tr) = run_workload(workload, args);
    print_metrics(&format!("{name}{}", args.label()), &result);
    let json = result.to_json();
    if let Some(out) = &args.out {
        write_file(out, &json)?;
        if args.trace {
            write_file(&trace_path(out, name), &trace::to_json(tr.spans()))?;
        }
    }
    println!("{json}");
    Ok(())
}

/// Metric values of one child run, by name.
type Values = BTreeMap<String, f64>;

/// Run `workload` in a child process of its own and parse its result.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<(Values, u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if let (true, Some(out)) = (trace, &args.out) {
        cmd.arg("--out")
            .arg(out.with_file_name(format!("{workload}.traced.json")));
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = dsm_proto::parse(last)?;
    let count = |key| {
        v.get(key)
            .and_then(dsm_proto::Value::as_u64)
            .ok_or(format!("no `{key}`"))
    };
    let dsm_proto::Value::Obj(members) = v.get("metrics").ok_or("no `metrics`")? else {
        return Err("`metrics` is not an object".into());
    };
    let values = members
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(dsm_proto::Value::as_f64);
            value
                .map(|x| (name.clone(), x))
                .ok_or(format!("{name} has no value"))
        })
        .collect::<Result<Values, String>>()?;
    Ok((values, count("attempted")?, count("failed")?))
}

/// One pass over every workload: end-to-end values, and per-layer
/// values when `trace`.
struct Set {
    end_to_end: BTreeMap<&'static str, Values>,
    per_layer: BTreeMap<&'static str, Values>,
    failed: u64,
}

fn run_set(args: &Args, trace: bool) -> Result<Set, String> {
    let mut set = Set {
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        failed: 0,
    };
    let label = args.label();
    for w in &WORKLOADS {
        let (values, attempted, failed) = run_child(w.name, args, false)?;
        set.failed += failed;
        println!("{}{label} — {}", w.name, w.why);
        println!(
            "  attempted {attempted} failed {failed} fail_share {}",
            failed as f64 / attempted as f64
        );
        for d in &END_TO_END {
            println!("  {:<34} {:>16.4} {}", d.name, values[d.name], d.unit);
        }
        if trace {
            let (layers, _, traced_failed) = run_child(w.name, args, true)?;
            set.failed += traced_failed;
            for d in PER_LAYER {
                println!("  {:<34} {:>16.4} {}", d.name, layers[d.name], d.unit);
            }
            let ratio = layers["trace.work_per_s"] / values["work_per_s"];
            println!(
                "  {:<34} {ratio:>16.4} traced/untraced work_per_s",
                "trace_overhead_ratio"
            );
            set.per_layer.insert(w.name, layers);
        }
        set.end_to_end.insert(w.name, values);
    }
    Ok(set)
}

fn values_json(v: &Values) -> String {
    let members: Vec<String> = v.iter().map(|(k, x)| format!("\"{k}\":{x}")).collect();
    format!("{{{}}}", members.join(","))
}

fn set_json(args: &Args, set: &Set) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let layers = set
                .per_layer
                .get(w.name)
                .map_or("null".to_string(), values_json);
            format!(
                "\"{}\":{{\"end_to_end\":{},\"per_layer\":{layers}}}",
                w.name,
                values_json(&set.end_to_end[w.name])
            )
        })
        .collect();
    format!(
        "{{\"seed\":{},\"seconds\":{},\"quick\":{},\"nproc\":{nproc},\"clients\":{},\"workloads\":{{{}}}}}",
        args.seed,
        args.seconds,
        args.quick,
        daemon_mix::CLIENTS,
        workloads.join(",")
    )
}

/// Compare two sets of the same code: every end-to-end metric within
/// its bound, every exact count identical. Returns the disagreements.
fn disagreements(a: &Set, b: &Set) -> Vec<String> {
    let mut bad = Vec::new();
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let (x, y) = (a.end_to_end[w.name][d.name], b.end_to_end[w.name][d.name]);
            if ((x - y) / x).abs() > d.bound {
                bad.push(format!(
                    "{} {}: {x} vs {y} differ by more than {}",
                    w.name, d.name, d.bound
                ));
            }
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (a.per_layer[w.name][d.name], b.per_layer[w.name][d.name]);
            if x != y {
                bad.push(format!("{} {}: count {x} vs {y}", w.name, d.name));
            }
        }
    }
    bad
}

fn run_all(args: &Args) -> Result<(), String> {
    let first = run_set(args, args.trace || args.check)?;
    if let Some(out) = &args.out {
        write_file(out, &set_json(args, &first))?;
    }
    let mut failed = first.failed;
    if args.check {
        println!("--check: second set");
        let second = run_set(args, true)?;
        failed += second.failed;
        let bad = disagreements(&first, &second);
        for line in &bad {
            println!("DISAGREE {line}");
        }
        if !bad.is_empty() {
            return Err(format!(
                "{} metrics disagree between two sets of the same code",
                bad.len()
            ));
        }
        println!("CHECK OK: two sets agree within every bound; every exact count is identical");
    }
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let done = match &args.workload {
        Some(name) => run_single(name, &args),
        None => run_all(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dsmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload bulk_fill --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("bulk_fill"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (42, 10, true, false));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--check --workload bulk_fill")).is_err());
    }

    #[test]
    fn quick_divides_counts_by_twenty_and_never_reaches_zero() {
        let full = Scale {
            seconds: 10,
            quick: false,
        };
        let quick = Scale {
            seconds: 10,
            quick: true,
        };
        assert_eq!((full.count(30_000), quick.count(30_000)), (30_000, 1500));
        assert_eq!((full.count(10), quick.count(10)), (10, 1));
        assert_eq!(
            Scale {
                seconds: 20,
                quick: false
            }
            .count(24),
            48
        );
    }

    #[test]
    fn result_line_parses_back_with_every_digit() {
        let r = RunResult {
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("lat_p50_ms", 1.203_456_789_012_3, "ms"),
                ("setup_s", 0.8127, "s"),
            ],
        };
        let v = dsm_proto::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(
            v.get("correct").and_then(dsm_proto::Value::as_bool),
            Some(true)
        );
        assert_eq!(
            v.get("attempted").and_then(dsm_proto::Value::as_u64),
            Some(1000)
        );
        let m = v.get("metrics").unwrap().get("lat_p50_ms").unwrap();
        assert_eq!(
            m.get("value").and_then(dsm_proto::Value::as_f64),
            Some(1.203_456_789_012_3)
        );
        assert_eq!(m.get("unit").and_then(dsm_proto::Value::as_str), Some("ms"));
        let failed = RunResult {
            attempted: 3,
            failed: 1,
            metrics: vec![],
        };
        assert!(failed
            .to_json()
            .starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
    }

    #[test]
    fn check_flags_a_drifted_metric_and_a_changed_count() {
        let set = |work: f64, cycles: f64| {
            let mut s = Set {
                end_to_end: BTreeMap::new(),
                per_layer: BTreeMap::new(),
                failed: 0,
            };
            for w in &WORKLOADS {
                let e: Values = END_TO_END
                    .iter()
                    .map(|d| (d.name.to_string(), 100.0))
                    .collect();
                let l: Values = PER_LAYER
                    .iter()
                    .map(|d| (d.name.to_string(), 5.0))
                    .collect();
                s.end_to_end.insert(w.name, e);
                s.per_layer.insert(w.name, l);
            }
            s.end_to_end
                .get_mut("bulk_fill")
                .unwrap()
                .insert("work_per_s".into(), work);
            s.per_layer
                .get_mut("bulk_fill")
                .unwrap()
                .insert("machine.sim_cycles".into(), cycles);
            s
        };
        assert!(disagreements(&set(100.0, 5.0), &set(95.0, 5.0)).is_empty());
        let drifted = disagreements(&set(100.0, 5.0), &set(80.0, 5.0));
        assert_eq!(drifted.len(), 1);
        assert!(drifted[0].contains("bulk_fill work_per_s"));
        let recounted = disagreements(&set(100.0, 5.0), &set(100.0, 6.0));
        assert_eq!(recounted.len(), 1);
        assert!(recounted[0].contains("machine.sim_cycles"));
    }

    #[test]
    fn trace_file_sits_beside_the_result_file() {
        assert_eq!(
            trace_path(Path::new("out/run.json"), "bulk_fill"),
            PathBuf::from("out/trace.bulk_fill.json")
        );
    }
}
