//! The three simulation workloads: `paper_kernels`, `bulk_fill` and
//! `dynamic_placement`.
//!
//! All are one host thread (`serial_team`), the bytecode engine, and a
//! fresh empty-cache `Machine` per job exactly like `dsmfc`, so the
//! modelled caches start cold by design. A job is what one `dsmfc`
//! invocation does: `compile_source` → `Machine::new` → `run_on` →
//! `RunReport::to_json` + `Display`. An iteration runs the workload's
//! job list once; the operation whose latency is reported is the
//! iteration, the operation that is checked and counted is the job.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dsm_core::workloads::{conv2d_source, fill_sweep_source, lu_source, transpose_source, Policy};
use dsm_core::{
    DsmError, Engine, ExecOptions, Machine, MachineConfig, MigrationPolicy, OptConfig, RunOutcome,
    SamplingConfig,
};

use crate::compile::compile;
use crate::gen::{line_count, phases_program, Rng, Sources};
use crate::stats::median;
use crate::trace::{Summary, Tracer};
use crate::{Measured, Run, Scale};

/// Linear scale divisor of the simulated Origin-2000 (`dsmfc` default).
pub const MACHINE_SCALE: usize = 64;

/// One `dsmfc`-style job and the outputs it must produce.
pub struct Job {
    /// Span around `run_on`: `exec.run_on.<kernel>`.
    span: &'static str,
    sources: Sources,
    cfg: MachineConfig,
    opts: ExecOptions,
    /// Expected contents of the captured arrays.
    expect: Vec<Vec<f64>>,
    /// Simulated cycles of the exact run, for a sampled job.
    exact_cycles: Option<u64>,
}

fn single(name: &str, text: String) -> Sources {
    vec![(name.to_string(), text)]
}

fn serial(nprocs: usize, captures: &[&str]) -> ExecOptions {
    ExecOptions::new(nprocs).serial_team(true).capture(captures)
}

/// `a(j,i) = b(i,j) = i + n·j`, in Fortran element order.
fn transpose_closed_form(n: usize) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 1..=n {
        for j in 1..=n {
            a[(j - 1) + n * (i - 1)] = (i + n * j) as f64;
        }
    }
    a
}

/// Captures and simulated cycles of `job` under the reference
/// interpreter, exact (unsampled) — the independent oracle.
fn interp_reference(job: &Job) -> (Vec<Vec<f64>>, u64) {
    let program = dsm_core::compile_source(&job.sources, &OptConfig::default())
        .expect("benchmark program compiles");
    let mut opts = job.opts.clone().engine(Engine::Interp);
    opts.sampling = None;
    let out = program
        .run(&job.cfg, &opts)
        .expect("benchmark program runs under the interpreter");
    (out.captures, out.report.total_cycles)
}

fn with_interp_reference(mut job: Job) -> Job {
    (job.expect, _) = interp_reference(&job);
    job
}

/// Set-up check of a closed-form expectation against the oracle.
fn closed_form_holds(job: Job) -> Job {
    assert!(
        interp_reference(&job).0 == job.expect,
        "closed form of {} disagrees with the reference interpreter",
        job.span
    );
    job
}

fn transpose_job(span: &'static str, policy: Policy, opts: ExecOptions) -> Job {
    Job {
        span,
        sources: single("transpose.f", transpose_source(320, 6, policy)),
        cfg: policy.machine(8, MACHINE_SCALE),
        opts,
        expect: vec![transpose_closed_form(320)],
        exact_cycles: None,
    }
}

fn conv_job(span: &'static str, two_level: bool, opts: ExecOptions) -> Job {
    Job {
        span,
        sources: single("conv.f", conv2d_source(256, 4, Policy::Reshaped, two_level)),
        cfg: Policy::Reshaped.machine(8, MACHINE_SCALE),
        opts,
        expect: Vec::new(),
        exact_cycles: None,
    }
}

fn fill_job(n: usize, reps: usize, nprocs: usize) -> Job {
    Job {
        span: "exec.run_on.fill",
        sources: single("fill.f", fill_sweep_source(n, reps)),
        cfg: Policy::Regular.machine(nprocs, MACHINE_SCALE),
        opts: serial(nprocs, &["a"]),
        expect: vec![vec![reps as f64 * 1.5 + 2.0; n * n]],
        exact_cycles: None,
    }
}

/// The paper's three evaluation programs, reshaped, P = 8.
pub fn paper_kernels(seed: u64, scale: &Scale) -> Run {
    let mut jobs = vec![
        closed_form_holds(transpose_job(
            "exec.run_on.transpose",
            Policy::Reshaped,
            serial(8, &["a"]),
        )),
        with_interp_reference(conv_job("exec.run_on.conv", false, serial(8, &["a"]))),
        with_interp_reference(conv_job("exec.run_on.conv2", true, serial(8, &["a"]))),
        with_interp_reference(Job {
            span: "exec.run_on.lu",
            sources: single("lu.f", lu_source(24, 24, 24, 2, Policy::Reshaped)),
            cfg: Policy::Reshaped.machine(8, MACHINE_SCALE),
            opts: serial(8, &["u", "rsd"]),
            expect: Vec::new(),
            exact_cycles: None,
        }),
    ];
    Rng::new(seed, 1).shuffle(&mut jobs);
    let iters = scale.count(10);
    Box::new(move |tr| measure(tr, &jobs, iters))
}

/// Unit-stride invariant-RHS columns: the bulk `AccessRun` walkers.
pub fn bulk_fill(seed: u64, scale: &Scale) -> Run {
    // The interpreter needs ~4 s for the large fill; the small one
    // vouches for the closed form both share.
    let mut jobs = vec![
        fill_job(1024, 16, 8),
        closed_form_holds(fill_job(512, 8, 32)),
    ];
    Rng::new(seed, 2).shuffle(&mut jobs);
    let iters = scale.count(24);
    Box::new(move |tr| measure(tr, &jobs, iters))
}

/// Page-table writes beside reads: live migration, scheduled
/// redistribution with a team resize, and sampled simulation.
pub fn dynamic_placement(seed: u64, scale: &Scale) -> Run {
    let mut rng = Rng::new(seed, 3);
    let migrate = transpose_job(
        "exec.run_on.migrate",
        Policy::FirstTouch,
        serial(8, &["a"]).migration(MigrationPolicy::parse("threshold:4").expect("valid policy")),
    );
    let redist = with_interp_reference(Job {
        span: "exec.run_on.redist",
        sources: phases_program(&mut rng, 256),
        cfg: Policy::Regular.machine(8, MACHINE_SCALE),
        opts: serial(8, &["a"]).resize_to(4),
        expect: Vec::new(),
        exact_cycles: None,
    });
    let sampling = SamplingConfig::parse("1/2")
        .expect("valid rate")
        .with_seed(rng.next_u64());
    let mut sampled = conv_job(
        "exec.run_on.sampled",
        false,
        serial(8, &["a"]).sampling(sampling),
    );
    let (captures, exact_cycles) = interp_reference(&sampled);
    sampled.expect = captures;
    sampled.exact_cycles = Some(exact_cycles);

    let mut jobs = vec![migrate, redist, sampled];
    rng.shuffle(&mut jobs);
    let iters = scale.count(20);
    Box::new(move |tr| measure(tr, &jobs, iters))
}

/// What one job produced and how long the host took.
struct Done {
    outcome: RunOutcome,
    wall_s: f64,
}

/// Compile, construct, run, render — the timed part of a job.
fn run_job(tr: &mut Tracer, job: &Job) -> Result<Done, DsmError> {
    let start = Instant::now();
    let built = compile(tr, &job.sources, &OptConfig::default())?;
    let outcome = tr.span("core.run", |tr| {
        let mut machine = tr.span("machine.new", |_| Machine::new(job.cfg.clone()));
        tr.span(job.span, |_| built.run_on(&mut machine, &job.opts))
    })?;
    black_box(tr.span("exec.report_json", |_| outcome.report.to_json()));
    black_box(tr.span("exec.report_render", |_| outcome.report.to_string()));
    Ok(Done {
        outcome,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Whether a finished job produced the expected captures and, from the
/// second iteration on, the first iteration's digest byte for byte.
fn verified(job: &Job, done: &Done, first_digest: &mut Option<String>) -> bool {
    let digest = done.outcome.report.digest_json();
    let repeats = first_digest.get_or_insert_with(|| digest.clone()) == &digest;
    repeats && done.outcome.captures == job.expect
}

fn measure(tr: &mut Tracer, jobs: &[Job], iters: usize) -> Measured {
    let mut m = Measured::default();
    let mut first_digests: Vec<Option<String>> = vec![None; jobs.len()];
    let mut accesses: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut host_wall, mut region_wall) = (0.0, 0.0);
    let mut job_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); jobs.len()];
    // Iteration 0 warms the host (the heap grows to the jobs' working
    // set, ~10 % of an iteration): checked like the rest, fixes the
    // digests and the simulated counts, and is neither timed nor traced.
    let mut untraced = Tracer::new(false, Instant::now());
    for iter in 0..=iters {
        let warm_up = iter == 0;
        let tr = if warm_up { &mut untraced } else { &mut *tr };
        let (mut iter_s, mut iter_accesses) = (0.0, 0);
        for (k, job) in jobs.iter().enumerate() {
            let op_id = (iter * jobs.len() + k) as u64;
            m.attempted += 1;
            let ok = tr.op(op_id, "bench.job", |tr| match run_job(tr, job) {
                Err(_) => false,
                Ok(done) => {
                    let report = &done.outcome.report;
                    if warm_up {
                        simulated_counts(&mut m.layer, job, &done.outcome);
                    } else {
                        iter_s += done.wall_s;
                        job_ms[k].push(done.wall_s * 1e3);
                        m.source_lines += line_count(&job.sources) as u64;
                        iter_accesses += report.total.accesses();
                        *accesses.entry(job.span).or_default() += report.total.accesses();
                        host_wall += report.host_wall.as_secs_f64();
                        region_wall += report.host_region_wall.as_secs_f64();
                    }
                    verified(job, &done, &mut first_digests[k])
                }
            });
            m.failed += u64::from(!ok);
        }
        if !warm_up {
            m.units_per_s.push(iter_accesses as f64 / iter_s.max(1e-12));
            m.lat_ms.push(iter_s * 1e3);
        }
    }
    // Ten to twenty-four iterations are too few for any percentile, and
    // their maximum moved 8-12 % between identical runs; the slow end a
    // `dsmfc` user meets is the workload's slowest job.
    m.tail_ms = job_ms.iter().map(|ms| median(ms)).fold(0.0, f64::max);
    if let Some(remote) = m.layer.remove("machine.remote_misses") {
        let l2 = m.layer.get("machine.l2_misses").copied().unwrap_or(0.0);
        m.layer.insert("machine.remote_share", remote / l2.max(1.0));
    }
    m.layer
        .insert("exec.region_wall_share", region_wall / host_wall.max(1e-12));
    if tr.on() {
        let sum = Summary::of(tr.spans());
        for (span, acc) in accesses {
            let metric = RATE_OF_SPAN
                .iter()
                .find(|(s, _)| *s == span)
                .expect("every job span has a rate metric")
                .1;
            m.layer
                .insert(metric, acc as f64 / 1e6 / sum.total_s(span).max(1e-12));
        }
    }
    m
}

/// `run_on` span of each kernel → the per-layer rate it fills.
const RATE_OF_SPAN: [(&str, &str); 8] = [
    ("exec.run_on.transpose", "exec.transpose.maccess_per_s"),
    ("exec.run_on.conv", "exec.conv.maccess_per_s"),
    ("exec.run_on.conv2", "exec.conv2.maccess_per_s"),
    ("exec.run_on.lu", "exec.lu.maccess_per_s"),
    ("exec.run_on.fill", "exec.fill.maccess_per_s"),
    ("exec.run_on.migrate", "exec.migrate.maccess_per_s"),
    ("exec.run_on.redist", "exec.redist.maccess_per_s"),
    ("exec.run_on.sampled", "exec.sampled.maccess_per_s"),
];

/// Add one job's simulated statistics to the iteration's totals. These
/// are the model's outputs, not the simulator's speed: a change that
/// only makes the simulator faster must leave every one identical.
fn simulated_counts(layer: &mut BTreeMap<&'static str, f64>, job: &Job, out: &RunOutcome) {
    let r = &out.report;
    let mut add = |name, v: u64| *layer.entry(name).or_default() += v as f64;
    add("machine.sim_cycles", r.total_cycles);
    add("machine.accesses", r.total.accesses());
    add("machine.l2_misses", r.total.l2_misses);
    add("machine.remote_misses", r.total.remote_misses);
    add("machine.tlb_misses", r.total.tlb_misses);
    add("machine.invalidations", r.total.invalidations_sent);
    add("machine.pages_migrated", r.pages_migrated);
    add("machine.redist_pages", r.redist_pages);
    if let Some(exact) = job.exact_cycles {
        let err = (r.total_cycles as f64 - exact as f64).abs() / exact as f64 * 100.0;
        layer.insert("machine.sample.cycles_err_pct", err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fill() -> Job {
        Job {
            span: "exec.run_on.fill",
            sources: single("fill.f", fill_sweep_source(16, 3)),
            cfg: Policy::Regular.machine(4, 2048),
            opts: serial(4, &["a"]),
            expect: vec![vec![3.0 * 1.5 + 2.0; 256]],
            exact_cycles: None,
        }
    }

    #[test]
    fn closed_form_matches_a_real_transpose() {
        let n = 24;
        let job = Job {
            span: "exec.run_on.transpose",
            sources: single("t.f", transpose_source(n, 1, Policy::Reshaped)),
            cfg: Policy::Reshaped.machine(4, 1024),
            opts: serial(4, &["a"]),
            expect: vec![transpose_closed_form(n)],
            exact_cycles: None,
        };
        let (captures, _) = interp_reference(&job);
        assert_eq!(captures, job.expect);
    }

    #[test]
    fn correct_jobs_pass_and_count_work() {
        let jobs = [tiny_fill()];
        let m = measure(&mut Tracer::new(false, Instant::now()), &jobs, 3);
        // Three timed iterations after the warm-up one; all four checked.
        assert_eq!((m.attempted, m.failed), (4, 0));
        assert_eq!(m.lat_ms.len(), 3);
        let accesses = m.layer["machine.accesses"];
        for (rate, ms) in m.units_per_s.iter().zip(&m.lat_ms) {
            assert!((rate * ms / 1e3 - accesses).abs() < 1e-6 * accesses);
        }
        // One job in the list: the slowest job's median is the median.
        assert_eq!(m.tail_ms, median(&m.lat_ms));
    }

    #[test]
    fn a_corrupted_reference_fails_the_operation() {
        // Wrong expected capture: every job fails.
        let mut job = tiny_fill();
        job.expect[0][17] += 1.0;
        let m = measure(&mut Tracer::new(false, Instant::now()), &[job], 2);
        assert_eq!((m.attempted, m.failed), (3, 3));

        // Wrong reference digest: the repeat no longer reproduces it.
        let job = tiny_fill();
        let done = run_job(&mut Tracer::new(false, Instant::now()), &job).expect("runs");
        let mut digest = None;
        assert!(verified(&job, &done, &mut digest));
        assert!(verified(&job, &done, &mut digest));
        let mut corrupt = digest.map(|d| d.replacen("\"total_cycles\":", "\"total_cycles\":9", 1));
        assert!(!verified(&job, &done, &mut corrupt));
    }

    #[test]
    fn a_program_that_errors_fails_the_operation() {
        let mut job = tiny_fill();
        job.sources = single(
            "bad.f",
            "      program main\n      x = 1\n      end\n".into(),
        );
        let m = measure(&mut Tracer::new(false, Instant::now()), &[job], 1);
        assert_eq!((m.attempted, m.failed), (2, 2));
    }

    #[test]
    fn traced_jobs_fill_the_kernel_rate_and_nest_under_the_job() {
        let mut tr = Tracer::new(true, Instant::now());
        let m = measure(&mut tr, &[tiny_fill()], 2);
        assert_eq!(m.failed, 0);
        assert!(m.layer["exec.fill.maccess_per_s"] > 0.0);
        let roots = tr.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 2);
        assert!(tr.spans().iter().any(|s| s.name == "machine.new"));
    }
}
