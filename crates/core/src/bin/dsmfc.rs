//! `dsmfc` — the mini-Fortran directive compiler driver.
//!
//! Compiles one or more source files through the full pipeline (frontend,
//! pre-linker with directive propagation and cloning, reshaped-array
//! optimizations) and runs the program on a simulated CC-NUMA machine.
//!
//! ```text
//! dsmfc [options] file.f [file2.f ...]
//!   -p, --procs N       simulated processors (default 4, at most 128)
//!       --scale N       machine scale divisor vs a real Origin-2000 (default 64)
//!   -O LEVEL            none | tile | hoist | full   (default full)
//!       --dump-ir       print the transformed IR and exit
//!       --check         enable the Section-6 runtime argument checks
//!       --round-robin   round-robin page placement instead of first-touch
//!       --counters      print per-processor hardware counters
//!       --engine E      executor: bytecode (default) | interp
//!       --migrate POLICY      reactive page migration: off |
//!                             threshold[:N] | competitive[:N]
//!       --sample 1/N    systematic cache-set sampling: simulate 1/N of
//!                       the L2 sets exactly and extrapolate the rest
//!                       (data results stay bit-identical; 1/1 = exact)
//!       --sample-seed N choose which residue class of sets is sampled
//!       --strip-placement     drop placement directives and affinity
//!                             clauses (keep doacross) before compiling
//!       --profile       print the per-array/per-region attribution profile
//!       --profile-json FILE   also write the profile as JSON to FILE
//!       --auto          strip directives and search for the best plan first
//!       --budget N      candidate simulations for --auto (default 48)
//!       --plan-json FILE      write the --auto plan as JSON to FILE
//!       --emit-fortran FILE   write the --auto annotated source to FILE
//!       --remote SOCK   compile and run on the dsmd daemon listening on
//!                       the Unix socket SOCK instead of in-process; the
//!                       printed report is bit-identical to a local run
//!       --priority N    admission priority for --remote (default 0)
//!       --wall-ms N     wall budget for --remote: if still queued after
//!                       N ms the daemon answers daemon.deadline
//!       --redist M      redistribution mover: scheduled (default, round-
//!                       packed bulk moves) | naive (per-page faults)
//!       --resize-to N   resize the team to N processors before the first
//!                       statement (moves only the delta pages)
//! ```

use dsm_core::{
    advise, AdvisorConfig, DsmError, Engine, ExecError, ExecOptions, MachineConfig, MachineSpec,
    MigrationPolicy, OptConfig, PagePolicy, RedistMode, RunReport, SamplingConfig,
};

struct Options {
    files: Vec<String>,
    procs: usize,
    scale: usize,
    opt: OptConfig,
    dump_ir: bool,
    checks: bool,
    round_robin: bool,
    counters: bool,
    engine: Engine,
    migrate: Option<MigrationPolicy>,
    sample: Option<SamplingConfig>,
    sample_seed: u64,
    strip_placement: bool,
    profile: bool,
    profile_json: Option<String>,
    auto: bool,
    budget: usize,
    plan_json: Option<String>,
    emit_fortran: Option<String>,
    remote: Option<String>,
    priority: i64,
    wall_ms: Option<u64>,
    redist: RedistMode,
    resize_to: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dsmfc [-p N] [--scale N] [-O none|tile|hoist|full] [--dump-ir] \
         [--check] [--round-robin] [--counters] [--engine bytecode|interp] \
         [--migrate off|threshold[:N]|competitive[:N]] [--sample 1/N] [--sample-seed N] \
         [--strip-placement] [--profile] \
         [--profile-json FILE] [--auto] [--budget N] [--plan-json FILE] \
         [--emit-fortran FILE] [--remote SOCK] [--priority N] [--wall-ms N] \
         [--redist scheduled|naive] [--resize-to N] \
         file.f [file2.f ...]"
    );
    std::process::exit(2)
}

/// Parse the `--engine` argument, exiting with a diagnostic on an
/// unknown executor name.
fn engine_arg(spec: Option<&str>) -> Engine {
    let Some(spec) = spec else {
        eprintln!("dsmfc: --engine requires an executor (bytecode | interp)");
        std::process::exit(2);
    };
    spec.parse().unwrap_or_else(|e| {
        eprintln!("dsmfc: --engine: {e}");
        std::process::exit(2);
    })
}

/// Parse the `--redist` mover argument, exiting with a diagnostic on an
/// unknown mode.
fn redist_arg(spec: Option<&str>) -> RedistMode {
    let Some(spec) = spec else {
        eprintln!("dsmfc: --redist requires a mover (scheduled | naive)");
        std::process::exit(2);
    };
    spec.parse().unwrap_or_else(|e| {
        eprintln!("dsmfc: --redist: {e}");
        std::process::exit(2);
    })
}

/// Parse the `--sample` rate argument, exiting with a diagnostic on a
/// malformed spec.
fn sample_arg(spec: Option<&str>) -> SamplingConfig {
    let Some(spec) = spec else {
        eprintln!("dsmfc: --sample requires a rate (1/N or N, power-of-two N)");
        std::process::exit(2);
    };
    SamplingConfig::parse(spec).unwrap_or_else(|e| {
        eprintln!("dsmfc: --sample: {e}");
        std::process::exit(2);
    })
}

/// Parse the `--migrate` policy argument, exiting with a diagnostic on
/// a malformed spec.
fn migrate_arg(spec: Option<&str>) -> MigrationPolicy {
    let Some(spec) = spec else {
        eprintln!("dsmfc: --migrate requires a policy (off | threshold[:N] | competitive[:N])");
        std::process::exit(2);
    };
    MigrationPolicy::parse(spec).unwrap_or_else(|e| {
        eprintln!("dsmfc: --migrate: {e}");
        std::process::exit(2);
    })
}

/// The output path following a flag. A missing argument — or a following
/// flag swallowed as if it were a path — is a hard error, not a silent
/// misparse.
fn path_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) if !v.starts_with('-') => v,
        _ => {
            eprintln!("dsmfc: {flag} requires an output path");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Options {
    let mut o = Options {
        files: vec![],
        procs: 4,
        scale: 64,
        opt: OptConfig::default(),
        dump_ir: false,
        checks: false,
        round_robin: false,
        counters: false,
        engine: Engine::default(),
        migrate: None,
        sample: None,
        sample_seed: 0,
        strip_placement: false,
        profile: false,
        profile_json: None,
        auto: false,
        budget: 48,
        plan_json: None,
        emit_fortran: None,
        remote: None,
        priority: 0,
        wall_ms: None,
        redist: RedistMode::default(),
        resize_to: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-p" | "--procs" => {
                o.procs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => {
                o.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "-O" => {
                o.opt = match args.next().as_deref() {
                    Some("none") => OptConfig::none(),
                    Some("tile") => OptConfig::tile_peel_only(),
                    Some("hoist") => OptConfig::tile_peel_hoist(),
                    Some("full") => OptConfig::default(),
                    _ => usage(),
                }
            }
            "--dump-ir" => o.dump_ir = true,
            "--check" => o.checks = true,
            "--round-robin" => o.round_robin = true,
            "--counters" => o.counters = true,
            "--engine" => o.engine = engine_arg(args.next().as_deref()),
            e if e.starts_with("--engine=") => {
                o.engine = engine_arg(e.strip_prefix("--engine="));
            }
            "--migrate" => o.migrate = Some(migrate_arg(args.next().as_deref())),
            m if m.starts_with("--migrate=") => {
                o.migrate = Some(migrate_arg(m.strip_prefix("--migrate=")));
            }
            "--sample" => o.sample = Some(sample_arg(args.next().as_deref())),
            m if m.starts_with("--sample=") => {
                o.sample = Some(sample_arg(m.strip_prefix("--sample=")));
            }
            "--sample-seed" => {
                o.sample_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--strip-placement" => o.strip_placement = true,
            "--profile" => o.profile = true,
            "--profile-json" => o.profile_json = Some(path_arg(&mut args, &a)),
            "--auto" => o.auto = true,
            "--budget" => {
                o.budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--plan-json" => o.plan_json = Some(path_arg(&mut args, &a)),
            "--emit-fortran" => o.emit_fortran = Some(path_arg(&mut args, &a)),
            "--remote" => o.remote = Some(path_arg(&mut args, &a)),
            r if r.starts_with("--remote=") => {
                o.remote = r.strip_prefix("--remote=").map(str::to_string);
            }
            "--priority" => {
                o.priority = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--wall-ms" => {
                o.wall_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .or_else(|| usage())
            }
            "--redist" => o.redist = redist_arg(args.next().as_deref()),
            r if r.starts_with("--redist=") => {
                o.redist = redist_arg(r.strip_prefix("--redist="));
            }
            "--resize-to" => {
                o.resize_to = args.next().and_then(|v| v.parse().ok()).or_else(|| usage())
            }
            "-h" | "--help" => usage(),
            f if !f.starts_with('-') => o.files.push(f.to_string()),
            _ => usage(),
        }
    }
    if o.files.is_empty() {
        usage();
    }
    o
}

/// Run the advisor over `sources` and return the annotated program it
/// chose (which the normal compile+run below then uses).
fn run_auto(o: &Options, sources: &[(String, String)]) -> Vec<(String, String)> {
    let cfg = AdvisorConfig {
        nprocs: o.procs,
        scale: o.scale,
        budget: o.budget,
        opt: o.opt,
        ..AdvisorConfig::default()
    };
    let advice = match advise(sources, &cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsmfc: --auto failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "auto: baseline {} cycles ({} remote misses)",
        advice.baseline.total_cycles, advice.baseline.remote_misses
    );
    println!(
        "auto: best     {} cycles ({} remote misses), speedup {:.2}x",
        advice.best.total_cycles,
        advice.best.remote_misses,
        advice.speedup()
    );
    println!(
        "auto: searched {} candidates ({} pruned, {} rejected), verified {} oracle runs",
        advice.evaluated, advice.pruned, advice.rejected, advice.verified_runs
    );
    for d in advice.directives() {
        println!("auto:   {d}");
    }
    if let Some(path) = &o.plan_json {
        if let Err(e) = std::fs::write(path, advice.plan_json()) {
            eprintln!("dsmfc: cannot write `{path}`: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &o.emit_fortran {
        if let Err(e) = std::fs::write(path, advice.emitted()) {
            eprintln!("dsmfc: cannot write `{path}`: {e}");
            std::process::exit(1);
        }
    }
    advice.annotated
}

/// Assemble [`ExecOptions`] from the flags, validating the sampling
/// spec against the machine's cache geometry (exit 2 when the hardware
/// cannot sample at that rate). Shared by the local and `--remote`
/// paths so both run under exactly the same options.
fn build_exec(o: &Options, cfg: &MachineConfig) -> ExecOptions {
    let want_profile = o.profile || o.profile_json.is_some();
    let mut exec = ExecOptions::new(o.procs)
        .with_checks(o.checks)
        .engine(o.engine)
        .profile(want_profile);
    if let Some(policy) = o.migrate {
        exec = exec.migration(policy);
    }
    if let Some(sample) = o.sample {
        let sample = sample.with_seed(o.sample_seed);
        if let Err(e) = sample.validate_geometry(&cfg.l1, &cfg.l2) {
            eprintln!("dsmfc: --sample: {e}");
            std::process::exit(2);
        }
        exec = exec.sampling(sample);
    }
    exec = exec.redist(o.redist);
    if let Some(p) = o.resize_to {
        exec = exec.resize_to(p);
    }
    exec
}

/// The measurement lines every run prints — local and remote paths
/// feed the same [`RunReport`] type through here, so `dsmfc --remote`
/// output is byte-identical to a local run (host wall-clock aside).
fn print_report(o: &Options, report: &RunReport) {
    println!(
        "cycles: {} total ({} in parallel regions, {} regions)",
        report.total_cycles, report.parallel_cycles, report.parallel_regions
    );
    println!("simulated seconds at 195 MHz: {:.6}", report.seconds(195e6));
    println!(
        "host wall-clock: {:?} total, {:?} in parallel regions",
        report.host_wall, report.host_region_wall
    );
    println!("aggregate: {}", report.total);
    println!("pages/node: {:?}", report.pages_per_node);
    if o.migrate.is_some_and(|p| !p.is_off()) {
        println!(
            "migration: {} page(s), {} cycles",
            report.pages_migrated, report.migration_cycles
        );
    }
    if report.redist_pages > 0 {
        println!(
            "redistribution ({}): {} page(s), {} cycles",
            o.redist, report.redist_pages, report.redist_cycles
        );
    }
    if let Some(s) = &report.sampling {
        println!("{s}");
    }
    if o.counters {
        for (p, c) in report.per_proc.iter().enumerate() {
            println!("P{p:<3} {c}");
        }
    }
}

/// Print/write the attribution profile. Both renderings arrive
/// pre-formatted (locally from the `Profile`, remotely relayed by the
/// daemon) so the bytes cannot depend on where the run happened.
fn print_profile(o: &Options, text: Option<&str>, json: Option<&str>) {
    if o.profile {
        if let Some(t) = text {
            println!("{t}");
        }
    }
    if let Some(path) = &o.profile_json {
        if let Some(j) = json {
            if let Err(e) = std::fs::write(path, j) {
                eprintln!("dsmfc: cannot write `{path}`: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The `--remote` path: ship sources and options to the daemon, decode
/// the reply, and print exactly what the local path would.
fn run_on_daemon(o: &Options, socket: &str, sources: &[(String, String)]) {
    let mut cfg = MachineConfig::scaled_origin2000(o.procs, o.scale);
    if o.round_robin {
        cfg.policy = PagePolicy::RoundRobin;
    }
    let exec = build_exec(o, &cfg);
    let spec = MachineSpec::origin2000(o.procs, o.scale, o.round_robin);
    match dsm_core::run_remote(socket, sources, &o.opt, &spec, &exec, o.priority, o.wall_ms) {
        Ok(run) => {
            eprintln!(
                "dsmfc: compiled {} file(s) on {socket}; pre-linker: {} clone(s), \
                 {} recompilation(s){}",
                o.files.len(),
                run.prelink_clones,
                run.prelink_recompilations,
                if run.cached { " [cached]" } else { "" }
            );
            print_report(o, &run.outcome.report);
            print_profile(
                o,
                run.profile_text.as_deref(),
                run.outcome.profile_json.as_deref(),
            );
        }
        Err(e) => {
            // Match the local error shape: runtime errors print bare
            // (the message already starts "runtime error:"), anything
            // else gets the driver prefix.
            if e.code.starts_with("exec.") {
                eprintln!("{}", e.message);
            } else {
                eprintln!("dsmfc: {}", e.message);
            }
            eprintln!("dsmfc: error code {}", e.code);
            std::process::exit(1);
        }
    }
}

fn main() {
    let o = parse_args();
    // No machine can be scaled by zero (`scaled_origin2000` asserts):
    // the same options error as a processor count no machine can host.
    if o.scale == 0 {
        let e = DsmError::Exec(ExecError::Options(
            "machine: --scale must be a positive integer".into(),
        ));
        eprintln!("{e}");
        eprintln!("dsmfc: error code {}", e.code());
        std::process::exit(1);
    }
    let mut sources = match dsm_core::load_sources(&o.files).map_err(DsmError::Io) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dsmfc: {e}");
            eprintln!("dsmfc: error code {}", e.code());
            std::process::exit(1);
        }
    };
    if o.strip_placement {
        for (_, text) in &mut sources {
            *text = dsm_frontend::strip_placement(text);
        }
    }
    if let Some(socket) = &o.remote {
        if o.auto || o.dump_ir {
            eprintln!("dsmfc: --auto and --dump-ir are not supported with --remote");
            std::process::exit(2);
        }
        run_on_daemon(&o, socket, &sources);
        return;
    }
    if o.auto {
        sources = run_auto(&o, &sources);
    }
    let program = match dsm_core::compile_source(&sources, &o.opt) {
        Ok(p) => p,
        Err(e) => {
            if let Some(errs) = e.compile_errors() {
                let refs: Vec<(&str, &str)> = sources
                    .iter()
                    .map(|(n, t)| (n.as_str(), t.as_str()))
                    .collect();
                eprint!("{}", dsm_frontend::render_diagnostics(&refs, errs));
            } else {
                eprintln!("dsmfc: {e}");
            }
            eprintln!("dsmfc: error code {}", e.code());
            std::process::exit(1);
        }
    };
    let pr = program.prelink_report();
    eprintln!(
        "dsmfc: compiled {} file(s); pre-linker: {} clone(s), {} recompilation(s)",
        o.files.len(),
        pr.clones_created,
        pr.recompilations
    );
    if o.dump_ir {
        println!("{}", program.ir_dump());
        return;
    }
    let mut cfg = MachineConfig::scaled_origin2000(o.procs, o.scale);
    if o.round_robin {
        cfg.policy = PagePolicy::RoundRobin;
    }
    let exec = build_exec(&o, &cfg);
    match program.run(&cfg, &exec) {
        Ok(out) => {
            print_report(&o, &out.report);
            let text = out.profile().map(|p| p.to_string());
            let json = out.profile().map(|p| p.to_json());
            print_profile(&o, text.as_deref(), json.as_deref());
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("dsmfc: error code {}", e.code());
            std::process::exit(1);
        }
    }
}
