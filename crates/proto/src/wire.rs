//! Request/reply schema of the `dsmd` daemon protocol.
//!
//! One JSON object per line in each direction. Requests carry an `"op"`
//! discriminator; replies carry `"ok"` — `true` with op-specific fields,
//! or `false` with a stable machine-readable `"code"` (see
//! `docs/DAEMON.md` for the full reference). This module is shared by
//! the daemon (decode requests, encode replies) and every client
//! (encode requests, decode replies), so the two sides cannot drift.

use dsm_compile::OptConfig;
use dsm_exec::{ExecOptions, RunReport};
use dsm_machine::{
    CounterSet, MachineConfig, MigrationPolicy, PagePolicy, SamplingConfig, SamplingSummary,
    MAX_PROCS,
};

use crate::json::{parse, write_json_str, Value};

/// The machine geometry a `run` request asks for. Deliberately a *spec*,
/// not a full [`MachineConfig`]: the daemon derives the config the same
/// way the CLIs do, so a remote run and `dsmfc` agree on every latency
/// and capacity parameter by construction. Also the daemon's machine
/// pool key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineSpec {
    /// Simulated processors.
    pub procs: usize,
    /// Scale divisor vs a real Origin-2000 (`dsmfc --scale`).
    pub scale: usize,
    /// Round-robin page placement instead of first-touch.
    pub round_robin: bool,
    /// Use the tiny test geometry (`MachineConfig::small_test`) instead
    /// of the scaled Origin-2000 — for tests and benches.
    pub small_test: bool,
}

impl MachineSpec {
    /// The spec `dsmfc` would use for these flags.
    pub fn origin2000(procs: usize, scale: usize, round_robin: bool) -> Self {
        MachineSpec {
            procs,
            scale,
            round_robin,
            small_test: false,
        }
    }

    /// Materialize the [`MachineConfig`] this spec describes.
    pub fn to_config(&self) -> MachineConfig {
        let mut cfg = if self.small_test {
            MachineConfig::small_test(self.procs)
        } else {
            MachineConfig::scaled_origin2000(self.procs, self.scale)
        };
        if self.round_robin {
            cfg.policy = PagePolicy::RoundRobin;
        }
        cfg
    }

    /// Single-line JSON with fixed field order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"procs\":{},\"scale\":{},\"round_robin\":{},\"small_test\":{}}}",
            self.procs, self.scale, self.round_robin, self.small_test
        )
    }

    /// Decode from a parsed object.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing or malformed member, or of a
    /// zero `procs` or `scale` or a processor count past [`MAX_PROCS`]
    /// (none of which a machine can be built with: `to_config` would
    /// panic in the worker).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        Ok(MachineSpec {
            procs: v
                .get("procs")
                .and_then(Value::as_usize)
                .filter(|p| (1..=MAX_PROCS).contains(p))
                .ok_or_else(|| {
                    format!("machine.procs must be a positive integer, at most {MAX_PROCS}")
                })?,
            scale: v
                .get("scale")
                .and_then(Value::as_usize)
                .filter(|&s| s > 0)
                .ok_or("machine.scale must be a positive integer")?,
            round_robin: v
                .get("round_robin")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            small_test: v
                .get("small_test")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        })
    }
}

/// Encode an [`OptConfig`] (single line, fixed order).
pub fn opt_to_json(opt: &OptConfig) -> String {
    format!(
        "{{\"skew\":{},\"tile_peel\":{},\"hoist_cse\":{},\"fp_divmod\":{},\"interchange\":{}}}",
        opt.skew, opt.tile_peel, opt.hoist_cse, opt.fp_divmod, opt.interchange
    )
}

/// Decode an [`OptConfig`]; absent members take the full-optimization
/// defaults, `null` for the whole object is `OptConfig::default()`.
pub fn opt_from_value(v: &Value) -> OptConfig {
    let mut opt = OptConfig::default();
    if let Value::Obj(_) = v {
        let flag = |key: &str, dflt: bool| v.get(key).and_then(Value::as_bool).unwrap_or(dflt);
        opt.skew = flag("skew", opt.skew);
        opt.tile_peel = flag("tile_peel", opt.tile_peel);
        opt.hoist_cse = flag("hoist_cse", opt.hoist_cse);
        opt.fp_divmod = flag("fp_divmod", opt.fp_divmod);
        opt.interchange = flag("interchange", opt.interchange);
    }
    opt
}

/// Encode `(name, text)` source pairs as a JSON array.
pub fn sources_to_json(sources: &[(String, String)]) -> String {
    let mut s = String::with_capacity(256);
    s.push('[');
    for (i, (name, text)) in sources.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        write_json_str(&mut s, name);
        s.push_str(",\"text\":");
        write_json_str(&mut s, text);
        s.push('}');
    }
    s.push(']');
    s
}

/// Decode a sources array.
///
/// # Errors
///
/// Returns a description of the malformed entry.
pub fn sources_from_value(v: &Value) -> Result<Vec<(String, String)>, String> {
    let arr = v.as_arr().ok_or("sources must be an array")?;
    let mut out = Vec::with_capacity(arr.len());
    for e in arr {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or("source entry needs a `name` string")?;
        let text = e
            .get("text")
            .and_then(Value::as_str)
            .ok_or("source entry needs a `text` string")?;
        out.push((name.to_string(), text.to_string()));
    }
    if out.is_empty() {
        return Err("sources must not be empty".into());
    }
    Ok(out)
}

/// Decode the `options` object of a `run` request into [`ExecOptions`]
/// (the inverse of `ExecOptions::to_json`). Absent members keep their
/// defaults.
///
/// # Errors
///
/// Returns a description of the malformed member (unknown engine name,
/// bad migration policy, non-integer rate, …).
pub fn exec_options_from_value(v: &Value) -> Result<ExecOptions, String> {
    let nprocs = v
        .get("nprocs")
        .and_then(Value::as_usize)
        .ok_or("options.nprocs must be a positive integer")?;
    let mut opts = ExecOptions::new(nprocs);
    if let Some(b) = v.get("runtime_checks").and_then(Value::as_bool) {
        opts = opts.with_checks(b);
    }
    if let Some(n) = v.get("max_steps").and_then(Value::as_u64) {
        opts = opts.max_steps(n);
    }
    if let Some(b) = v.get("serial_team").and_then(Value::as_bool) {
        opts = opts.serial_team(b);
    }
    if let Some(b) = v.get("profile").and_then(Value::as_bool) {
        opts = opts.profile(b);
    }
    if let Some(arr) = v.get("captures").and_then(Value::as_arr) {
        let names: Vec<&str> = arr.iter().filter_map(Value::as_str).collect();
        if names.len() != arr.len() {
            return Err("options.captures must be an array of strings".into());
        }
        opts = opts.capture(&names);
    }
    if let Some(m) = v.get("migration") {
        if let Some(spec) = m.as_str() {
            opts = opts.migration(MigrationPolicy::parse(spec)?);
        } else if !m.is_null() {
            return Err("options.migration must be a policy string or null".into());
        }
    }
    if let Some(e) = v.get("engine").and_then(Value::as_str) {
        opts = opts.engine(e.parse()?);
    }
    if let Some(s) = v.get("sampling") {
        if let Value::Obj(_) = s {
            let rate = s
                .get("rate")
                .and_then(Value::as_u64)
                .ok_or("options.sampling.rate must be an integer")? as u32;
            let seed = s.get("seed").and_then(Value::as_u64).unwrap_or(0);
            opts = opts.sampling(SamplingConfig { rate, seed });
        } else if !s.is_null() {
            return Err("options.sampling must be an object or null".into());
        }
    }
    if let Some(r) = v.get("redist").and_then(Value::as_str) {
        opts = opts.redist(r.parse()?);
    }
    if let Some(r) = v.get("resize_to") {
        if let Some(p) = r.as_usize() {
            opts = opts.resize_to(p);
        } else if !r.is_null() {
            return Err("options.resize_to must be a positive integer or null".into());
        }
    }
    Ok(opts)
}

fn counters_from_value(v: &Value) -> Result<CounterSet, String> {
    let n = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("counter set missing `{key}`"))
    };
    Ok(CounterSet {
        loads: n("loads")?,
        stores: n("stores")?,
        l1_misses: n("l1_misses")?,
        l2_misses: n("l2_misses")?,
        local_misses: n("local_misses")?,
        remote_misses: n("remote_misses")?,
        interventions: n("interventions")?,
        tlb_misses: n("tlb_misses")?,
        invalidations_sent: n("invalidations_sent")?,
        invalidations_received: n("invalidations_received")?,
        page_faults: n("page_faults")?,
        writebacks: n("writebacks")?,
        cycles: n("cycles")?,
    })
}

fn sampling_from_value(v: &Value) -> Result<SamplingSummary, String> {
    let n = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("sampling summary missing `{key}`"))
    };
    Ok(SamplingSummary {
        rate: n("rate")? as u32,
        seed: n("seed")?,
        exact: v
            .get("exact")
            .and_then(Value::as_bool)
            .ok_or("sampling summary missing `exact`")?,
        accesses: n("accesses")?,
        exact_accesses: n("exact_accesses")?,
        estimated_accesses: n("estimated_accesses")?,
        sampled_sets: n("sampled_sets")? as usize,
        total_sets: n("total_sets")? as usize,
        est_l1_misses: n("est_l1_misses")?,
        est_l2_misses: n("est_l2_misses")?,
        est_local_misses: n("est_local_misses")?,
        est_remote_misses: n("est_remote_misses")?,
        estimator_cycles: n("estimator_cycles")?,
        ci95_miss_pct: f64::from_bits(n("ci95_miss_pct_bits")?),
        ci95_cycle_pct: f64::from_bits(n("ci95_cycle_pct_bits")?),
    })
}

/// A `run` reply's outcome decoded back into native types. The
/// attribution profile is *not* reconstructed — `profile_json` and
/// `profile_text` carry the daemon's pre-rendered documents verbatim,
/// so a remote `--profile` run prints the exact bytes a local one
/// would.
#[derive(Debug, Clone)]
pub struct DecodedOutcome {
    /// The report; `report.profile` is always `None` (see above).
    pub report: RunReport,
    /// Captured arrays, bit-exact.
    pub captures: Vec<Vec<f64>>,
    /// The profile as JSON (`Profile::to_json`), when profiled.
    pub profile_json: Option<String>,
}

/// Decode the `report` object of a reply (inverse of
/// `RunReport::to_json`).
///
/// # Errors
///
/// Returns a description of the missing or malformed member.
pub fn report_from_value(v: &Value) -> Result<RunReport, String> {
    let n = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("report missing `{key}`"))
    };
    let per_proc = v
        .get("per_proc")
        .and_then(Value::as_arr)
        .ok_or("report missing `per_proc`")?
        .iter()
        .map(counters_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let pages_per_node = v
        .get("pages_per_node")
        .and_then(Value::as_arr)
        .ok_or("report missing `pages_per_node`")?
        .iter()
        .map(|e| e.as_usize().ok_or("pages_per_node must hold integers"))
        .collect::<Result<Vec<_>, _>>()?;
    let sampling = match v.get("sampling") {
        None | Some(Value::Null) => None,
        Some(s) => Some(sampling_from_value(s)?),
    };
    Ok(RunReport {
        total_cycles: n("total_cycles")?,
        per_proc,
        total: counters_from_value(v.get("total").ok_or("report missing `total`")?)?,
        parallel_regions: n("parallel_regions")? as usize,
        parallel_cycles: n("parallel_cycles")?,
        pages_per_node,
        argcheck_ops: (n("argcheck_inserts")?, n("argcheck_lookups")?),
        pages_migrated: n("pages_migrated")?,
        migration_cycles: n("migration_cycles")?,
        redist_pages: n("redist_pages").unwrap_or(0),
        redist_cycles: n("redist_cycles").unwrap_or(0),
        host_wall: std::time::Duration::from_nanos(n("host_wall_ns").unwrap_or(0)),
        host_region_wall: std::time::Duration::from_nanos(n("host_region_wall_ns").unwrap_or(0)),
        profile: None,
        sampling,
    })
}

/// Decode an `outcome` object (`{"report":…,"captures":…}`).
///
/// # Errors
///
/// Returns a description of the missing or malformed member.
pub fn outcome_from_value(v: &Value) -> Result<DecodedOutcome, String> {
    let report_v = v.get("report").ok_or("outcome missing `report`")?;
    let report = report_from_value(report_v)?;
    let profile_json = report_v
        .get("profile_json")
        .and_then(Value::as_str)
        .map(str::to_string);
    let captures = v
        .get("captures")
        .and_then(Value::as_arr)
        .ok_or("outcome missing `captures`")?
        .iter()
        .map(|arr| {
            arr.as_arr()
                .ok_or("captures must be arrays")?
                .iter()
                .map(|b| {
                    b.as_u64()
                        .map(f64::from_bits)
                        .ok_or("capture elements must be u64 bit patterns")
                })
                .collect::<Result<Vec<f64>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(str::to_string)?;
    Ok(DecodedOutcome {
        report,
        captures,
        profile_json,
    })
}

/// Recompute `RunReport::digest_json` from a *wire* report object:
/// drop the host wall-clock members and re-serialize. Because the
/// writer's field order is canonical and numbers round-trip as text,
/// the result is byte-equal to the digest the producing side computed.
pub fn digest_from_report_value(v: &Value) -> Result<String, String> {
    let Value::Obj(members) = v else {
        return Err("report must be an object".into());
    };
    let filtered: Vec<(String, Value)> = members
        .iter()
        .filter(|(k, _)| k != "host_wall_ns" && k != "host_region_wall_ns")
        .cloned()
        .collect();
    Ok(Value::Obj(filtered).to_json())
}

/// A decoded daemon request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Daemon statistics.
    Stats,
    /// Orderly shutdown.
    Shutdown,
    /// Compile (and cache) a program without running it.
    Compile {
        /// `(name, text)` source pairs.
        sources: Vec<(String, String)>,
        /// Optimization toggles.
        opt: OptConfig,
    },
    /// Compile (through the cache) and run on a pooled machine.
    Run {
        /// `(name, text)` source pairs.
        sources: Vec<(String, String)>,
        /// Optimization toggles.
        opt: OptConfig,
        /// Machine geometry (also the pool key).
        machine: MachineSpec,
        /// Execution options.
        options: ExecOptions,
        /// Admission priority (higher first; FIFO within a priority).
        priority: i64,
        /// Wall-clock budget from admission, in milliseconds: a request
        /// still queued past its budget is answered `daemon.deadline`
        /// instead of running.
        wall_ms: Option<u64>,
        /// Bypass the program cache and machine pool (benchmarking the
        /// cold path).
        cold: bool,
    },
    /// Run the auto-distribution advisor.
    Advise {
        /// `(name, text)` source pairs.
        sources: Vec<(String, String)>,
        /// Processors to plan for.
        procs: usize,
        /// Machine scale divisor.
        scale: usize,
        /// Candidate-simulation budget.
        budget: usize,
    },
}

/// Parse one request line.
///
/// # Errors
///
/// Returns the message for a `daemon.bad-request` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs an `op` string")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "compile" => Ok(Request::Compile {
            sources: sources_from_value(v.get("sources").ok_or("compile needs `sources`")?)?,
            opt: opt_from_value(v.get("opt").unwrap_or(&Value::Null)),
        }),
        "run" => Ok(Request::Run {
            sources: sources_from_value(v.get("sources").ok_or("run needs `sources`")?)?,
            opt: opt_from_value(v.get("opt").unwrap_or(&Value::Null)),
            machine: MachineSpec::from_value(v.get("machine").ok_or("run needs `machine`")?)?,
            options: exec_options_from_value(
                v.get("options").ok_or("run needs `options`")?,
            )?,
            priority: v.get("priority").and_then(Value::as_i64).unwrap_or(0),
            wall_ms: v.get("wall_ms").and_then(Value::as_u64),
            cold: v.get("cold").and_then(Value::as_bool).unwrap_or(false),
        }),
        "advise" => Ok(Request::Advise {
            sources: sources_from_value(v.get("sources").ok_or("advise needs `sources`")?)?,
            procs: v.get("procs").and_then(Value::as_usize).unwrap_or(8),
            scale: v.get("scale").and_then(Value::as_usize).unwrap_or(64),
            budget: v.get("budget").and_then(Value::as_usize).unwrap_or(48),
        }),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Build a `run` request line. `options_json` is
/// `ExecOptions::to_json()` output (kept pre-rendered so client and
/// daemon share the one serializer in `dsm-exec`).
pub fn run_request_json(
    sources: &[(String, String)],
    opt: &OptConfig,
    machine: &MachineSpec,
    options_json: &str,
    priority: i64,
    wall_ms: Option<u64>,
    cold: bool,
) -> String {
    let wall = match wall_ms {
        Some(ms) => ms.to_string(),
        None => "null".into(),
    };
    format!(
        "{{\"op\":\"run\",\"sources\":{},\"opt\":{},\"machine\":{},\"options\":{},\
         \"priority\":{},\"wall_ms\":{},\"cold\":{}}}",
        sources_to_json(sources),
        opt_to_json(opt),
        machine.to_json(),
        options_json,
        priority,
        wall,
        cold
    )
}

/// Build a `compile` request line.
pub fn compile_request_json(sources: &[(String, String)], opt: &OptConfig) -> String {
    format!(
        "{{\"op\":\"compile\",\"sources\":{},\"opt\":{}}}",
        sources_to_json(sources),
        opt_to_json(opt)
    )
}

/// Build an `advise` request line.
pub fn advise_request_json(
    sources: &[(String, String)],
    procs: usize,
    scale: usize,
    budget: usize,
) -> String {
    format!(
        "{{\"op\":\"advise\",\"sources\":{},\"procs\":{procs},\"scale\":{scale},\
         \"budget\":{budget}}}",
        sources_to_json(sources)
    )
}

/// Build an error reply line (`ok:false` with a stable code).
pub fn error_reply(code: &str, message: &str) -> String {
    let mut s = String::with_capacity(64 + message.len());
    s.push_str("{\"ok\":false,\"code\":");
    write_json_str(&mut s, code);
    s.push_str(",\"error\":");
    write_json_str(&mut s, message);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_exec::Engine;

    #[test]
    fn exec_options_round_trip() {
        let opts = ExecOptions::new(4)
            .with_checks(true)
            .serial_team(true)
            .profile(true)
            .max_steps(1234)
            .capture(&["a", "b"])
            .migration(MigrationPolicy::competitive(8))
            .engine(Engine::Interp)
            .sampling(SamplingConfig { rate: 4, seed: 7 });
        let back = exec_options_from_value(&parse(&opts.to_json()).unwrap()).unwrap();
        assert_eq!(back, opts);
        // Defaults survive too.
        let dflt = ExecOptions::new(2);
        let back = exec_options_from_value(&parse(&dflt.to_json()).unwrap()).unwrap();
        assert_eq!(back, dflt);
    }

    #[test]
    fn machine_spec_and_opt_round_trip() {
        let spec = MachineSpec {
            procs: 16,
            scale: 8,
            round_robin: true,
            small_test: false,
        };
        assert_eq!(
            MachineSpec::from_value(&parse(&spec.to_json()).unwrap()).unwrap(),
            spec
        );
        assert_eq!(spec.to_config().policy, PagePolicy::RoundRobin);
        let opt = OptConfig::tile_peel_only();
        assert_eq!(opt_from_value(&parse(&opt_to_json(&opt)).unwrap()), opt);
        assert_eq!(opt_from_value(&Value::Null), OptConfig::default());
    }

    /// A spec past the directory's sharer bitmap is refused at decode, so
    /// the daemon answers `daemon.bad-request` instead of building it.
    #[test]
    fn machine_spec_refuses_more_than_max_procs() {
        let spec = |procs: usize| {
            MachineSpec::from_value(
                &parse(&MachineSpec::origin2000(procs, 64, false).to_json()).unwrap(),
            )
        };
        assert!(spec(MAX_PROCS).unwrap().to_config().validate().is_ok());
        let err = spec(MAX_PROCS + 1).unwrap_err();
        assert!(err.contains("at most 128"), "{err}");
    }

    /// "Positive" means positive: a zero scale divisor (an assert in
    /// `scaled_origin2000`, so a dead worker) or zero processors never
    /// decode, with or without `small_test`.
    #[test]
    fn machine_spec_refuses_zero_scale_and_zero_procs() {
        for small_test in [false, true] {
            let decode = |procs, scale| {
                let spec = MachineSpec {
                    procs,
                    scale,
                    round_robin: false,
                    small_test,
                };
                MachineSpec::from_value(&parse(&spec.to_json()).unwrap())
            };
            assert!(decode(8, 1).is_ok());
            let err = decode(8, 0).unwrap_err();
            assert_eq!(err, "machine.scale must be a positive integer");
            let err = decode(0, 64).unwrap_err();
            assert!(err.starts_with("machine.procs must be a positive integer"), "{err}");
        }
        let line = "{\"op\":\"run\",\"sources\":[{\"name\":\"t.f\",\"text\":\"\"}],\
                    \"machine\":{\"procs\":8,\"scale\":0},\"options\":null}";
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("machine.scale"), "{err}");
    }

    #[test]
    fn run_request_parses_back() {
        let sources = vec![("t.f".to_string(), "      program main\n      end\n".to_string())];
        let opts = ExecOptions::new(2).capture(&["a"]);
        let line = run_request_json(
            &sources,
            &OptConfig::default(),
            &MachineSpec::origin2000(2, 64, false),
            &opts.to_json(),
            3,
            Some(500),
            true,
        );
        assert!(!line.contains('\n'));
        match parse_request(&line).unwrap() {
            Request::Run {
                sources: s,
                machine,
                options,
                priority,
                wall_ms,
                cold,
                ..
            } => {
                assert_eq!(s, sources);
                assert_eq!(machine.procs, 2);
                assert_eq!(options, opts);
                assert_eq!(priority, 3);
                assert_eq!(wall_ms, Some(500));
                assert!(cold);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_described() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"op\":\"warp\"}").is_err());
        assert!(parse_request("{\"op\":\"run\"}").is_err());
        assert!(parse_request("{\"op\":\"compile\",\"sources\":[]}").is_err());
    }

    #[test]
    fn error_reply_is_parseable() {
        let line = error_reply("daemon.overloaded", "queue full (16 requests)");
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("code").and_then(Value::as_str),
            Some("daemon.overloaded")
        );
    }

    #[test]
    fn digest_matches_producer() {
        let report = RunReport {
            total_cycles: 42,
            per_proc: vec![CounterSet::new(); 2],
            total: CounterSet {
                loads: 7,
                cycles: 42,
                ..CounterSet::default()
            },
            parallel_regions: 1,
            parallel_cycles: 40,
            pages_per_node: vec![3, 4],
            argcheck_ops: (1, 2),
            pages_migrated: 5,
            migration_cycles: 6,
            redist_pages: 7,
            redist_cycles: 8,
            host_wall: std::time::Duration::from_millis(3),
            host_region_wall: std::time::Duration::from_millis(2),
            profile: None,
            sampling: None,
        };
        let wire = parse(&report.to_json()).unwrap();
        assert_eq!(
            digest_from_report_value(&wire).unwrap(),
            report.digest_json()
        );
        let back = report_from_value(&wire).unwrap();
        assert_eq!(back, report);
    }
}
