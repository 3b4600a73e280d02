//! The metric tables. `BENCHMARK.json` at the root of the repo lists
//! the same names, units and bounds; a unit test holds the two equal.

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Reported by every workload's untraced run.
///
/// * `setup_s` — median of the run's set-ups: source generation,
///   reference runs under the interpreter and their verification,
///   daemon start and warm-up.
/// * `work_per_s` — 10³ work units per host second, the median over
///   iterations, compiles or request slices; the unit is the workload's
///   (simulated accesses, source lines, requests).
/// * `lat_p50_ms` — median host time of one operation (an iteration of
///   the job list, a compile, a request as the client sees it).
/// * `lat_tail_ms` — `stats::tail` of the same samples where they are
///   enough for a percentile (compiles, requests); the median time of
///   the slowest job of the list on the simulation workloads.
/// * `peak_rss_mb` — `VmHWM` of the workload's process at exit.
///
/// The bounds are at least three times the widest interquartile spread
/// seen over ten seeds on the two-core reference host; `README.md` has
/// the spreads.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "kunit/s",
        higher_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_tail_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// A per-layer metric; the layer is the name's first component.
pub struct PerLayer {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub higher_is_better: bool,
    /// A count that must repeat bit for bit between two runs of one
    /// commit and seed; `--check` fails if it does not.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// Reported by every workload's traced run. Where a workload never
/// enters a layer the value is zero, which is the measurement: that
/// workload bypasses the layer. `README.md` says what each one times
/// and which end-to-end metric it should move on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    // From the spans: each layer's self-time share of the traced wall.
    timing("share.frontend", "share"),
    timing("share.compile", "share"),
    timing("share.ir", "share"),
    timing("share.core", "share"),
    timing("share.exec", "share"),
    timing("share.machine", "share"),
    timing("share.proto", "share"),
    timing("share.dsmd", "share"),
    timing("share.bench", "share"),
    timing("trace.wall_s", "s"),
    rate("trace.work_per_s", "kunit/s"),
    timing("trace.spans", "count"),
    // From the spans: median time per operation in each stage.
    timing("frontend.lex_ms", "ms"),
    timing("frontend.parse_ms", "ms"),
    timing("frontend.sema_ms", "ms"),
    rate("frontend.klines_per_s", "kline/s"),
    timing("compile.lower_ms", "ms"),
    timing("compile.prelink_ms", "ms"),
    timing("compile.stmtcse_ms", "ms"),
    timing("compile.skew_ms", "ms"),
    timing("compile.tile_ms", "ms"),
    timing("compile.hoist_ms", "ms"),
    timing("compile.divmod_ms", "ms"),
    count("compile.clones", "count"),
    count("compile.ir_lines", "count"),
    timing("ir.validate_ms", "ms"),
    timing("ir.print_ms", "ms"),
    timing("core.compile_source_ms", "ms"),
    timing("core.run_ms", "ms"),
    rate("exec.transpose.maccess_per_s", "Maccess/s"),
    rate("exec.conv.maccess_per_s", "Maccess/s"),
    rate("exec.conv2.maccess_per_s", "Maccess/s"),
    rate("exec.lu.maccess_per_s", "Maccess/s"),
    rate("exec.fill.maccess_per_s", "Maccess/s"),
    rate("exec.migrate.maccess_per_s", "Maccess/s"),
    rate("exec.redist.maccess_per_s", "Maccess/s"),
    rate("exec.sampled.maccess_per_s", "Maccess/s"),
    timing("exec.region_wall_share", "share"),
    timing("exec.report_json_us", "us"),
    timing("exec.report_render_us", "us"),
    // The model's outputs over one iteration of the job list.
    count("machine.sim_cycles", "cycles"),
    count("machine.accesses", "count"),
    count("machine.l2_misses", "count"),
    count("machine.remote_share", "share"),
    count("machine.tlb_misses", "count"),
    count("machine.invalidations", "count"),
    count("machine.pages_migrated", "count"),
    count("machine.redist_pages", "count"),
    count("machine.sample.cycles_err_pct", "%"),
    // The daemon as its clients and its own counters saw it.
    timing("dsmd.hit.p50_ms", "ms"),
    timing("dsmd.miss.p50_ms", "ms"),
    rate("dsmd.drift_ratio", "ratio"),
    timing("dsmd.handoff_us", "us"),
    timing("dsmd.hit60k.exec_share", "share"),
    count("dsmd.cache.hits", "count"),
    count("dsmd.cache.misses", "count"),
    // Which worker met which request is the host's choice, so these
    // three are counts but not exact.
    timing("dsmd.pool.created", "count"),
    rate("dsmd.pool.reused", "count"),
    timing("dsmd.queue.peak", "count"),
    count("dsmd.refused", "count"),
    // Probes: fixed inputs, the same on every workload.
    timing("machine.new_ms", "ms"),
    timing("machine.snapshot_ms", "ms"),
    timing("machine.restore_ms", "ms"),
    timing("machine.access.l1_hit_ns", "ns"),
    timing("machine.access.l2_local_ns", "ns"),
    timing("machine.access.l2_remote_ns", "ns"),
    timing("machine.access.tlb_miss_ns", "ns"),
    timing("machine.access.write_shared_ns", "ns"),
    timing("machine.run_batched.elem_ns", "ns"),
    timing("runtime.partition_ns", "ns"),
    timing("runtime.redist.plan_ms", "ms"),
    rate("runtime.redist.pages_per_s", "1/s"),
    rate("runtime.resize.pages_per_s", "1/s"),
    count("runtime.redist.pages_moved", "count"),
    timing("exec.fixed_run_ms", "ms"),
    rate("exec.interp.maccess_per_s", "Maccess/s"),
    timing("exec.profile_overhead_ratio", "ratio"),
    count("proto.request_bytes", "B"),
    // The reply carries the run's host wall-clock in decimal digits.
    timing("proto.reply_bytes", "B"),
    timing("proto.encode_request_us", "us"),
    timing("proto.parse_request_us", "us"),
    rate("proto.parse_mb_per_s", "MB/s"),
    timing("proto.decode_outcome_us", "us"),
    timing("dsmd.ping_rtt_us", "us"),
    timing("dsmd.cache.key_us", "us"),
    timing("dsmd.cache.hit_us", "us"),
    timing("dsmd.cache.miss_ms", "ms"),
    timing("dsmd.pool.cycle_us", "us"),
    timing("dsmd.execute_hit_us", "us"),
    timing("dsmd.handoff_idle_us", "us"),
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`, from the tables (`dsmbench --describe`).
pub fn describe(workloads: &[(&str, &str)], run_seconds: u64) -> String {
    let workloads: Vec<String> = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d.higher_is_better),
                d.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{
  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"dsmbench/Cargo.toml\", \"--\"],
  \"paths\": [\"dsmbench\"],
  \"run_seconds\": {run_seconds},
  \"workloads\": [
{}
  ],
  \"end_to_end\": [
{}
  ],
  \"per_layer\": [
{}
  ]
}}
",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        let ours = crate::describe();
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            ours,
            "regenerate with `dsmbench --describe`"
        );
        let doc = dsm_proto::parse(&ours).expect("valid JSON");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(doc.get(key).is_some(), "no `{key}`");
        }
        assert!(ours.len() < 64 << 10);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        assert!(PER_LAYER.len() <= 128);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(crate::WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
