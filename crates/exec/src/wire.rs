//! Canonical wire serialization of execution inputs and outputs.
//!
//! The daemon protocol (`dsmd`, `dsmfc --remote`) is newline-delimited
//! JSON, so everything here renders to a **single line** with a fixed
//! field order — two runs that measured the same thing produce the same
//! bytes. Hand-rolled like [`crate::Profile::to_json`]: the workspace is
//! offline and carries no serde.
//!
//! Exactness rules:
//!
//! * every counter is an integer, written in full (no floats);
//! * `f64` values that must survive the round trip bit-for-bit
//!   (captured array elements, confidence intervals) are written as
//!   their IEEE-754 bit patterns (`f64::to_bits`), so NaNs and
//!   signed zeros transfer too;
//! * the attribution profile rides along as its pre-rendered JSON
//!   document in a string field (`profile_json`) — the client relays it
//!   instead of re-deriving it, so profiled remote runs print the exact
//!   bytes a local run would.
//!
//! [`RunReport::digest_json`] is the *identity projection*: everything
//! deterministic about a run (counters, cycles, placement, migration,
//! sampling, profile) minus the host-side wall-clock fields, which
//! measure the simulator rather than the simulation. Two runs of the
//! same program on the same config must produce equal digests — the
//! daemon's bit-identity tests and the `daemon-smoke` CI job compare
//! exactly this string.

use crate::interp::ExecOptions;
use crate::report::{RunOutcome, RunReport};
use dsm_machine::{CounterSet, SamplingSummary};

/// Append `s` as a JSON string literal (quotes and escapes included):
/// `"` and `\` backslash-escaped, `\n`, `\r` and `\t` by name, every
/// other control character as `\u00xx`, everything else verbatim.
///
/// Works by runs: every byte that needs an escape is ASCII, so the bytes
/// between two of them are a valid `str` slice, appended whole (a 60 KB
/// program text is a few hundred runs, not 60 000 pushes).
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "", // any other control character: `\u00xx`, below
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(named);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn push_counters(out: &mut String, c: &CounterSet) {
    out.push_str(&format!(
        "{{\"loads\":{},\"stores\":{},\"l1_misses\":{},\"l2_misses\":{},\
         \"local_misses\":{},\"remote_misses\":{},\"interventions\":{},\
         \"tlb_misses\":{},\"invalidations_sent\":{},\"invalidations_received\":{},\
         \"page_faults\":{},\"writebacks\":{},\"cycles\":{}}}",
        c.loads,
        c.stores,
        c.l1_misses,
        c.l2_misses,
        c.local_misses,
        c.remote_misses,
        c.interventions,
        c.tlb_misses,
        c.invalidations_sent,
        c.invalidations_received,
        c.page_faults,
        c.writebacks,
        c.cycles,
    ));
}

fn push_sampling(out: &mut String, s: &SamplingSummary) {
    out.push_str(&format!(
        "{{\"rate\":{},\"seed\":{},\"exact\":{},\"accesses\":{},\
         \"exact_accesses\":{},\"estimated_accesses\":{},\"sampled_sets\":{},\
         \"total_sets\":{},\"est_l1_misses\":{},\"est_l2_misses\":{},\
         \"est_local_misses\":{},\"est_remote_misses\":{},\"estimator_cycles\":{},\
         \"ci95_miss_pct_bits\":{},\"ci95_cycle_pct_bits\":{}}}",
        s.rate,
        s.seed,
        s.exact,
        s.accesses,
        s.exact_accesses,
        s.estimated_accesses,
        s.sampled_sets,
        s.total_sets,
        s.est_l1_misses,
        s.est_l2_misses,
        s.est_local_misses,
        s.est_remote_misses,
        s.estimator_cycles,
        s.ci95_miss_pct.to_bits(),
        s.ci95_cycle_pct.to_bits(),
    ));
}

impl RunReport {
    /// Serialize to one line of JSON with a fixed field order.
    ///
    /// Includes the host wall-clock fields (so a client can display the
    /// daemon's simulator performance); use [`RunReport::digest_json`]
    /// when comparing runs for bit-identity.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// The deterministic identity projection: [`RunReport::to_json`]
    /// minus the host wall-clock fields. Equal digests ⇔ the two runs
    /// measured exactly the same simulation.
    pub fn digest_json(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, host_wall: bool) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(&format!("{{\"total_cycles\":{}", self.total_cycles));
        s.push_str(",\"per_proc\":[");
        for (i, c) in self.per_proc.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_counters(&mut s, c);
        }
        s.push_str("],\"total\":");
        push_counters(&mut s, &self.total);
        s.push_str(&format!(
            ",\"parallel_regions\":{},\"parallel_cycles\":{}",
            self.parallel_regions, self.parallel_cycles
        ));
        s.push_str(",\"pages_per_node\":[");
        for (i, n) in self.pages_per_node.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&n.to_string());
        }
        s.push_str(&format!(
            "],\"argcheck_inserts\":{},\"argcheck_lookups\":{},\
             \"pages_migrated\":{},\"migration_cycles\":{},\
             \"redist_pages\":{},\"redist_cycles\":{}",
            self.argcheck_ops.0,
            self.argcheck_ops.1,
            self.pages_migrated,
            self.migration_cycles,
            self.redist_pages,
            self.redist_cycles
        ));
        if host_wall {
            s.push_str(&format!(
                ",\"host_wall_ns\":{},\"host_region_wall_ns\":{}",
                self.host_wall.as_nanos(),
                self.host_region_wall.as_nanos()
            ));
        }
        s.push_str(",\"profile_json\":");
        match &self.profile {
            Some(p) => push_json_str(&mut s, &p.to_json()),
            None => s.push_str("null"),
        }
        s.push_str(",\"sampling\":");
        match &self.sampling {
            Some(sum) => push_sampling(&mut s, sum),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

impl RunOutcome {
    /// Serialize report + captured arrays to one line of JSON. Captured
    /// elements are written as IEEE-754 bit patterns so the round trip
    /// is bit-exact.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"report\":");
        s.push_str(&self.report.to_json());
        s.push_str(",\"captures\":[");
        for (i, cap) in self.captures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, v) in cap.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&v.to_bits().to_string());
            }
            s.push(']');
        }
        s.push_str("]}");
        s
    }
}

impl ExecOptions {
    /// Serialize to one line of JSON with a fixed field order — the
    /// `run` request's `options` object in the daemon protocol.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"nprocs\":{},\"runtime_checks\":{},\"max_steps\":{},\
             \"serial_team\":{},\"profile\":{}",
            self.nprocs, self.runtime_checks, self.max_steps, self.serial_team, self.profile
        ));
        s.push_str(",\"captures\":[");
        for (i, name) in self.captures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, name);
        }
        s.push_str("],\"migration\":");
        match &self.migration {
            Some(p) => push_json_str(&mut s, &p.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"engine\":");
        push_json_str(&mut s, &self.engine.to_string());
        s.push_str(",\"sampling\":");
        match &self.sampling {
            Some(sc) => s.push_str(&format!("{{\"rate\":{},\"seed\":{}}}", sc.rate, sc.seed)),
            None => s.push_str("null"),
        }
        s.push_str(",\"redist\":");
        push_json_str(&mut s, &self.redist.to_string());
        s.push_str(",\"resize_to\":");
        match self.resize_to {
            Some(p) => s.push_str(&p.to_string()),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use dsm_machine::MigrationPolicy;

    #[test]
    fn escapes_control_and_quote_characters() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn exec_options_json_is_single_line_and_ordered() {
        let opts = ExecOptions::new(4)
            .with_checks(true)
            .capture(&["u", "v"])
            .migration(MigrationPolicy::threshold(4))
            .engine(Engine::Interp);
        let j = opts.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"nprocs\":4,\"runtime_checks\":true"));
        assert!(j.contains("\"captures\":[\"u\",\"v\"]"));
        assert!(j.contains("\"migration\":\"threshold:4\""));
        assert!(j.contains("\"engine\":\"interp\""));
        assert!(j.contains("\"sampling\":null"));
        assert!(j.ends_with("\"redist\":\"scheduled\",\"resize_to\":null}"));
    }

    #[test]
    fn digest_json_drops_only_host_wall() {
        let report = RunReport {
            total_cycles: 7,
            per_proc: vec![CounterSet::new()],
            total: CounterSet::new(),
            parallel_regions: 1,
            parallel_cycles: 5,
            pages_per_node: vec![2, 1],
            argcheck_ops: (3, 4),
            pages_migrated: 0,
            migration_cycles: 0,
            redist_pages: 9,
            redist_cycles: 10,
            host_wall: std::time::Duration::from_nanos(123),
            host_region_wall: std::time::Duration::from_nanos(45),
            profile: None,
            sampling: None,
        };
        let full = report.to_json();
        let digest = report.digest_json();
        assert!(full.contains("\"host_wall_ns\":123"));
        assert!(!digest.contains("host_wall_ns"));
        // Same report, different host timing ⇒ same digest.
        let mut later = report.clone();
        later.host_wall = std::time::Duration::from_secs(9);
        assert_eq!(later.digest_json(), digest);
        assert_ne!(later.to_json(), full);
    }

    #[test]
    fn outcome_captures_round_trip_bits() {
        let report = RunReport {
            total_cycles: 0,
            per_proc: vec![],
            total: CounterSet::new(),
            parallel_regions: 0,
            parallel_cycles: 0,
            pages_per_node: vec![],
            argcheck_ops: (0, 0),
            pages_migrated: 0,
            migration_cycles: 0,
            redist_pages: 0,
            redist_cycles: 0,
            host_wall: std::time::Duration::ZERO,
            host_region_wall: std::time::Duration::ZERO,
            profile: None,
            sampling: None,
        };
        let out = RunOutcome {
            report,
            captures: vec![vec![-0.0, f64::NAN, 1.5]],
        };
        let j = out.to_json();
        assert!(j.contains(&format!("{}", (-0.0f64).to_bits())));
        assert!(j.contains(&format!("{}", f64::NAN.to_bits())));
        assert!(j.contains(&format!("{}", 1.5f64.to_bits())));
    }
}
