//! Run reports.

use dsm_machine::{CounterSet, SamplingSummary};

use crate::profile::Profile;

/// Measurements of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall-clock cycles: the maximum processor clock at program end.
    pub total_cycles: u64,
    /// Per-processor hardware counters.
    pub per_proc: Vec<CounterSet>,
    /// Aggregate counters.
    pub total: CounterSet,
    /// Parallel regions executed (fork/join pairs).
    pub parallel_regions: usize,
    /// Cycles spent inside parallel regions (fork to join, wall-clock) —
    /// the "kernel time" the paper's figures plot, excluding serial
    /// initialization.
    pub parallel_cycles: u64,
    /// Pages resident on each node at program end.
    pub pages_per_node: Vec<usize>,
    /// Runtime argument-checker traffic: (inserts, lookups).
    pub argcheck_ops: (u64, u64),
    /// Pages moved by the reactive migration daemon (0 with migration
    /// off).
    pub pages_migrated: u64,
    /// Cycles the daemon charged for page copies and TLB shootdowns.
    pub migration_cycles: u64,
    /// Pages moved by explicit redistribution (`c$redistribute` /
    /// `c$resize_team`), in either mover mode.
    pub redist_pages: u64,
    /// Cycles charged for those moves (bulk round costs under the
    /// scheduler, per-page fault costs under the naive mover).
    pub redist_cycles: u64,
    /// Host-side wall-clock time of the whole run (simulator performance,
    /// not simulated time).
    pub host_wall: std::time::Duration,
    /// Host-side wall-clock time spent inside parallel regions (fork to
    /// join, summed over regions).
    pub host_region_wall: std::time::Duration,
    /// Memory-behavior attribution; `Some` iff the run was executed with
    /// [`crate::ExecOptions::profile`] on.
    pub profile: Option<Box<Profile>>,
    /// Sampled-simulation summary (coverage, extrapolated misses,
    /// confidence intervals); `Some` iff the run was executed with
    /// [`crate::ExecOptions::sampling`] set or the machine was configured
    /// with a sampling rate. At rate 1 it restates the exact counters.
    pub sampling: Option<SamplingSummary>,
}

impl RunReport {
    /// Simulated seconds at the given clock rate (the paper's machine ran
    /// at 195 MHz).
    pub fn seconds(&self, hz: f64) -> f64 {
        self.total_cycles as f64 / hz
    }

    /// Kernel cycles: time inside parallel regions when any exist (what
    /// the paper's speedup figures measure), the whole run otherwise.
    pub fn kernel_cycles(&self) -> u64 {
        if self.parallel_cycles > 0 {
            self.parallel_cycles
        } else {
            self.total_cycles
        }
    }

    /// Speedup of this run relative to `baseline` (same work), measured on
    /// kernel cycles so serial initialization does not pollute the curve
    /// (the paper's figures plot parallel-region time).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.kernel_cycles() as f64 / self.kernel_cycles().max(1) as f64
    }
}

/// Everything one execution produces: the report (with its optional
/// attribution profile) plus the final contents of any captured arrays, in
/// the order they were requested.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Measurements (and `report.profile` when profiling was on).
    pub report: RunReport,
    /// Captured arrays in Fortran element order; unknown names yield empty
    /// vectors.
    pub captures: Vec<Vec<f64>>,
}

impl RunOutcome {
    /// The attribution profile, when the run was profiled.
    pub fn profile(&self) -> Option<&Profile> {
        self.report.profile.as_deref()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles={} regions={} argcheck={:?}",
            self.total_cycles, self.parallel_regions, self.argcheck_ops
        )?;
        writeln!(f, "totals: {}", self.total)?;
        writeln!(f, "pages/node: {:?}", self.pages_per_node)?;
        if self.pages_migrated > 0 {
            writeln!(
                f,
                "migration: {} page(s), {} cycles",
                self.pages_migrated, self.migration_cycles
            )?;
        }
        if self.redist_pages > 0 {
            writeln!(
                f,
                "redistribution: {} page(s), {} cycles",
                self.redist_pages, self.redist_cycles
            )?;
        }
        if let Some(s) = &self.sampling {
            writeln!(f, "{s}")?;
        }
        write!(
            f,
            "host wall: {:?} total, {:?} in parallel regions",
            self.host_wall, self.host_region_wall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> RunReport {
        RunReport {
            total_cycles: cycles,
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
        }
    }

    #[test]
    fn seconds_and_speedup() {
        let fast = report(1_950_000);
        let slow = report(3_900_000);
        assert!((fast.seconds(195e6) - 0.01).abs() < 1e-12);
        assert_eq!(fast.speedup_over(&slow), 2.0);
    }

    #[test]
    fn speedup_uses_kernel_cycles_when_regions_ran() {
        // Identical serial-init overhead, 4x difference inside regions:
        // the speedup must reflect the kernel, not the total.
        let mut fast = report(1_400_000);
        fast.parallel_cycles = 400_000;
        let mut slow = report(2_600_000);
        slow.parallel_cycles = 1_600_000;
        assert_eq!(fast.speedup_over(&slow), 4.0);
    }

    #[test]
    fn speedup_guards_zero_cycles() {
        let zero = report(0);
        let other = report(100);
        assert_eq!(other.speedup_over(&zero), 0.0);
        assert!(zero.speedup_over(&other).is_finite());
    }

    #[test]
    fn display_nonempty() {
        assert!(!report(1).to_string().is_empty());
    }
}
