//! # dsm-advisor
//!
//! The auto-distribution planner: a feedback-directed search engine that
//! picks the data-distribution directives for you.
//!
//! Given an (optionally annotated) Fortran program, the advisor
//!
//! 1. strips any existing placement directives and runs the program
//!    instrumented, consuming the profiler's structured attribution
//!    (per-array remote fills, misplaced pages, per-region flips) to
//!    seed a candidate space: regular vs reshaped distributions,
//!    `block`/`cyclic(k)`/`*` per dimension, `onto` grids, per-loop
//!    `doacross`/`affinity`/`nest` choices, and `redistribute` points
//!    between phases;
//! 2. prunes candidates with a static cost model over the machine's
//!    hop/latency configuration ([`dsm_machine::CostModel`]) and
//!    evaluates the survivors concurrently on host threads under a
//!    search budget;
//! 3. verifies the winning plan bit-identically against the
//!    differential conformance oracle;
//! 4. emits both a machine-readable JSON plan and the rewritten Fortran
//!    with the chosen directives spliced in.
//!
//! Entry points: [`advise`] as a library, `dsmtune` as a CLI, and
//! `dsmfc --auto` in `dsm-core`.

pub mod analyze;
pub mod cost;
pub mod plan;
pub mod search;
pub mod verify;

use std::time::Duration;

use dsm_compile::OptConfig;
use dsm_exec::Profile;
use dsm_machine::MigrationPolicy;

pub use analyze::{analyze, Analysis, ArrayInfo, LoopSite};
pub use plan::{Di, Plan, PlanDist, PlanLoop, PlanRedist, PlanResize};
pub use search::{Eval, SearchOutcome};

/// Search knobs.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Processors of the simulated machine (and the `doacross` width).
    pub nprocs: usize,
    /// `MachineConfig::scaled_origin2000` divisor.
    pub scale: usize,
    /// Maximum candidate simulations (the baseline is free).
    pub budget: usize,
    /// Host threads evaluating candidates concurrently.
    pub threads: usize,
    /// Verify the winner against the conformance oracle.
    pub verify: bool,
    /// Compiler configuration used for every run.
    pub opt: OptConfig,
    /// Interpreter step cap per candidate (hang protection).
    pub max_steps: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            nprocs: 8,
            scale: 64,
            budget: 48,
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            verify: true,
            opt: OptConfig::default(),
            max_steps: 500_000_000,
        }
    }
}

/// What went wrong.
#[derive(Debug)]
pub enum AdvisorError {
    /// The input program did not parse/analyze.
    Analyze(Vec<dsm_frontend::CompileError>),
    /// The stripped baseline did not compile or run.
    Baseline(String),
    /// No evaluated plan passed oracle verification.
    Verify(String),
}

impl std::fmt::Display for AdvisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdvisorError::Analyze(es) => {
                write!(f, "analysis failed")?;
                for e in es {
                    write!(f, "\n  {}:{}: {}", e.file_name, e.span.line, e.msg)?;
                }
                Ok(())
            }
            AdvisorError::Baseline(m) => write!(f, "baseline failed: {m}"),
            AdvisorError::Verify(m) => write!(f, "no plan verified: {m}"),
        }
    }
}

impl std::error::Error for AdvisorError {}

/// One measurement triple reported for the baseline and the winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measure {
    /// Simulated wall-clock cycles.
    pub total_cycles: u64,
    /// Parallel-region cycles (total when none).
    pub kernel_cycles: u64,
    /// Remote memory fills.
    pub remote_misses: u64,
}

impl From<&Eval> for Measure {
    fn from(e: &Eval) -> Self {
        Measure {
            total_cycles: e.total_cycles,
            kernel_cycles: e.kernel_cycles,
            remote_misses: e.remote_misses,
        }
    }
}

/// The advisor's output: the winning plan, the annotated program, and
/// the evidence trail.
#[derive(Debug)]
pub struct Advice {
    /// Program analysis the plan indexes into.
    pub analysis: Analysis,
    /// The winning plan.
    pub plan: Plan,
    /// The stripped sources with the winning directives spliced in.
    pub annotated: Vec<(String, String)>,
    /// Baseline (stripped, unannotated) measurement.
    pub baseline: Measure,
    /// Winner measurement.
    pub best: Measure,
    /// Profile of the winning plan's run.
    pub profile: Option<Box<Profile>>,
    /// Candidate simulations performed.
    pub evaluated: usize,
    /// Candidates dropped by the static cost model or budget.
    pub pruned: usize,
    /// Candidates rejected (compile/run failure or capture mismatch).
    pub rejected: usize,
    /// Oracle runs that agreed with the winner (0 when verification was
    /// disabled).
    pub verified_runs: usize,
    /// Host wall-clock of the whole search.
    pub search_wall: Duration,
    /// Sum of individual candidate run times (serial cost of the same
    /// search).
    pub serial_eval_wall: Duration,
}

impl Advice {
    /// Winner speedup over the baseline in simulated cycles.
    pub fn speedup(&self) -> f64 {
        if self.best.total_cycles == 0 {
            return 1.0;
        }
        self.baseline.total_cycles as f64 / self.best.total_cycles as f64
    }

    /// The chosen directive lines, in splice order.
    pub fn directives(&self) -> Vec<String> {
        self.plan.directives(&self.analysis)
    }

    /// Machine-readable plan report.
    pub fn plan_json(&self) -> String {
        let dirs = self
            .directives()
            .into_iter()
            .map(|d| format!("\"{}\"", d.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"baseline\": {{\"total_cycles\": {}, \"kernel_cycles\": {}, \"remote_misses\": {}}},\n  \
             \"best\": {{\"total_cycles\": {}, \"kernel_cycles\": {}, \"remote_misses\": {}}},\n  \
             \"speedup\": {:.4},\n  \"evaluated\": {},\n  \"pruned\": {},\n  \"rejected\": {},\n  \
             \"verified_runs\": {},\n  \"search_wall_ms\": {},\n  \"serial_eval_wall_ms\": {},\n  \
             \"plan\": {},\n  \"directives\": [{}]\n}}\n",
            self.baseline.total_cycles,
            self.baseline.kernel_cycles,
            self.baseline.remote_misses,
            self.best.total_cycles,
            self.best.kernel_cycles,
            self.best.remote_misses,
            self.speedup(),
            self.evaluated,
            self.pruned,
            self.rejected,
            self.verified_runs,
            self.search_wall.as_millis(),
            self.serial_eval_wall.as_millis(),
            self.plan.to_json(&self.analysis),
            dirs
        )
    }

    /// The annotated main-file text (what `--emit-fortran` writes).
    pub fn emitted(&self) -> &str {
        &self.annotated[self.analysis.main_file].1
    }
}

/// Run the full advisor pipeline over `sources`.
///
/// Existing directives in `sources` are stripped first — the advisor
/// starts from the bare program, so it can be compared against (or
/// replace) hand annotations.
///
/// # Errors
///
/// [`AdvisorError`] on parse failure, a broken baseline (which includes a
/// machine the simulator cannot build, such as more than 128
/// processors), or — when `cfg.verify` is on — no evaluated plan passing
/// the oracle.
pub fn advise(sources: &[(String, String)], cfg: &AdvisorConfig) -> Result<Advice, AdvisorError> {
    dsm_machine::MachineConfig::scaled_origin2000(cfg.nprocs, cfg.scale)
        .validate()
        .map_err(|e| AdvisorError::Baseline(format!("machine: {e}")))?;
    let an = analyze(sources).map_err(AdvisorError::Analyze)?;
    let outcome = search::search(&an, cfg).map_err(AdvisorError::Baseline)?;
    let captures: Vec<String> = an.arrays.iter().map(|a| a.name.clone()).collect();

    // Best-first: verify the winner, fall back to the next-best plan if
    // the oracle disagrees (it should not, but the search only checked
    // one machine configuration).
    let mut chosen: Option<(Eval, usize)> = None;
    let mut last_err = String::new();
    for eval in outcome.ranked.iter().take(if cfg.verify { 3 } else { 1 }) {
        if !cfg.verify {
            chosen = Some((eval.clone(), 0));
            break;
        }
        let annotated = eval.plan.annotate(&an);
        match verify::verify(&annotated, &captures, cfg.nprocs) {
            Ok(runs) => {
                chosen = Some((eval.clone(), runs));
                break;
            }
            Err(e) => last_err = e,
        }
    }
    let Some((winner, verified_runs)) = chosen else {
        return Err(AdvisorError::Verify(last_err));
    };

    let annotated = winner.plan.annotate(&an);
    // Re-run the winner with profiling on: the emitted plan ships with
    // the attribution evidence that justifies it.
    let ctx_profile = {
        let rerun_cfg = cfg.clone();
        let ctx_an = an.clone();
        profile_plan(&winner.plan, &ctx_an, &rerun_cfg)
    };

    Ok(Advice {
        plan: winner.plan.clone(),
        annotated,
        baseline: Measure::from(&outcome.baseline),
        best: Measure::from(&winner),
        profile: ctx_profile,
        evaluated: outcome.evaluated,
        pruned: outcome.pruned,
        rejected: outcome.rejected,
        verified_runs,
        search_wall: outcome.search_wall,
        serial_eval_wall: outcome.serial_eval_wall,
        analysis: an,
    })
}

/// One row of the directive-vs-migration comparison printed by
/// `dsmtune --baseline=migrate`: the winning plan's parallel loops with
/// every placement directive (and affinity clause) removed — i.e. the
/// program a placement-oblivious compiler would run, placed by first
/// touch — executed under one reactive page-migration policy.
#[derive(Debug, Clone)]
pub struct MigrationRow {
    /// The policy this row ran under.
    pub policy: MigrationPolicy,
    /// The run's measurement triple.
    pub measure: Measure,
    /// Pages the daemon moved.
    pub pages_migrated: u64,
    /// Cycles the daemon charged for copies and shootdowns.
    pub migration_cycles: u64,
}

/// Measure the migration alternative to the chosen plan: strip the plan
/// down to its parallel loops (no distributions, no affinity, no
/// redistributes) and run that first-touch program under each of
/// `policies` on the same machine configuration the search used.
///
/// # Errors
///
/// [`AdvisorError::Baseline`] when the stripped-loop program fails to
/// compile or run — which the search's own baseline makes unlikely.
pub fn migration_baselines(
    advice: &Advice,
    cfg: &AdvisorConfig,
    policies: &[MigrationPolicy],
) -> Result<Vec<MigrationRow>, AdvisorError> {
    use dsm_machine::{Machine, MachineConfig};
    let loops_only = Plan {
        dists: Vec::new(),
        redists: Vec::new(),
        resizes: Vec::new(),
        loops: advice
            .plan
            .loops
            .iter()
            .map(|l| PlanLoop {
                affinity: None,
                ..l.clone()
            })
            .collect(),
    };
    let annotated = loops_only.annotate(&advice.analysis);
    let compiled = dsm_compile::compile_sources(&annotated, &cfg.opt)
        .map_err(|e| AdvisorError::Baseline(format!("loops-only program: {e:?}")))?;
    let mut rows = Vec::with_capacity(policies.len());
    for &policy in policies {
        let mut machine = Machine::new(MachineConfig::scaled_origin2000(cfg.nprocs, cfg.scale));
        // Threaded teams, unlike the advisor's serial-replay search runs:
        // the migration daemon's behaviour depends on reference counters
        // accumulating from all members concurrently, and serial replay
        // distorts that sampling (one member at a time dominates).
        let opts = dsm_exec::ExecOptions::new(cfg.nprocs)
            .max_steps(cfg.max_steps)
            .migration(policy);
        let report = dsm_exec::run_outcome(&mut machine, &compiled.program, &opts)
            .map_err(|e| AdvisorError::Baseline(format!("migrate={policy}: {e}")))?
            .report;
        rows.push(MigrationRow {
            policy,
            measure: Measure {
                total_cycles: report.total_cycles,
                kernel_cycles: report.kernel_cycles(),
                remote_misses: report.total.remote_misses,
            },
            pages_migrated: report.pages_migrated,
            migration_cycles: report.migration_cycles,
        });
    }
    Ok(rows)
}

fn profile_plan(plan: &Plan, an: &Analysis, cfg: &AdvisorConfig) -> Option<Box<Profile>> {
    use dsm_machine::{Machine, MachineConfig};
    let annotated = plan.annotate(an);
    let compiled = dsm_compile::compile_sources(&annotated, &cfg.opt).ok()?;
    let mut machine = Machine::new(MachineConfig::scaled_origin2000(cfg.nprocs, cfg.scale));
    let opts = dsm_exec::ExecOptions::new(cfg.nprocs)
        .serial_team(true)
        .profile(true)
        .max_steps(cfg.max_steps);
    dsm_exec::run_outcome(&mut machine, &compiled.program, &opts)
        .ok()?
        .report
        .profile
}
