//! The feedback-directed search: evaluate candidate plans on the
//! simulated machine, concurrently, under a budget.
//!
//! The search is a sequence of greedy *waves*. Each wave enumerates
//! variants of the incumbent plan along one axis (parallelize loops,
//! distribute one array, refine one loop's clauses, insert a
//! redistribute), prunes them with the static cost estimate, evaluates
//! the survivors on host threads, and adopts the best strict improvement
//! as the new incumbent. Candidates must reproduce the baseline's
//! captured arrays bit-for-bit or they are rejected outright — the
//! planner never trades correctness for cycles.
//!
//! Every candidate run is cycle-exact and deterministic, so "fewer total
//! cycles" is a meaningful comparison rather than host-scheduling noise.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsm_compile::compile_sources;
use dsm_exec::{run_outcome, ExecOptions, Profile};
use dsm_machine::{Machine, MachineConfig};

use crate::analyze::Analysis;
use crate::cost::estimate;
use crate::plan::{block_at, Di, Plan, PlanDist, PlanLoop, PlanRedist, PlanResize};
use crate::AdvisorConfig;

/// Candidates whose static estimate exceeds this multiple of the
/// cheapest estimate in their wave are pruned without simulation.
const PRUNE_FACTOR: u64 = 6;

/// One measured plan.
#[derive(Debug, Clone)]
pub struct Eval {
    /// The plan that was run.
    pub plan: Plan,
    /// Wall-clock simulated cycles (the search's score).
    pub total_cycles: u64,
    /// Parallel-region cycles (total when the run had none).
    pub kernel_cycles: u64,
    /// Machine-wide remote memory fills.
    pub remote_misses: u64,
    /// Host time this single evaluation took.
    pub wall: Duration,
}

/// Search statistics and the measured plans, best first.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The unannotated program's measurement (with its profile).
    pub baseline: Eval,
    /// Baseline profile (feedback that seeded the candidate order).
    pub baseline_profile: Option<Box<Profile>>,
    /// Every measured candidate, sorted by `total_cycles` ascending.
    /// `ranked[0]` is the winner; later entries are verification
    /// fallbacks.
    pub ranked: Vec<Eval>,
    /// Candidate simulations performed (excludes the baseline).
    pub evaluated: usize,
    /// Candidates dropped by the static estimate or the budget.
    pub pruned: usize,
    /// Candidates that failed to compile, run, or reproduce the
    /// baseline captures.
    pub rejected: usize,
    /// Host wall-clock of the whole search.
    pub search_wall: Duration,
    /// Sum of individual candidate run times — what a serial search
    /// would have cost. `search_wall` beating this demonstrates the
    /// evaluation actually ran concurrently.
    pub serial_eval_wall: Duration,
}

/// A candidate that produced no measurement: compile error, runtime
/// error, or capture mismatch.
struct EvalFail;

struct Ctx<'a> {
    an: &'a Analysis,
    cfg: &'a AdvisorConfig,
    captures: Vec<String>,
    baseline_bits: Vec<Vec<u64>>,
}

impl Ctx<'_> {
    fn machine(&self) -> MachineConfig {
        MachineConfig::scaled_origin2000(self.cfg.nprocs, self.cfg.scale)
    }

    fn run(&self, plan: &Plan, profile: bool) -> Result<(Eval, Option<Box<Profile>>), EvalFail> {
        let start = Instant::now();
        let annotated = plan.annotate(self.an);
        let compiled = compile_sources(&annotated, &self.cfg.opt).map_err(|_| EvalFail)?;
        let mut machine = Machine::new(self.machine());
        let names: Vec<&str> = self.captures.iter().map(String::as_str).collect();
        let opts = ExecOptions::new(self.cfg.nprocs)
            .profile(profile)
            .max_steps(self.cfg.max_steps)
            .capture(&names);
        let mut out = run_outcome(&mut machine, &compiled.program, &opts).map_err(|_| EvalFail)?;
        let bits = capture_bits(&out.captures);
        if !self.baseline_bits.is_empty() && bits != self.baseline_bits {
            return Err(EvalFail);
        }
        let eval = Eval {
            plan: plan.clone(),
            total_cycles: out.report.total_cycles,
            kernel_cycles: out.report.kernel_cycles(),
            remote_misses: out.report.total.remote_misses,
            wall: start.elapsed(),
        };
        Ok((eval, out.report.profile.take()))
    }
}

fn capture_bits(captures: &[Vec<f64>]) -> Vec<Vec<u64>> {
    captures
        .iter()
        .map(|a| a.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Run the full search. The baseline (empty plan) is always measured
/// first, with profiling on, and its captures become the correctness
/// reference every candidate must reproduce.
pub fn search(an: &Analysis, cfg: &AdvisorConfig) -> Result<SearchOutcome, String> {
    let search_start = Instant::now();
    let mut ctx = Ctx {
        an,
        cfg,
        captures: an.arrays.iter().map(|a| a.name.clone()).collect(),
        baseline_bits: Vec::new(),
    };
    // Baseline: the stripped program as-is, profiled for feedback.
    let baseline_plan = Plan::default();
    let annotated = baseline_plan.annotate(an);
    let compiled = compile_sources(&annotated, &cfg.opt).map_err(|es| {
        format!(
            "baseline does not compile: {}",
            es.first().map(|e| e.msg.clone()).unwrap_or_default()
        )
    })?;
    let mut machine = Machine::new(ctx.machine());
    let names: Vec<&str> = ctx.captures.iter().map(String::as_str).collect();
    let opts = ExecOptions::new(cfg.nprocs)
        .profile(true)
        .max_steps(cfg.max_steps)
        .capture(&names);
    let base_start = Instant::now();
    let mut base_out = run_outcome(&mut machine, &compiled.program, &opts)
        .map_err(|e| format!("baseline run failed: {e}"))?;
    let baseline = Eval {
        plan: baseline_plan,
        total_cycles: base_out.report.total_cycles,
        kernel_cycles: base_out.report.kernel_cycles(),
        remote_misses: base_out.report.total.remote_misses,
        wall: base_start.elapsed(),
    };
    let baseline_profile = base_out.report.profile.take();
    ctx.baseline_bits = capture_bits(&base_out.captures);

    let cm = ctx.machine().cost_model();
    let mut state = State {
        incumbent: baseline.clone(),
        ranked: vec![baseline.clone()],
        evaluated: 0,
        pruned: 0,
        rejected: 0,
        serial_eval_wall: baseline.wall,
    };

    // Wave 1: flip every confluent loop parallel, with and without
    // write-affinity scheduling.
    let wave1 = parallelize_candidates(an);
    run_wave(&ctx, &cm, &mut state, wave1);

    // Wave 2: greedy per-array distribution, worst feedback first.
    for name in arrays_by_remote_misses(an, baseline_profile.as_deref()) {
        let cands = dist_candidates(an, &state.incumbent.plan, &name);
        run_wave(&ctx, &cm, &mut state, cands);
    }

    // Wave 3: per-site clause refinement (affinity target, schedule,
    // nest, or dropping the doacross entirely).
    for site in 0..an.sites.len() {
        let cands = refine_candidates(an, &state.incumbent.plan, site);
        run_wave(&ctx, &cm, &mut state, cands);
    }

    // Wave 4: redistribute between phases that want conflicting homes.
    let cands = redistribute_candidates(an, &state.incumbent.plan);
    run_wave(&ctx, &cm, &mut state, cands);

    // Wave 5: dynamic team resizing around the chosen phases.
    let cands = resize_candidates(an, &state.incumbent.plan, cfg.nprocs);
    run_wave(&ctx, &cm, &mut state, cands);

    state
        .ranked
        .sort_by_key(|e| (e.total_cycles, e.plan.dists.len() + e.plan.loops.len()));
    Ok(SearchOutcome {
        baseline,
        baseline_profile,
        ranked: state.ranked,
        evaluated: state.evaluated,
        pruned: state.pruned,
        rejected: state.rejected,
        search_wall: search_start.elapsed(),
        serial_eval_wall: state.serial_eval_wall,
    })
}

struct State {
    incumbent: Eval,
    ranked: Vec<Eval>,
    evaluated: usize,
    pruned: usize,
    rejected: usize,
    serial_eval_wall: Duration,
}

/// Evaluate one wave of candidates concurrently and fold the best strict
/// improvement into the incumbent.
fn run_wave(ctx: &Ctx<'_>, cm: &dsm_machine::CostModel, state: &mut State, cands: Vec<Plan>) {
    if cands.is_empty() {
        return;
    }
    // Static prune: drop candidates estimated far worse than the
    // cheapest of (wave ∪ incumbent).
    let ests: Vec<u64> = cands
        .iter()
        .map(|p| estimate(p, ctx.an, cm, ctx.cfg.nprocs))
        .collect();
    let floor = ests
        .iter()
        .copied()
        .chain([estimate(&state.incumbent.plan, ctx.an, cm, ctx.cfg.nprocs)])
        .min()
        .unwrap_or(0)
        .max(1);
    let mut survivors: Vec<Plan> = Vec::new();
    for (p, est) in cands.into_iter().zip(ests) {
        if p == state.incumbent.plan || state.ranked.iter().any(|e| e.plan == p) {
            continue; // already measured
        }
        if est / floor >= PRUNE_FACTOR {
            state.pruned += 1;
        } else {
            survivors.push(p);
        }
    }
    // Budget cutoff: never start more simulations than remain.
    let remaining = ctx.cfg.budget.saturating_sub(state.evaluated);
    if survivors.len() > remaining {
        state.pruned += survivors.len() - remaining;
        survivors.truncate(remaining);
    }
    if survivors.is_empty() {
        return;
    }

    let threads = ctx.cfg.threads.max(1).min(survivors.len());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Result<Eval, EvalFail>)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= survivors.len() {
                    break;
                }
                let r = ctx.run(&survivors[i], false).map(|(e, _)| e);
                results.lock().unwrap().push((i, r));
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by_key(|(i, _)| *i);
    for (_, r) in results {
        match r {
            Ok(eval) => {
                state.evaluated += 1;
                state.serial_eval_wall += eval.wall;
                if eval.total_cycles < state.incumbent.total_cycles {
                    state.incumbent = eval.clone();
                }
                state.ranked.push(eval);
            }
            Err(EvalFail) => {
                state.evaluated += 1;
                state.rejected += 1;
            }
        }
    }
}

/// Wave 1: all confluent sites parallel — plain, and with affinity to
/// each site's written array.
pub fn parallelize_candidates(an: &Analysis) -> Vec<Plan> {
    if an.sites.is_empty() {
        return Vec::new();
    }
    let plain = Plan {
        loops: (0..an.sites.len())
            .map(|site| PlanLoop {
                site,
                affinity: None,
                nest: false,
                sched: None,
            })
            .collect(),
        ..Plan::default()
    };
    let affine = Plan {
        loops: an
            .sites
            .iter()
            .enumerate()
            .map(|(site, s)| PlanLoop {
                site,
                affinity: s.writes.first().map(|(n, slot)| (n.clone(), *slot)),
                nest: false,
                sched: None,
            })
            .collect(),
        ..Plan::default()
    };
    vec![plain, affine]
}

/// Arrays ordered by the baseline profile's remote-miss attribution
/// (worst first); arrays the profiler never saw keep declaration order.
fn arrays_by_remote_misses(an: &Analysis, profile: Option<&Profile>) -> Vec<String> {
    let mut names: Vec<(u64, usize, String)> = an
        .arrays
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let remote = profile
                .map(|p| {
                    p.arrays
                        .iter()
                        .filter(|ap| ap.name == a.name)
                        .map(|ap| ap.stats.remote_misses + ap.stats.local_misses)
                        .sum()
                })
                .unwrap_or(0);
            (remote, i, a.name.clone())
        })
        .collect();
    names.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    names.into_iter().map(|(_, _, n)| n).collect()
}

/// Wave 2 candidates for one array: regular and reshaped block on each
/// dimension, reshaped cyclic on the first, and (for rank ≥ 2)
/// all-dimensions block with `onto` grids.
pub fn dist_candidates(an: &Analysis, incumbent: &Plan, name: &str) -> Vec<Plan> {
    let Some(info) = an.array(name) else {
        return Vec::new();
    };
    let rank = info.dims.len();
    let mut dists: Vec<PlanDist> = Vec::new();
    for reshape in [false, true] {
        for d in 0..rank {
            dists.push(PlanDist {
                array: name.to_string(),
                items: block_at(d, rank),
                reshape,
                onto: vec![],
            });
        }
    }
    dists.push(PlanDist {
        array: name.to_string(),
        items: (0..rank)
            .map(|d| if d == 0 { Di::Cyclic(4) } else { Di::Star })
            .collect(),
        reshape: true,
        onto: vec![],
    });
    if rank >= 2 {
        for onto in [vec![], vec![1, 2], vec![2, 1]] {
            dists.push(PlanDist {
                array: name.to_string(),
                items: vec![Di::Block; rank],
                reshape: true,
                onto,
            });
        }
    }
    dists
        .into_iter()
        .map(|d| incumbent.with_dist(name, Some(d)))
        .chain([incumbent.with_dist(name, None)])
        .collect()
}

/// Wave 3 candidates for one site: drop the doacross, retarget its
/// affinity at each accessed array, try the nest form, try explicit
/// schedules.
pub fn refine_candidates(an: &Analysis, incumbent: &Plan, site: usize) -> Vec<Plan> {
    let Some(current) = incumbent.loops.iter().find(|l| l.site == site).cloned() else {
        return Vec::new();
    };
    let s = &an.sites[site];
    let mut cands = vec![incumbent.with_loop(site, None)];
    let mut targets: Vec<(String, usize)> = s.writes.clone();
    for (n, slot) in &s.reads {
        if let Some(slot) = slot {
            if !targets.iter().any(|(t, _)| t == n) {
                targets.push((n.clone(), *slot));
            }
        }
    }
    for t in targets {
        cands.push(incumbent.with_loop(
            site,
            Some(PlanLoop {
                affinity: Some(t),
                ..current.clone()
            }),
        ));
    }
    cands.push(incumbent.with_loop(
        site,
        Some(PlanLoop {
            affinity: None,
            ..current.clone()
        }),
    ));
    if s.nest.is_some() {
        cands.push(incumbent.with_loop(
            site,
            Some(PlanLoop {
                affinity: None,
                nest: true,
                ..current.clone()
            }),
        ));
    }
    for sched in [
        dsm_frontend::ast::SchedSpec::Simple,
        dsm_frontend::ast::SchedSpec::Interleave(4),
    ] {
        cands.push(incumbent.with_loop(
            site,
            Some(PlanLoop {
                sched: Some(sched),
                ..current.clone()
            }),
        ));
    }
    cands
}

/// Wave 4: when two parallel phases write the same array along different
/// slots and the later phase is a top-level loop, try starting with the
/// early phase's regular distribution and redistributing to the late
/// phase's just before it (the paper's Section-5 phases pattern). Each
/// move is tried in two schedule variants — a plain `block` target and a
/// `cyclic(4)` target, which the scheduled mover converts chunk-run by
/// chunk-run without an intermediate copy.
pub fn redistribute_candidates(an: &Analysis, incumbent: &Plan) -> Vec<Plan> {
    let mut cands = Vec::new();
    let active: Vec<usize> = incumbent.loops.iter().map(|l| l.site).collect();
    for &i in &active {
        for &j in &active {
            let (si, sj) = (&an.sites[i], &an.sites[j]);
            if si.order >= sj.order || !sj.top_level {
                continue;
            }
            for (w, slot_i) in &si.writes {
                let Some((_, slot_j)) = sj.writes.iter().find(|(n, s)| n == w && s != slot_i)
                else {
                    continue;
                };
                let Some(info) = an.array(w) else { continue };
                let rank = info.dims.len();
                let base = incumbent.with_dist(
                    w,
                    Some(PlanDist {
                        array: w.clone(),
                        items: block_at(*slot_i, rank),
                        reshape: false,
                        onto: vec![],
                    }),
                );
                cands.push(base.with_redist(PlanRedist {
                    array: w.clone(),
                    before_line: sj.line,
                    items: block_at(*slot_j, rank),
                }));
                let mut cyclic = block_at(*slot_j, rank);
                cyclic[*slot_j] = Di::Cyclic(4);
                cands.push(base.with_redist(PlanRedist {
                    array: w.clone(),
                    before_line: sj.line,
                    items: cyclic,
                }));
            }
        }
    }
    cands
}

/// Wave 5: team-resize points. For every adjacent pair of top-level
/// parallel phases the incumbent runs, try shrinking the team to half
/// width for the earlier phase and restoring it just before the later
/// one, plus a variant that stays shrunk to the end. The scheduled
/// mover re-homes only the delta pages at each point, so a resize is
/// cheap where a phase scales poorly.
pub fn resize_candidates(an: &Analysis, incumbent: &Plan, nprocs: usize) -> Vec<Plan> {
    if nprocs < 2 {
        return Vec::new();
    }
    let half = (nprocs / 2).max(1);
    let mut sites: Vec<&crate::analyze::LoopSite> = incumbent
        .loops
        .iter()
        .map(|l| &an.sites[l.site])
        .filter(|s| s.top_level)
        .collect();
    sites.sort_by_key(|s| s.order);
    sites.dedup_by_key(|s| s.line);
    let mut cands = Vec::new();
    for (k, site) in sites.iter().enumerate() {
        // Shrink before this phase, and stay shrunk.
        let shrunk = incumbent.with_resize(PlanResize {
            before_line: site.line,
            team: half,
        });
        // Shrink for this phase only, restoring before the next one.
        if let Some(next) = sites.get(k + 1) {
            cands.push(shrunk.with_resize(PlanResize {
                before_line: next.line,
                team: nprocs,
            }));
        }
        cands.push(shrunk);
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;

    #[test]
    fn candidate_enumeration_covers_the_phases_pattern() {
        let src = "\
      program phases
      integer i, j
      real*8 a(64, 64)
      do j = 1, 64
        do i = 1, 64
          a(i, j) = i + j
        enddo
      enddo
      do i = 1, 64
        do j = 1, 64
          a(i, j) = a(i, j) * 0.5
        enddo
      enddo
      end
";
        let an = analyze(&[("p.f".to_string(), src.to_string())]).unwrap();
        let wave1 = parallelize_candidates(&an);
        assert_eq!(wave1.len(), 2);
        assert_eq!(wave1[1].loops[0].affinity, Some(("a".to_string(), 1)));

        let incumbent = wave1[1].clone();
        let dists = dist_candidates(&an, &incumbent, "a");
        assert!(dists.iter().any(|p| p
            .dist_of("a")
            .is_some_and(|d| d.reshape && d.items == vec![Di::Block, Di::Star])));

        let redists = redistribute_candidates(&an, &incumbent);
        assert_eq!(redists.len(), 2, "{redists:#?}");
        let p = &redists[0];
        assert_eq!(p.dist_of("a").unwrap().items, vec![Di::Star, Di::Block]);
        assert_eq!(p.redists[0].items, vec![Di::Block, Di::Star]);
        assert_eq!(p.redists[0].before_line, an.sites[1].line);
        // The schedule variant converts to a cyclic target instead.
        assert_eq!(redists[1].redists[0].items, vec![Di::Cyclic(4), Di::Star]);
    }

    #[test]
    fn resize_wave_offers_shrink_and_restore_points() {
        let src = "\
      program phases
      integer i, j
      real*8 a(64, 64)
      do j = 1, 64
        do i = 1, 64
          a(i, j) = i + j
        enddo
      enddo
      do i = 1, 64
        do j = 1, 64
          a(i, j) = a(i, j) * 0.5
        enddo
      enddo
      end
";
        let an = analyze(&[("p.f".to_string(), src.to_string())]).unwrap();
        let incumbent = parallelize_candidates(&an).remove(0);
        let cands = resize_candidates(&an, &incumbent, 8);
        // Two phases: shrink+restore and stay-shrunk around the first,
        // stay-shrunk before the second.
        assert_eq!(cands.len(), 3, "{cands:#?}");
        let restore = &cands[0];
        assert_eq!(restore.resizes.len(), 2);
        assert_eq!(restore.resizes[0].team, 4);
        assert_eq!(restore.resizes[0].before_line, an.sites[0].line);
        assert_eq!(restore.resizes[1].team, 8);
        assert_eq!(restore.resizes[1].before_line, an.sites[1].line);
        // Every candidate still compiles once annotated.
        for p in &cands {
            let annotated = p.annotate(&an);
            let text = &annotated[0].1;
            assert!(text.contains("c$resize_team(4)"), "{text}");
            let sources: Vec<(&str, &str)> = annotated
                .iter()
                .map(|(n, t)| (n.as_str(), t.as_str()))
                .collect();
            let compiled =
                dsm_compile::compile_strings(&sources, &dsm_compile::OptConfig::default());
            assert!(compiled.is_ok(), "{compiled:?}\n{text}");
        }
        // A one-proc machine has nothing to resize.
        assert!(resize_candidates(&an, &incumbent, 1).is_empty());
    }

    #[test]
    fn refinement_offers_dropping_and_retargeting() {
        let src = "\
      program t
      integer i
      real*8 a(64), b(64)
      do i = 1, 64
        a(i) = 1.0
      enddo
      do i = 1, 64
        b(i) = a(i) + 1.0
      enddo
      end
";
        let an = analyze(&[("t.f".to_string(), src.to_string())]).unwrap();
        let incumbent = parallelize_candidates(&an).remove(1);
        let cands = refine_candidates(&an, &incumbent, 1);
        // Drop, write-affinity (b), read-affinity (a), no-affinity, two
        // schedules.
        assert!(cands.len() >= 5, "{}", cands.len());
        assert!(cands[0].loops.iter().all(|l| l.site != 1));
        assert!(cands.iter().any(|p| p
            .loops
            .iter()
            .any(|l| l.site == 1 && l.affinity == Some(("a".to_string(), 0)))));
    }
}
