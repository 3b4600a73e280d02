//! The engine-neutral executor core.
//!
//! The paper's execution model is small: a `doacross` forks a team, each
//! member runs its affinity-scheduled chunks against its own caches and
//! clock, everyone levels at the implicit barrier (§3–4), and calls bind
//! whole arrays or portions under the §5–6 argument checks. That model —
//! together with the run preamble/postamble, redistribution and team
//! resizing — lives here exactly once, as methods of [`RunState`]. The
//! two engines ([`crate::interp`]'s tree walker and [`crate::engine`]'s
//! bytecode VM) differ only in how they evaluate expressions and run a
//! loop body, which is all the [`Engine`] trait asks of them.
//!
//! Team members are simulated one after another in team order, each to
//! completion, against its own caches, TLB and clock. A run has no host
//! concurrency, so every run is deterministic.

use std::time::{Duration, Instant};

use dsm_ir::{
    AffIdx, ArrayDecl, Distribution, Extent, LoopStmt, Param, Program, SchedType, Subroutine,
};
use dsm_machine::{
    AccessKind, AccessTag, LineCursor, Machine, MachineShard, ProcId, SERIAL_REGION,
};
use dsm_runtime::epoch::{join_epoch, EpochClock};
use dsm_runtime::{
    argcheck::ArgInfo, partition, sched, ArgChecker, ArrayLayout, RtArray, RuntimeError, MAX_RANK,
};

use crate::bind::Binder;
use crate::report::{RunOutcome, RunReport};
use crate::value::{Costs, Frame, Value};
use crate::{ExecError, ExecOptions, RedistMode};

/// Execution context: which simulated processor runs the current code,
/// whether we are inside a parallel region, and which one (for access
/// attribution; [`SERIAL_REGION`] outside any region).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ctx {
    pub(crate) proc: ProcId,
    pub(crate) in_region: bool,
    pub(crate) region: u32,
}

/// Run a whole stream of `proc`'s accesses — an innermost loop — as
/// **one** timed operation: a single [`Machine::serial`] step. One step
/// for many accesses is exact for the reason a bulk run is
/// (`MachineShard::run_segment`): no other processor runs during it. Not
/// under live migration, where epochs fire on access counts: there every
/// access stays a step of its own ([`Stepped`]).
#[inline]
pub(crate) fn stream(m: &mut Machine, proc: ProcId, body: impl Stream) {
    if m.config().migration.is_off() {
        m.serial(proc, |sh| body.run(sh));
    } else {
        body.run(&mut Stepped(m, proc));
    }
}

/// Where a stream's accesses go: each takes the stream's [`LineCursor`]
/// for the reference it belongs to (`MachineShard::access_at`).
pub(crate) trait Port {
    /// Stamp the attribution tag of the accesses that follow.
    fn set_tag(&mut self, tag: AccessTag);
    /// Timed read that moves no data (a portion-pointer load).
    fn touch(&mut self, cur: &mut LineCursor, addr: u64);
    /// Timed load of a raw word.
    fn load(&mut self, cur: &mut LineCursor, addr: u64) -> u64;
    /// Timed store of a raw word.
    fn store(&mut self, cur: &mut LineCursor, addr: u64, word: u64);
}

/// A body of accesses for [`stream`], generic in the port it is
/// handed (which a closure cannot be).
pub(crate) trait Stream {
    fn run<P: Port>(self, port: &mut P);
}

impl Port for MachineShard<'_> {
    #[inline(always)]
    fn set_tag(&mut self, tag: AccessTag) {
        MachineShard::set_tag(self, tag);
    }

    #[inline(always)]
    fn touch(&mut self, cur: &mut LineCursor, addr: u64) {
        self.access_at(cur, addr, AccessKind::Read);
    }

    #[inline(always)]
    fn load(&mut self, cur: &mut LineCursor, addr: u64) -> u64 {
        self.load_at(cur, addr)
    }

    #[inline(always)]
    fn store(&mut self, cur: &mut LineCursor, addr: u64, word: u64) {
        self.store_at(cur, addr, word);
    }
}

/// The whole machine acting as one processor, a [`Machine::serial`] step
/// per access: a stream's port while migration epochs are live, so they
/// fire after the access they would fire after in the generic loop.
pub(crate) struct Stepped<'m>(&'m mut Machine, ProcId);

impl Port for Stepped<'_> {
    fn set_tag(&mut self, tag: AccessTag) {
        self.0.set_tag(self.1, tag);
    }

    fn touch(&mut self, cur: &mut LineCursor, addr: u64) {
        self.0.serial(self.1, |sh| sh.touch(cur, addr));
    }

    fn load(&mut self, cur: &mut LineCursor, addr: u64) -> u64 {
        self.0.serial(self.1, |sh| sh.load(cur, addr))
    }

    fn store(&mut self, cur: &mut LineCursor, addr: u64, word: u64) {
        self.0.serial(self.1, |sh| sh.store(cur, addr, word));
    }
}

/// One loop as both engines see it: the IR statement, its subroutine, and
/// the engine's own handle on the compiled bounds and body.
#[derive(Clone, Copy)]
pub(crate) struct LoopSite<'p, H> {
    pub(crate) l: &'p LoopStmt,
    pub(crate) sub: &'p Subroutine,
    pub(crate) h: H,
}

/// What an execution engine supplies to the shared core. Everything else
/// about fork/join, calls, redistribution and resizing is engine-neutral.
pub(crate) trait Engine: Sized {
    /// Engine-private handle on a loop (nothing for the tree walker; the
    /// compiled side tables for the VM).
    type Handle: Copy;

    /// Evaluate the loop's `(lb, ub, step)`, in that order.
    fn eval_bounds(
        rs: &mut RunState<'_, Self>,
        site: LoopSite<'_, Self::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(i64, i64, i64), ExecError>;

    /// Execute the loop body once on `ctx.proc`.
    fn run_body(
        rs: &mut RunState<'_, Self>,
        site: LoopSite<'_, Self::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError>;

    /// Account `cycles` of arithmetic to `proc`: at once, or deferred
    /// until the next [`Engine::flush`].
    fn charge(rs: &mut RunState<'_, Self>, proc: ProcId, cycles: u64);

    /// Bring `proc`'s simulated clock current (deliver deferred charges).
    fn flush(rs: &mut RunState<'_, Self>, proc: ProcId);

    /// Array instance `inst` — or, with `None`, every live instance — got
    /// a new descriptor: refresh whatever the engine derived from it.
    fn rebind(_rs: &mut RunState<'_, Self>, _inst: Option<usize>) {}
}

/// Everything a running engine carries besides its private state `E`.
pub(crate) struct RunState<'a, E> {
    pub(crate) mach: &'a mut Machine,
    pub(crate) opts: &'a ExecOptions,
    pub(crate) binder: Binder,
    pub(crate) checker: ArgChecker,
    pub(crate) costs: Costs,
    /// Parallel regions forked so far (the next region's id).
    regions: usize,
    region_cycles: u64,
    /// Host wall-clock accumulated across parallel regions (fork to join).
    region_wall: Duration,
    /// Label of each parallel region executed so far, indexed by region id.
    region_names: Vec<String>,
    /// Statements executed so far, for the step limit.
    pub(crate) steps: u64,
    /// Migration-epoch cadence at team joins.
    epoch: EpochClock,
    /// Current team size: starts at `opts.nprocs`, changed by
    /// `resize_team` (directive or [`ExecOptions::resize_to`]).
    pub(crate) team: usize,
    pub(crate) eng: E,
}

/// Run the main program under engine `eng`: the preamble (option checks,
/// machine switches, binding main's declarations into `frame`, the
/// initial resize), `body`, and the postamble gathering the report.
pub(crate) fn run<E: Engine>(
    machine: &mut Machine,
    program: &Program,
    opts: &ExecOptions,
    eng: E,
    mut frame: Frame,
    body: impl FnOnce(&mut RunState<'_, E>, &mut Frame, &mut Ctx) -> Result<(), ExecError>,
) -> Result<RunOutcome, ExecError> {
    if opts.nprocs < 1 || opts.nprocs > machine.nprocs() {
        return Err(ExecError::Options(format!(
            "nprocs {} out of range for machine with {} processors",
            opts.nprocs,
            machine.nprocs()
        )));
    }
    let host_t0 = Instant::now();
    if opts.profile {
        machine.enable_profiling();
    }
    if let Some(policy) = opts.migration {
        machine.set_migration(policy);
    }
    if let Some(sampling) = opts.sampling {
        machine.set_sampling(sampling).map_err(ExecError::Options)?;
    }
    let costs = Costs::from_config(machine.config());
    let binder = Binder::new(machine, program, opts.nprocs);
    let mut rs = RunState {
        mach: machine,
        opts,
        binder,
        checker: ArgChecker::new(),
        costs,
        regions: 0,
        region_cycles: 0,
        region_wall: Duration::ZERO,
        region_names: Vec::new(),
        steps: 0,
        epoch: EpochClock::default(),
        team: opts.nprocs,
        eng,
    };
    let main = program.main_sub();
    rs.binder.bind_declarations(rs.mach, main, &mut frame);
    let mut ctx = Ctx {
        proc: ProcId(0),
        in_region: false,
        region: SERIAL_REGION,
    };
    if let Some(p) = opts.resize_to {
        rs.resize_team(p, ctx.proc)?;
    }
    body(&mut rs, &mut frame, &mut ctx)?;
    Ok(rs.collect_outcome(main, &frame, host_t0))
}

impl<E: Engine> RunState<'_, E> {
    /// Postamble: gather counters and the attribution profile, and read
    /// back captured arrays.
    fn collect_outcome(self, main: &Subroutine, frame: &Frame, host_t0: Instant) -> RunOutcome {
        let opts = self.opts;
        let machine = self.mach;
        let binder = &self.binder;
        let per_proc: Vec<_> = (0..machine.nprocs())
            .map(|p| *machine.counters(ProcId(p)))
            .collect();
        let total = machine.total_counters();
        let total_cycles = per_proc.iter().map(|c| c.cycles).max().unwrap_or(0);
        let profile = if opts.profile {
            // Array shapes let the hints suggest a distribution per dimension.
            let shapes: Vec<(String, Vec<u64>)> = main
                .arrays
                .iter()
                .enumerate()
                .filter_map(|(i, decl)| {
                    let inst = frame.arrays[i];
                    (inst != usize::MAX).then(|| {
                        let arr = binder.get(inst);
                        (decl.name.clone(), arr.desc.extents())
                    })
                })
                .collect();
            machine.merged_attribution().map(|attr| {
                Box::new(crate::profile::build_profile(
                    &attr,
                    machine,
                    &self.region_names,
                    &shapes,
                ))
            })
        } else {
            None
        };
        let report = RunReport {
            total_cycles,
            per_proc,
            total,
            parallel_regions: self.regions,
            parallel_cycles: self.region_cycles,
            pages_per_node: machine.pages_per_node(),
            argcheck_ops: self.checker.stats(),
            pages_migrated: machine.pages_migrated(),
            migration_cycles: machine.migration_cycles(),
            redist_pages: machine.redist_pages(),
            redist_cycles: machine.redist_cycles(),
            host_wall: host_t0.elapsed(),
            host_region_wall: self.region_wall,
            profile,
            sampling: (opts.sampling.is_some() || !machine.config().sampling.is_exact())
                .then(|| machine.sampling_summary()),
        };
        let mut captures = Vec::with_capacity(opts.captures.len());
        for name in &opts.captures {
            let mut data = Vec::new();
            if let Some(aid) = main.array_named(name) {
                let inst = frame.arrays[aid.0];
                if inst != usize::MAX {
                    let arr = binder.get(inst);
                    let total_len = arr.desc.total_len();
                    let rank = arr.desc.dims.len();
                    for linear in 0..total_len {
                        // Delinearize the column-major index.
                        let mut rest = linear;
                        let mut idx = Vec::with_capacity(rank);
                        for d in &arr.desc.dims {
                            idx.push(rest % d.extent);
                            rest /= d.extent;
                        }
                        data.push(machine.peek_f64(arr.addr_of(&idx)));
                    }
                }
            }
            captures.push(data);
        }
        RunOutcome { report, captures }
    }

    // -----------------------------------------------------------------
    // Redistribution and team resizing.
    // -----------------------------------------------------------------

    /// `c$redistribute`: re-map array instance `inst` to `dist` over the
    /// current team, with the page mover [`ExecOptions::redist`] selects.
    pub(crate) fn redistribute(
        &mut self,
        inst: usize,
        dist: &Distribution,
        proc: ProcId,
    ) -> Result<(), ExecError> {
        // The mover runs on the machine's clocks: bring this one current.
        E::flush(self, proc);
        let arr = self.binder.get_mut(inst);
        let m = &mut *self.mach;
        let moved = match self.opts.redist {
            RedistMode::Scheduled => arr.redistribute_scheduled(m, proc, dist, self.team),
            RedistMode::Naive => arr.redistribute(m, proc, dist, self.team),
        };
        moved?;
        E::rebind(self, Some(inst));
        Ok(())
    }

    /// `c$resize_team` / [`ExecOptions::resize_to`]: re-chunk every live
    /// regular array for a team of `new` processors (clamped to the
    /// machine) and make `new` the team size for subsequent regions,
    /// `$numthreads` and redistributions.
    pub(crate) fn resize_team(&mut self, new: usize, proc: ProcId) -> Result<(), ExecError> {
        E::flush(self, proc);
        let scheduled = self.opts.redist == RedistMode::Scheduled;
        let new = new.clamp(1, self.mach.nprocs());
        self.binder.resize_team(self.mach, proc, new, scheduled)?;
        self.team = new;
        E::rebind(self, None);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Loops and parallel regions.
    // -----------------------------------------------------------------

    /// A `doacross` wherever it is met: serial code forks the team; inside
    /// a region a proc-tile loop binds this member's own grid coordinate
    /// and anything else runs with serial semantics.
    pub(crate) fn doacross(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let d = site.l.par.as_ref().expect("doacross site");
        if !ctx.in_region {
            self.fork_region(site, frame, ctx)
        } else if matches!(d.sched, SchedType::ProcTile { .. }) {
            self.proctile_member(site, frame, ctx)
        } else {
            self.serial_loop(site, frame, ctx)
        }
    }

    /// Run every iteration of the loop on the current processor.
    pub(crate) fn serial_loop(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let (lb, ub, step) = E::eval_bounds(self, site, frame, ctx)?;
        if step == 0 {
            return Err(ExecError::BadCall("zero loop step".into()));
        }
        self.run_chunk(site, frame, ctx, sched::Chunk { lb, ub, step })
    }

    /// Execute iterations `lb..=ub:step` of the loop on the current
    /// processor.
    fn run_chunk(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
        c: sched::Chunk,
    ) -> Result<(), ExecError> {
        let loop_overhead = self.costs.loop_overhead;
        let mut i = c.lb;
        while (c.step > 0 && i <= c.ub) || (c.step < 0 && i >= c.ub) {
            frame.scalars[site.l.var.0] = Value::I(i);
            E::charge(self, ctx.proc, loop_overhead);
            E::run_body(self, site, frame, ctx)?;
            i += c.step;
        }
        Ok(())
    }

    /// A proc-tile member inside a region: bind this processor's own grid
    /// coordinate and run the body once.
    fn proctile_member(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let d = site.l.par.as_ref().expect("doacross site");
        let SchedType::ProcTile { grid_dim } = d.sched else {
            unreachable!("proc-tile member of a non-proc-tile loop")
        };
        let aff = d.affinity.as_ref().expect("proc-tile loops carry affinity");
        let desc = &self.binder.get(frame.arrays[aff.array.0]).desc;
        if ctx.proc.0 >= desc.grid_size() {
            return Ok(()); // idle member
        }
        // Re-resolve the grid axis against the live descriptor: a
        // redistribute/resize before this loop can re-map the tiled
        // dimension to a different axis than the one compiled in.
        let decl = site.sub.arrays[aff.array.0].dist.as_ref();
        let axis = sched::proctile_axis(desc, decl, grid_dim);
        let coord = desc.coords_of(ctx.proc.0)[desc.distributed[axis]] as i64;
        frame.scalars[site.l.var.0] = Value::I(coord);
        E::run_body(self, site, frame, ctx)
    }

    /// One member's share of a region, start to finish.
    fn run_work(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        work: &Work,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let d = site.l.par.as_ref().expect("doacross site");
        let dispatch = matches!(d.sched, SchedType::Dynamic(_));
        match work {
            Work::ProcTile => self.proctile_member(site, frame, ctx)?,
            Work::Chunks(chunks) => {
                for &c in chunks {
                    if dispatch {
                        // Work-queue grab per chunk.
                        self.mach.charge(ctx.proc, 6 * self.costs.int_alu);
                    }
                    self.run_chunk(site, frame, ctx, c)?;
                }
            }
        }
        E::flush(self, ctx.proc);
        Ok(())
    }

    /// Per-member work lists for a region: (proc, chunks or proc-tile
    /// marker). Runtime-affinity clamping can name one processor twice.
    fn build_team(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<Vec<(ProcId, Work)>, ExecError> {
        let l = site.l;
        let d = l.par.as_ref().expect("doacross site");
        let nprocs = self.team;
        if matches!(d.sched, SchedType::ProcTile { .. }) {
            let aff = d.affinity.as_ref().expect("proc-tile loops carry affinity");
            let desc = &self.binder.get(frame.arrays[aff.array.0]).desc;
            let gs = desc.grid_size().min(nprocs);
            return Ok((0..gs).map(|p| (ProcId(p), Work::ProcTile)).collect());
        }
        let (lb, ub, step) = E::eval_bounds(self, site, frame, ctx)?;
        let mut sched_kind = d.sched;
        if sched_kind == SchedType::RuntimeAffinity {
            let aff = d.affinity.as_ref().expect("runtime affinity has a clause");
            let desc = &self.binder.get(frame.arrays[aff.array.0]).desc;
            // The axis driven by this loop's variable, if it is distributed.
            let axis = aff
                .indices
                .iter()
                .enumerate()
                .find_map(|(dim, ix)| match ix {
                    AffIdx::Loop { var, scale, offset } if *var == l.var => {
                        Some((dim, *scale, *offset))
                    }
                    _ => None,
                })
                .filter(|&(dim, ..)| desc.dims[dim].dist.is_distributed());
            if let Some((dim, scale, offset)) = axis {
                let parts = sched::partition_affinity(lb, ub, step, &desc.dims[dim], scale, offset);
                return Ok(parts
                    .into_iter()
                    .enumerate()
                    .map(|(coord, chunks)| {
                        // Representative member for this coordinate: zero
                        // on every other grid axis.
                        let mut coords = [0u64; MAX_RANK];
                        coords[dim] = coord as u64;
                        let p = desc.proc_at(&coords).min(nprocs - 1);
                        (ProcId(p), Work::Chunks(chunks))
                    })
                    .collect());
            }
            // Affinity unusable: fall back to simple.
            sched_kind = SchedType::Simple;
        }
        Ok(partition(sched_kind, lb, ub, step, nprocs)
            .into_iter()
            .enumerate()
            .map(|(p, chunks)| (ProcId(p), Work::Chunks(chunks)))
            .collect())
    }

    /// Fork a parallel region for a doacross encountered in serial code.
    fn fork_region(
        &mut self,
        site: LoopSite<'_, E::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let l = site.l;
        let d = l.par.as_ref().expect("doacross site");
        let region_id = self.regions as u32;
        self.regions += 1;
        self.region_names.push(format!(
            "{}:do {}",
            site.sub.name, site.sub.scalars[l.var.0].name
        ));
        let costs = self.costs;
        E::flush(self, ctx.proc);
        let start = self.mach.cycles(ctx.proc) + costs.parallel_fork;
        // Per-node memory-service demand before the region: deltas bound
        // region time by the bottleneck node's throughput (the hot-node
        // effect of the paper's Figure 5).
        let served_before: Vec<u64> = self.mach.node_served();

        let team = self.build_team(site, frame, ctx)?;
        E::flush(self, ctx.proc);

        // Level every member to the fork point and run its share to
        // completion before the next member.
        //
        // Access-count migration epochs are paused here: replaying members
        // one at a time means the reference counters are transiently
        // dominated by whichever member is current, and a mid-region epoch
        // would chase each member in turn. The daemon instead fires at the
        // join below with whole-team counts.
        let fork_t0 = Instant::now();
        self.mach.pause_epochs(true);
        let replayed = team.iter().try_for_each(|(p, work)| {
            if self.mach.cycles(*p) < start {
                self.mach.set_cycles(*p, start);
            }
            let mut member_ctx = Ctx {
                proc: *p,
                in_region: true,
                region: region_id,
            };
            // Private copy of all scalars (covers the `local` clause; the
            // model discards in-region writes to shared scalars at join).
            let mut member_frame = frame.clone();
            self.run_work(site, work, &mut member_frame, &mut member_ctx)
        });
        // Resume on every exit path: a faulting member must not leave the
        // machine deaf to access-count epochs for its next run.
        self.mach.pause_epochs(false);
        replayed?;
        self.region_wall += fork_t0.elapsed();

        // Implicit barrier: everyone (team and idle processors alike)
        // advances to the slowest member — or, if some node's memory had
        // to service more line fills than fit in that window, to the end
        // of the bottleneck node's service demand (throughput bound).
        let machine = &mut *self.mach;
        let occupancy = machine.config().lat.mem_occupancy;
        let node_demand = machine
            .node_served()
            .iter()
            .zip(&served_before)
            .map(|(after, before)| (after - before) * occupancy)
            .max()
            .unwrap_or(0);
        let t_end = (0..machine.nprocs())
            .map(|p| machine.cycles(ProcId(p)))
            .max()
            .unwrap_or(start)
            .max(start + node_demand)
            + costs.barrier;
        for p in 0..self.team.max(1) {
            machine.set_cycles(ProcId(p), t_end);
        }
        if machine.cycles(ctx.proc) < t_end {
            machine.set_cycles(ctx.proc, t_end);
        }
        self.region_cycles += t_end - (start - costs.parallel_fork);
        // Team join = migration epoch boundary, with the whole team's
        // references counted.
        join_epoch(machine, &mut self.epoch);
        // Sequential semantics for the loop variable after the region
        // (what `lastlocal` guarantees on the real system): the value it
        // would hold after a serial execution of the loop.
        if !matches!(d.sched, SchedType::ProcTile { .. }) {
            let (lb, ub, step) = E::eval_bounds(self, site, frame, ctx)?;
            if step != 0 {
                let niters = if step > 0 {
                    (ub - lb + step).max(0) / step
                } else {
                    (lb - ub - step).max(0) / -step
                };
                frame.scalars[l.var.0] = Value::I(lb + niters * step);
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Call binding.
    // -----------------------------------------------------------------

    /// Whether the caller side of a call registers this actual with the
    /// §6 argument checker.
    pub(crate) fn checks_actual(&self, reshaped: bool) -> bool {
        self.opts.runtime_checks && reshaped
    }

    fn register_actual(&mut self, call: &mut CallBinding, addr: u64, info: ArgInfo, proc: ProcId) {
        self.checker.register(addr, info);
        call.registered.push(addr);
        self.mach.charge(proc, 40);
    }

    /// Whole-array actual: the callee's `formal` sees the same instance
    /// (its declared shape must match; it carries the same distribution).
    pub(crate) fn bind_whole(
        &mut self,
        call: &mut CallBinding,
        formal: usize,
        inst: usize,
        reshaped: bool,
        proc: ProcId,
    ) {
        if self.checks_actual(reshaped) {
            let arr = self.binder.get(inst);
            let info = ArgInfo::WholeArray {
                name: arr.name.clone(),
                shape: arr.desc.extents(),
            };
            self.register_actual(call, layout_base(arr), info, proc);
        }
        call.arrays.push((formal, inst));
    }

    /// Array-element actual: the callee's `formal` becomes a view at the
    /// element's address `addr`. `checked_idx0` carries the element's
    /// 0-based indices when [`RunState::checks_actual`] said to register
    /// the portion they start. The view's extents may depend on scalar
    /// parameters, so those must already be in `callee_frame`.
    #[allow(clippy::too_many_arguments)] // actual + formal + both frames
    pub(crate) fn bind_element(
        &mut self,
        call: &mut CallBinding,
        formal: &ArrayDecl,
        formal_id: usize,
        inst: usize,
        checked_idx0: Option<&[u64]>,
        addr: u64,
        callee_frame: &Frame,
        proc: ProcId,
    ) {
        if let Some(idx0) = checked_idx0 {
            let arr = self.binder.get(inst);
            let info = ArgInfo::Portion {
                name: arr.name.clone(),
                portion_len: arr.desc.portion_remaining(idx0),
            };
            self.register_actual(call, addr, info, proc);
        }
        let view = self.binder.bind_view(self.mach, formal, addr, callee_frame);
        call.arrays.push((formal_id, view));
    }

    /// Finish binding once every actual is processed: attach the array
    /// formals, run the entry-side checks (each array formal looks up its
    /// incoming base address), instantiate the callee's locals / attach
    /// its commons, and charge the call overhead.
    pub(crate) fn enter_callee(
        &mut self,
        call: &mut CallBinding,
        callee: &Subroutine,
        callee_frame: &mut Frame,
        proc: ProcId,
    ) -> Result<(), ExecError> {
        for (formal, inst) in call.arrays.drain(..) {
            callee_frame.arrays[formal] = inst;
        }
        if self.opts.runtime_checks {
            for (pos, param) in callee.params.iter().enumerate() {
                let Param::Array(a) = param else { continue };
                let base = layout_base(self.binder.get(callee_frame.arrays[a.0]));
                let declared: Vec<u64> = callee.arrays[a.0]
                    .dims
                    .iter()
                    .map(|e| match e {
                        Extent::Const(v) => (*v).max(0) as u64,
                        Extent::Var(v) => callee_frame.scalars[v.0].as_i().max(0) as u64,
                    })
                    .collect();
                self.mach.charge(proc, 40);
                self.checker
                    .check_formal(&callee.name, pos, base, &declared)
                    .map_err(|e| ExecError::Runtime(RuntimeError::ArgCheck(e)))?;
            }
        }
        self.binder
            .bind_declarations(self.mach, callee, callee_frame);
        self.mach.charge(proc, 10 * self.costs.int_alu);
        Ok(())
    }

    /// Pop the call's registered actuals on return.
    pub(crate) fn leave_callee(&mut self, call: CallBinding) {
        for addr in call.registered {
            self.checker.unregister(addr);
        }
    }
}

/// One team member's share of a region.
enum Work {
    Chunks(Vec<sched::Chunk>),
    ProcTile,
}

/// A call in the making: the actuals registered with the argument checker
/// (popped on return) and the `(formal, instance)` array bindings applied
/// once every actual has been evaluated.
#[derive(Default)]
pub(crate) struct CallBinding {
    registered: Vec<u64>,
    arrays: Vec<(usize, usize)>,
}

/// The address a formal receives for `arr`: its data for contiguous
/// layouts, the portion-pointer table for reshaped ones.
fn layout_base(arr: &RtArray) -> u64 {
    match &arr.layout {
        ArrayLayout::Contiguous { base } => *base,
        ArrayLayout::Reshaped { ptr_table, .. } => *ptr_table,
    }
}
