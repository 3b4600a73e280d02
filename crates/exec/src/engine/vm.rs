//! The bytecode virtual machine.
//!
//! Executes the opcode streams of [`super::code`] against the simulated
//! machine, issuing the *identical* ordered sequence of memory accesses,
//! tag stamps and (summed) cycle charges as the tree-walking interpreter,
//! so captures and hardware counters match it bit for bit.  Three things
//! make it fast:
//!
//! * arithmetic cycle charges accumulate in a local `pending` counter and
//!   reach the machine in one `charge` call at the next synchronization
//!   point (cycle charges are purely additive, and nothing between flush
//!   points reads the clock — migration epochs trigger on access counts);
//! * element addresses resolve through interned [`AddrPlan`]s and a
//!   per-site **tile hint** ([`AddrPlan::locate`]): a reference that
//!   stays inside the processor portion it touched last — every
//!   reference of a tiled loop — costs a compare and a multiply-add per
//!   dimension, bounds check included;
//! * eligible serial loops run as bulk transfers: a loop-invariant fill
//!   over a contiguous destination becomes one [`AccessRun`] handed to
//!   the machine in a single call, and affine fills/copies elsewhere run
//!   as fused per-element loops with no opcode dispatch.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dsm_ir::{AddrMode, BinOp, Program};
use dsm_machine::{AccessKind, AccessRun, AccessTag, ProcId};
use dsm_runtime::{ArrayLayout, MAX_RANK};

use crate::report::RunOutcome;
use crate::team::{self, CallBinding, Ctx, LoopSite, RunState};
use crate::value::{bin_op, intrinsic, un_op, Frame, Value};
use crate::{ExecError, ExecOptions};

use super::code::{
    AffVar, ArgCode, BulkCode, BulkKind, BulkRef, ListRef, Op, ParLoop, ProgramCode, Reg, SubCode,
};
use super::plan::{AddrPlan, PlanCache};

/// Run `program` as compiled bytecode (the [`crate::Engine::Bytecode`]
/// path behind [`crate::run_outcome`]).
pub(crate) fn run_bytecode(
    machine: &mut dsm_machine::Machine,
    program: &Program,
    opts: &ExecOptions,
) -> Result<RunOutcome, ExecError> {
    let code = ProgramCode::compile(program, machine.config());
    let main_sc = &code.subs[program.main];
    let mut frame = Frame::new(program.main_sub());
    frame.scalars.resize(main_sc.n_regs, Value::I(0));
    let eng = Bytecode {
        code: &code,
        plans: Arc::new(PlanCache::new()),
        hints: vec![0; code.n_sites],
        pending: 0,
    };
    team::run(machine, program, opts, eng, frame, |vm, frame, ctx| {
        vm.sync_plans();
        let res = vm.run_block(main_sc, 0, frame, ctx);
        vm.flush(ctx.proc);
        res
    })
}

/// The VM's private state.
struct Bytecode<'a, 'p> {
    code: &'a ProgramCode<'p>,
    /// Interned address plans. Team members share the top-level VM's
    /// cache read-only (their bodies never bind or redistribute), so only
    /// the top level — sole owner between regions — ever mutates it.
    plans: Arc<PlanCache>,
    /// The tile each reference site found its element in last, indexed
    /// `SubCode::hint_base + site`. Private per engine — a member
    /// starts from a copy of its parent's — and only ever a guess that
    /// `AddrPlan::locate` validates, so nothing that changes the plan
    /// under a site (redistribute, resize, call rebinding) resets it.
    hints: Vec<u8>,
    /// Deferred arithmetic cycle charges (flushed to the machine before
    /// every clock read and at run end — charges are additive, so the
    /// final counters equal the interpreter's immediate-charge totals).
    pending: u64,
}

/// A doacross as the VM sees it: the enclosing subroutine's code and the
/// loop's side table.
type ParHandle<'a, 'p> = (&'a SubCode<'p>, &'a ParLoop<'p>);

impl<'a, 'p> team::Engine for Bytecode<'a, 'p> {
    type Handle = ParHandle<'a, 'p>;

    /// Each result register is read immediately after its block runs:
    /// the three blocks share scratch registers.
    fn eval_bounds(
        vm: &mut RunState<'_, Self>,
        site: LoopSite<'_, Self::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(i64, i64, i64), ExecError> {
        let (sc, pl) = site.h;
        vm.run_block(sc, pl.lb.pc, frame, ctx)?;
        let lb = frame.scalars[pl.lb.reg as usize].as_i();
        vm.run_block(sc, pl.ub.pc, frame, ctx)?;
        let ub = frame.scalars[pl.ub.reg as usize].as_i();
        vm.run_block(sc, pl.step.pc, frame, ctx)?;
        let step = frame.scalars[pl.step.reg as usize].as_i();
        Ok((lb, ub, step))
    }

    fn run_body(
        vm: &mut RunState<'_, Self>,
        site: LoopSite<'_, Self::Handle>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let (sc, pl) = site.h;
        vm.run_block(sc, pl.body_pc, frame, ctx)
    }

    #[inline]
    fn charge(vm: &mut RunState<'_, Self>, _proc: ProcId, cycles: u64) {
        vm.eng.pending += cycles;
    }

    fn flush(vm: &mut RunState<'_, Self>, proc: ProcId) {
        vm.flush(proc);
    }

    fn spawn_member(&self) -> Self {
        Bytecode {
            code: self.code,
            plans: Arc::clone(&self.plans),
            hints: self.hints.clone(),
            pending: 0,
        }
    }

    fn rebind(vm: &mut RunState<'_, Self>, inst: Option<usize>) {
        let RunState { binder, eng, .. } = vm;
        let plans = eng.plans_mut();
        match inst {
            Some(inst) => plans.rebuild(inst, binder.shared()),
            None => {
                *plans = PlanCache::new();
                plans.sync(binder.shared());
            }
        }
    }
}

/// Whether this addressing mode re-loads the portion pointer per access.
#[inline]
fn needs_slot(mode: AddrMode) -> bool {
    matches!(
        mode,
        AddrMode::ReshapedRaw
            | AddrMode::ReshapedRawFp
            | AddrMode::ReshapedTiled
            | AddrMode::ReshapedSharedDiv
    )
}

/// The integer values of the index registers in operand list `idx`.
#[inline]
fn index_values(sc: &SubCode<'_>, idx: ListRef, frame: &Frame) -> [i64; MAX_RANK] {
    let regs = &sc.pool[idx.start as usize..][..idx.len as usize];
    let mut vals = [0i64; MAX_RANK];
    for (v, &r) in vals.iter_mut().zip(regs) {
        *v = frame.scalars[r as usize].as_i();
    }
    vals
}

impl Bytecode<'_, '_> {
    /// The plan cache, for mutation (top-level VM only).
    fn plans_mut(&mut self) -> &mut PlanCache {
        Arc::get_mut(&mut self.plans).expect("plan mutation inside a parallel member")
    }
}

impl<'a, 'p> RunState<'_, Bytecode<'a, 'p>> {
    /// Intern plans for the instances bound since the last sync.
    fn sync_plans(&mut self) {
        let RunState { binder, eng, .. } = self;
        eng.plans_mut().sync(binder.shared());
    }

    #[inline]
    fn flush(&mut self, proc: ProcId) {
        if self.eng.pending > 0 {
            let p = std::mem::take(&mut self.eng.pending);
            self.mach.on(proc, |sh| sh.charge(p));
        }
    }

    /// The interpreter's addressing-overhead charge for one reference.
    #[inline]
    fn mode_cost(&self, mode: AddrMode, n_dist: u64) -> u64 {
        let c = &self.costs;
        match mode {
            AddrMode::Direct | AddrMode::ReshapedHoisted | AddrMode::ReshapedSharedAll => c.int_alu,
            AddrMode::ReshapedRaw => n_dist * (c.int_div + c.int_alu) + 2 * c.int_alu,
            AddrMode::ReshapedRawFp => n_dist * (c.fp_emulated_div + c.int_alu) + 2 * c.int_alu,
            AddrMode::ReshapedTiled | AddrMode::ReshapedSharedDiv => 2 * c.int_alu,
        }
    }

    /// One binary operator: value, cycle charge and error of `bin_op`.
    #[inline(always)]
    fn bin(
        &mut self,
        op: BinOp,
        dst: Reg,
        a: Value,
        b: Value,
        frame: &mut Frame,
    ) -> Result<(), ExecError> {
        let (v, cost) = bin_op(op, a, b, &self.costs)?;
        self.eng.pending += cost;
        frame.scalars[dst as usize] = v;
        Ok(())
    }

    /// Execute from `entry` until the block's `Halt`.
    fn run_block(
        &mut self,
        sc: &'a SubCode<'p>,
        entry: u32,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let track_steps = self.opts.max_steps != u64::MAX;
        let mut pc = entry as usize;
        loop {
            let op = sc.ops[pc];
            pc += 1;
            match op {
                Op::Halt => return Ok(()),
                Op::Charge { cycles, steps } => {
                    self.eng.pending += cycles;
                    if track_steps && steps > 0 {
                        let s = self.steps.fetch_add(u64::from(steps), Ordering::Relaxed)
                            + u64::from(steps);
                        if s > self.opts.max_steps {
                            return Err(ExecError::StepLimit);
                        }
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::Branch { cond, else_target } => {
                    self.eng.pending += self.costs.int_alu;
                    if !frame.scalars[cond as usize].is_true() {
                        pc = else_target as usize;
                    }
                }
                Op::ConstI { dst, v } => frame.scalars[dst as usize] = Value::I(v),
                Op::ConstF { dst, v } => frame.scalars[dst as usize] = Value::F(v),
                Op::Mov { dst, src } => {
                    frame.scalars[dst as usize] = frame.scalars[src as usize];
                }
                Op::CoerceI { dst, src } => {
                    frame.scalars[dst as usize] = Value::I(frame.scalars[src as usize].as_i());
                }
                Op::CoerceF { dst, src } => {
                    frame.scalars[dst as usize] = Value::F(frame.scalars[src as usize].as_f());
                }
                Op::Un { op, dst, src } => {
                    let (v, cost) = un_op(op, frame.scalars[src as usize], &self.costs);
                    self.eng.pending += cost;
                    frame.scalars[dst as usize] = v;
                }
                Op::Bin { op, dst, a, b } => {
                    let (a, b) = (frame.scalars[a as usize], frame.scalars[b as usize]);
                    self.bin(op, dst, a, b, frame)?;
                }
                Op::BinRI { op, dst, a, k } => {
                    self.bin(op, dst, frame.scalars[a as usize], Value::I(k), frame)?;
                }
                Op::BinRF { op, dst, a, k } => {
                    self.bin(op, dst, frame.scalars[a as usize], Value::F(k), frame)?;
                }
                Op::BinIR { op, dst, k, b } => {
                    self.bin(op, dst, Value::I(k), frame.scalars[b as usize], frame)?;
                }
                Op::BinFR { op, dst, k, b } => {
                    self.bin(op, dst, Value::F(k), frame.scalars[b as usize], frame)?;
                }
                Op::Intr { intr, dst, args } => {
                    let regs = &sc.pool[args.start as usize..][..args.len as usize];
                    let mut buf = [Value::I(0); 8];
                    let spill;
                    let vals: &[Value] = if regs.len() <= buf.len() {
                        for (i, &r) in regs.iter().enumerate() {
                            buf[i] = frame.scalars[r as usize];
                        }
                        &buf[..regs.len()]
                    } else {
                        spill = regs
                            .iter()
                            .map(|&r| frame.scalars[r as usize])
                            .collect::<Vec<_>>();
                        &spill
                    };
                    let (v, cost) = intrinsic(intr, vals, &self.costs)?;
                    self.eng.pending += cost;
                    frame.scalars[dst as usize] = v;
                }
                Op::RtDim {
                    dst,
                    array,
                    dim,
                    block,
                } => {
                    let inst = frame.arrays[array as usize];
                    let d = &self.binder.get(inst).desc.dims[dim as usize];
                    frame.scalars[dst as usize] = Value::I(if block {
                        d.chunk as i64
                    } else {
                        d.nprocs as i64
                    });
                }
                Op::Load {
                    dst,
                    array,
                    idx,
                    mode,
                    is_f,
                } => {
                    let addr = self.elem_addr(sc, array, idx, mode, frame, ctx)?;
                    frame.scalars[dst as usize] = if is_f {
                        Value::F(self.mach.on(ctx.proc, |sh| sh.read_f64(addr)).0)
                    } else {
                        Value::I(self.mach.on(ctx.proc, |sh| sh.read_i64(addr)).0)
                    };
                }
                Op::Store {
                    src,
                    array,
                    idx,
                    mode,
                    is_f,
                } => {
                    let v = frame.scalars[src as usize];
                    let addr = self.elem_addr(sc, array, idx, mode, frame, ctx)?;
                    if is_f {
                        self.mach.on(ctx.proc, |sh| sh.write_f64(addr, v.as_f()));
                    } else {
                        self.mach.on(ctx.proc, |sh| sh.write_i64(addr, v.as_i()));
                    }
                }
                Op::LoopHead {
                    var,
                    lb,
                    ub,
                    step,
                    cur,
                    exit,
                } => {
                    let lbv = frame.scalars[lb as usize].as_i();
                    let ubv = frame.scalars[ub as usize].as_i();
                    let stepv = frame.scalars[step as usize].as_i();
                    if stepv == 0 {
                        return Err(ExecError::BadCall("zero loop step".into()));
                    }
                    // Normalize so the back-edge does integer math only.
                    frame.scalars[ub as usize] = Value::I(ubv);
                    frame.scalars[step as usize] = Value::I(stepv);
                    if (stepv > 0 && lbv <= ubv) || (stepv < 0 && lbv >= ubv) {
                        frame.scalars[var as usize] = Value::I(lbv);
                        frame.scalars[cur as usize] = Value::I(lbv);
                        self.eng.pending += self.costs.loop_overhead;
                    } else {
                        pc = exit as usize;
                    }
                }
                Op::LoopNext {
                    var,
                    cur,
                    ub,
                    step,
                    back,
                } => {
                    let stepv = frame.scalars[step as usize].as_i();
                    let i = frame.scalars[cur as usize].as_i() + stepv;
                    let ubv = frame.scalars[ub as usize].as_i();
                    if (stepv > 0 && i <= ubv) || (stepv < 0 && i >= ubv) {
                        frame.scalars[cur as usize] = Value::I(i);
                        frame.scalars[var as usize] = Value::I(i);
                        self.eng.pending += self.costs.loop_overhead;
                        pc = back as usize;
                    }
                }
                Op::Bulk { idx, exit } => {
                    if self.bulk_exec(sc, &sc.bulks[idx as usize], frame, ctx)? {
                        pc = exit as usize;
                    }
                    // else: fall through to the generic LoopHead.
                }
                Op::Fork { idx } => {
                    let pl = &sc.par_loops[idx as usize];
                    let site = LoopSite {
                        l: pl.l,
                        sub: sc.sub,
                        h: (sc, pl),
                    };
                    self.doacross(site, frame, ctx)?;
                }
                Op::CallSub { idx } => {
                    self.exec_call(sc, idx, frame, ctx)?;
                }
                Op::Redist { idx } => {
                    let rc = &sc.redists[idx as usize];
                    self.redistribute(frame.arrays[rc.array as usize], rc.dist, ctx.proc)?;
                }
                Op::Resize { idx } => {
                    self.resize_team(sc.resizes[idx as usize] as usize, ctx.proc)?;
                }
                Op::NumThreads { dst } => {
                    frame.scalars[dst as usize] = Value::I(self.team as i64);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Addressing.
    // -----------------------------------------------------------------

    /// The plan and tile hint of reference `site` of `sc`, bound to
    /// instance `inst`.
    #[inline]
    fn site(&mut self, sc: &SubCode<'_>, site: u32, inst: usize) -> (&AddrPlan, &mut u8) {
        let eng = &mut self.eng;
        let plan = eng.plans.get(inst);
        debug_assert!(plan.is_for(self.binder.get(inst)), "stale address plan");
        (plan, &mut eng.hints[sc.hint_base + site as usize])
    }

    /// Resolve the register list `idx` — which is also the reference
    /// site — into an element address: the interned-plan equivalent of
    /// the interpreter's `index_values` + `element_addr` (bounds check,
    /// profile tag, addressing-mode charge, portion-pointer load).
    #[inline]
    fn elem_addr(
        &mut self,
        sc: &'a SubCode<'p>,
        array: u16,
        idx: ListRef,
        mode: AddrMode,
        frame: &Frame,
        ctx: &Ctx,
    ) -> Result<u64, ExecError> {
        let vals = &index_values(sc, idx, frame)[..idx.len as usize];
        let (plan, hint) = self.site(sc, idx.start, frame.arrays[array as usize]);
        let Some((addr, slot)) = plan.locate(vals, hint) else {
            return Err(ExecError::OutOfBounds {
                array: sc.sub.arrays[array as usize].name.clone(),
                indices: vals.to_vec(),
                extents: plan.desc.extents(),
            });
        };
        let (sym, n_dist) = (plan.sym, plan.n_dist);
        if self.opts.profile {
            let tag = AccessTag {
                sym,
                region: ctx.region,
            };
            self.mach.on(ctx.proc, |sh| sh.set_tag(tag));
        }
        self.eng.pending += self.mode_cost(mode, n_dist);
        if let (true, Some(slot)) = (needs_slot(mode), slot) {
            self.mach
                .on(ctx.proc, |sh| sh.access(slot, AccessKind::Read));
        }
        Ok(addr)
    }

    // -----------------------------------------------------------------
    // Bulk loops.
    // -----------------------------------------------------------------

    /// Try to execute a bulk-eligible loop as batched/fused transfers.
    /// Returns `Ok(true)` when done (jump to the loop exit) or
    /// `Ok(false)` to fall through to the generic loop.
    fn bulk_exec(
        &mut self,
        sc: &'a SubCode<'p>,
        b: &BulkCode,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<bool, ExecError> {
        // Under a finite step budget the generic path keeps the
        // interpreter's exact statement-by-statement abort point.
        if self.opts.max_steps != u64::MAX {
            return Ok(false);
        }
        let lb = frame.scalars[b.lb as usize].as_i();
        let ub = frame.scalars[b.ub as usize].as_i();
        let step = frame.scalars[b.step as usize].as_i();
        if step == 0 {
            return Ok(false); // generic path raises the error
        }
        let niters = {
            let (l, u, s) = (lb as i128, ub as i128, step as i128);
            let n = if step > 0 {
                (u - l + s).max(0) / s
            } else {
                (l - u - s).max(0) / -s
            };
            if n <= 0 || n > u32::MAX as i128 {
                return Ok(false);
            }
            n as i64
        };
        // Affine indices are monotone in the loop variable, so endpoint
        // bounds checks cover every iteration.
        let last = lb as i128 + (niters as i128 - 1) * step as i128;
        if !self.run_in_bounds(&b.dst, lb as i128, last, frame) {
            return Ok(false);
        }
        if let BulkKind::Copy { src } = &b.kind {
            if !self.run_in_bounds(src, lb as i128, last, frame) {
                return Ok(false);
            }
        }
        let n = niters as u64;
        match &b.kind {
            BulkKind::Fill { value } => {
                // Evaluate the loop-invariant RHS once, measuring its
                // charge; the remaining iterations charge the same delta.
                let before = self.eng.pending;
                self.run_block(sc, value.pc, frame, ctx)?;
                let delta = self.eng.pending - before;
                let v = frame.scalars[value.reg as usize];
                let word = if b.dst.is_f {
                    v.as_f().to_bits()
                } else {
                    v.as_i() as u64
                };
                let dinst = frame.arrays[b.dst.array as usize];
                let (n_dist, sym, contig) = {
                    let plan = self.eng.plans.get(dinst);
                    (
                        plan.n_dist,
                        plan.sym,
                        matches!(plan.layout, ArrayLayout::Contiguous { .. }),
                    )
                };
                self.eng.pending +=
                    (self.costs.loop_overhead + b.idx_cost + self.mode_cost(b.dst.mode, n_dist))
                        * n
                        + delta * (n - 1);
                if self.opts.profile {
                    let tag = AccessTag {
                        sym,
                        region: ctx.region,
                    };
                    self.mach.on(ctx.proc, |sh| sh.set_tag(tag));
                }
                if contig && b.dst.mode == AddrMode::Direct {
                    // One batched access run through the memory system.
                    let (base, stride) = self.run_geometry(&b.dst, dinst, lb, step, frame);
                    let run = AccessRun {
                        base,
                        stride,
                        count: n,
                        kind: AccessKind::Write,
                    };
                    self.mach.fill_run(ctx.proc, &run, word);
                } else {
                    // Fused per-element loop: owner and portion pointer
                    // change along the run.
                    for k in 0..niters {
                        let i = lb + k * step;
                        let (addr, slot) = self.bulk_addr(sc, &b.dst, dinst, i, frame);
                        if let Some(s) = slot {
                            self.mach.on(ctx.proc, |sh| sh.access(s, AccessKind::Read));
                        }
                        self.mach.on(ctx.proc, |sh| sh.write_i64(addr, word as i64));
                    }
                }
            }
            BulkKind::Copy { src } => {
                let dinst = frame.arrays[b.dst.array as usize];
                let sinst = frame.arrays[src.array as usize];
                let (dn, dsym) = {
                    let p = self.eng.plans.get(dinst);
                    (p.n_dist, p.sym)
                };
                let (sn, ssym) = {
                    let p = self.eng.plans.get(sinst);
                    (p.n_dist, p.sym)
                };
                self.eng.pending += (self.costs.loop_overhead
                    + b.idx_cost
                    + self.mode_cost(src.mode, sn)
                    + self.mode_cost(b.dst.mode, dn))
                    * n;
                let profile = self.opts.profile;
                // Fused per-element loop, accesses interleaved exactly as
                // the interpreter: src pointer slot, src element, dst
                // pointer slot, dst element.
                for k in 0..niters {
                    let i = lb + k * step;
                    let (saddr, sslot) = self.bulk_addr(sc, src, sinst, i, frame);
                    if profile {
                        let tag = AccessTag {
                            sym: ssym,
                            region: ctx.region,
                        };
                        self.mach.on(ctx.proc, |sh| sh.set_tag(tag));
                    }
                    if let Some(s) = sslot {
                        self.mach.on(ctx.proc, |sh| sh.access(s, AccessKind::Read));
                    }
                    let word = if src.is_f {
                        self.mach.on(ctx.proc, |sh| sh.read_f64(saddr)).0.to_bits()
                    } else {
                        self.mach.on(ctx.proc, |sh| sh.read_i64(saddr)).0 as u64
                    };
                    let (daddr, dslot) = self.bulk_addr(sc, &b.dst, dinst, i, frame);
                    if profile {
                        let tag = AccessTag {
                            sym: dsym,
                            region: ctx.region,
                        };
                        self.mach.on(ctx.proc, |sh| sh.set_tag(tag));
                    }
                    if let Some(s) = dslot {
                        self.mach.on(ctx.proc, |sh| sh.access(s, AccessKind::Read));
                    }
                    if b.dst.is_f {
                        self.mach
                            .on(ctx.proc, |sh| sh.write_f64(daddr, f64::from_bits(word)));
                    } else {
                        self.mach
                            .on(ctx.proc, |sh| sh.write_i64(daddr, word as i64));
                    }
                }
            }
        }
        // The loop variable holds the last executed iteration's value
        // (the body never writes it: it is a single array store).
        frame.scalars[b.var as usize] = Value::I(lb + (niters - 1) * step);
        Ok(true)
    }

    /// Endpoint bounds check of every affine index of one side.
    fn run_in_bounds(&self, r: &BulkRef, first: i128, last: i128, frame: &Frame) -> bool {
        let inst = frame.arrays[r.array as usize];
        let plan = self.eng.plans.get(inst);
        if r.idx.len() != plan.desc.dims.len() {
            return false;
        }
        for (d, t) in r.idx.iter().enumerate() {
            let term = |i: i128| -> Option<i128> {
                (t.scale as i128)
                    .checked_mul(i)?
                    .checked_add(t.offset as i128)
            };
            let (v0, v1) = match t.var {
                AffVar::Loop => match (term(first), term(last)) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return false,
                },
                AffVar::Reg(rg) => match term(frame.scalars[rg as usize].as_i() as i128) {
                    Some(v) => (v, v),
                    None => return false,
                },
                AffVar::None => (t.offset as i128, t.offset as i128),
            };
            let (lo, hi) = (v0.min(v1), v0.max(v1));
            if lo < 1 || hi > plan.desc.dims[d].extent as i128 {
                return false;
            }
        }
        true
    }

    /// Address and portion-pointer slot of one side's element at
    /// iteration value `i` (indices already prechecked in-bounds).
    #[inline]
    fn bulk_addr(
        &mut self,
        sc: &SubCode<'_>,
        r: &BulkRef,
        inst: usize,
        i: i64,
        frame: &Frame,
    ) -> (u64, Option<u64>) {
        let mut vals = [0i64; MAX_RANK];
        for (v, t) in vals.iter_mut().zip(&r.idx) {
            *v = match t.var {
                AffVar::Loop => t.scale * i + t.offset,
                AffVar::Reg(rg) => t.scale * frame.scalars[rg as usize].as_i() + t.offset,
                AffVar::None => t.offset,
            };
        }
        let (plan, hint) = self.site(sc, r.site, inst);
        let (addr, slot) = plan
            .locate(&vals[..r.idx.len()], hint)
            .expect("bulk run prechecked in bounds");
        (addr, slot.filter(|_| needs_slot(r.mode)))
    }

    // -----------------------------------------------------------------
    // Calls.
    // -----------------------------------------------------------------

    /// The `CallSub` opcode.
    fn exec_call(
        &mut self,
        sc: &'a SubCode<'p>,
        idx: u16,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let code = self.eng.code;
        let cc = &sc.calls[idx as usize];
        let Some(callee_idx) = cc.callee else {
            return Err(ExecError::UnknownSubroutine(cc.name.to_string()));
        };
        let callee_sc = &code.subs[callee_idx];
        let callee = callee_sc.sub;
        // Binding and entry checks allocate and move data through the
        // machine; bring this processor's clock current first.
        self.flush(ctx.proc);
        let mut callee_frame = Frame::new(callee);
        callee_frame.scalars.resize(callee_sc.n_regs, Value::I(0));
        let mut call = CallBinding::default();
        for arg in &cc.args {
            match arg {
                ArgCode::Scalar { block, var } => {
                    self.run_block(sc, block.pc, frame, ctx)?;
                    let val = frame.scalars[block.reg as usize];
                    callee_frame.scalars[*var as usize] =
                        val.coerce(callee.scalars[*var as usize].ty);
                }
                ArgCode::Array {
                    caller,
                    callee: formal,
                    caller_reshaped,
                } => {
                    let inst = frame.arrays[*caller as usize];
                    self.bind_whole(
                        &mut call,
                        *formal as usize,
                        inst,
                        *caller_reshaped,
                        ctx.proc,
                    );
                }
                ArgCode::Elem {
                    caller,
                    callee: formal,
                    idx_pc,
                    idx,
                    caller_reshaped,
                } => {
                    let rank = idx.len as usize;
                    self.run_block(sc, *idx_pc, frame, ctx)?;
                    let addr = self.elem_addr(sc, *caller, *idx, AddrMode::Direct, frame, ctx)?;
                    // The checker wants the element's indices; the
                    // interpreter evaluates them a second time, charging
                    // a second time.
                    let idx0 = if self.checks_actual(*caller_reshaped) {
                        self.run_block(sc, *idx_pc, frame, ctx)?;
                        Some(index_values(sc, *idx, frame).map(|v| (v - 1) as u64))
                    } else {
                        None
                    };
                    self.bind_element(
                        &mut call,
                        &callee.arrays[*formal as usize],
                        *formal as usize,
                        frame.arrays[*caller as usize],
                        idx0.as_ref().map(|i| &i[..rank]),
                        addr,
                        &callee_frame,
                        ctx.proc,
                    );
                }
            }
        }
        // Arity / argument-kind mismatch (compiled to a message; fires
        // after the well-formed prefix of arguments, as the interpreter).
        if let Some(msg) = &cc.fail {
            return Err(ExecError::BadCall(msg.clone()));
        }
        self.enter_callee(&mut call, callee, &mut callee_frame, ctx.proc)?;
        // Intern plans for every instance the call brought to life.
        self.sync_plans();
        let mut callee_ctx = *ctx;
        self.run_block(callee_sc, 0, &mut callee_frame, &mut callee_ctx)?;
        self.leave_callee(call);
        Ok(())
    }

    /// Base address and byte stride of a contiguous-direct run.
    fn run_geometry(
        &self,
        r: &BulkRef,
        inst: usize,
        lb: i64,
        step: i64,
        frame: &Frame,
    ) -> (u64, i64) {
        let plan = self.eng.plans.get(inst);
        debug_assert!(matches!(plan.layout, ArrayLayout::Contiguous { .. }));
        let tile = &plan.tiles[0];
        let mut addr = tile.base as i64;
        let mut run_stride = 0i64;
        for (d, t) in r.idx.iter().enumerate() {
            let v0 = match t.var {
                AffVar::Loop => t.scale * lb + t.offset,
                AffVar::Reg(rg) => t.scale * frame.scalars[rg as usize].as_i() + t.offset,
                AffVar::None => t.offset,
            };
            addr += (v0 - 1) * tile.dims[d].stride as i64;
            if matches!(t.var, AffVar::Loop) {
                run_stride += t.scale * step * tile.dims[d].stride as i64;
            }
        }
        (addr as u64, run_stride)
    }
}
