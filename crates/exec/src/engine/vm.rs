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
//! * innermost loops run as **stream kernels** ([`super::kernel`]): when
//!   an entry of a loop whose body is straight-line assignments with
//!   affine references finds every reference inside one tile from its
//!   first iteration to its last, each distinct reference becomes a
//!   cursor (address + byte stride), the index arithmetic is charged but
//!   not executed, the rest of the body runs as typed micro-ops in
//!   program order, and the whole loop enters the machine once
//!   ([`team::stream`]) through `MachineShard::access_at`. A loop that is
//!   one loop-invariant store over a contiguous array is shorter still:
//!   one [`AccessRun`] handed to the machine's page-segmented walker.
//!
//! A kernel is a second compilation of a loop the opcode stream also
//! holds, so every condition it cannot meet takes that generic loop for
//! the entry in question, and errors and abort points are the
//! interpreter's by construction: a body the build refuses (non-affine
//! index, integer division, a type that depends on data —
//! `Kernel::build`); zero or over-long trip counts; a reference that
//! leaves its tile or the array, or lives in a `cyclic(k)` plan (no
//! tiles); a scalar whose runtime type is not its declared one; a step
//! budget the whole loop does not fit in. Live migration keeps the kernel
//! but enters the machine per access.

use dsm_ir::{AddrMode, BinOp, Program, Subroutine};
use dsm_machine::{AccessKind, AccessRun, AccessTag, ProcId};
use dsm_runtime::MAX_RANK;

use crate::report::RunOutcome;
use crate::team::{self, CallBinding, Ctx, LoopSite, Port, RunState, Stream};
use crate::value::{bin_op, intrinsic, un_op, Costs, Frame, Value};
use crate::{ExecError, ExecOptions};

use super::code::{loop_at, ArgCode, KernelSite, ListRef, Op, ParLoop, ProgramCode, Reg, SubCode};
use super::kernel::{mode_charge, needs_slot, value, AffVar, Cursor, CursorCode, Kernel, MOp};
use super::plan::{AddrPlan, PlanCache};
use super::CodeCache;

/// Run `program` as compiled bytecode (the [`crate::Engine::Bytecode`]
/// path behind [`crate::run_outcome_with`]): on the code `cache` keeps
/// when it was lowered under this machine's cost table — lowering it now
/// if the cache is empty — and on privately lowered code otherwise.
pub(crate) fn run_bytecode(
    machine: &mut dsm_machine::Machine,
    program: &Program,
    opts: &ExecOptions,
    cache: &CodeCache,
) -> Result<RunOutcome, ExecError> {
    let costs = Costs::from_config(machine.config());
    let private;
    let code = match cache.0.get_or_init(|| ProgramCode::compile(program, costs)) {
        kept if kept.costs == costs => kept,
        _ => {
            private = ProgramCode::compile(program, costs);
            &private
        }
    };
    let main_sc = &code.subs[program.main];
    let mut frame = Frame::new(program.main_sub());
    frame.scalars.resize(main_sc.n_regs, Value::I(0));
    let eng = Bytecode {
        program,
        code,
        plans: PlanCache::new(),
        hints: vec![0; code.n_sites],
        pending: 0,
        kregs: Vec::new(),
        cursors: Vec::new(),
    };
    team::run(machine, program, opts, eng, frame, |vm, frame, ctx| {
        vm.sync_plans();
        let res = vm.run_block(main_sc, 0, frame, ctx);
        vm.flush(ctx.proc);
        res
    })
}

/// The VM's private state.
struct Bytecode<'a> {
    /// The program `code` was lowered from, which its side tables index.
    program: &'a Program,
    code: &'a ProgramCode,
    /// Interned address plans.
    plans: PlanCache,
    /// The tile each reference site found its element in last, indexed
    /// `SubCode::hint_base + site`. Only ever a guess that
    /// `AddrPlan::locate` validates, so nothing that changes the plan
    /// under a site (redistribute, resize, call rebinding) resets it.
    hints: Vec<u8>,
    /// Deferred arithmetic cycle charges (flushed to the machine before
    /// every clock read and at run end — charges are additive, so the
    /// final counters equal the interpreter's immediate-charge totals).
    pending: u64,
    /// Register file and cursors of the kernel being run (scratch, kept
    /// for their allocations).
    kregs: Vec<u64>,
    cursors: Vec<Cursor>,
}

/// A doacross as the VM sees it: the enclosing subroutine's code and the
/// loop's side table.
type ParHandle<'a> = (&'a SubCode, &'a ParLoop);

impl<'a> team::Engine for Bytecode<'a> {
    type Handle = ParHandle<'a>;

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

    fn rebind(vm: &mut RunState<'_, Self>, inst: Option<usize>) {
        let RunState { binder, eng, .. } = vm;
        let plans = &mut eng.plans;
        match inst {
            Some(inst) => plans.rebuild(inst, binder),
            None => {
                *plans = PlanCache::new();
                plans.sync(binder);
            }
        }
    }
}

/// The integer values of the index registers in operand list `idx`.
#[inline]
fn index_values(sc: &SubCode, idx: ListRef, frame: &Frame) -> [i64; MAX_RANK] {
    let regs = &sc.pool[idx.start as usize..][..idx.len as usize];
    let mut vals = [0i64; MAX_RANK];
    for (v, &r) in vals.iter_mut().zip(regs) {
        *v = frame.scalars[r as usize].as_i();
    }
    vals
}

impl<'a> Bytecode<'a> {
    /// The subroutine `sc` was lowered from.
    #[inline]
    fn sub(&self, sc: &SubCode) -> &'a Subroutine {
        &self.program.subs[sc.sub]
    }
}

impl<'a> RunState<'_, Bytecode<'a>> {
    /// Intern plans for the instances bound since the last sync.
    fn sync_plans(&mut self) {
        let RunState { binder, eng, .. } = self;
        eng.plans.sync(binder);
    }

    #[inline]
    fn flush(&mut self, proc: ProcId) {
        if self.eng.pending > 0 {
            let p = std::mem::take(&mut self.eng.pending);
            self.mach.charge(proc, p);
        }
    }

    /// The interpreter's addressing-overhead charge for one reference.
    #[inline]
    fn mode_cost(&self, mode: AddrMode, n_dist: u64) -> u64 {
        let (fixed, per_dist) = mode_charge(mode, &self.costs);
        fixed + per_dist * n_dist
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
        sc: &'a SubCode,
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
                        self.steps += u64::from(steps);
                        if self.steps > self.opts.max_steps {
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
                        Value::F(self.mach.read_f64(ctx.proc, addr).0)
                    } else {
                        Value::I(self.mach.read_i64(ctx.proc, addr).0)
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
                        self.mach.write_f64(ctx.proc, addr, v.as_f());
                    } else {
                        self.mach.write_i64(ctx.proc, addr, v.as_i());
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
                Op::Kernel { idx, exit } => {
                    let taken = self.kernel_exec(sc, &sc.kernels[idx as usize], frame, ctx);
                    #[cfg(test)]
                    tests::note(taken);
                    if taken {
                        pc = exit as usize;
                    }
                    // else: fall through to the generic LoopHead.
                }
                Op::Fork { idx } => {
                    let pl = &sc.par_loops[idx as usize];
                    let sub = self.eng.sub(sc);
                    let site = LoopSite {
                        l: loop_at(&sub.body, &pl.path),
                        sub,
                        h: (sc, pl),
                    };
                    self.doacross(site, frame, ctx)?;
                }
                Op::CallSub { idx } => {
                    self.exec_call(sc, idx, frame, ctx)?;
                }
                Op::Redist { idx } => {
                    let rc = &sc.redists[idx as usize];
                    self.redistribute(frame.arrays[rc.array as usize], &rc.dist, ctx.proc)?;
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
    fn site(&mut self, sc: &SubCode, site: u32, inst: usize) -> (&AddrPlan, &mut u8) {
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
        sc: &'a SubCode,
        array: u16,
        idx: ListRef,
        mode: AddrMode,
        frame: &Frame,
        ctx: &Ctx,
    ) -> Result<u64, ExecError> {
        let vals = &index_values(sc, idx, frame)[..idx.len as usize];
        let program = self.eng.program;
        let (plan, hint) = self.site(sc, idx.start, frame.arrays[array as usize]);
        let Some((addr, slot)) = plan.locate(vals, hint) else {
            return Err(ExecError::OutOfBounds {
                array: program.subs[sc.sub].arrays[array as usize].name.clone(),
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
            self.mach.set_tag(ctx.proc, tag);
        }
        self.eng.pending += self.mode_cost(mode, n_dist);
        if let (true, Some(slot)) = (needs_slot(mode), slot) {
            self.mach.access(ctx.proc, slot, AccessKind::Read);
        }
        Ok(addr)
    }

    // -----------------------------------------------------------------
    // Loop kernels.
    // -----------------------------------------------------------------

    /// Try to run this entry of a kernel-shaped loop as its stream kernel
    /// (or, for a fill over a contiguous array, as one batched access
    /// run). `true`: the loop is done, jump to its exit; `false`: nothing
    /// was executed or charged, take the generic loop.
    fn kernel_exec(
        &mut self,
        sc: &'a SubCode,
        site: &KernelSite,
        frame: &mut Frame,
        ctx: &Ctx,
    ) -> bool {
        let Ok(k) = site.kernel(self.eng.sub(sc), &self.eng.code.costs) else {
            return false;
        };
        let lb = frame.scalars[site.lb as usize].as_i();
        let ub = frame.scalars[site.ub as usize].as_i();
        let step = frame.scalars[site.step as usize].as_i();
        // A zero step is the generic loop's error to raise; an empty loop
        // is its no-op.
        let n = {
            let (l, u, s) = (lb as i128, ub as i128, step as i128);
            let n = match step {
                0 => 0,
                1.. => (u - l + s).max(0) / s,
                _ => (l - u - s).max(0) / -s,
            };
            if n <= 0 || n > u32::MAX as i128 {
                return false;
            }
            n as u64
        };
        let last = lb + (n as i64 - 1) * step;

        // Every reference inside one tile from the first iteration to the
        // last (which is also its bounds check: tiles lie inside the
        // extents, and an affine index is monotone in between).
        let eng = &mut self.eng;
        let hints = &mut eng.hints[sc.hint_base + site.sites.start as usize..];
        eng.cursors.clear();
        for (code, hint) in k.cursors.iter().zip(hints) {
            let plan = eng.plans.get(frame.arrays[code.array as usize]);
            debug_assert!(plan.is_for(self.binder.get(frame.arrays[code.array as usize])));
            let Some(mut c) = cursor_over(plan, code, (lb, last, step), frame, hint) else {
                return false;
            };
            c.tag = AccessTag {
                sym: plan.sym,
                region: ctx.region,
            };
            eng.cursors.push(c);
        }
        // The values the body reads, under their declared types.
        eng.kregs.clear();
        eng.kregs.extend_from_slice(&k.init);
        for s in k.scalars.iter().filter(|s| s.input) {
            eng.kregs[s.kreg as usize] = match (frame.scalars[s.frame as usize], s.is_f) {
                (Value::F(v), true) => v.to_bits(),
                (Value::I(v), false) => v as u64,
                _ => return false,
            };
        }
        // The whole loop inside the step budget, or the generic loop, whose
        // `StepLimit` fires at the interpreter's exact statement.
        if self.opts.max_steps != u64::MAX {
            if self.steps.saturating_add(n * k.steps) > self.opts.max_steps {
                return false;
            }
            self.steps += n * k.steps;
        }

        let addressing: u64 = (k.arrays.iter())
            .map(|a| {
                let n_dist = eng.plans.get(frame.arrays[a.array as usize]).n_dist;
                a.fixed + a.per_dist * n_dist
            })
            .sum();
        eng.pending += n * (k.iter_cost + addressing);
        match eng.cursors[..] {
            // One evaluation of the invariant value, one batched run.
            [c @ Cursor { slot: None, .. }] if k.fill => {
                let Some((&MOp::Store { src, .. }, value)) = k.ops.split_last() else {
                    unreachable!("a fill ends in its store")
                };
                for &op in value {
                    k.alu(op, &mut eng.kregs, &self.costs);
                }
                if self.opts.profile {
                    self.mach.set_tag(ctx.proc, c.tag);
                }
                let run = AccessRun {
                    base: c.addr,
                    stride: c.stride as i64,
                    count: n,
                    kind: AccessKind::Write,
                };
                self.mach
                    .fill_run_u64(ctx.proc, &run, eng.kregs[src as usize]);
            }
            _ => team::stream(
                self.mach,
                ctx.proc,
                KernelRun {
                    k,
                    cursors: &mut eng.cursors,
                    regs: &mut eng.kregs,
                    costs: &self.costs,
                    trip: (lb, step, n),
                    tagged: self.opts.profile,
                },
            ),
        }
        for s in k.scalars.iter().filter(|s| s.output) {
            frame.scalars[s.frame as usize] = value(eng.kregs[s.kreg as usize], s.is_f);
        }
        // The loop variable holds the last executed iteration's value
        // (the body never writes it).
        frame.scalars[site.var as usize] = Value::I(last);
        true
    }

    // -----------------------------------------------------------------
    // Calls.
    // -----------------------------------------------------------------

    /// The `CallSub` opcode.
    fn exec_call(
        &mut self,
        sc: &'a SubCode,
        idx: u16,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let (program, code) = (self.eng.program, self.eng.code);
        let cc = &sc.calls[idx as usize];
        let callee_idx = match &cc.callee {
            Ok(callee) => *callee,
            Err(name) => return Err(ExecError::UnknownSubroutine(name.to_string())),
        };
        let (callee_sc, callee) = (&code.subs[callee_idx], &program.subs[callee_idx]);
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
}

/// One run of a kernel, for [`team::stream`].
struct KernelRun<'r> {
    k: &'r Kernel,
    cursors: &'r mut [Cursor],
    regs: &'r mut [u64],
    costs: &'r Costs,
    /// First loop-variable value, step, iterations.
    trip: (i64, i64, u64),
    tagged: bool,
}

impl Stream for KernelRun<'_> {
    #[inline]
    fn run<P: Port>(self, port: &mut P) {
        (self.k).run(port, self.cursors, self.regs, self.costs, self.trip, self.tagged);
    }
}

/// The cursor of reference `code` over iterations `first..=last` (loop
/// variable values, `step` apart) if the whole run lies in one tile of
/// `plan`; `None` if it crosses tiles, leaves the array, or the plan has
/// no tiles (`cyclic(k)`).
fn cursor_over(
    plan: &AddrPlan,
    code: &CursorCode,
    (first, last, step): (i64, i64, i64),
    frame: &Frame,
    hint: &mut u8,
) -> Option<Cursor> {
    let rank = code.idx.len();
    if rank != plan.desc.dims.len() {
        return None;
    }
    let (mut v0, mut v1) = ([0i64; MAX_RANK], [0i64; MAX_RANK]);
    for (d, t) in code.idx.iter().enumerate() {
        let at = |x: i64| t.scale.checked_mul(x)?.checked_add(t.offset);
        (v0[d], v1[d]) = match t.var {
            AffVar::Loop => (at(first)?, at(last)?),
            AffVar::Reg(r) => {
                let v = at(frame.scalars[r as usize].as_i())?;
                (v, v)
            }
            AffVar::None => (t.offset, t.offset),
        };
    }
    let (addr, tile) = plan.locate_run(&v0[..rank], &v1[..rank], hint)?;
    let mut stride = 0i64;
    for (t, d) in code.idx.iter().zip(&tile.dims) {
        if t.var == AffVar::Loop {
            stride = stride.wrapping_add(t.scale.wrapping_mul(step).wrapping_mul(d.stride as i64));
        }
    }
    Some(Cursor {
        addr,
        stride: stride as u64,
        slot: tile.slot,
        ..Cursor::default()
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use dsm_compile::{compile_strings, OptConfig};
    use dsm_ir::Program;
    use dsm_machine::{
        CounterSet, Machine, MachineConfig, MigrationPolicy, ProcId, SamplingConfig,
    };

    use super::CodeCache;
    use crate::value::Costs;
    use crate::{run_outcome_with, ExecError, ExecOptions};

    thread_local! {
        /// Entries of kernel-shaped loops on this thread: (run as a
        /// kernel or fill, left to the generic loop).
        static ENTRIES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn note(taken: bool) {
        ENTRIES.set(match (ENTRIES.get(), taken) {
            ((k, g), true) => (k + 1, g),
            ((k, g), false) => (k, g + 1),
        });
    }

    /// Run `decls` + `body` (after `n = 3`) on one host thread; how its
    /// kernel-shaped loop entries went, and how the run ended.
    fn entries(decls: &str, body: &str, opts: ExecOptions) -> ((u64, u64), Result<(), ExecError>) {
        entries_at(&OptConfig::default(), decls, body, opts)
    }

    fn entries_at(
        level: &OptConfig,
        decls: &str,
        body: &str,
        opts: ExecOptions,
    ) -> ((u64, u64), Result<(), ExecError>) {
        let (entries, result, _) = run(&program(level, decls, body), &opts, &CodeCache::default());
        (entries, result)
    }

    /// `decls` + `body` after `n = 3`, compiled.
    fn program(level: &OptConfig, decls: &str, body: &str) -> Program {
        let src = format!(
            "      program main\n      integer i, j, n\n      real*8 a(64), b(64), x\n{decls}      n = 3\n{body}      end\n"
        );
        compile_strings(&[("t.f", &src)], level)
            .expect("compiles")
            .program
    }

    /// Run `program` on one host thread of a fresh `small_test(4)`
    /// machine through `cache`: how its kernel-shaped loop entries went,
    /// how the run ended, and the machine's counters however it ended.
    fn run(
        program: &Program,
        opts: &ExecOptions,
        cache: &CodeCache,
    ) -> ((u64, u64), Result<(), ExecError>, Vec<CounterSet>) {
        let mut m = Machine::new(MachineConfig::small_test(4));
        ENTRIES.set((0, 0));
        let result = run_outcome_with(&mut m, program, opts, cache);
        let counters = (0..m.nprocs()).map(|p| *m.counters(ProcId(p))).collect();
        (ENTRIES.get(), result.map(|_| ()), counters)
    }

    const STENCIL: &str = "      do i = 2, 63\n        a(i) = b(i-1) + b(i+1)\n      enddo\n";
    const RESHAPED: &str = "c$distribute_reshape a(block)\nc$distribute_reshape b(block)\n";

    /// The differential suites show that a kernel and the generic loop
    /// agree; this shows which of the two ran — a precondition that
    /// silently stopped holding would only cost speed.
    #[test]
    fn kernels_run_exactly_where_their_preconditions_hold() {
        let opts = || ExecOptions::new(4);
        let ran = |decls, body: &str| entries(decls, body, opts());
        // A stencil and a fill over contiguous arrays.
        let fill = "      do i = 1, 64\n        b(i) = 1.5 * n\n      enddo\n";
        assert_eq!(ran("", &format!("{fill}{STENCIL}")), ((2, 0), Ok(())));
        // Trip counts one and zero; a negative step.
        let short = "      do i = 7, 7\n        a(i) = b(i-1)\n      enddo\n      do i = 9, 8\n        a(i) = b(i-1)\n      enddo\n      do i = 63, 2, -1\n        a(i) = b(i+1)\n      enddo\n";
        assert_eq!(ran("", short), ((2, 1), Ok(())));
        // An untiled sweep of block-reshaped arrays leaves its first tile;
        // the tiled and peeled region loop does not (three loops a
        // member: first column, interior, last column), and a fill of a
        // reshaped array is a kernel like any other.
        let untiled = entries_at(&OptConfig::none(), RESHAPED, STENCIL, opts());
        assert_eq!(untiled, ((0, 1), Ok(())));
        let region = "c$doacross local(i) affinity(i) = data(a(i))\n      do i = 2, 63\n        a(i) = b(i-1) + b(i+1)\n      enddo\n";
        assert_eq!(ran(RESHAPED, region), ((12, 0), Ok(())));
        let tile_fill = "      do i = 17, 32\n        a(i) = 1.5 * n\n      enddo\n";
        // (Tiled too: one visit per processor, three of them empty.)
        assert_eq!(ran(RESHAPED, tile_fill), ((1, 3), Ok(())));
        // `cyclic(k)` plans have no tiles.
        let cyclic = "c$distribute_reshape a(cyclic(4))\nc$distribute_reshape b(cyclic(4))\n";
        assert_eq!(ran(cyclic, STENCIL), ((0, 1), Ok(())));
        // Refused when built: a body that can fault, an index that is not
        // affine.
        let div = "      do i = 1, 64\n        a(i) = i / n\n      enddo\n";
        assert_eq!(ran("", div), ((0, 1), Ok(())));
        let gather = "      do i = 1, 8\n        a(i) = b(i*i)\n      enddo\n";
        assert_eq!(ran("", gather), ((0, 1), Ok(())));
        // The last iteration leaves the array: the generic loop raises it.
        let over = "      do i = 2, 64\n        a(i) = b(i+1)\n      enddo\n";
        let (counts, result) = ran("", over);
        assert_eq!(counts, (0, 1));
        assert!(matches!(result, Err(ExecError::OutOfBounds { .. })));
        // Live migration keeps the kernel (and enters the machine per
        // access); so do profiling and sampling.
        let sampling = SamplingConfig::parse("1/2").expect("valid rate");
        for observed in [
            opts().migration(MigrationPolicy::threshold(4)),
            opts().profile(true),
            opts().sampling(sampling),
        ] {
            assert_eq!(entries("", STENCIL, observed), ((1, 0), Ok(())));
        }
    }

    /// A finite budget admits a kernel exactly when the whole loop fits.
    #[test]
    fn a_kernel_needs_its_whole_loop_inside_the_step_budget() {
        // `n = 3`, the loop statement, 62 one-statement iterations.
        let total = 2 + 62;
        let budget = |steps| entries("", STENCIL, ExecOptions::new(4).max_steps(steps));
        assert_eq!(budget(total + 1), ((1, 0), Ok(())));
        assert_eq!(budget(total), ((1, 0), Ok(())));
        assert_eq!(budget(total - 1), ((0, 1), Err(ExecError::StepLimit)));
    }

    /// A `real*8` scalar holds an integer after serving as a loop
    /// variable; a kernel whose registers were typed from the declaration
    /// must not read it.
    #[test]
    fn a_scalar_of_the_wrong_runtime_type_refuses_the_kernel() {
        let body = "      do x = 1, 2\n        a(1) = 0.0\n      enddo\n      do i = 1, 4\n        a(i) = x + 0.5\n      enddo\n      x = 2.0\n      do i = 1, 4\n        a(i) = x + 0.5\n      enddo\n";
        assert_eq!(entries("", body, ExecOptions::new(4)), ((2, 1), Ok(())));
    }

    /// Kept code aborts on a step budget exactly where fresh code does,
    /// run after run — the budget short of a loop whose kernel is taken
    /// and of one whose kernel is refused, both mid-loop and one statement
    /// short — and fits the whole program as fresh code does.
    #[test]
    fn kept_code_keeps_the_step_limit_abort_points() {
        let div = "      do i = 1, 64\n        a(i) = i / n\n      enddo\n";
        for (body, total, kernels) in [(STENCIL, 2 + 62, (1, 0)), (div, 2 + 64, (0, 1))] {
            let program = program(&OptConfig::default(), "", body);
            let cache = CodeCache::default();
            for steps in [total / 2, total - 1, total] {
                let opts = ExecOptions::new(4).max_steps(steps);
                let fresh = run(&program, &opts, &CodeCache::default());
                assert_eq!(fresh.1.is_ok(), steps == total);
                if steps == total {
                    assert_eq!(fresh.0, kernels);
                }
                for _ in 0..3 {
                    assert_eq!(run(&program, &opts, &cache), fresh, "{steps} steps");
                }
            }
        }
    }

    /// Kept code belongs to the cost table it was lowered under: a run
    /// under another table lowers its own, leaves the kept code alone,
    /// and reports what a run on fresh code reports.
    #[test]
    fn a_second_cost_table_lowers_its_own_code() {
        let program = program(&OptConfig::default(), "", STENCIL);
        let cheap = MachineConfig::small_test(4);
        let mut dear = cheap.clone();
        dear.ops.fp_alu += 3;
        dear.ops.loop_overhead += 1;
        let opts = ExecOptions::new(4).capture(&["a"]);
        let digest = |cfg: &MachineConfig, cache: &CodeCache| {
            let mut m = Machine::new(cfg.clone());
            let out = run_outcome_with(&mut m, &program, &opts, cache).expect("runs");
            (out.report.digest_json(), out.captures)
        };
        let fresh = |cfg| digest(cfg, &CodeCache::default());
        assert_ne!(fresh(&cheap).0, fresh(&dear).0);
        let cache = CodeCache::default();
        for cfg in [&cheap, &dear, &cheap, &dear] {
            assert_eq!(digest(cfg, &cache), fresh(cfg));
        }
        let kept = cache.0.get().map(|code| code.costs);
        assert_eq!(kept, Some(Costs::from_config(&cheap)));
    }
}
