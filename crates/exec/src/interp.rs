//! Execution options and errors, and the tree-walking interpreter.
//!
//! [`run_outcome`] is the crate's entry point; it dispatches on
//! [`ExecOptions::engine`]. The interpreter in this file walks the IR
//! statement by statement and is kept as the differential reference for
//! the bytecode VM. Serial sections execute on processor 0; everything
//! about parallel regions, calls, redistribution and team resizing is the
//! shared core in `team.rs`, and the scalar operators are `value.rs`'s —
//! one definition for both engines, reached through `team::Engine`.

use dsm_ir::{
    ActualArg, AddrMode, DistKind, Expr, Param, Program, RtExpr, ScalarTy, Stmt, Subroutine,
};
use dsm_machine::{AccessKind, AccessTag, Machine, MigrationPolicy, ProcId, SamplingConfig};
use dsm_runtime::RuntimeError;

use crate::engine::{CodeCache, Engine};
use crate::report::RunOutcome;
use crate::team::{self, CallBinding, Ctx, LoopSite, RunState};
use crate::value::{bin_op, intrinsic, un_op, Frame, Value};

/// Which page mover implements `c$redistribute` and `c$resize_team`.
///
/// Both movers produce bit-identical data and final page homes; they
/// differ only in what the simulated move *costs*. The scheduler is the
/// production path; the naive mover is retained as the differential
/// oracle the conformance matrix compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedistMode {
    /// Round-based schedule: only the delta pages move, each round packs
    /// moves so no node sources or sinks more than one transfer, and the
    /// team pays one coalesced TLB shootdown per round.
    #[default]
    Scheduled,
    /// Page-at-a-time mover: every page of the array is re-placed and the
    /// caller pays a fault plus two TLB misses per page.
    Naive,
}

impl std::fmt::Display for RedistMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RedistMode::Scheduled => "scheduled",
            RedistMode::Naive => "naive",
        })
    }
}

impl std::str::FromStr for RedistMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scheduled" => Ok(RedistMode::Scheduled),
            "naive" => Ok(RedistMode::Naive),
            other => Err(format!(
                "unknown redistribution mode `{other}` (expected `scheduled` or `naive`)"
            )),
        }
    }
}

/// Execution options: a fluent builder consumed by [`run_outcome`].
///
/// ```
/// use dsm_exec::ExecOptions;
/// let opts = ExecOptions::new(8).with_checks(true).profile(true);
/// assert!(opts.runtime_checks && opts.profile);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of processors the program runs on (≤ the machine's).
    pub nprocs: usize,
    /// Enable the Section-6 runtime argument checks.
    pub runtime_checks: bool,
    /// Safety valve: abort after this many executed statements.
    pub max_steps: u64,
    /// Attribute every access to its (array, parallel region) and return a
    /// [`crate::Profile`] in the report.
    pub profile: bool,
    /// Names of main-program arrays whose final contents the run returns
    /// (Fortran element order), for verification.
    pub captures: Vec<String>,
    /// Override the machine's reactive page-migration policy for this run
    /// (`None` keeps whatever the [`dsm_machine::MachineConfig`] says).
    pub migration: Option<MigrationPolicy>,
    /// Which execution engine runs the program (bytecode by default; the
    /// tree-walking interpreter is kept as the differential reference).
    pub engine: Engine,
    /// Override the machine's systematic cache-set sampling for this run
    /// (`None` keeps whatever the [`dsm_machine::MachineConfig`] says). Data results
    /// are bit-identical at any rate; only cost estimates differ.
    pub sampling: Option<SamplingConfig>,
    /// Which page mover implements redistribution and team resizing
    /// ([`RedistMode::Scheduled`] by default; [`RedistMode::Naive`] is
    /// the differential oracle).
    pub redist: RedistMode,
    /// Resize the team to this many processors after binding the main
    /// program's declarations and before the first statement executes
    /// (the dynamic-resize entry point for drivers that cannot edit the
    /// source to insert a `c$resize_team` directive). Clamped to the
    /// machine's processor count.
    pub resize_to: Option<usize>,
}

impl Default for ExecOptions {
    /// One processor, everything off.
    fn default() -> Self {
        ExecOptions::new(1)
    }
}

impl ExecOptions {
    /// Run on `nprocs` processors with checks, profiling and captures off.
    pub fn new(nprocs: usize) -> Self {
        ExecOptions {
            nprocs,
            runtime_checks: false,
            max_steps: u64::MAX,
            profile: false,
            captures: Vec::new(),
            migration: None,
            engine: Engine::default(),
            sampling: None,
            redist: RedistMode::default(),
            resize_to: None,
        }
    }

    /// Enable or disable runtime argument checking.
    #[must_use]
    pub fn with_checks(mut self, on: bool) -> Self {
        self.runtime_checks = on;
        self
    }

    /// Does nothing: team members always run one after another, so every
    /// run is deterministic. Kept so that callers written when a threaded
    /// team existed still compile.
    #[must_use]
    pub fn serial_team(self, _on: bool) -> Self {
        self
    }

    /// Enable memory-behavior attribution profiling.
    #[must_use]
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Cap the number of executed statements (runaway-loop valve).
    #[must_use]
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Capture the final contents of these main-program arrays.
    #[must_use]
    pub fn capture(mut self, names: &[&str]) -> Self {
        self.captures = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Run under this reactive page-migration policy (overrides the
    /// machine configuration's).
    #[must_use]
    pub fn migration(mut self, policy: MigrationPolicy) -> Self {
        self.migration = Some(policy);
        self
    }

    /// Select the execution engine ([`Engine::Bytecode`] is the default;
    /// [`Engine::Interp`] is the differential reference).
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Run under systematic cache-set sampling (overrides the machine
    /// configuration's). Rejected at run time if the rate does not fit
    /// the machine's cache geometry.
    #[must_use]
    pub fn sampling(mut self, s: SamplingConfig) -> Self {
        self.sampling = Some(s);
        self
    }

    /// Select the page mover for redistribution and team resizing.
    #[must_use]
    pub fn redist(mut self, mode: RedistMode) -> Self {
        self.redist = mode;
        self
    }

    /// Resize the team to `nprocs` processors before the first statement.
    #[must_use]
    pub fn resize_to(mut self, nprocs: usize) -> Self {
        self.resize_to = Some(nprocs);
        self
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Array index outside its declared extent.
    OutOfBounds {
        /// Array name.
        array: String,
        /// 1-based index values.
        indices: Vec<i64>,
        /// Extents.
        extents: Vec<u64>,
    },
    /// Call of an unknown subroutine (escaped the pre-linker).
    UnknownSubroutine(String),
    /// Wrong argument count or kind at a call.
    BadCall(String),
    /// A runtime check or redistribution failed.
    Runtime(RuntimeError),
    /// Step budget exhausted (runaway loop).
    StepLimit,
    /// Execution options incompatible with the machine (e.g. a sampling
    /// rate the cache geometry cannot support).
    Options(String),
}

impl ExecError {
    /// Stable machine-readable code for this failure kind, used verbatim
    /// in the daemon wire protocol's error replies and exposed through
    /// `DsmError::code` for CLI exit paths. Codes are part of the
    /// protocol: add new ones, never repurpose existing ones.
    pub fn code(&self) -> &'static str {
        match self {
            ExecError::OutOfBounds { .. } => "exec.out-of-bounds",
            ExecError::UnknownSubroutine(_) => "exec.unknown-subroutine",
            ExecError::BadCall(_) => "exec.bad-call",
            ExecError::Runtime(_) => "exec.runtime",
            ExecError::StepLimit => "exec.step-limit",
            ExecError::Options(_) => "exec.options",
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::OutOfBounds {
                array,
                indices,
                extents,
            } => write!(
                f,
                "index {indices:?} out of bounds for `{array}` with extents {extents:?}"
            ),
            ExecError::UnknownSubroutine(n) => write!(f, "call to unknown subroutine `{n}`"),
            ExecError::BadCall(m) => write!(f, "bad call: {m}"),
            ExecError::Runtime(e) => write!(f, "{e}"),
            ExecError::StepLimit => write!(f, "execution step limit exceeded"),
            ExecError::Options(m) => write!(f, "invalid execution options: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<RuntimeError> for ExecError {
    fn from(e: RuntimeError) -> Self {
        ExecError::Runtime(e)
    }
}

/// Run `program` on `machine` under `opts`, returning the full
/// [`RunOutcome`]: the report (with an attribution [`crate::Profile`] when
/// `opts.profile` is set) plus the contents of any captured arrays.
///
/// Dispatches on [`ExecOptions::engine`]: the compiled bytecode engine by
/// default, or the tree-walking interpreter as differential reference.
/// Both produce bit-identical captures and machine counters.
///
/// # Errors
///
/// Returns an [`ExecError`] for out-of-bounds accesses, failed runtime
/// argument checks (when enabled), illegal redistributions, or unresolved
/// calls, or [`ExecError::Options`] when `opts.nprocs` is zero or exceeds
/// the machine's processor count; unknown capture names are returned as
/// empty vectors.
pub fn run_outcome(
    machine: &mut Machine,
    program: &Program,
    opts: &ExecOptions,
) -> Result<RunOutcome, ExecError> {
    run_outcome_with(machine, program, opts, &CodeCache::default())
}

/// [`run_outcome`] for a program that runs many times: the bytecode
/// engine runs on the code `cache` keeps for `program`, lowering it at
/// the first run that needs it (see [`CodeCache`]). The outcome is the
/// one [`run_outcome`] produces.
///
/// # Errors
///
/// As [`run_outcome`].
pub fn run_outcome_with(
    machine: &mut Machine,
    program: &Program,
    opts: &ExecOptions,
    cache: &CodeCache,
) -> Result<RunOutcome, ExecError> {
    match opts.engine {
        Engine::Bytecode => crate::engine::run_bytecode(machine, program, opts, cache),
        Engine::Interp => run_interp(machine, program, opts),
    }
}

/// The tree walker's private state: the program, to resolve calls.
struct Tree<'p> {
    program: &'p Program,
}

/// The tree-walking reference engine behind [`Engine::Interp`].
fn run_interp(
    machine: &mut Machine,
    program: &Program,
    opts: &ExecOptions,
) -> Result<RunOutcome, ExecError> {
    let main = program.main_sub();
    team::run(
        machine,
        program,
        opts,
        Tree { program },
        Frame::new(main),
        |rs, frame, ctx| rs.exec_block(&main.body, main, frame, ctx),
    )
}

impl team::Engine for Tree<'_> {
    type Handle = ();

    fn eval_bounds(
        rs: &mut RunState<'_, Self>,
        site: LoopSite<'_, ()>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(i64, i64, i64), ExecError> {
        let lb = rs.eval(&site.l.lb, site.sub, frame, ctx)?.as_i();
        let ub = rs.eval(&site.l.ub, site.sub, frame, ctx)?.as_i();
        let step = rs.eval(&site.l.step, site.sub, frame, ctx)?.as_i();
        Ok((lb, ub, step))
    }

    fn run_body(
        rs: &mut RunState<'_, Self>,
        site: LoopSite<'_, ()>,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        rs.exec_block(&site.l.body, site.sub, frame, ctx)
    }

    /// The reference engine charges at once; there is nothing to flush.
    fn charge(rs: &mut RunState<'_, Self>, proc: ProcId, cycles: u64) {
        rs.mach.charge(proc, cycles);
    }

    fn flush(_rs: &mut RunState<'_, Self>, _proc: ProcId) {}
}

impl RunState<'_, Tree<'_>> {
    fn exec_block(
        &mut self,
        body: &[Stmt],
        sub: &Subroutine,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        for st in body {
            self.exec_stmt(st, sub, frame, ctx)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        st: &Stmt,
        sub: &Subroutine,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(ExecError::StepLimit);
        }
        match st {
            Stmt::SAssign { var, value } => {
                let v = self.eval(value, sub, frame, ctx)?;
                frame.scalars[var.0] = v.coerce(sub.scalars[var.0].ty);
                Ok(())
            }
            Stmt::Assign {
                array,
                indices,
                value,
                mode,
            } => {
                let v = self.eval(value, sub, frame, ctx)?;
                let addr = self.element_addr(*array, indices, *mode, sub, frame, ctx)?;
                match sub.arrays[array.0].ty {
                    ScalarTy::Real => {
                        self.mach.write_f64(ctx.proc, addr, v.as_f());
                    }
                    ScalarTy::Int => {
                        self.mach.write_i64(ctx.proc, addr, v.as_i());
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, sub, frame, ctx)?;
                self.mach.charge(ctx.proc, self.costs.int_alu);
                if c.is_true() {
                    self.exec_block(then_body, sub, frame, ctx)
                } else {
                    self.exec_block(else_body, sub, frame, ctx)
                }
            }
            Stmt::Loop(l) => {
                let site = LoopSite { l, sub, h: () };
                if l.par.is_some() {
                    self.doacross(site, frame, ctx)
                } else {
                    self.serial_loop(site, frame, ctx)
                }
            }
            Stmt::Call { name, args } => self.exec_call(name, args, sub, frame, ctx),
            Stmt::Redistribute { array, dist } => {
                self.redistribute(frame.arrays[array.0], dist, ctx.proc)
            }
            Stmt::ResizeTeam { nprocs } => self.resize_team(*nprocs as usize, ctx.proc),
            Stmt::Barrier => {
                // Explicit barriers only make sense between regions; in
                // this serialized interpreter they only cost time.
                self.mach.charge(ctx.proc, self.costs.barrier);
                Ok(())
            }
            Stmt::Overhead {
                int_divs,
                indirect_loads,
                int_alu,
            } => {
                let c = &self.costs;
                let cost = u64::from(*int_divs) * c.int_div
                    + u64::from(*indirect_loads) * (c.l1_hit + c.int_alu)
                    + u64::from(*int_alu) * c.int_alu;
                self.mach.charge(ctx.proc, cost);
                Ok(())
            }
        }
    }

    // -----------------------------------------------------------------
    // Calls.
    // -----------------------------------------------------------------

    fn exec_call(
        &mut self,
        name: &str,
        args: &[ActualArg],
        sub: &Subroutine,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<(), ExecError> {
        let program = self.eng.program;
        let Some(callee_id) = program.sub_named(name) else {
            return Err(ExecError::UnknownSubroutine(name.to_string()));
        };
        let callee: &Subroutine = &program.subs[callee_id.0];
        if callee.params.len() != args.len() {
            return Err(ExecError::BadCall(format!(
                "`{name}` expects {} arguments, got {}",
                callee.params.len(),
                args.len()
            )));
        }
        let mut callee_frame = Frame::new(callee);
        let mut call = CallBinding::default();
        for (pos, (param, actual)) in callee.params.iter().zip(args).enumerate() {
            match (param, actual) {
                (Param::Scalar(v), ActualArg::Scalar(e)) => {
                    let val = self.eval(e, sub, frame, ctx)?;
                    callee_frame.scalars[v.0] = val.coerce(callee.scalars[v.0].ty);
                }
                (Param::Array(a), ActualArg::Array(actual_id)) => {
                    let reshaped = sub.arrays[actual_id.0].dist_kind == DistKind::Reshaped;
                    let inst = frame.arrays[actual_id.0];
                    self.bind_whole(&mut call, a.0, inst, reshaped, ctx.proc);
                }
                (Param::Array(a), ActualArg::ArrayElem(actual_id, idx)) => {
                    let addr =
                        self.element_addr(*actual_id, idx, AddrMode::Direct, sub, frame, ctx)?;
                    let reshaped = sub.arrays[actual_id.0].dist_kind == DistKind::Reshaped;
                    // The checker wants the element's indices; evaluating
                    // them a second time charges a second time.
                    let idx0 = if self.checks_actual(reshaped) {
                        Some(self.index_values(*actual_id, idx, sub, frame, ctx)?)
                    } else {
                        None
                    };
                    self.bind_element(
                        &mut call,
                        &callee.arrays[a.0],
                        a.0,
                        frame.arrays[actual_id.0],
                        idx0.as_deref(),
                        addr,
                        &callee_frame,
                        ctx.proc,
                    );
                }
                (Param::Scalar(_), _) => {
                    return Err(ExecError::BadCall(format!(
                        "argument {} of `{name}` must be a scalar",
                        pos + 1
                    )));
                }
                (Param::Array(_), ActualArg::Scalar(_)) => {
                    return Err(ExecError::BadCall(format!(
                        "argument {} of `{name}` must be an array",
                        pos + 1
                    )));
                }
            }
        }
        self.enter_callee(&mut call, callee, &mut callee_frame, ctx.proc)?;
        let mut callee_ctx = *ctx;
        self.exec_block(&callee.body, callee, &mut callee_frame, &mut callee_ctx)?;
        self.leave_callee(call);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Expressions.
    // -----------------------------------------------------------------

    fn eval(
        &mut self,
        e: &Expr,
        sub: &Subroutine,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<Value, ExecError> {
        let (v, cost) = match e {
            Expr::IConst(v) => return Ok(Value::I(*v)),
            Expr::FConst(v) => return Ok(Value::F(*v)),
            Expr::Var(v) => return Ok(frame.scalars[v.0]),
            Expr::Rt(rt) => return Ok(self.eval_rt(*rt, frame)),
            Expr::Unary(op, x) => {
                let v = self.eval(x, sub, frame, ctx)?;
                un_op(*op, v, &self.costs)
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, sub, frame, ctx)?;
                let vb = self.eval(b, sub, frame, ctx)?;
                bin_op(*op, va, vb, &self.costs)?
            }
            Expr::Call(intr, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, sub, frame, ctx)?);
                }
                intrinsic(*intr, &vals, &self.costs)?
            }
            Expr::Load {
                array,
                indices,
                mode,
            } => {
                let addr = self.element_addr(*array, indices, *mode, sub, frame, ctx)?;
                return Ok(match sub.arrays[array.0].ty {
                    ScalarTy::Real => Value::F(self.mach.read_f64(ctx.proc, addr).0),
                    ScalarTy::Int => Value::I(self.mach.read_i64(ctx.proc, addr).0),
                });
            }
        };
        self.mach.charge(ctx.proc, cost);
        Ok(v)
    }

    fn eval_rt(&self, rt: RtExpr, frame: &Frame) -> Value {
        let dim_of = |array: dsm_ir::ArrayId, dim: usize| {
            &self.binder.get(frame.arrays[array.0]).desc.dims[dim]
        };
        Value::I(match rt {
            RtExpr::NumThreads => self.team as i64,
            RtExpr::NProcs { array, dim } => dim_of(array, dim).nprocs as i64,
            RtExpr::BlockSize { array, dim } => dim_of(array, dim).chunk as i64,
        })
    }

    // -----------------------------------------------------------------
    // Addressing.
    // -----------------------------------------------------------------

    /// Evaluate indices to 0-based values with bounds checking.
    fn index_values(
        &mut self,
        array: dsm_ir::ArrayId,
        indices: &[Expr],
        sub: &Subroutine,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<Vec<u64>, ExecError> {
        let mut vals = Vec::with_capacity(indices.len());
        for ix in indices {
            vals.push(self.eval(ix, sub, frame, ctx)?.as_i());
        }
        let inst = frame.arrays[array.0];
        let desc = &self.binder.get(inst).desc;
        let mut out = Vec::with_capacity(vals.len());
        for (d, &v) in desc.dims.iter().zip(&vals) {
            if v < 1 || v as u64 > d.extent {
                return Err(ExecError::OutOfBounds {
                    array: sub.arrays[array.0].name.clone(),
                    indices: vals.clone(),
                    extents: desc.extents(),
                });
            }
            out.push((v - 1) as u64);
        }
        Ok(out)
    }

    /// Compute an element's address, charging the addressing overhead of
    /// the reference's [`AddrMode`].
    fn element_addr(
        &mut self,
        array: dsm_ir::ArrayId,
        indices: &[Expr],
        mode: AddrMode,
        sub: &Subroutine,
        frame: &mut Frame,
        ctx: &mut Ctx,
    ) -> Result<u64, ExecError> {
        let idx0 = self.index_values(array, indices, sub, frame, ctx)?;
        let c = self.costs;
        let arr = self.binder.get(frame.arrays[array.0]);
        // Attribute this element access — and the addressing loads below —
        // to (array, enclosing region). Index evaluation above already
        // tagged any nested loads with their own arrays.
        if self.opts.profile {
            let tag = AccessTag {
                sym: arr.sym,
                region: ctx.region,
            };
            self.mach.set_tag(ctx.proc, tag);
        }
        // The owner's portion-pointer slot is loaded by the raw, tiled
        // and shared-div modes only (`None` for contiguous layouts).
        let (addr, owner) = arr.locate(&idx0);
        let n_dist = arr.desc.distributed.len().max(1) as u64;
        let slot = arr.ptr_slot_addr(owner);
        match mode {
            AddrMode::Direct | AddrMode::ReshapedHoisted | AddrMode::ReshapedSharedAll => {
                // Strength-reduced column-major walk: one address add.
                self.mach.charge(ctx.proc, c.int_alu);
            }
            AddrMode::ReshapedRaw | AddrMode::ReshapedRawFp => {
                // One divide per distributed dimension — a MIPS `div`
                // leaves quotient *and* remainder in LO/HI, so the
                // Table-1 div+mod pair is a single unpipelined divide plus
                // register moves — and the indirect portion-pointer load.
                let div = if mode == AddrMode::ReshapedRaw {
                    c.int_div
                } else {
                    c.fp_emulated_div
                };
                let addressing = n_dist * (div + c.int_alu) + 2 * c.int_alu;
                self.mach.charge(ctx.proc, addressing);
                if let Some(slot) = slot {
                    self.mach.access(ctx.proc, slot, AccessKind::Read);
                }
            }
            AddrMode::ReshapedTiled | AddrMode::ReshapedSharedDiv => {
                // No div/mod, but the pointer is re-loaded every access
                // (indirect loads cannot be speculated / were CSE-shared
                // only for the divide).
                self.mach.charge(ctx.proc, 2 * c.int_alu);
                if let Some(slot) = slot {
                    self.mach.access(ctx.proc, slot, AccessKind::Read);
                }
            }
        }
        Ok(addr)
    }
}
