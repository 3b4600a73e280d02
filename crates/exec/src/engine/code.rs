//! Bytecode format and compiler.
//!
//! Each subroutine lowers to one flat [`Op`] stream over a register file
//! that extends the subroutine's scalar frame: registers `0..n_scalars`
//! *are* the scalars (so `Var` reads cost nothing), followed by four
//! persistent registers per serial loop (normalized bounds and the
//! iteration counter) and a per-statement temporary window.
//!
//! Control constructs that need runtime machinery the opcode stream
//! cannot express — parallel regions, calls, redistribution, loop kernels —
//! compile to one-word ops indexing side tables; their expression operands
//! (loop bounds, call arguments) compile to out-of-line blocks terminated
//! by [`Op::Halt`] that the VM runs on demand, preserving the
//! interpreter's exact evaluation order.
//!
//! Lowered code holds no reference into the IR, so it can be kept beside
//! its program and shared by every run of it (`super::CodeCache`): a side
//! table names a subroutine by index and a loop by its [`loop_at`] path,
//! both resolved through the `&Program` each run is handed.
//!
//! Statement-level static costs (barriers, hoisted [`Stmt::Overhead`]
//! bookkeeping) and the statement count of each straight-line segment are
//! aggregated into a single leading [`Op::Charge`], so the hot path pays
//! one addition where the interpreter paid a dispatch per statement.

use std::sync::OnceLock;

use dsm_ir::{
    ActualArg, AddrMode, BinOp, DistKind, Distribution, Expr, Intrinsic, LoopStmt, Param, Program,
    RtExpr, ScalarTy, Stmt, Subroutine, UnOp,
};

use crate::value::Costs;

use super::kernel::{kernel_shaped, Kernel};

/// Register index into the extended frame.
pub(crate) type Reg = u16;

/// A slice of the per-subroutine register pool (operand lists).
///
/// `start` doubles as the reference **site** of the `Load`/`Store`/element
/// actual the list belongs to: lists never overlap, so it is unique per
/// site within the subroutine, and the VM keys the site's tile hint by it
/// (see [`SubCode::hint_base`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ListRef {
    pub start: u32,
    pub len: u16,
}

// `ProgramCode::compile` lowers every subroutine of the program, called or
// not, once per program and cost table, and the code stays resident while
// the program does (a `dsmd` cache entry). So on `dsmd`'s 60 KB bodies the
// op stream's size is first-request latency and cache memory: a 24-byte
// `Op` (a `site: u32` on `Load`/`Store`) alone took the `daemon_mix`
// benchmark, when it still lowered per request, from 3.2 to 2.2 kreq/s
// and its tail from 1.7 to 3.7 ms.  New per-op state goes in a side
// table, or is keyed by something the op already carries.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// One opcode.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// End of a block (main body or out-of-line block).
    Halt,
    /// Unconditional jump.
    Jump { target: u32 },
    /// `if`: charge one ALU op, fall through when `cond` is true, else
    /// jump to `else_target`.
    Branch { cond: Reg, else_target: u32 },
    /// Load an integer literal.
    ConstI { dst: Reg, v: i64 },
    /// Load a real literal.
    ConstF { dst: Reg, v: f64 },
    /// Register copy (untyped, cost-free — materializes loop bounds).
    Mov { dst: Reg, src: Reg },
    /// `dst = I(src.as_i())` — scalar-assign coercion to `integer`.
    CoerceI { dst: Reg, src: Reg },
    /// `dst = F(src.as_f())` — scalar-assign coercion to `real*8`.
    CoerceF { dst: Reg, src: Reg },
    /// Unary operator (one ALU op).
    Un { op: UnOp, dst: Reg, src: Reg },
    /// Binary operator (cost from operand types, as the interpreter).
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = a op k`: [`Op::Bin`] whose right operand is the integer
    /// literal `k` — the same `bin_op` call (value, cost, error) with one
    /// dispatch fewer than `ConstI` + `Bin`.
    BinRI { op: BinOp, dst: Reg, a: Reg, k: i64 },
    /// `dst = a op k`, real literal.
    BinRF { op: BinOp, dst: Reg, a: Reg, k: f64 },
    /// `dst = k op b`: integer literal on the left.
    BinIR { op: BinOp, dst: Reg, k: i64, b: Reg },
    /// `dst = k op b`, real literal.
    BinFR { op: BinOp, dst: Reg, k: f64, b: Reg },
    /// Intrinsic call over an operand list.
    Intr { intr: Intrinsic, dst: Reg, args: ListRef },
    /// Runtime distribution query (`NProcs` / `BlockSize`).
    RtDim {
        dst: Reg,
        array: u16,
        dim: u16,
        block: bool,
    },
    /// Segment prologue: add the aggregated static cycle cost of the
    /// following straight-line statements and count their steps.
    Charge { cycles: u64, steps: u32 },
    /// Array element load: locate the index registers through the
    /// interned plan and this site's tile hint (bounds check included),
    /// charge the [`AddrMode`] overhead, perform the access.
    Load {
        dst: Reg,
        array: u16,
        idx: ListRef,
        mode: AddrMode,
        is_f: bool,
    },
    /// Array element store (value register evaluated first, as the
    /// interpreter evaluates the RHS before the address).
    Store {
        src: Reg,
        array: u16,
        idx: ListRef,
        mode: AddrMode,
        is_f: bool,
    },
    /// Serial loop entry: validate the step, normalize bounds to
    /// integers, enter the first iteration (or jump to `exit`).
    LoopHead {
        var: Reg,
        lb: Reg,
        ub: Reg,
        step: Reg,
        cur: Reg,
        exit: u32,
    },
    /// Serial loop back-edge: advance the private iteration counter
    /// (immune to body writes of the loop variable) and loop or fall out.
    LoopNext {
        var: Reg,
        cur: Reg,
        ub: Reg,
        step: Reg,
        back: u32,
    },
    /// Loop-kernel fast path: if this entry of the loop meets the
    /// kernel's preconditions, run the whole loop as a stream kernel and
    /// jump to `exit`; otherwise fall through to the generic `LoopHead`
    /// at the next op.
    Kernel { idx: u16, exit: u32 },
    /// Parallel region (doacross) — side-table index.
    Fork { idx: u16 },
    /// Subroutine call — side-table index.
    CallSub { idx: u16 },
    /// `c$redistribute` — side-table index.
    Redist { idx: u16 },
    /// `c$resize_team` — side-table index (the new team size lives in
    /// the table so the op stays one word).
    Resize { idx: u16 },
    /// `$numthreads` — reads the VM's *current* team size (dynamic:
    /// `resize_team` changes it mid-run, so it cannot be baked as a
    /// constant at compile time).
    NumThreads { dst: Reg },
}

/// An out-of-line expression block: run from `pc` to its `Halt`, result
/// in `reg`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ExprBlock {
    pub pc: u32,
    pub reg: Reg,
}

/// Side table of one doacross.
#[derive(Debug)]
pub(crate) struct ParLoop {
    /// The loop statement's [`loop_at`] path in its subroutine.
    pub path: Box<[u32]>,
    pub lb: ExprBlock,
    pub ub: ExprBlock,
    pub step: ExprBlock,
    /// Body block (leading `Charge` carries the body statics and steps;
    /// per-iteration loop overhead is charged by the chunk runner).
    pub body_pc: u32,
}

/// One compiled actual argument.
#[derive(Debug)]
pub(crate) enum ArgCode {
    /// Scalar actual → callee scalar `var` (coerced by its declared
    /// type).
    Scalar { block: ExprBlock, var: u16 },
    /// Whole-array actual → callee formal (same instance).
    Array {
        caller: u16,
        callee: u16,
        caller_reshaped: bool,
    },
    /// Array-element actual → callee formal bound to a view at the
    /// element's address.
    Elem {
        caller: u16,
        callee: u16,
        idx_pc: u32,
        idx: ListRef,
        caller_reshaped: bool,
    },
}

/// Side table of one call site.
#[derive(Debug)]
pub(crate) struct CallCode {
    /// Resolved callee index, or the name of a subroutine the program
    /// lacks (`UnknownSubroutine` at execution, as the interpreter).
    pub callee: Result<usize, Box<str>>,
    /// Arguments up to the first kind mismatch (the interpreter
    /// processes — and charges — the preceding arguments before
    /// erroring).
    pub args: Vec<ArgCode>,
    /// Arity or kind-mismatch error raised after processing `args`.
    pub fail: Option<String>,
}

/// Side table of one kernel-shaped serial loop ([`kernel_shaped`]).
#[derive(Debug)]
pub(crate) struct KernelSite {
    /// The loop statement's [`loop_at`] path in its subroutine.
    pub path: Box<[u32]>,
    /// The loop variable.
    pub var: Reg,
    pub lb: Reg,
    pub ub: Reg,
    pub step: Reg,
    /// The pool positions of the body's operand lists, i.e. the hint-table
    /// entries of the body's reference sites: the kernel's cursors — the
    /// same references — keep their tile hints there.
    pub sites: std::ops::Range<u32>,
    /// Built at the loop's first execution, not at lowering: most loops of
    /// a large program never run. The code is kept across runs, so the
    /// kernel one run builds serves every later one.
    kernel: OnceLock<Result<Kernel, &'static str>>,
}

impl KernelSite {
    /// The loop's kernel, or why it has none; `sub` is the subroutine the
    /// site was lowered from.
    pub fn kernel(&self, sub: &Subroutine, costs: &Costs) -> Result<&Kernel, &'static str> {
        let built = self.kernel.get_or_init(|| {
            let k = Kernel::build(loop_at(&sub.body, &self.path), sub, costs)?;
            if k.cursors.len() > self.sites.len() {
                return Err("more cursors than reference sites");
            }
            Ok(k)
        });
        built.as_ref().map_err(|why| *why)
    }
}

/// Side table of one redistribute statement.
#[derive(Debug)]
pub(crate) struct RedistCode {
    pub array: u16,
    pub dist: Distribution,
}

/// One compiled subroutine.
#[derive(Debug)]
pub(crate) struct SubCode {
    /// The subroutine's index in `program.subs`.
    pub sub: usize,
    pub ops: Vec<Op>,
    pub pool: Vec<Reg>,
    /// Position of this subroutine's site 0 in the VM's hint table (the
    /// pool lengths of the subroutines before it).
    pub hint_base: usize,
    pub n_regs: usize,
    pub par_loops: Vec<ParLoop>,
    pub calls: Vec<CallCode>,
    pub kernels: Vec<KernelSite>,
    pub redists: Vec<RedistCode>,
    /// New team size of each `resize_team` statement, in program order.
    pub resizes: Vec<u64>,
}

/// The whole program, compiled (indexed like `program.subs`).
#[derive(Debug)]
pub(crate) struct ProgramCode {
    pub subs: Vec<SubCode>,
    /// Hint-table length: one entry per pool position of every
    /// subroutine.
    pub n_sites: usize,
    /// The cost table baked into the stream and the kernels: the only
    /// machine input lowering reads (the team size is *not* baked —
    /// `resize_team` changes it mid-run, so team-dependent values stay
    /// dynamic).
    pub costs: Costs,
}

impl ProgramCode {
    /// Lower every subroutine of `program` under the cost table `costs`.
    pub fn compile(program: &Program, costs: Costs) -> ProgramCode {
        let mut n_sites = 0;
        let subs = (program.subs.iter().enumerate())
            .map(|(id, s)| {
                let sc = SubCompiler::compile(id, s, program, costs, n_sites);
                n_sites += sc.pool.len();
                sc
            })
            .collect();
        let code = ProgramCode {
            subs,
            n_sites,
            costs,
        };
        if dump_ops() {
            code.dump(program);
        }
        code
    }

    /// The `DSM_DUMP_OPS` listing: every subroutine's op stream and side
    /// tables, and every kernel-shaped loop's kernel — built here, for the
    /// listing — or the reason it only ever runs generically.
    fn dump(&self, program: &Program) {
        for sc in &self.subs {
            let sub = &program.subs[sc.sub];
            eprintln!("=== {} (n_regs {}) ===", sub.name, sc.n_regs);
            for (pc, op) in sc.ops.iter().enumerate() {
                eprintln!("{pc:4}: {op:?}");
            }
            for (i, pl) in sc.par_loops.iter().enumerate() {
                eprintln!(
                    "par {i}: lb={:?} ub={:?} step={:?} body_pc={}",
                    pl.lb, pl.ub, pl.step, pl.body_pc
                );
            }
            for (i, site) in sc.kernels.iter().enumerate() {
                match site.kernel(sub, &self.costs) {
                    Ok(k) => eprint!(
                        "kernel {i}: {}",
                        k.listing(sub, loop_at(&sub.body, &site.path))
                    ),
                    Err(why) => eprintln!("kernel {i}: generic loop only: {why}"),
                }
            }
        }
    }
}

/// The loop statement at `path` in a subroutine `body`. Each step of the
/// path indexes one block: the subroutine's body first, then the body of
/// the loop reached so far, or the `if` reached so far's then-branch
/// followed by its else-branch.
///
/// # Panics
///
/// Panics unless `path` was recorded by lowering this same body.
pub(crate) fn loop_at<'p>(body: &'p [Stmt], path: &[u32]) -> &'p LoopStmt {
    let (&first, rest) = path.split_first().expect("a loop path is not empty");
    let mut st = &body[first as usize];
    for &i in rest {
        let i = i as usize;
        st = match st {
            Stmt::Loop(l) => &l.body[i],
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body
                .get(i)
                .unwrap_or_else(|| &else_body[i - then_body.len()]),
            _ => unreachable!("a loop path steps into a simple statement"),
        };
    }
    match st {
        Stmt::Loop(l) => l,
        _ => unreachable!("a loop path ends at a statement that is not a loop"),
    }
}

/// Whether `DSM_DUMP_OPS` is set, read once per process.
fn dump_ops() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("DSM_DUMP_OPS").is_some())
}

/// Fixed cycle cost of a statement that compiles to no ops of its own
/// (`Barrier`, hoisted `Overhead`); zero for everything else.
pub(crate) fn static_cost(st: &Stmt, costs: &Costs) -> u64 {
    match st {
        Stmt::Barrier => costs.barrier,
        Stmt::Overhead {
            int_divs,
            indirect_loads,
            int_alu,
        } => {
            u64::from(*int_divs) * costs.int_div
                + u64::from(*indirect_loads) * (costs.l1_hit + costs.int_alu)
                + u64::from(*int_alu) * costs.int_alu
        }
        _ => 0,
    }
}

/// Deferred out-of-line block, emitted after the main stream.
enum Deferred<'p> {
    Expr { e: &'p Expr, slot: Slot },
    Body { body: &'p [Stmt], slot: Slot },
    ExprList { exprs: &'p [Expr], slot: Slot },
}

/// Where a deferred block's location is recorded once emitted.
enum Slot {
    ParLb(usize),
    ParUb(usize),
    ParStep(usize),
    ParBody(usize),
    CallScalar { call: usize, arg: usize },
    CallElem { call: usize, arg: usize },
}

struct SubCompiler<'p> {
    sub: &'p Subroutine,
    program: &'p Program,
    costs: Costs,
    ops: Vec<Op>,
    pool: Vec<Reg>,
    par_loops: Vec<ParLoop>,
    calls: Vec<CallCode>,
    kernels: Vec<KernelSite>,
    redists: Vec<RedistCode>,
    resizes: Vec<u64>,
    /// The [`loop_at`] path of the statement being compiled.
    path: Vec<u32>,
    /// First temporary register (scalars + persistent loop registers).
    tmp_base: u16,
    /// Next temporary within the current statement.
    next_tmp: u16,
    /// High-water mark of the temporary window.
    max_tmp: u16,
    /// Persistent-register allocator for serial loops (4 each).
    next_loop: u16,
    deferred: Vec<Deferred<'p>>,
}

impl<'p> SubCompiler<'p> {
    fn compile(
        id: usize,
        sub: &'p Subroutine,
        program: &'p Program,
        costs: Costs,
        hint_base: usize,
    ) -> SubCode {
        // Pre-pass: every serial loop anywhere in the subroutine gets
        // four persistent registers (bounds survive across its body).
        let mut serial_loops = 0u32;
        for st in &sub.body {
            st.walk(&mut |s| {
                if let Stmt::Loop(l) = s {
                    if l.par.is_none() {
                        serial_loops += 1;
                    }
                }
            });
        }
        let tmp_base = sub.scalars.len() + 4 * serial_loops as usize;
        assert!(tmp_base < u16::MAX as usize, "register file overflow");
        let mut c = SubCompiler {
            sub,
            program,
            costs,
            ops: Vec::new(),
            pool: Vec::new(),
            par_loops: Vec::new(),
            calls: Vec::new(),
            kernels: Vec::new(),
            redists: Vec::new(),
            resizes: Vec::new(),
            path: Vec::new(),
            tmp_base: tmp_base as u16,
            next_tmp: 0,
            max_tmp: 0,
            next_loop: 0,
            deferred: Vec::new(),
        };
        c.block(&sub.body, 0);
        c.ops.push(Op::Halt);
        while let Some(d) = c.deferred.pop() {
            c.emit_deferred(d);
        }
        let n_regs = tmp_base + c.max_tmp as usize;
        assert!(n_regs <= u16::MAX as usize + 1, "register file overflow");
        SubCode {
            sub: id,
            ops: c.ops,
            pool: c.pool,
            hint_base,
            n_regs,
            par_loops: c.par_loops,
            calls: c.calls,
            kernels: c.kernels,
            redists: c.redists,
            resizes: c.resizes,
        }
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { target: t } | Op::Branch { else_target: t, .. } => *t = target,
            Op::LoopHead { exit, .. } | Op::Kernel { exit, .. } => *exit = target,
            _ => unreachable!("patch target is not a jump"),
        }
    }

    fn tmp(&mut self) -> Reg {
        let r = self.tmp_base + self.next_tmp;
        self.next_tmp += 1;
        self.max_tmp = self.max_tmp.max(self.next_tmp);
        r
    }

    fn list(&mut self, regs: &[Reg]) -> ListRef {
        let start = self.pool.len() as u32;
        self.pool.extend_from_slice(regs);
        ListRef {
            start,
            len: regs.len() as u16,
        }
    }

    /// A statement list: one aggregated `Charge` (statics + step count),
    /// then the statements.
    ///
    /// Static costs are folded into the entry charge only up to the
    /// first compound statement (`Loop`/`If`/`Call`/`Redistribute`).
    /// A compound statement can contain a parallel region, and its join
    /// levels every member to the executing proc's clock — so a barrier
    /// or overhead cost hoisted from *after* the region to block entry
    /// would be broadcast to the whole team. Past that point each
    /// static cost is charged at its program position, matching the
    /// interpreter's placement exactly.
    ///
    /// `first` is `body[0]`'s [`loop_at`] path step (an else-branch's
    /// statements follow its then-branch's).
    fn block(&mut self, body: &'p [Stmt], first: usize) {
        let compound = |st: &Stmt| {
            matches!(
                st,
                Stmt::Loop(_)
                    | Stmt::If { .. }
                    | Stmt::Call { .. }
                    | Stmt::Redistribute { .. }
                    | Stmt::ResizeTeam { .. }
            )
        };
        let boundary = body.iter().position(compound).unwrap_or(body.len());
        let steps = body.len() as u32;
        let cycles: u64 = body[..boundary].iter().map(|st| static_cost(st, &self.costs)).sum();
        if cycles > 0 || steps > 0 {
            self.emit(Op::Charge { cycles, steps });
        }
        for (i, st) in body.iter().enumerate() {
            if i > boundary {
                let cycles = static_cost(st, &self.costs);
                if cycles > 0 {
                    self.emit(Op::Charge { cycles, steps: 0 });
                }
            }
            self.path.push((first + i) as u32);
            self.stmt(st);
            self.path.pop();
        }
    }

    fn stmt(&mut self, st: &'p Stmt) {
        self.next_tmp = 0;
        match st {
            Stmt::SAssign { var, value } => {
                let r = self.expr(value);
                let dst = var.0 as Reg;
                match self.sub.scalars[var.0].ty {
                    ScalarTy::Int => self.emit(Op::CoerceI { dst, src: r }),
                    ScalarTy::Real => self.emit(Op::CoerceF { dst, src: r }),
                };
            }
            Stmt::Assign {
                array,
                indices,
                value,
                mode,
            } => {
                let src = self.expr(value);
                let idx = self.expr_list(indices);
                self.emit(Op::Store {
                    src,
                    array: array.0 as u16,
                    idx,
                    mode: *mode,
                    is_f: self.sub.arrays[array.0].ty == ScalarTy::Real,
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond);
                let br = self.emit(Op::Branch {
                    cond: c,
                    else_target: 0,
                });
                self.block(then_body, 0);
                let j = self.emit(Op::Jump { target: 0 });
                let else_pc = self.here();
                self.patch(br, else_pc);
                self.block(else_body, then_body.len());
                let end = self.here();
                self.patch(j, end);
            }
            Stmt::Loop(l) => match &l.par {
                None => self.serial_loop(l),
                Some(_) => {
                    let idx = self.par_loops.len();
                    self.par_loops.push(ParLoop {
                        path: self.path.as_slice().into(),
                        lb: ExprBlock::default(),
                        ub: ExprBlock::default(),
                        step: ExprBlock::default(),
                        body_pc: 0,
                    });
                    self.deferred.push(Deferred::Expr {
                        e: &l.lb,
                        slot: Slot::ParLb(idx),
                    });
                    self.deferred.push(Deferred::Expr {
                        e: &l.ub,
                        slot: Slot::ParUb(idx),
                    });
                    self.deferred.push(Deferred::Expr {
                        e: &l.step,
                        slot: Slot::ParStep(idx),
                    });
                    self.deferred.push(Deferred::Body {
                        body: &l.body,
                        slot: Slot::ParBody(idx),
                    });
                    self.emit(Op::Fork { idx: idx as u16 });
                }
            },
            Stmt::Call { name, args } => {
                let idx = self.compile_call(name, args);
                self.emit(Op::CallSub { idx: idx as u16 });
            }
            Stmt::Redistribute { array, dist } => {
                let idx = self.redists.len();
                self.redists.push(RedistCode {
                    array: array.0 as u16,
                    dist: dist.clone(),
                });
                self.emit(Op::Redist { idx: idx as u16 });
            }
            Stmt::ResizeTeam { nprocs } => {
                let idx = self.resizes.len();
                self.resizes.push(*nprocs);
                self.emit(Op::Resize { idx: idx as u16 });
            }
            // Folded into the enclosing segment's `Charge`.
            Stmt::Barrier | Stmt::Overhead { .. } => {}
        }
    }

    fn serial_loop(&mut self, l: &'p LoopStmt) {
        let base = self.sub.scalars.len() as u16 + 4 * self.next_loop;
        self.next_loop += 1;
        let (lb_r, ub_r, step_r, cur_r) = (base, base + 1, base + 2, base + 3);
        // Bounds evaluate in interpreter order: lb, ub, step.
        let r = self.expr(&l.lb);
        self.emit(Op::Mov { dst: lb_r, src: r });
        let r = self.expr(&l.ub);
        self.emit(Op::Mov { dst: ub_r, src: r });
        let r = self.expr(&l.step);
        self.emit(Op::Mov {
            dst: step_r,
            src: r,
        });
        let kernel_at = (kernel_shaped(l).then(|| u16::try_from(self.kernels.len()).ok()))
            .flatten()
            .map(|idx| {
                self.kernels.push(KernelSite {
                    path: self.path.as_slice().into(),
                    var: l.var.0 as Reg,
                    lb: lb_r,
                    ub: ub_r,
                    step: step_r,
                    sites: 0..0,
                    kernel: OnceLock::new(),
                });
                (idx, self.emit(Op::Kernel { idx, exit: 0 }))
            });
        let head = self.emit(Op::LoopHead {
            var: l.var.0 as Reg,
            lb: lb_r,
            ub: ub_r,
            step: step_r,
            cur: cur_r,
            exit: 0,
        });
        let body_start = self.here();
        let first_site = self.pool.len() as u32;
        self.block(&l.body, 0);
        self.emit(Op::LoopNext {
            var: l.var.0 as Reg,
            cur: cur_r,
            ub: ub_r,
            step: step_r,
            back: body_start,
        });
        let exit = self.here();
        self.patch(head, exit);
        if let Some((idx, at)) = kernel_at {
            self.kernels[idx as usize].sites = first_site..self.pool.len() as u32;
            self.patch(at, exit);
        }
    }

    /// Emit the op `f` builds around a fresh result temporary.
    fn emit_to(&mut self, f: impl FnOnce(Reg) -> Op) -> Reg {
        let dst = self.tmp();
        self.emit(f(dst));
        dst
    }

    fn expr(&mut self, e: &'p Expr) -> Reg {
        match e {
            Expr::IConst(v) => self.emit_to(|dst| Op::ConstI { dst, v: *v }),
            Expr::FConst(v) => self.emit_to(|dst| Op::ConstF { dst, v: *v }),
            Expr::Var(v) => v.0 as Reg,
            Expr::Rt(rt) => self.emit_to(|dst| match rt {
                RtExpr::NumThreads => Op::NumThreads { dst },
                RtExpr::NProcs { array, dim } => Op::RtDim {
                    dst,
                    array: array.0 as u16,
                    dim: *dim as u16,
                    block: false,
                },
                RtExpr::BlockSize { array, dim } => Op::RtDim {
                    dst,
                    array: array.0 as u16,
                    dim: *dim as u16,
                    block: true,
                },
            }),
            Expr::Unary(op, x) => {
                let src = self.expr(x);
                self.emit_to(|dst| Op::Un { op: *op, dst, src })
            }
            // A literal operand rides in the op (tried on the right
            // first). Literals cost nothing and have no side effect, so
            // the other operand evaluates exactly as it did beside a
            // `ConstI`/`ConstF`.
            Expr::Binary(op, a, b) => {
                let op = *op;
                match (&**a, &**b) {
                    (_, &Expr::IConst(k)) => {
                        let a = self.expr(a);
                        self.emit_to(|dst| Op::BinRI { op, dst, a, k })
                    }
                    (_, &Expr::FConst(k)) => {
                        let a = self.expr(a);
                        self.emit_to(|dst| Op::BinRF { op, dst, a, k })
                    }
                    (&Expr::IConst(k), _) => {
                        let b = self.expr(b);
                        self.emit_to(|dst| Op::BinIR { op, dst, k, b })
                    }
                    (&Expr::FConst(k), _) => {
                        let b = self.expr(b);
                        self.emit_to(|dst| Op::BinFR { op, dst, k, b })
                    }
                    _ => {
                        let a = self.expr(a);
                        let b = self.expr(b);
                        self.emit_to(|dst| Op::Bin { op, dst, a, b })
                    }
                }
            }
            Expr::Call(intr, args) => {
                let args = self.expr_list(args);
                self.emit_to(|dst| Op::Intr {
                    intr: *intr,
                    dst,
                    args,
                })
            }
            Expr::Load {
                array,
                indices,
                mode,
            } => {
                let idx = self.expr_list(indices);
                let is_f = self.sub.arrays[array.0].ty == ScalarTy::Real;
                self.emit_to(|dst| Op::Load {
                    dst,
                    array: array.0 as u16,
                    idx,
                    mode: *mode,
                    is_f,
                })
            }
        }
    }

    fn expr_list(&mut self, exprs: &'p [Expr]) -> ListRef {
        let regs: Vec<Reg> = exprs.iter().map(|e| self.expr(e)).collect();
        self.list(&regs)
    }

    fn compile_call(&mut self, name: &'p str, args: &'p [ActualArg]) -> usize {
        let ci = self.calls.len();
        let callee_id = self.program.sub_named(name).map(|s| s.0);
        self.calls.push(CallCode {
            callee: callee_id.ok_or_else(|| name.into()),
            args: Vec::new(),
            fail: None,
        });
        let Some(sid) = callee_id else {
            return ci; // UnknownSubroutine at execution.
        };
        let callee = &self.program.subs[sid];
        if callee.params.len() != args.len() {
            self.calls[ci].fail = Some(format!(
                "`{name}` expects {} arguments, got {}",
                callee.params.len(),
                args.len()
            ));
            return ci;
        }
        for (pos, (param, actual)) in callee.params.iter().zip(args).enumerate() {
            let ai = self.calls[ci].args.len();
            match (param, actual) {
                (Param::Scalar(v), ActualArg::Scalar(e)) => {
                    self.calls[ci].args.push(ArgCode::Scalar {
                        block: ExprBlock::default(),
                        var: v.0 as u16,
                    });
                    self.deferred.push(Deferred::Expr {
                        e,
                        slot: Slot::CallScalar { call: ci, arg: ai },
                    });
                }
                (Param::Array(a), ActualArg::Array(actual_id)) => {
                    self.calls[ci].args.push(ArgCode::Array {
                        caller: actual_id.0 as u16,
                        callee: a.0 as u16,
                        caller_reshaped: self.sub.arrays[actual_id.0].dist_kind
                            == DistKind::Reshaped,
                    });
                }
                (Param::Array(a), ActualArg::ArrayElem(actual_id, idx)) => {
                    self.calls[ci].args.push(ArgCode::Elem {
                        caller: actual_id.0 as u16,
                        callee: a.0 as u16,
                        idx_pc: 0,
                        idx: ListRef::default(),
                        caller_reshaped: self.sub.arrays[actual_id.0].dist_kind
                            == DistKind::Reshaped,
                    });
                    self.deferred.push(Deferred::ExprList {
                        exprs: idx,
                        slot: Slot::CallElem { call: ci, arg: ai },
                    });
                }
                (Param::Scalar(_), _) => {
                    self.calls[ci].fail = Some(format!(
                        "argument {} of `{name}` must be a scalar",
                        pos + 1
                    ));
                    return ci;
                }
                (Param::Array(_), ActualArg::Scalar(_)) => {
                    self.calls[ci].fail = Some(format!(
                        "argument {} of `{name}` must be an array",
                        pos + 1
                    ));
                    return ci;
                }
            }
        }
        ci
    }

    fn emit_deferred(&mut self, d: Deferred<'p>) {
        match d {
            Deferred::Expr { e, slot } => {
                let pc = self.here();
                self.next_tmp = 0;
                let reg = self.expr(e);
                self.emit(Op::Halt);
                let block = ExprBlock { pc, reg };
                match slot {
                    Slot::ParLb(i) => self.par_loops[i].lb = block,
                    Slot::ParUb(i) => self.par_loops[i].ub = block,
                    Slot::ParStep(i) => self.par_loops[i].step = block,
                    Slot::CallScalar { call, arg } => {
                        let ArgCode::Scalar { block: b, .. } = &mut self.calls[call].args[arg]
                        else {
                            unreachable!()
                        };
                        *b = block;
                    }
                    _ => unreachable!("expression block with a non-expression slot"),
                }
            }
            Deferred::Body { body, slot } => {
                let Slot::ParBody(i) = slot else {
                    unreachable!()
                };
                let pc = self.here();
                self.path = self.par_loops[i].path.to_vec();
                self.block(body, 0);
                self.path.clear();
                self.emit(Op::Halt);
                self.par_loops[i].body_pc = pc;
            }
            Deferred::ExprList { exprs, slot } => {
                let pc = self.here();
                self.next_tmp = 0;
                let regs = self.expr_list(exprs);
                self.emit(Op::Halt);
                let Slot::CallElem { call, arg } = slot else {
                    unreachable!()
                };
                let ArgCode::Elem { idx_pc, idx, .. } = &mut self.calls[call].args[arg] else {
                    unreachable!()
                };
                *idx_pc = pc;
                *idx = regs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_compile::{compile_strings, OptConfig};
    use dsm_machine::MachineConfig;

    fn compiled(src: &str) -> Program {
        compile_strings(&[("t.f", src)], &OptConfig::none())
            .expect("compiles")
            .program
    }

    fn lowered(program: &Program) -> ProgramCode {
        ProgramCode::compile(program, Costs::from_config(&MachineConfig::small_test(1)))
    }

    #[test]
    fn literal_operands_ride_in_the_op() {
        let program = compiled("      program main\n      integer i\n      real*8 a(9), x\n      i = 3\n      x = 1.5\n      a(i - 1) = 0.5 * a(i) / 4 + (2 - i) * x\n      end\n");
        let code = lowered(&program);
        let ops = &code.subs[program.main].ops;
        let count = |pred: fn(&Op) -> bool| ops.iter().filter(|op| pred(op)).count();
        assert_eq!(count(|op| matches!(op, Op::BinRI { .. })), 2, "i - 1, … / 4");
        assert_eq!(count(|op| matches!(op, Op::BinFR { .. })), 1, "0.5 * …");
        assert_eq!(count(|op| matches!(op, Op::BinIR { .. })), 1, "2 - i");
        assert_eq!(count(|op| matches!(op, Op::Bin { .. })), 2, "… * x, … + …");
        // The only literals left are the two scalar initialisers.
        assert_eq!(count(|op| matches!(op, Op::ConstI { .. })), 1);
        assert_eq!(count(|op| matches!(op, Op::ConstF { .. })), 1);
    }

    /// Every `Load`, `Store` and element actual of a program owns one
    /// hint-table entry, and a kernel site's range covers exactly its
    /// body's.
    #[test]
    fn reference_sites_are_unique() {
        let program = compiled("      program main\n      integer i\n      real*8 a(9), b(9)\n      do i = 1, 9\n        a(i) = 1.0\n      enddo\n      do i = 1, 9\n        b(i) = a(i)\n      enddo\n      call s(a(3), b)\n      a(1) = max(a(2), b(2)) + a(2)\n      end\n      subroutine s(x, y)\n      real*8 x(2), y(9)\n      x(1) = y(1) + x(2)\n      end\n");
        let code = lowered(&program);
        let mut sites = Vec::new();
        for sc in &code.subs {
            let mut local = Vec::new();
            for op in &sc.ops {
                if let Op::Load { idx, .. } | Op::Store { idx, .. } = op {
                    local.push(idx.start);
                }
            }
            for arg in sc.calls.iter().flat_map(|c| &c.args) {
                if let ArgCode::Elem { idx, .. } = arg {
                    local.push(idx.start);
                }
            }
            assert!(local.iter().all(|&s| (s as usize) < sc.pool.len()));
            sites.extend(local.iter().map(|&s| sc.hint_base + s as usize));
        }
        // Main: the fill's store, the copy's store and load, `a(3)`, the
        // last statement's store and three loads; `s`: three.
        let n = sites.len();
        assert_eq!(n, 11);
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), n, "two sites share a hint");
        assert!(sites.iter().all(|&s| s < code.n_sites));
        let kernels = &code.subs[program.main].kernels;
        assert_eq!(
            kernels.iter().map(|k| k.sites.clone()).collect::<Vec<_>>(),
            [0..1, 1..3],
            "the fill's one reference, the copy's two"
        );
    }

    /// Kernels are built on demand and say why when they cannot be.
    #[test]
    fn kernels_build_lazily_or_refuse_with_a_reason() {
        let program = compiled("      program main\n      integer i, n\n      real*8 a(9), b(9), x\n      n = 3\n      do i = 2, 8\n        x = b(i - 1) + b(i + 1)\n        a(i) = x * 0.5 + b(i - 1)\n      enddo\n      do i = 1, 9\n        a(i) = i / n\n      enddo\n      do i = 1, 9\n        a(i) = 2.5 * n\n      enddo\n      end\n");
        let code = lowered(&program);
        let (sc, sub, costs) = (&code.subs[program.main], program.main_sub(), code.costs);
        let [stencil, division, fill] = sc.kernels.as_slice() else {
            panic!("three kernel-shaped loops, got {}", sc.kernels.len());
        };
        let k = stencil.kernel(sub, &costs).expect("a stencil is a kernel");
        assert_eq!(k.cursors.len(), 3, "b(i-1) twice is one cursor");
        assert_eq!((k.steps, k.fill), (2, false));
        let io: Vec<_> = k.scalars.iter().map(|s| (s.input, s.output)).collect();
        assert_eq!(io, [(false, true)], "x is assigned before it is read");
        assert_eq!(
            division.kernel(sub, &costs).err(),
            Some("the body can divide by zero")
        );
        let k = fill.kernel(sub, &costs).expect("a fill is a kernel");
        assert!(k.fill && k.cursors.len() == 1);
        assert!(matches!(k.scalars[..], [s] if s.input && !s.output), "n is only read");
    }

    /// Every loop a side table names resolves, through its path, to that
    /// loop: inside either branch of an `if`, inside a serial loop, and
    /// inside a region body lowered out of line.
    #[test]
    fn loop_paths_find_their_loops() {
        let program = compiled("      program main\n      integer i, j, k, n\n      real*8 a(9), b(9)\n      n = 3\n      if (n .gt. 2) then\n        do i = 1, 9\n          a(i) = 1.0\n        enddo\n      else\n        n = 4\n        do j = 1, 9\n          b(j) = 2.0\n        enddo\n      endif\n      do k = 1, 2\nc$doacross local(i, j)\n        do i = 1, 9\n          do j = 1, 9\n            a(j) = b(j) + i\n          enddo\n        enddo\n      enddo\n      end\n");
        let (code, main) = (lowered(&program), program.main_sub());
        let sc = &code.subs[program.main];
        let var = |path: &[u32]| main.scalars[loop_at(&main.body, path).var.0].name.clone();
        let kernels: Vec<_> = sc.kernels.iter().map(|k| var(&k.path)).collect();
        assert_eq!(kernels, ["i", "j", "j"], "then-branch, else-branch, region body");
        assert!(sc.kernels.iter().all(|k| var(&k.path) == main.scalars[k.var as usize].name));
        let regions: Vec<_> = sc.par_loops.iter().map(|p| var(&p.path)).collect();
        assert_eq!(regions, ["i"]);
    }
}
