//! Stream kernels: innermost loops as reference streams.
//!
//! Inside one processor tile every reference of an innermost loop whose
//! indices are affine in the loop variable is `base + i · stride` — the
//! shape the paper's §7 tiling and peeling exist to produce. A
//! [`Kernel`] is such a loop compiled a second time, for that case only:
//!
//! * each distinct reference (array + index list) is a **cursor** — an
//!   address that advances by a byte stride per iteration — so the index
//!   arithmetic the generic opcode stream executes, gathers and resolves
//!   per access is only *charged*, as a per-iteration constant;
//! * the rest of the body is straight-line [`MOp`]s over a private file of
//!   untagged 8-byte registers whose types were settled when the kernel
//!   was built, in program order, loads and stores real — a value that
//!   flows through memory inside an iteration (a recurrence, a repeated
//!   element) still does.
//!
//! A kernel is built from the IR at its loop's first execution
//! ([`super::code::KernelSite`]), not when the program is lowered: most
//! subroutines of a large program never run. Lowered code is kept across
//! a program's runs, so the kernel its first entry builds serves them all.
//! The build refuses — with the reason, which `DSM_DUMP_OPS` prints —
//! whatever the straight-line form cannot reproduce exactly: an index that
//! is not affine, a body that can fault (integer division), a value whose
//! type depends on data. What only an execution can tell — tile crossings,
//! bounds, budgets — the VM checks at loop entry
//! (`vm.rs`, `kernel_exec`); every refusal runs the generic loop.

use dsm_ir::{AddrMode, BinOp, Expr, Intrinsic, LoopStmt, ScalarTy, Stmt, Subroutine, UnOp, VarId};
use dsm_machine::{AccessTag, LineCursor};

use crate::team::Port;
use crate::value::{bin_op, intrinsic, un_op, Costs, Value};

use super::code::{static_cost, Reg};

/// Most arguments an intrinsic may take inside a kernel.
const MAX_INTR_ARGS: usize = 8;

/// Which value an affine index term reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AffVar {
    /// The kernel loop's own variable (varies per iteration).
    Loop,
    /// Another integer scalar of the frame (constant across the loop).
    Reg(Reg),
    /// Pure constant.
    None,
}

/// One affine index: `scale · var + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AffTerm {
    pub scale: i64,
    pub offset: i64,
    pub var: AffVar,
}

/// One distinct reference of the body: references with equal index lists
/// into one array share it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct CursorCode {
    /// The array, as the subroutine numbers it.
    pub array: u16,
    /// One term per dimension.
    pub idx: Vec<AffTerm>,
}

/// The addressing-mode charges of one array's references, summed over the
/// body: `fixed + per_dist · n_dist` per iteration, `n_dist` being the
/// bound instance's distributed-dimension count (known at loop entry).
#[derive(Debug)]
pub(crate) struct ArrayCharge {
    pub array: u16,
    pub fixed: u64,
    pub per_dist: u64,
}

/// A frame scalar the body's values read or its statements assign, and
/// the register it lives in while the kernel runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarIo {
    pub frame: Reg,
    pub kreg: u16,
    /// Declared `real*8` (else `integer`): the type the register holds.
    pub is_f: bool,
    /// Read before the body assigns it: loaded — and its runtime type
    /// checked against the declared one — at entry.
    pub input: bool,
    /// Assigned by the body: written back at exit.
    pub output: bool,
}

/// One micro-op. Registers are raw 8-byte words; which of them hold an
/// `f64` and which an `i64` is fixed per register when the kernel is built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MOp {
    /// Timed element load through cursor `cur`; `slot`: the reference's
    /// addressing mode re-loads the portion pointer first.
    Load { dst: u16, cur: u8, slot: bool },
    /// Timed element store.
    Store { src: u16, cur: u8, slot: bool },
    FAdd { dst: u16, a: u16, b: u16 },
    FSub { dst: u16, a: u16, b: u16 },
    FMul { dst: u16, a: u16, b: u16 },
    FDiv { dst: u16, a: u16, b: u16 },
    IAdd { dst: u16, a: u16, b: u16 },
    ISub { dst: u16, a: u16, b: u16 },
    IMul { dst: u16, a: u16, b: u16 },
    /// `integer` → `real*8` (`Value::as_f`).
    IToF { dst: u16, src: u16 },
    /// `real*8` → `integer` (`Value::as_i`: truncating, saturating).
    FToI { dst: u16, src: u16 },
    Mov { dst: u16, src: u16 },
    /// Any other binary operator, through [`bin_op`] itself; `af`/`bf`:
    /// the operand is a real.
    Bin { op: BinOp, dst: u16, a: u16, b: u16, af: bool, bf: bool },
    /// A unary operator, through [`un_op`].
    Un { op: UnOp, dst: u16, src: u16, f: bool },
    /// An intrinsic, through [`intrinsic`]; the arguments are
    /// `Kernel::args[first..][..n]`.
    Intr { intr: Intrinsic, dst: u16, first: u16, n: u8 },
}

/// One innermost loop as a stream kernel.
#[derive(Debug)]
pub(crate) struct Kernel {
    pub cursors: Vec<CursorCode>,
    pub arrays: Vec<ArrayCharge>,
    pub ops: Vec<MOp>,
    /// `(register, is real)` operands of the `Intr` ops.
    pub args: Vec<(u16, bool)>,
    /// The register file as an iteration finds it on entry: literals in
    /// place, everything else zero.
    pub init: Vec<u64>,
    /// Register that receives the loop variable each iteration, if the
    /// body's values read it.
    pub var_reg: Option<u16>,
    /// The frame scalars the body mentions outside its indices.
    pub scalars: Vec<ScalarIo>,
    /// Cycles per iteration apart from the addressing modes: loop
    /// overhead, the body's static costs, index and value arithmetic.
    pub iter_cost: u64,
    /// Statements per iteration (the step budget's unit).
    pub steps: u64,
    /// The body is one store, by plain base + offset addressing, of a
    /// value that reads neither memory nor the loop variable: over a
    /// contiguous array it is one batched [`dsm_machine::AccessRun`].
    pub fill: bool,
}

/// Whether a loop can have a kernel at all — the test lowering makes for
/// every loop, so it must stay a glance: a serial loop whose body is
/// assignments (and the static costs hoisting leaves behind) only.
pub(crate) fn kernel_shaped(l: &LoopStmt) -> bool {
    l.par.is_none()
        && !l.body.is_empty()
        && l.body.iter().all(|st| {
            matches!(
                st,
                Stmt::Assign { .. } | Stmt::SAssign { .. } | Stmt::Overhead { .. }
            )
        })
}

/// Whether this addressing mode re-loads the portion pointer per access.
#[inline]
pub(crate) fn needs_slot(mode: AddrMode) -> bool {
    matches!(
        mode,
        AddrMode::ReshapedRaw
            | AddrMode::ReshapedRawFp
            | AddrMode::ReshapedTiled
            | AddrMode::ReshapedSharedDiv
    )
}

/// The interpreter's addressing-overhead charge for one reference of an
/// array with `n_dist` distributed dimensions, as `(fixed, per n_dist)`.
pub(crate) fn mode_charge(mode: AddrMode, c: &Costs) -> (u64, u64) {
    match mode {
        AddrMode::Direct | AddrMode::ReshapedHoisted | AddrMode::ReshapedSharedAll => (c.int_alu, 0),
        AddrMode::ReshapedRaw => (2 * c.int_alu, c.int_div + c.int_alu),
        AddrMode::ReshapedRawFp => (2 * c.int_alu, c.fp_emulated_div + c.int_alu),
        AddrMode::ReshapedTiled | AddrMode::ReshapedSharedDiv => (2 * c.int_alu, 0),
    }
}

/// The interpreter's cycle charge for evaluating an affine expression
/// (all-integer operands), or `None` when the shape falls outside what
/// [`Expr::as_affine`] accepts.
fn affine_cost(e: &Expr, costs: &Costs) -> Option<u64> {
    Some(match e {
        Expr::IConst(_) | Expr::Var(_) => 0,
        Expr::Unary(UnOp::Neg, x) => affine_cost(x, costs)? + costs.int_alu,
        Expr::Binary(BinOp::Add | BinOp::Sub, a, b) => {
            affine_cost(a, costs)? + affine_cost(b, costs)? + costs.int_alu
        }
        Expr::Binary(BinOp::Mul, a, b) => {
            affine_cost(a, costs)? + affine_cost(b, costs)? + costs.int_mul
        }
        _ => return None,
    })
}

/// A stand-in operand of the given type: the operators' result type and
/// cost depend on their operands' types only (the cases where they do
/// not are refused by the builder), so evaluating them once on these
/// yields both, from the one definition the engines share.
fn sample(is_f: bool) -> Value {
    if is_f {
        Value::F(1.0)
    } else {
        Value::I(1)
    }
}

fn is_f(v: Value) -> bool {
    matches!(v, Value::F(_))
}

/// Why a loop has no kernel.
type Refusal = &'static str;

struct Builder<'a> {
    sub: &'a Subroutine,
    costs: &'a Costs,
    var: VarId,
    k: Kernel,
}

impl Kernel {
    /// Compile loop `l` of `sub`, or say why it must stay generic.
    pub(crate) fn build(l: &LoopStmt, sub: &Subroutine, costs: &Costs) -> Result<Kernel, Refusal> {
        let mut b = Builder {
            sub,
            costs,
            var: l.var,
            k: Kernel {
                cursors: Vec::new(),
                arrays: Vec::new(),
                ops: Vec::new(),
                args: Vec::new(),
                init: Vec::new(),
                var_reg: None,
                scalars: Vec::new(),
                iter_cost: costs.loop_overhead,
                steps: l.body.len() as u64,
                fill: false,
            },
        };
        for st in &l.body {
            b.stmt(st)?;
        }
        let k = &mut b.k;
        // An index must hold still while the cursors advance.
        let assigned = |r: Reg| k.scalars.iter().any(|s| s.output && s.frame == r);
        if (k.cursors.iter().flat_map(|c| &c.idx)).any(|t| matches!(t.var, AffVar::Reg(r) if assigned(r))) {
            return Err("the body assigns a scalar an index reads");
        }
        k.fill = matches!(
            (l.body.as_slice(), k.ops.last()),
            ([Stmt::Assign { mode: AddrMode::Direct, .. }], Some(MOp::Store { .. }))
        ) && k.var_reg.is_none()
            && !k.ops.iter().any(|op| matches!(op, MOp::Load { .. }));
        Ok(b.k)
    }
}

impl Builder<'_> {
    /// A fresh register, `word` on entry to every kernel run.
    fn reg(&mut self, word: u64) -> Result<u16, Refusal> {
        let r = u16::try_from(self.k.init.len()).map_err(|_| "register file overflow")?;
        self.k.init.push(word);
        Ok(r)
    }

    fn emit_to(&mut self, f: impl FnOnce(u16) -> MOp) -> Result<u16, Refusal> {
        let dst = self.reg(0)?;
        self.k.ops.push(f(dst));
        Ok(dst)
    }

    /// Frame scalar `v`'s entry in the kernel's table (made on first
    /// mention, as neither read nor assigned).
    fn scalar(&mut self, v: VarId) -> Result<&mut ScalarIo, Refusal> {
        let frame = v.0 as Reg;
        let at = match self.k.scalars.iter().position(|s| s.frame == frame) {
            Some(at) => at,
            None => {
                let kreg = self.reg(0)?;
                self.k.scalars.push(ScalarIo {
                    frame,
                    kreg,
                    is_f: self.sub.scalars[v.0].ty == ScalarTy::Real,
                    input: false,
                    output: false,
                });
                self.k.scalars.len() - 1
            }
        };
        Ok(&mut self.k.scalars[at])
    }

    /// `r` as a register of type `want_f` (`Value::as_f` / `as_i`).
    fn coerce(&mut self, (r, f): (u16, bool), want_f: bool) -> Result<u16, Refusal> {
        match (f, want_f) {
            (false, true) => self.emit_to(|dst| MOp::IToF { dst, src: r }),
            (true, false) => self.emit_to(|dst| MOp::FToI { dst, src: r }),
            _ => Ok(r),
        }
    }

    fn stmt(&mut self, st: &Stmt) -> Result<(), Refusal> {
        match st {
            Stmt::SAssign { var, value } => {
                if *var == self.var {
                    return Err("the body assigns the loop variable");
                }
                let v = self.expr(value)?;
                let s = self.scalar(*var)?;
                s.output = true;
                let (dst, is_f) = (s.kreg, s.is_f);
                let src = self.coerce(v, is_f)?;
                self.k.ops.push(MOp::Mov { dst, src });
            }
            Stmt::Assign {
                array,
                indices,
                value,
                mode,
            } => {
                let v = self.expr(value)?;
                let real = self.sub.arrays[array.0].ty == ScalarTy::Real;
                let src = self.coerce(v, real)?;
                let cur = self.cursor(array.0, indices, *mode)?;
                let slot = needs_slot(*mode);
                self.k.ops.push(MOp::Store { src, cur, slot });
            }
            other => self.k.iter_cost += static_cost(other, self.costs),
        }
        Ok(())
    }

    /// The cursor of reference `array(indices)`, charging the reference's
    /// index arithmetic and addressing mode to the iteration.
    fn cursor(&mut self, array: usize, indices: &[Expr], mode: AddrMode) -> Result<u8, Refusal> {
        let mut idx = Vec::with_capacity(indices.len());
        for e in indices {
            let (var, scale, offset) = e.as_affine().ok_or("an index is not affine")?;
            self.k.iter_cost += affine_cost(e, self.costs).ok_or("an index is not affine")?;
            let var = match var {
                None => AffVar::None,
                // The loop variable always holds an integer at runtime.
                Some(v) if v == self.var => AffVar::Loop,
                // Integer-typed, so the closed form is the value the
                // interpreter's arithmetic produces.
                Some(v) if self.sub.scalars[v.0].ty == ScalarTy::Int => AffVar::Reg(v.0 as Reg),
                Some(_) => return Err("an index reads a real scalar"),
            };
            idx.push(AffTerm { scale, offset, var });
        }
        let array = array as u16;
        let (fixed, per_dist) = mode_charge(mode, self.costs);
        match self.k.arrays.iter_mut().find(|a| a.array == array) {
            Some(a) => {
                a.fixed += fixed;
                a.per_dist += per_dist;
            }
            None => self.k.arrays.push(ArrayCharge { array, fixed, per_dist }),
        }
        let code = CursorCode { array, idx };
        let at = match self.k.cursors.iter().position(|c| *c == code) {
            Some(at) => at,
            None => {
                self.k.cursors.push(code);
                self.k.cursors.len() - 1
            }
        };
        u8::try_from(at).map_err(|_| "more than 256 distinct references")
    }

    /// Compile a value expression; returns its register and whether it
    /// holds a real.
    fn expr(&mut self, e: &Expr) -> Result<(u16, bool), Refusal> {
        Ok(match e {
            Expr::IConst(v) => (self.reg(*v as u64)?, false),
            Expr::FConst(v) => (self.reg(v.to_bits())?, true),
            Expr::Var(v) if *v == self.var => {
                let r = match self.k.var_reg {
                    Some(r) => r,
                    None => self.reg(0)?,
                };
                self.k.var_reg = Some(r);
                (r, false)
            }
            Expr::Var(v) => {
                let s = self.scalar(*v)?;
                // Assigned earlier in the body: every read sees that value.
                s.input |= !s.output;
                (s.kreg, s.is_f)
            }
            Expr::Rt(_) => return Err("the body queries the runtime"),
            Expr::Load {
                array,
                indices,
                mode,
            } => {
                let cur = self.cursor(array.0, indices, *mode)?;
                let slot = needs_slot(*mode);
                let dst = self.emit_to(|dst| MOp::Load { dst, cur, slot })?;
                (dst, self.sub.arrays[array.0].ty == ScalarTy::Real)
            }
            Expr::Unary(op, x) => {
                let (src, f) = self.expr(x)?;
                let (v, cost) = un_op(*op, sample(f), self.costs);
                self.k.iter_cost += cost;
                (self.emit_to(|dst| MOp::Un { op: *op, dst, src, f })?, is_f(v))
            }
            Expr::Binary(op, a, b) => {
                let op = *op;
                let (a, af) = self.expr(a)?;
                let (b, bf) = self.expr(b)?;
                let real = af || bf;
                match op {
                    BinOp::Rem => return Err("the body can divide by zero"),
                    BinOp::Div if !real => return Err("the body can divide by zero"),
                    BinOp::Pow if !real => return Err("an integer power's type depends on its exponent"),
                    _ => {}
                }
                let (v, cost) = bin_op(op, sample(af), sample(bf), self.costs)
                    .expect("the faulting operators were refused");
                self.k.iter_cost += cost;
                let dst = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div if real => {
                        // `bin_op` promotes both operands with `as_f`.
                        let a = self.coerce((a, af), true)?;
                        let b = self.coerce((b, bf), true)?;
                        self.emit_to(|dst| match op {
                            BinOp::Add => MOp::FAdd { dst, a, b },
                            BinOp::Sub => MOp::FSub { dst, a, b },
                            BinOp::Mul => MOp::FMul { dst, a, b },
                            _ => MOp::FDiv { dst, a, b },
                        })?
                    }
                    BinOp::Add => self.emit_to(|dst| MOp::IAdd { dst, a, b })?,
                    BinOp::Sub => self.emit_to(|dst| MOp::ISub { dst, a, b })?,
                    BinOp::Mul => self.emit_to(|dst| MOp::IMul { dst, a, b })?,
                    _ => self.emit_to(|dst| MOp::Bin { op, dst, a, b, af, bf })?,
                };
                (dst, is_f(v))
            }
            Expr::Call(intr, args) => {
                if matches!(intr, Intrinsic::Mod | Intrinsic::CeilDiv) {
                    return Err("the body can divide by zero");
                }
                if args.len() > MAX_INTR_ARGS {
                    return Err("an intrinsic has too many arguments");
                }
                let mut regs = Vec::with_capacity(args.len());
                for a in args {
                    regs.push(self.expr(a)?);
                }
                let samples: Vec<Value> = regs.iter().map(|&(_, f)| sample(f)).collect();
                let (v, cost) = intrinsic(*intr, &samples, self.costs)
                    .expect("the faulting intrinsics were refused");
                self.k.iter_cost += cost;
                let first = u16::try_from(self.k.args.len()).map_err(|_| "register file overflow")?;
                self.k.args.extend(&regs);
                let n = regs.len() as u8;
                let intr = *intr;
                (self.emit_to(|dst| MOp::Intr { intr, dst, first, n })?, is_f(v))
            }
        })
    }
}

/// One cursor of a running kernel: the stream's next address and where
/// the machine found its page and line last.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    pub addr: u64,
    /// Bytes per iteration (two's complement).
    pub stride: u64,
    /// The owning processor's portion-pointer slot (reshaped arrays).
    pub slot: Option<u64>,
    /// Attribution of the stream's accesses (profiling).
    pub tag: AccessTag,
    pub line: LineCursor,
    pub slot_line: LineCursor,
}

/// Register contents `word` as the [`Value`] its type `f` (real) says.
#[inline(always)]
pub(crate) fn value(word: u64, f: bool) -> Value {
    if f {
        Value::F(f64::from_bits(word))
    } else {
        Value::I(word as i64)
    }
}

#[inline(always)]
fn word(v: Value) -> u64 {
    match v {
        Value::I(i) => i as u64,
        Value::F(f) => f.to_bits(),
    }
}

impl Kernel {
    /// Execute one arithmetic micro-op on `regs`.
    ///
    /// # Panics
    ///
    /// Panics on `Load`/`Store`, which need a machine ([`Kernel::run`]).
    #[inline(always)]
    pub(crate) fn alu(&self, op: MOp, regs: &mut [u64], costs: &Costs) {
        let f = |r: u16| f64::from_bits(regs[r as usize]);
        let i = |r: u16| regs[r as usize] as i64;
        let (dst, v) = match op {
            MOp::FAdd { dst, a, b } => (dst, (f(a) + f(b)).to_bits()),
            MOp::FSub { dst, a, b } => (dst, (f(a) - f(b)).to_bits()),
            MOp::FMul { dst, a, b } => (dst, (f(a) * f(b)).to_bits()),
            MOp::FDiv { dst, a, b } => (dst, (f(a) / f(b)).to_bits()),
            MOp::IAdd { dst, a, b } => (dst, i(a).wrapping_add(i(b)) as u64),
            MOp::ISub { dst, a, b } => (dst, i(a).wrapping_sub(i(b)) as u64),
            MOp::IMul { dst, a, b } => (dst, i(a).wrapping_mul(i(b)) as u64),
            MOp::IToF { dst, src } => (dst, (i(src) as f64).to_bits()),
            MOp::FToI { dst, src } => (dst, (f(src) as i64) as u64),
            MOp::Mov { dst, src } => (dst, regs[src as usize]),
            MOp::Bin { op, dst, a, b, af, bf } => {
                let (a, b) = (value(regs[a as usize], af), value(regs[b as usize], bf));
                let (v, _) = bin_op(op, a, b, costs).expect("the faulting operators were refused");
                (dst, word(v))
            }
            MOp::Un { op, dst, src, f } => (dst, word(un_op(op, value(regs[src as usize], f), costs).0)),
            MOp::Intr { intr, dst, first, n } => {
                let mut vals = [Value::I(0); MAX_INTR_ARGS];
                let args = &self.args[first as usize..][..n as usize];
                for (v, &(r, f)) in vals.iter_mut().zip(args) {
                    *v = value(regs[r as usize], f);
                }
                let (v, _) = intrinsic(intr, &vals[..args.len()], costs)
                    .expect("the faulting intrinsics were refused");
                (dst, word(v))
            }
            MOp::Load { .. } | MOp::Store { .. } => unreachable!("memory op outside a kernel run"),
        };
        regs[dst as usize] = v;
    }

    /// Run `n` iterations from loop-variable value `lb`: the body's
    /// micro-ops in program order against `port`, every cursor advancing
    /// by its stride between iterations. `tagged`: stamp each reference's
    /// attribution tag before its accesses (profiling).
    #[allow(clippy::too_many_arguments)] // one loop's worth of state
    pub(crate) fn run<P: Port>(
        &self,
        port: &mut P,
        cursors: &mut [Cursor],
        regs: &mut [u64],
        costs: &Costs,
        (lb, step, n): (i64, i64, u64),
        tagged: bool,
    ) {
        let mut i = lb;
        for _ in 0..n {
            if let Some(r) = self.var_reg {
                regs[r as usize] = i as u64;
            }
            for &op in &self.ops {
                match op {
                    MOp::Load { dst, cur, slot } => {
                        let c = &mut cursors[cur as usize];
                        regs[dst as usize] = c.reference(port, slot, tagged, |port, line, addr| {
                            port.load(line, addr)
                        });
                    }
                    MOp::Store { src, cur, slot } => {
                        let c = &mut cursors[cur as usize];
                        let word = regs[src as usize];
                        c.reference(port, slot, tagged, |port, line, addr| {
                            port.store(line, addr, word)
                        });
                    }
                    op => self.alu(op, regs, costs),
                }
            }
            for c in cursors.iter_mut() {
                c.addr = c.addr.wrapping_add(c.stride);
            }
            i = i.wrapping_add(step);
        }
    }
}

impl Cursor {
    /// One reference through this cursor, as the interpreter's
    /// `element_addr` orders it: tag, portion-pointer load, element.
    #[inline(always)]
    fn reference<P: Port, R>(
        &mut self,
        port: &mut P,
        slot: bool,
        tagged: bool,
        element: impl FnOnce(&mut P, &mut LineCursor, u64) -> R,
    ) -> R {
        if tagged {
            port.set_tag(self.tag);
        }
        if let (true, Some(s)) = (slot, self.slot) {
            port.touch(&mut self.slot_line, s);
        }
        element(port, &mut self.line, self.addr)
    }
}

impl Kernel {
    /// The `DSM_DUMP_OPS` listing of the kernel of loop `l` of `sub`: the
    /// charge and steps per iteration, each cursor as the reference it
    /// streams (the loop variable's coefficients are its strides, in
    /// elements), each array's addressing charge, the micro-ops.
    pub(crate) fn listing(&self, sub: &Subroutine, l: &LoopStmt) -> String {
        use std::fmt::Write;
        let name = |v: usize| sub.scalars[v].name.as_str();
        let mut out = format!(
            "{} cycles + addressing, {} step(s) per iteration{}\n",
            self.iter_cost,
            self.steps,
            if self.fill { ", batched over a contiguous array" } else { "" }
        );
        for (i, c) in self.cursors.iter().enumerate() {
            let idx: Vec<String> = (c.idx.iter())
                .map(|t| match t.var {
                    AffVar::Loop => format!("{}*{}{:+}", t.scale, name(l.var.0), t.offset),
                    AffVar::Reg(r) => format!("{}*{}{:+}", t.scale, name(r as usize), t.offset),
                    AffVar::None => t.offset.to_string(),
                })
                .collect();
            let array = &sub.arrays[c.array as usize].name;
            let _ = writeln!(out, "    cursor {i}: {array}({})", idx.join(", "));
        }
        for a in &self.arrays {
            let array = &sub.arrays[a.array as usize].name;
            let _ = writeln!(out, "    addressing {array}: {} + {}*n_dist cycles", a.fixed, a.per_dist);
        }
        for (pc, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "    {pc:4}: {op:?}");
        }
        out
    }
}
