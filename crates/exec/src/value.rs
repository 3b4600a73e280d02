//! Runtime scalar values, frames, and the scalar operators.
//!
//! `bin_op`, `un_op` and `intrinsic` are the one definition of
//! Fortran scalar semantics both engines execute: each returns the value
//! together with its R10000 cycle cost, which the interpreter charges at
//! once and the bytecode VM adds to its pending total. Integer arithmetic
//! wraps (as release builds always did for `+ - *`), so no valid program
//! can unwind the simulator with an overflow.

use dsm_ir::{BinOp, Intrinsic, ScalarTy, Subroutine, UnOp};
use dsm_machine::MachineConfig;

use crate::ExecError;

/// A scalar value (Fortran `integer` or `real*8`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer.
    I(i64),
    /// Double-precision real.
    F(f64),
}

impl Value {
    /// Integer view (truncates reals, Fortran `int()` semantics).
    pub fn as_i(self) -> i64 {
        match self {
            Value::I(v) => v,
            Value::F(v) => v as i64,
        }
    }

    /// Real view.
    pub fn as_f(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    /// Truthiness (non-zero).
    pub fn is_true(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }

    /// Coerce to a scalar's declared type (assignment, by-value argument
    /// passing).
    pub(crate) fn coerce(self, ty: ScalarTy) -> Value {
        match ty {
            ScalarTy::Int => Value::I(self.as_i()),
            ScalarTy::Real => Value::F(self.as_f()),
        }
    }

    /// True when either operand is real (result promotes).
    pub fn promotes(self, other: Value) -> bool {
        matches!(self, Value::F(_)) || matches!(other, Value::F(_))
    }
}

/// Per-run operation costs, baked once from the machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Costs {
    pub(crate) int_alu: u64,
    pub(crate) int_mul: u64,
    pub(crate) int_div: u64,
    pub(crate) fp_emulated_div: u64,
    pub(crate) fp_alu: u64,
    pub(crate) fp_div: u64,
    pub(crate) loop_overhead: u64,
    pub(crate) parallel_fork: u64,
    pub(crate) barrier: u64,
    pub(crate) l1_hit: u64,
}

impl Costs {
    pub(crate) fn from_config(cfg: &MachineConfig) -> Costs {
        Costs {
            int_alu: cfg.ops.int_alu,
            int_mul: cfg.ops.int_mul,
            int_div: cfg.ops.int_div,
            fp_emulated_div: cfg.ops.fp_emulated_div,
            fp_alu: cfg.ops.fp_alu,
            fp_div: cfg.ops.fp_div,
            loop_overhead: cfg.ops.loop_overhead,
            parallel_fork: cfg.ops.parallel_fork,
            barrier: cfg.ops.barrier,
            l1_hit: cfg.lat.l1_hit,
        }
    }
}

/// Apply a binary operator; the cost depends on whether the operands
/// promote to real.
///
/// Forced inline: the VM's dispatch loop is the hot path of every paper
/// kernel, and a call here costs `paper_kernels` about 3 %.
#[inline(always)]
pub(crate) fn bin_op(op: BinOp, a: Value, b: Value, c: &Costs) -> Result<(Value, u64), ExecError> {
    let promote = a.promotes(b);
    let truth = |t: bool| Value::I(i64::from(t));
    Ok(match op {
        BinOp::Add if promote => (Value::F(a.as_f() + b.as_f()), c.fp_alu),
        BinOp::Add => (Value::I(a.as_i().wrapping_add(b.as_i())), c.int_alu),
        BinOp::Sub if promote => (Value::F(a.as_f() - b.as_f()), c.fp_alu),
        BinOp::Sub => (Value::I(a.as_i().wrapping_sub(b.as_i())), c.int_alu),
        BinOp::Mul if promote => (Value::F(a.as_f() * b.as_f()), c.fp_alu),
        BinOp::Mul => (Value::I(a.as_i().wrapping_mul(b.as_i())), c.int_mul),
        BinOp::Div if promote => (Value::F(a.as_f() / b.as_f()), c.fp_div),
        BinOp::Div if b.as_i() == 0 => {
            return Err(ExecError::BadCall("integer division by zero".into()))
        }
        BinOp::Div => (Value::I(a.as_i().wrapping_div(b.as_i())), c.int_div),
        BinOp::Rem => (Value::I(modulo(a, b)?), c.int_div),
        BinOp::Pow => {
            let v = if promote || b.as_i() < 0 {
                Value::F(a.as_f().powf(b.as_f()))
            } else {
                Value::I(a.as_i().wrapping_pow(b.as_i().min(63) as u32))
            };
            (v, c.fp_div + c.fp_alu)
        }
        BinOp::Lt => (truth(a.as_f() < b.as_f()), c.int_alu),
        BinOp::Le => (truth(a.as_f() <= b.as_f()), c.int_alu),
        BinOp::Gt => (truth(a.as_f() > b.as_f()), c.int_alu),
        BinOp::Ge => (truth(a.as_f() >= b.as_f()), c.int_alu),
        BinOp::Eq => (truth(a.as_f() == b.as_f()), c.int_alu),
        BinOp::Ne => (truth(a.as_f() != b.as_f()), c.int_alu),
        BinOp::And => (truth(a.is_true() && b.is_true()), c.int_alu),
        BinOp::Or => (truth(a.is_true() || b.is_true()), c.int_alu),
    })
}

/// Fortran `mod` on the integer views of `a` and `b` (non-negative for a
/// positive modulus).
fn modulo(a: Value, b: Value) -> Result<i64, ExecError> {
    match b.as_i() {
        0 => Err(ExecError::BadCall("mod by zero".into())),
        m => Ok(a.as_i().wrapping_rem_euclid(m)),
    }
}

/// Apply a unary operator (one ALU op).
#[inline]
pub(crate) fn un_op(op: UnOp, v: Value, c: &Costs) -> (Value, u64) {
    let r = match (op, v) {
        (UnOp::Neg, Value::I(i)) => Value::I(i.wrapping_neg()),
        (UnOp::Neg, Value::F(f)) => Value::F(-f),
        (UnOp::Not, v) => Value::I(i64::from(!v.is_true())),
    };
    (r, c.int_alu)
}

/// Apply an intrinsic to its evaluated arguments.
pub(crate) fn intrinsic(
    intr: Intrinsic,
    vals: &[Value],
    c: &Costs,
) -> Result<(Value, u64), ExecError> {
    let any_real = || vals.iter().any(|v| matches!(v, Value::F(_)));
    let ints = || vals.iter().map(|v| v.as_i());
    let reals = || vals.iter().map(|v| v.as_f());
    Ok(match intr {
        Intrinsic::Max if any_real() => (Value::F(reals().fold(f64::MIN, f64::max)), c.int_alu),
        Intrinsic::Max => (Value::I(ints().max().unwrap_or(0)), c.int_alu),
        Intrinsic::Min if any_real() => (Value::F(reals().fold(f64::MAX, f64::min)), c.int_alu),
        Intrinsic::Min => (Value::I(ints().min().unwrap_or(0)), c.int_alu),
        Intrinsic::Mod => (Value::I(modulo(vals[0], vals[1])?), c.int_div),
        Intrinsic::CeilDiv => {
            let (a, b) = (vals[0].as_i(), vals[1].as_i());
            if b == 0 {
                return Err(ExecError::BadCall("ceildiv by zero".into()));
            }
            let q = a.wrapping_add(b).wrapping_sub(1).wrapping_div_euclid(b);
            (Value::I(q), c.int_div)
        }
        Intrinsic::Abs => match vals[0] {
            Value::I(v) => (Value::I(v.wrapping_abs()), c.int_alu),
            Value::F(v) => (Value::F(v.abs()), c.int_alu),
        },
        Intrinsic::Sqrt => (Value::F(vals[0].as_f().sqrt()), c.fp_div),
        Intrinsic::Dble => (Value::F(vals[0].as_f()), c.int_alu),
        Intrinsic::Int => (Value::I(vals[0].as_i()), c.int_alu),
    })
}

/// A subroutine activation's scalar storage plus array bindings
/// (indices into the binder's arena).
#[derive(Debug, Clone)]
pub struct Frame {
    /// One value per [`dsm_ir::VarId`].
    pub scalars: Vec<Value>,
    /// One arena index per [`dsm_ir::ArrayId`] (`usize::MAX` = unbound).
    pub arrays: Vec<usize>,
}

impl Frame {
    /// Fresh frame for a subroutine: scalars zeroed, arrays unbound.
    pub fn new(sub: &Subroutine) -> Self {
        let scalars = sub
            .scalars
            .iter()
            .map(|s| match s.ty {
                ScalarTy::Int => Value::I(0),
                ScalarTy::Real => Value::F(0.0),
            })
            .collect();
        Frame {
            scalars,
            arrays: vec![usize::MAX; sub.arrays.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(Value::F(2.9).as_i(), 2);
        assert_eq!(Value::I(3).as_f(), 3.0);
        assert!(Value::I(1).is_true());
        assert!(!Value::F(0.0).is_true());
        assert!(Value::I(1).promotes(Value::F(0.0)));
        assert!(!Value::I(1).promotes(Value::I(2)));
    }

    const I: fn(i64) -> Value = Value::I;
    const F: fn(f64) -> Value = Value::F;

    fn costs() -> Costs {
        Costs::from_config(&MachineConfig::small_test(1))
    }

    fn bad(msg: &str) -> ExecError {
        ExecError::BadCall(msg.into())
    }

    /// Every binary operator on 7 ∘ 2 as int∘int, int∘real, real∘int and
    /// real∘real (a literal operand of either type on either side of a
    /// variable of either type): the value, and the cost the operand
    /// types select.
    #[test]
    fn binary_operators_by_operand_type() {
        use BinOp::*;
        let c = costs();
        let pow = c.fp_div + c.fp_alu;
        let arith = |i: i64, ci: u64, f: f64, cf: u64| [(I(i), ci), (F(f), cf), (F(f), cf), (F(f), cf)];
        let same = |v: i64, cost: u64| [(I(v), cost); 4];
        let table = [
            (Add, arith(9, c.int_alu, 9.0, c.fp_alu)),
            (Sub, arith(5, c.int_alu, 5.0, c.fp_alu)),
            (Mul, arith(14, c.int_mul, 14.0, c.fp_alu)),
            (Div, arith(3, c.int_div, 3.5, c.fp_div)),
            (Pow, arith(49, pow, 49.0, pow)),
            // `mod` works on the integer views whatever the operand types.
            (Rem, same(1, c.int_div)),
            (Lt, same(0, c.int_alu)),
            (Le, same(0, c.int_alu)),
            (Gt, same(1, c.int_alu)),
            (Ge, same(1, c.int_alu)),
            (Eq, same(0, c.int_alu)),
            (Ne, same(1, c.int_alu)),
            (And, same(1, c.int_alu)),
            (Or, same(1, c.int_alu)),
        ];
        let operands = [
            (I(7), I(2)),
            (I(7), F(2.0)),
            (F(7.0), I(2)),
            (F(7.0), F(2.0)),
        ];
        for (op, want) in table {
            for ((a, b), want) in operands.into_iter().zip(want) {
                assert_eq!(bin_op(op, a, b, &c), Ok(want), "{a:?} {op:?} {b:?}");
            }
        }
    }

    #[test]
    fn binary_operator_edge_cases() {
        use BinOp::*;
        let c = costs();
        let val = |op, a, b| bin_op(op, a, b, &c).map(|(v, _)| v);
        // Zero divisors: an error for integers, IEEE for reals.
        let div0 = val(Div, I(1), I(0)).unwrap_err();
        assert!(div0.to_string().ends_with("division by zero"), "{div0}");
        assert_eq!(val(Div, F(1.0), I(0)), Ok(F(f64::INFINITY)));
        assert_eq!(val(Rem, I(1), I(0)), Err(bad("mod by zero")));
        assert_eq!(val(Rem, F(1.0), F(0.5)), Err(bad("mod by zero")));
        // `mod` is non-negative for a positive modulus.
        assert_eq!(val(Rem, I(-7), I(3)), Ok(I(2)));
        // A negative exponent leaves the integers; a huge one is clamped.
        assert_eq!(val(Pow, I(2), I(-1)), Ok(F(0.5)));
        assert_eq!(val(Pow, I(2), I(70)), Ok(I(i64::MIN)));
        // Overflow wraps, in debug and release builds alike.
        assert_eq!(val(Add, I(i64::MAX), I(1)), Ok(I(i64::MIN)));
        assert_eq!(val(Sub, I(i64::MIN), I(1)), Ok(I(i64::MAX)));
        assert_eq!(val(Mul, I(1 << 62), I(2)), Ok(I(i64::MIN)));
        assert_eq!(val(Div, I(i64::MIN), I(-1)), Ok(I(i64::MIN)));
        assert_eq!(val(Rem, I(i64::MIN), I(-1)), Ok(I(0)));
        assert_eq!(val(Pow, I(3), I(63)), Ok(I(3i64.wrapping_pow(63))));
        // Logical operators read truthiness, not the numeric value.
        assert_eq!(val(And, F(0.5), I(0)), Ok(I(0)));
        assert_eq!(val(Or, F(0.0), F(0.5)), Ok(I(1)));
    }

    #[test]
    fn unary_operators() {
        let c = costs();
        for (op, v, want) in [
            (UnOp::Neg, I(3), I(-3)),
            (UnOp::Neg, F(1.5), F(-1.5)),
            (UnOp::Neg, I(i64::MIN), I(i64::MIN)),
            (UnOp::Not, I(0), I(1)),
            (UnOp::Not, F(2.0), I(0)),
        ] {
            assert_eq!(un_op(op, v, &c), (want, c.int_alu), "{op:?} {v:?}");
        }
    }

    /// Every intrinsic over int, mixed and real arguments.
    #[test]
    fn intrinsics_by_operand_type() {
        use Intrinsic::*;
        let c = costs();
        let table: [(Intrinsic, &[Value], Value, u64); 22] = [
            (Max, &[I(7), I(2), I(5)], I(7), c.int_alu),
            (Max, &[I(7), F(2.0)], F(7.0), c.int_alu),
            (Max, &[F(7.0), F(2.0)], F(7.0), c.int_alu),
            (Min, &[I(7), I(2), I(5)], I(2), c.int_alu),
            (Min, &[I(7), F(2.0)], F(2.0), c.int_alu),
            (Min, &[F(7.0), F(2.0)], F(2.0), c.int_alu),
            (Mod, &[I(7), I(2)], I(1), c.int_div),
            (Mod, &[I(7), F(2.0)], I(1), c.int_div),
            (Mod, &[F(7.0), F(2.0)], I(1), c.int_div),
            (Mod, &[I(i64::MIN), I(-1)], I(0), c.int_div),
            (CeilDiv, &[I(7), I(2)], I(4), c.int_div),
            (CeilDiv, &[I(7), F(2.0)], I(4), c.int_div),
            (CeilDiv, &[F(7.0), F(2.0)], I(4), c.int_div),
            (CeilDiv, &[I(i64::MAX), I(2)], I(i64::MIN / 2), c.int_div),
            (Abs, &[I(-3)], I(3), c.int_alu),
            (Abs, &[F(-3.5)], F(3.5), c.int_alu),
            (Abs, &[I(i64::MIN)], I(i64::MIN), c.int_alu),
            (Sqrt, &[I(9)], F(3.0), c.fp_div),
            (Sqrt, &[F(9.0)], F(3.0), c.fp_div),
            (Dble, &[I(3)], F(3.0), c.int_alu),
            (Int, &[F(3.9)], I(3), c.int_alu),
            (Int, &[I(3)], I(3), c.int_alu),
        ];
        for (intr, args, want, cost) in table {
            assert_eq!(
                intrinsic(intr, args, &c),
                Ok((want, cost)),
                "{intr:?} {args:?}"
            );
        }
        assert_eq!(intrinsic(Mod, &[I(1), I(0)], &c), Err(bad("mod by zero")));
        assert_eq!(
            intrinsic(CeilDiv, &[I(1), I(0)], &c),
            Err(bad("ceildiv by zero"))
        );
    }
}
