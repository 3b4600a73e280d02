//! Layout-oblivious reference evaluator.
//!
//! Executes a parsed directive-Fortran program **directly from the AST**
//! with no notion of pages, caches, distributions, teams, or clones:
//! directives are placement hints, so the reference semantics are the
//! sequential semantics. The oracle mirrors the interpreter's value
//! model exactly (it reuses [`dsm_exec::value::Value`], so coercion,
//! truncation and promotion rules can never drift apart):
//!
//! * scalar stores coerce to the declared type; array stores coerce to
//!   the element type (`real*8` keeps the `f64`, `integer` truncates);
//! * serial `do` loops leave the loop variable at the last *executed*
//!   value (untouched after zero iterations);
//! * a `doacross` region runs its members on clones of the scalar
//!   environment — in-region scalar writes are discarded at the join —
//!   and then sets the loop variable to the sequential `lastlocal`
//!   value `lb + niters*step`;
//! * subroutine calls copy scalars in (no copy-back) and alias whole
//!   arrays.
//!
//! One deliberate divergence: when affinity tiling lowers a region to
//! processor-tile scheduling, the interpreter leaves the loop variable
//! untouched at the join instead of applying `lastlocal`. The oracle
//! cannot know which lowering fired (that *is* layout obliviousness),
//! so the generator never reads a parallel loop variable after its
//! region without reassigning it first, making the difference
//! unobservable in captured arrays.

use dsm_exec::value::Value;
use dsm_frontend::ast::{ABinOp, AExpr, AStmt, ATy, AUnOp, SourceUnit, UnitKind};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Why the oracle could not produce a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// Source did not parse.
    Parse(String),
    /// Construct outside the oracle's (deliberately small) dialect.
    Unsupported(String),
    /// Runtime fault (out of bounds, zero step, step limit…). Generated
    /// programs never fault; hitting this on one is a harness bug.
    Runtime(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Parse(m) => write!(f, "oracle parse error: {m}"),
            OracleError::Unsupported(m) => write!(f, "oracle unsupported: {m}"),
            OracleError::Runtime(m) => write!(f, "oracle runtime error: {m}"),
        }
    }
}

type OResult<T> = Result<T, OracleError>;

/// An array's reference contents (column-major, like the simulator).
struct OArr {
    ty: ATy,
    dims: Vec<i64>,
    data: Vec<Value>,
}

impl OArr {
    fn new(ty: ATy, dims: Vec<i64>) -> Self {
        let n: i64 = dims.iter().product();
        let zero = match ty {
            ATy::Int => Value::I(0),
            ATy::Real => Value::F(0.0),
        };
        OArr {
            ty,
            dims,
            data: vec![zero; n.max(0) as usize],
        }
    }

    /// 1-based indices → column-major linear offset.
    fn linear(&self, idx: &[i64]) -> OResult<usize> {
        if idx.len() != self.dims.len() {
            return Err(OracleError::Runtime(format!(
                "rank mismatch: {} indices for rank {}",
                idx.len(),
                self.dims.len()
            )));
        }
        let mut lin = 0i64;
        let mut stride = 1i64;
        for (v, e) in idx.iter().zip(&self.dims) {
            if *v < 1 || *v > *e {
                return Err(OracleError::Runtime(format!(
                    "index {v} out of bounds 1..={e}"
                )));
            }
            lin += (v - 1) * stride;
            stride *= e;
        }
        Ok(lin as usize)
    }
}

type ArrRef = Rc<RefCell<OArr>>;

/// One activation: scalar values + declared scalar types + array
/// bindings. Whole-array arguments alias the caller's `ArrRef`.
#[derive(Default)]
struct Act {
    scalars: HashMap<String, Value>,
    stys: HashMap<String, ATy>,
    arrays: HashMap<String, ArrRef>,
}

impl Act {
    fn set_scalar(&mut self, name: &str, v: Value) -> OResult<()> {
        let ty = *self.stys.get(name).ok_or_else(|| {
            OracleError::Unsupported(format!("assignment to undeclared `{name}`"))
        })?;
        let coerced = match ty {
            ATy::Int => Value::I(v.as_i()),
            ATy::Real => Value::F(v.as_f()),
        };
        self.scalars.insert(name.to_string(), coerced);
        Ok(())
    }
}

/// The reference evaluator over a set of parsed units.
pub struct Oracle {
    main: SourceUnit,
    subs: HashMap<String, SourceUnit>,
    steps_left: u64,
}

/// Evaluate `sources` and return the final contents of `captures` as
/// bit-level `f64` vectors, exactly as the simulator's capture path
/// reports them: `real*8` elements verbatim, `integer` elements as the
/// raw `i64` bits reinterpreted, unknown names as empty vectors.
pub fn evaluate(sources: &[(String, String)], captures: &[String]) -> OResult<Vec<Vec<f64>>> {
    let mut oracle = Oracle::new(sources)?;
    let arrays = oracle.run()?;
    Ok(captures
        .iter()
        .map(|name| {
            arrays
                .get(&name.to_lowercase())
                .map(|a| {
                    let a = a.borrow();
                    a.data
                        .iter()
                        .map(|v| match v {
                            Value::F(f) => *f,
                            Value::I(i) => f64::from_bits(*i as u64),
                        })
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect())
}

impl Oracle {
    /// Parse sources and locate the main program.
    pub fn new(sources: &[(String, String)]) -> OResult<Self> {
        let mut main = None;
        let mut subs = HashMap::new();
        for (idx, (name, text)) in sources.iter().enumerate() {
            let units = dsm_frontend::parse_source(idx, name, text)
                .map_err(|errs| OracleError::Parse(format!("{name}: {errs:?}")))?;
            for u in units {
                match u.kind {
                    UnitKind::Program => main = Some(u),
                    UnitKind::Subroutine => {
                        subs.insert(u.name.to_lowercase(), u);
                    }
                }
            }
        }
        let main = main.ok_or_else(|| OracleError::Parse("no program unit found".into()))?;
        Ok(Oracle {
            main,
            subs,
            steps_left: 100_000_000,
        })
    }

    /// Execute the main program; returns its array environment.
    fn run(&mut self) -> OResult<HashMap<String, ArrRef>> {
        let main = self.main.clone();
        let mut act = self.activation(&main, &[])?;
        self.exec_block(&main, &main.body, &mut act, false, 0)?;
        Ok(act.arrays)
    }

    /// Build an activation for `unit`. `bound` carries formal bindings
    /// in parameter order (scalars already coerced by the caller).
    fn activation(&self, unit: &SourceUnit, bound: &[(String, Binding)]) -> OResult<Act> {
        if !unit.commons.is_empty() || !unit.equivalences.is_empty() {
            return Err(OracleError::Unsupported(format!(
                "`{}` uses common/equivalence",
                unit.name
            )));
        }
        let mut act = Act::default();
        for (span_name, b) in bound {
            match b {
                Binding::Scalar(v) => {
                    act.scalars.insert(span_name.clone(), *v);
                }
                Binding::Array(r) => {
                    act.arrays.insert(span_name.clone(), Rc::clone(r));
                }
            }
        }
        // `parameter (n = expr)` constants become immutable-by-convention
        // scalars, available to later dimension expressions.
        for (_, name, e) in &unit.parameters {
            let v = self.eval_in(&act, e)?;
            act.stys.insert(name.to_lowercase(), ATy::Int);
            act.scalars.insert(name.to_lowercase(), Value::I(v.as_i()));
        }
        for d in &unit.decls {
            let name = d.name.to_lowercase();
            if d.dims.is_empty() {
                act.stys.insert(name.clone(), d.ty);
                if let Some(v) = act.scalars.get(&name).copied() {
                    // Bound scalar formal: re-coerce to the declared type.
                    let v = match d.ty {
                        ATy::Int => Value::I(v.as_i()),
                        ATy::Real => Value::F(v.as_f()),
                    };
                    act.scalars.insert(name, v);
                } else {
                    let zero = match d.ty {
                        ATy::Int => Value::I(0),
                        ATy::Real => Value::F(0.0),
                    };
                    act.scalars.insert(name, zero);
                }
            } else if !act.arrays.contains_key(&name) {
                let dims: Vec<i64> = d
                    .dims
                    .iter()
                    .map(|e| self.eval_in(&act, e).map(|v| v.as_i()))
                    .collect::<OResult<_>>()?;
                act.arrays
                    .insert(name, Rc::new(RefCell::new(OArr::new(d.ty, dims))));
            }
            // A bound array formal keeps the caller's instance: declared
            // formal shape is a view the simulator checks separately.
        }
        Ok(act)
    }

    fn tick(&mut self) -> OResult<()> {
        if self.steps_left == 0 {
            return Err(OracleError::Runtime("oracle step limit".into()));
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn exec_block(
        &mut self,
        unit: &SourceUnit,
        body: &[AStmt],
        act: &mut Act,
        in_region: bool,
        depth: u32,
    ) -> OResult<()> {
        for st in body {
            self.exec_stmt(unit, st, act, in_region, depth)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        unit: &SourceUnit,
        st: &AStmt,
        act: &mut Act,
        in_region: bool,
        depth: u32,
    ) -> OResult<()> {
        self.tick()?;
        match st {
            AStmt::Assign {
                lhs,
                lhs_indices,
                rhs,
                ..
            } => {
                let v = self.eval_in(act, rhs)?;
                if lhs_indices.is_empty() {
                    act.set_scalar(&lhs.to_lowercase(), v)
                } else {
                    let idx: Vec<i64> = lhs_indices
                        .iter()
                        .map(|e| self.eval_in(act, e).map(|v| v.as_i()))
                        .collect::<OResult<_>>()?;
                    let arr = act.arrays.get(&lhs.to_lowercase()).ok_or_else(|| {
                        OracleError::Unsupported(format!("unknown array `{lhs}`"))
                    })?;
                    let mut arr = arr.borrow_mut();
                    let lin = arr.linear(&idx)?;
                    arr.data[lin] = match arr.ty {
                        ATy::Int => Value::I(v.as_i()),
                        ATy::Real => Value::F(v.as_f()),
                    };
                    Ok(())
                }
            }
            AStmt::Do {
                var,
                lb,
                ub,
                step,
                body,
                doacross,
                ..
            } => {
                let var = var.to_lowercase();
                let lbv = self.eval_in(act, lb)?.as_i();
                let ubv = self.eval_in(act, ub)?.as_i();
                let stepv = match step {
                    Some(e) => self.eval_in(act, e)?.as_i(),
                    None => 1,
                };
                if stepv == 0 {
                    return Err(OracleError::Runtime("zero loop step".into()));
                }
                if doacross.is_some() && !in_region {
                    // Parallel region: members run on clones of the
                    // scalar environment (arrays are shared), and the
                    // clones are discarded at the join.
                    let saved = act.scalars.clone();
                    self.run_serial(unit, &var, lbv, ubv, stepv, body, act, true, depth)?;
                    act.scalars = saved;
                    let niters = if stepv > 0 {
                        (ubv - lbv + stepv).max(0) / stepv
                    } else {
                        (lbv - ubv - stepv).max(0) / -stepv
                    };
                    act.set_scalar(&var, Value::I(lbv + niters * stepv))
                } else {
                    self.run_serial(unit, &var, lbv, ubv, stepv, body, act, in_region, depth)
                }
            }
            AStmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let c = self.eval_in(act, cond)?;
                if c.is_true() {
                    self.exec_block(unit, then_body, act, in_region, depth)
                } else {
                    self.exec_block(unit, else_body, act, in_region, depth)
                }
            }
            AStmt::Call { name, args, .. } => self.exec_call(name, args, act, depth),
            // Placement directives: semantically transparent.
            AStmt::Redistribute { .. } | AStmt::ResizeTeam { .. } | AStmt::Barrier { .. } => Ok(()),
        }
    }

    /// The interpreter's `run_chunk`: the variable is set before each
    /// iteration and therefore holds the last *executed* value on exit.
    #[allow(clippy::too_many_arguments)] // loop header + env, like the interp
    fn run_serial(
        &mut self,
        unit: &SourceUnit,
        var: &str,
        lb: i64,
        ub: i64,
        step: i64,
        body: &[AStmt],
        act: &mut Act,
        in_region: bool,
        depth: u32,
    ) -> OResult<()> {
        let mut i = lb;
        while (step > 0 && i <= ub) || (step < 0 && i >= ub) {
            act.set_scalar(var, Value::I(i))?;
            self.exec_block(unit, body, act, in_region, depth)?;
            i += step;
        }
        Ok(())
    }

    fn exec_call(&mut self, name: &str, args: &[AExpr], act: &mut Act, depth: u32) -> OResult<()> {
        if depth > 64 {
            return Err(OracleError::Runtime("call depth limit".into()));
        }
        let callee = self
            .subs
            .get(&name.to_lowercase())
            .ok_or_else(|| OracleError::Unsupported(format!("unknown subroutine `{name}`")))?
            .clone();
        if callee.params.len() != args.len() {
            return Err(OracleError::Runtime(format!(
                "`{name}` expects {} arguments, got {}",
                callee.params.len(),
                args.len()
            )));
        }
        let mut bound = Vec::new();
        for (param, arg) in callee.params.iter().zip(args) {
            let pname = param.to_lowercase();
            let formal_is_array = callee
                .decls
                .iter()
                .any(|d| d.name.to_lowercase() == pname && !d.dims.is_empty());
            if formal_is_array {
                // Whole-array aliasing; element-pass (a view at an interior
                // address) is outside the oracle's dialect.
                match arg {
                    AExpr::Name(n) if act.arrays.contains_key(&n.to_lowercase()) => {
                        bound.push((
                            pname,
                            Binding::Array(Rc::clone(&act.arrays[&n.to_lowercase()])),
                        ));
                    }
                    _ => {
                        return Err(OracleError::Unsupported(format!(
                            "non-whole-array actual for formal `{pname}` of `{name}`"
                        )))
                    }
                }
            } else {
                // Copy-in only; the interpreter does not copy back.
                let v = self.eval_in(act, arg)?;
                bound.push((pname, Binding::Scalar(v)));
            }
        }
        let mut callee_act = self.activation(&callee, &bound)?;
        self.exec_block(&callee, &callee.body, &mut callee_act, false, depth + 1)
    }

    // -----------------------------------------------------------------
    // Expressions (an independent statement of the semantics in
    // `dsm-exec`'s `value.rs`, minus the cycle accounting; integer
    // arithmetic wraps there and here).
    // -----------------------------------------------------------------

    fn eval_in(&self, act: &Act, e: &AExpr) -> OResult<Value> {
        match e {
            AExpr::Int(v) => Ok(Value::I(*v)),
            AExpr::Real(v) => Ok(Value::F(*v)),
            AExpr::Name(n) => act
                .scalars
                .get(&n.to_lowercase())
                .copied()
                .ok_or_else(|| OracleError::Unsupported(format!("unknown name `{n}`"))),
            AExpr::Index(n, args) => {
                let key = n.to_lowercase();
                if let Some(arr) = act.arrays.get(&key) {
                    let idx: Vec<i64> = args
                        .iter()
                        .map(|e| self.eval_in(act, e).map(|v| v.as_i()))
                        .collect::<OResult<_>>()?;
                    let arr = arr.borrow();
                    let lin = arr.linear(&idx)?;
                    Ok(arr.data[lin])
                } else {
                    let vals: Vec<Value> = args
                        .iter()
                        .map(|e| self.eval_in(act, e))
                        .collect::<OResult<_>>()?;
                    self.eval_intrinsic(&key, &vals)
                }
            }
            AExpr::Un(op, a) => {
                let v = self.eval_in(act, a)?;
                Ok(match op {
                    AUnOp::Neg => match v {
                        Value::I(i) => Value::I(i.wrapping_neg()),
                        Value::F(f) => Value::F(-f),
                    },
                    AUnOp::Not => Value::I(i64::from(!v.is_true())),
                })
            }
            AExpr::Bin(op, a, b) => {
                let a = self.eval_in(act, a)?;
                let b = self.eval_in(act, b)?;
                self.eval_binop(*op, a, b)
            }
        }
    }

    fn eval_binop(&self, op: ABinOp, a: Value, b: Value) -> OResult<Value> {
        let promote = a.promotes(b);
        Ok(match op {
            ABinOp::Add => {
                if promote {
                    Value::F(a.as_f() + b.as_f())
                } else {
                    Value::I(a.as_i().wrapping_add(b.as_i()))
                }
            }
            ABinOp::Sub => {
                if promote {
                    Value::F(a.as_f() - b.as_f())
                } else {
                    Value::I(a.as_i().wrapping_sub(b.as_i()))
                }
            }
            ABinOp::Mul => {
                if promote {
                    Value::F(a.as_f() * b.as_f())
                } else {
                    Value::I(a.as_i().wrapping_mul(b.as_i()))
                }
            }
            ABinOp::Div => {
                if promote {
                    Value::F(a.as_f() / b.as_f())
                } else if b.as_i() == 0 {
                    return Err(OracleError::Runtime("integer division by zero".into()));
                } else {
                    Value::I(a.as_i().wrapping_div(b.as_i()))
                }
            }
            ABinOp::Pow => {
                if promote || b.as_i() < 0 {
                    Value::F(a.as_f().powf(b.as_f()))
                } else {
                    Value::I(a.as_i().wrapping_pow(b.as_i().min(63) as u32))
                }
            }
            ABinOp::Lt => Value::I(i64::from(a.as_f() < b.as_f())),
            ABinOp::Le => Value::I(i64::from(a.as_f() <= b.as_f())),
            ABinOp::Gt => Value::I(i64::from(a.as_f() > b.as_f())),
            ABinOp::Ge => Value::I(i64::from(a.as_f() >= b.as_f())),
            ABinOp::Eq => Value::I(i64::from(a.as_f() == b.as_f())),
            ABinOp::Ne => Value::I(i64::from(a.as_f() != b.as_f())),
            ABinOp::And => Value::I(i64::from(a.is_true() && b.is_true())),
            ABinOp::Or => Value::I(i64::from(a.is_true() || b.is_true())),
        })
    }

    fn eval_intrinsic(&self, name: &str, vals: &[Value]) -> OResult<Value> {
        Ok(match name {
            "max" => {
                if vals.iter().any(|v| matches!(v, Value::F(_))) {
                    Value::F(vals.iter().map(|v| v.as_f()).fold(f64::MIN, f64::max))
                } else {
                    Value::I(vals.iter().map(|v| v.as_i()).max().unwrap_or(0))
                }
            }
            "min" => {
                if vals.iter().any(|v| matches!(v, Value::F(_))) {
                    Value::F(vals.iter().map(|v| v.as_f()).fold(f64::MAX, f64::min))
                } else {
                    Value::I(vals.iter().map(|v| v.as_i()).min().unwrap_or(0))
                }
            }
            "mod" => {
                let b = vals[1].as_i();
                if b == 0 {
                    return Err(OracleError::Runtime("mod by zero".into()));
                }
                Value::I(vals[0].as_i().wrapping_rem_euclid(b))
            }
            "abs" => match vals[0] {
                Value::I(v) => Value::I(v.wrapping_abs()),
                Value::F(v) => Value::F(v.abs()),
            },
            "sqrt" => Value::F(vals[0].as_f().sqrt()),
            "dble" => Value::F(vals[0].as_f()),
            "int" => Value::I(vals[0].as_i()),
            // Layout/team queries are exactly what a layout-oblivious
            // oracle must not answer; the generator never emits them.
            "numthreads" | "blocksize" | "distnprocs" => {
                return Err(OracleError::Unsupported(format!(
                    "layout-dependent intrinsic `{name}`"
                )))
            }
            other => {
                return Err(OracleError::Unsupported(format!(
                    "unknown array or intrinsic `{other}`"
                )))
            }
        })
    }
}

enum Binding {
    Scalar(Value),
    Array(ArrRef),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_one(src: &str, capture: &str) -> Vec<f64> {
        let sources = vec![("main.f".to_string(), src.to_string())];
        evaluate(&sources, &[capture.to_string()]).expect("oracle ok")[0].clone()
    }

    #[test]
    fn serial_identity_loop() {
        let got = eval_one(
            "      program main\n      integer i\n      real*8 a(4)\n      do i = 1, 4\n        a(i) = dble(i) * 2.0\n      enddo\n      end\n",
            "a",
        );
        assert_eq!(got, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn doacross_matches_serial_and_int_bits() {
        let got = eval_one(
            "      program main\n      integer i\n      integer a(3)\n\
c$doacross local(i)\n      do i = 1, 3\n        a(i) = i + 10\n      enddo\n      end\n",
            "a",
        );
        let want: Vec<f64> = (11..=13).map(|v: i64| f64::from_bits(v as u64)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn column_major_order() {
        let got = eval_one(
            "      program main\n      integer i, j\n      real*8 a(2, 2)\n      do i = 1, 2\n        do j = 1, 2\n          a(i, j) = dble(i) + 10.0 * dble(j)\n        enddo\n      enddo\n      end\n",
            "a",
        );
        // Linear order: (1,1), (2,1), (1,2), (2,2).
        assert_eq!(got, vec![11.0, 12.0, 21.0, 22.0]);
    }

    #[test]
    fn call_aliases_whole_array() {
        let sources = vec![
            (
                "main.f".to_string(),
                "      program main\n      integer i\n      real*8 a(4)\n      do i = 1, 4\n        a(i) = 1.0\n      enddo\n      call bump(a)\n      end\n"
                    .to_string(),
            ),
            (
                "subs.f".to_string(),
                "      subroutine bump(x)\n      integer i\n      real*8 x(4)\n      do i = 1, 4\n        x(i) = x(i) + 0.5\n      enddo\n      end\n"
                    .to_string(),
            ),
        ];
        let got = evaluate(&sources, &["a".to_string()]).expect("oracle ok");
        assert_eq!(got[0], vec![1.5, 1.5, 1.5, 1.5]);
    }

    #[test]
    fn unknown_capture_is_empty() {
        let got = eval_one(
            "      program main\n      real*8 s\n      s = 1.0\n      end\n",
            "zz",
        );
        assert!(got.is_empty());
    }
}
