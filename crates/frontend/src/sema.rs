//! Per-unit semantic analysis.
//!
//! Builds symbol tables, folds `parameter` constants, resolves storage
//! classes (local / common / formal), binds distribution directives to
//! array declarations, and enforces the paper's compile-time legality
//! rules:
//!
//! * a reshaped array cannot be `EQUIVALENCE`d (Section 3.2.1);
//! * distribution directives are not written on formal parameters — they
//!   are propagated automatically by the pre-linker (Section 5);
//! * an array is declared `distribute` *or* `distribute_reshape`, never
//!   both, and `redistribute` applies only to regular arrays
//!   (Section 3.3);
//! * distribution rank must equal array rank, `cyclic` chunks must be
//!   positive compile-time constants;
//! * no array, local or formal, has a rank above [`MAX_RANK`] — the
//!   runtime's descriptors and the VM's tiles are sized for it.

use std::collections::HashMap;

use dsm_ir::{Dist, DistKind, Distribution, OntoSpec, MAX_RANK};

use crate::ast::*;
use crate::error::{CompileError, ErrorKind, Span};

/// A resolved dimension extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum REExtent {
    /// Compile-time constant.
    Const(i64),
    /// Named integer scalar (typically a formal), evaluated at entry.
    Scalar(String),
}

/// A resolved array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct RArray {
    /// Name.
    pub name: String,
    /// Element type.
    pub ty: ATy,
    /// Extents.
    pub dims: Vec<REExtent>,
    /// Storage: `None` = local, `Some((block, member))` = common member,
    /// formal position recorded separately.
    pub common: Option<(String, usize)>,
    /// Formal-parameter position if the array is a formal.
    pub formal_pos: Option<usize>,
    /// Distribution directive kind.
    pub dist_kind: DistKind,
    /// Distribution, if any.
    pub dist: Option<Distribution>,
    /// Names this array is equivalenced with.
    pub equiv: Vec<String>,
    /// Declaration site.
    pub span: Span,
}

/// Per-unit analysis results.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitInfo {
    /// The parsed unit (body reused by lowering).
    pub unit: SourceUnit,
    /// Scalar table: name → type (loop variables included).
    pub scalars: Vec<(String, ATy)>,
    /// Array table.
    pub arrays: Vec<RArray>,
    /// Folded `parameter` constants.
    pub params_const: HashMap<String, i64>,
}

impl UnitInfo {
    /// Index of a scalar by name.
    pub fn scalar_index(&self, name: &str) -> Option<usize> {
        self.scalars.iter().position(|(n, _)| n == name)
    }

    /// Index of an array by name.
    pub fn array_index(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }
}

/// Whole-compilation analysis results.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// All units across all files.
    pub units: Vec<UnitInfo>,
    /// File names.
    pub files: Vec<String>,
    /// Index of the main program in `units`.
    pub main: usize,
}

/// Names accepted as intrinsics in expressions.
pub const INTRINSICS: &[&str] = &[
    "max",
    "min",
    "mod",
    "abs",
    "sqrt",
    "dble",
    "int",
    "numthreads",
];

/// Distribution-query intrinsics (the paper's \[SGI96\] runtime
/// interface): `blocksize(a, dim)` and `distnprocs(a, dim)` take a
/// distributed array and a literal dimension number.
pub const DIST_INTRINSICS: &[&str] = &["blocksize", "distnprocs"];

/// Analyze parsed units.
///
/// # Errors
///
/// Returns every semantic and distribution-legality diagnostic found.
pub fn analyze(units: Vec<SourceUnit>, files: Vec<String>) -> Result<Analysis, Vec<CompileError>> {
    let mut errors = Vec::new();
    let mut infos = Vec::new();
    let mut main = None;
    let mut names = HashMap::new();
    for (idx, unit) in units.into_iter().enumerate() {
        let file_name = files.get(unit.file).cloned().unwrap_or_default();
        if unit.kind == UnitKind::Program && main.replace(idx).is_some() {
            errors.push(CompileError::new(
                unit.span,
                ErrorKind::Sema,
                &file_name,
                "multiple program units",
            ));
        }
        if let Some(prev) = names.insert(unit.name.clone(), unit.span) {
            errors.push(CompileError::new(
                unit.span,
                ErrorKind::Sema,
                &file_name,
                format!(
                    "duplicate unit `{}` (also at line {})",
                    unit.name, prev.line
                ),
            ));
        }
        infos.push(analyze_unit(unit, &file_name, &mut errors));
    }
    let Some(main) = main else {
        errors.push(CompileError::new(
            Span::default(),
            ErrorKind::Sema,
            files.first().map(String::as_str).unwrap_or(""),
            "no `program` unit found",
        ));
        return Err(errors);
    };
    if errors.is_empty() {
        Ok(Analysis {
            units: infos,
            files,
            main,
        })
    } else {
        Err(errors)
    }
}

fn analyze_unit(unit: SourceUnit, file: &str, errors: &mut Vec<CompileError>) -> UnitInfo {
    let mut scalars: Vec<(String, ATy)> = Vec::new();
    let mut arrays: Vec<RArray> = Vec::new();
    let mut params_const: HashMap<String, i64> = HashMap::new();

    // Fold `parameter` constants first (they may appear in extents).
    for (span, name, expr) in &unit.parameters {
        match fold_const(expr, &params_const) {
            Some(v) => {
                params_const.insert(name.clone(), v);
            }
            None => errors.push(CompileError::new(
                *span,
                ErrorKind::Sema,
                file,
                format!("parameter `{name}` is not a compile-time integer constant"),
            )),
        }
    }

    // Declarations.
    for d in &unit.decls {
        if params_const.contains_key(&d.name) {
            continue; // `integer n` + `parameter (n=...)`: a constant, not a var
        }
        let dup =
            scalars.iter().any(|(n, _)| *n == d.name) || arrays.iter().any(|a| a.name == d.name);
        if dup {
            errors.push(CompileError::new(
                d.span,
                ErrorKind::Sema,
                file,
                format!("`{}` declared twice", d.name),
            ));
            continue;
        }
        if d.dims.is_empty() {
            scalars.push((d.name.clone(), d.ty));
        } else {
            if d.dims.len() > MAX_RANK {
                errors.push(CompileError::new(
                    d.span,
                    ErrorKind::Sema,
                    file,
                    format!(
                        "array `{}` has rank {}, the maximum is {MAX_RANK}",
                        d.name,
                        d.dims.len()
                    ),
                ));
            }
            let mut dims = Vec::new();
            for e in &d.dims {
                match fold_const(e, &params_const) {
                    Some(v) if v > 0 => dims.push(REExtent::Const(v)),
                    Some(v) => {
                        errors.push(CompileError::new(
                            d.span,
                            ErrorKind::Sema,
                            file,
                            format!("array `{}` has non-positive extent {v}", d.name),
                        ));
                        dims.push(REExtent::Const(1));
                    }
                    None => match e {
                        AExpr::Name(n) => dims.push(REExtent::Scalar(n.clone())),
                        _ => {
                            errors.push(CompileError::new(
                                d.span,
                                ErrorKind::Sema,
                                file,
                                format!(
                                    "array `{}` extent must be a constant or integer variable",
                                    d.name
                                ),
                            ));
                            dims.push(REExtent::Const(1));
                        }
                    },
                }
            }
            arrays.push(RArray {
                name: d.name.clone(),
                ty: d.ty,
                dims,
                common: None,
                formal_pos: None,
                dist_kind: DistKind::None,
                dist: None,
                equiv: vec![],
                span: d.span,
            });
        }
    }

    // Formal positions.
    for (pos, p) in unit.params.iter().enumerate() {
        if let Some(a) = arrays.iter_mut().find(|a| a.name == *p) {
            a.formal_pos = Some(pos);
        } else if !scalars.iter().any(|(n, _)| n == p) {
            errors.push(CompileError::new(
                unit.span,
                ErrorKind::Sema,
                file,
                format!("formal parameter `{p}` has no declaration"),
            ));
        }
    }
    // Scalar extents must name declared integer scalars.
    for a in &arrays {
        for d in &a.dims {
            if let REExtent::Scalar(n) = d {
                match scalars.iter().find(|(s, _)| s == n) {
                    Some((_, ATy::Int)) => {}
                    Some((_, _)) => errors.push(CompileError::new(
                        a.span,
                        ErrorKind::Sema,
                        file,
                        format!("extent `{n}` of `{}` must be integer", a.name),
                    )),
                    None => errors.push(CompileError::new(
                        a.span,
                        ErrorKind::Sema,
                        file,
                        format!("extent `{n}` of `{}` is not declared", a.name),
                    )),
                }
            }
        }
    }

    // Common membership.
    for (block, members) in &unit.commons {
        for (mi, m) in members.iter().enumerate() {
            match arrays.iter_mut().find(|a| a.name == *m) {
                Some(a) => {
                    if a.formal_pos.is_some() {
                        errors.push(CompileError::new(
                            a.span,
                            ErrorKind::Sema,
                            file,
                            format!("formal `{m}` cannot be in common /{block}/"),
                        ));
                    }
                    a.common = Some((block.clone(), mi));
                }
                None => errors.push(CompileError::new(
                    unit.span,
                    ErrorKind::Sema,
                    file,
                    format!("common /{block}/ member `{m}` is not a declared array"),
                )),
            }
        }
    }

    // Equivalences.
    for (span, a, b) in &unit.equivalences {
        let ai = arrays.iter().position(|x| x.name == *a);
        let bi = arrays.iter().position(|x| x.name == *b);
        match (ai, bi) {
            (Some(ai), Some(bi)) => {
                arrays[ai].equiv.push(b.clone());
                arrays[bi].equiv.push(a.clone());
            }
            _ => errors.push(CompileError::new(
                *span,
                ErrorKind::Sema,
                file,
                format!("equivalence names must be declared arrays: ({a}, {b})"),
            )),
        }
    }

    // Distribution directives.
    for dir in &unit.distributes {
        let Some(ai) = arrays.iter().position(|x| x.name == dir.array) else {
            errors.push(CompileError::new(
                dir.span,
                ErrorKind::Sema,
                file,
                format!("distribution of undeclared array `{}`", dir.array),
            ));
            continue;
        };
        if arrays[ai].formal_pos.is_some() {
            errors.push(CompileError::new(
                dir.span,
                ErrorKind::DistLegality,
                file,
                format!(
                    "array `{}` is a formal parameter; distributions are propagated \
                     automatically and must not be declared on formals",
                    dir.array
                ),
            ));
            continue;
        }
        if arrays[ai].dist_kind != DistKind::None {
            errors.push(CompileError::new(
                dir.span,
                ErrorKind::DistLegality,
                file,
                format!(
                    "array `{}` already has a distribution; an array is either \
                     distribute or distribute_reshape for the whole program",
                    dir.array
                ),
            ));
            continue;
        }
        if dir.dists.len() != arrays[ai].dims.len() {
            errors.push(CompileError::new(
                dir.span,
                ErrorKind::Sema,
                file,
                format!(
                    "distribution of `{}` has {} dims, array has {}",
                    dir.array,
                    dir.dists.len(),
                    arrays[ai].dims.len()
                ),
            ));
            continue;
        }
        let mut dims = Vec::new();
        let mut ok = true;
        for item in &dir.dists {
            match item {
                DistItem::Star => dims.push(Dist::Star),
                DistItem::Block => dims.push(Dist::Block),
                DistItem::Cyclic(None) => dims.push(Dist::Cyclic(1)),
                DistItem::Cyclic(Some(e)) => match fold_const(e, &params_const) {
                    Some(k) if k > 0 => dims.push(Dist::Cyclic(k as u64)),
                    _ => {
                        errors.push(CompileError::new(
                            dir.span,
                            ErrorKind::Sema,
                            file,
                            "cyclic chunk must be a positive compile-time constant",
                        ));
                        ok = false;
                    }
                },
            }
        }
        if !ok {
            continue;
        }
        let mut dist = Distribution::new(dims);
        if !dir.onto.is_empty() {
            if dir.onto.len() != dist.n_distributed() {
                errors.push(CompileError::new(
                    dir.span,
                    ErrorKind::Sema,
                    file,
                    format!(
                        "onto has {} ratios but {} dimensions are distributed",
                        dir.onto.len(),
                        dist.n_distributed()
                    ),
                ));
                continue;
            }
            dist.onto = Some(OntoSpec {
                ratios: dir.onto.iter().map(|&r| r.max(1) as u64).collect(),
            });
        }
        arrays[ai].dist_kind = if dir.reshape {
            DistKind::Reshaped
        } else {
            DistKind::Regular
        };
        arrays[ai].dist = Some(dist);
    }

    // Paper rule: reshaped arrays must not be equivalenced.
    for a in &arrays {
        if a.dist_kind == DistKind::Reshaped && !a.equiv.is_empty() {
            errors.push(CompileError::new(
                a.span,
                ErrorKind::DistLegality,
                file,
                format!(
                    "reshaped array `{}` is equivalenced with `{}`; reshaped arrays \
                     cannot be equivalenced (storage layout changes)",
                    a.name, a.equiv[0]
                ),
            ));
        }
    }

    let info = UnitInfo {
        unit,
        scalars,
        arrays,
        params_const,
    };
    check_body(&info, file, errors);
    info
}

/// Fold a compile-time integer constant expression (parameters allowed).
pub fn fold_const(e: &AExpr, params: &HashMap<String, i64>) -> Option<i64> {
    match e {
        AExpr::Int(v) => Some(*v),
        AExpr::Real(_) => None,
        AExpr::Name(n) => params.get(n).copied(),
        AExpr::Un(AUnOp::Neg, x) => Some(-fold_const(x, params)?),
        AExpr::Un(AUnOp::Not, x) => Some(i64::from(fold_const(x, params)? == 0)),
        AExpr::Bin(op, a, b) => {
            let a = fold_const(a, params)?;
            let b = fold_const(b, params)?;
            Some(match op {
                ABinOp::Add => a + b,
                ABinOp::Sub => a - b,
                ABinOp::Mul => a * b,
                ABinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a / b
                }
                ABinOp::Pow => {
                    if b < 0 {
                        return None;
                    }
                    a.checked_pow(b.try_into().ok()?)?
                }
                ABinOp::Lt => i64::from(a < b),
                ABinOp::Le => i64::from(a <= b),
                ABinOp::Gt => i64::from(a > b),
                ABinOp::Ge => i64::from(a >= b),
                ABinOp::Eq => i64::from(a == b),
                ABinOp::Ne => i64::from(a != b),
                ABinOp::And => i64::from(a != 0 && b != 0),
                ABinOp::Or => i64::from(a != 0 || b != 0),
            })
        }
        AExpr::Index(..) => None,
    }
}

/// Check that every name used in the body is declared, array reference
/// arities match, and redistribute targets are regular arrays.
fn check_body(info: &UnitInfo, file: &str, errors: &mut Vec<CompileError>) {
    for st in &info.unit.body {
        check_stmt(info, st, file, errors);
    }
}

fn check_stmt(info: &UnitInfo, st: &AStmt, file: &str, errors: &mut Vec<CompileError>) {
    match st {
        AStmt::Assign {
            span,
            lhs,
            lhs_indices,
            rhs,
        } => {
            if lhs_indices.is_empty() {
                if info.scalar_index(lhs).is_none() {
                    errors.push(CompileError::new(
                        *span,
                        ErrorKind::Sema,
                        file,
                        format!("assignment to undeclared scalar `{lhs}`"),
                    ));
                }
            } else {
                check_array_ref(info, *span, lhs, lhs_indices.len(), file, errors);
                for e in lhs_indices {
                    check_expr(info, *span, e, file, errors);
                }
            }
            check_expr(info, *span, rhs, file, errors);
        }
        AStmt::Do {
            span,
            var,
            lb,
            ub,
            step,
            body,
            doacross,
        } => {
            if info.scalar_index(var).is_none() {
                errors.push(CompileError::new(
                    *span,
                    ErrorKind::Sema,
                    file,
                    format!("loop variable `{var}` is not declared"),
                ));
            }
            for e in [Some(lb), Some(ub), step.as_ref()].into_iter().flatten() {
                check_expr(info, *span, e, file, errors);
            }
            if let Some(d) = doacross {
                for n in d.nest.iter().chain(&d.locals).chain(&d.shareds) {
                    if info.scalar_index(n).is_none() && info.array_index(n).is_none() {
                        errors.push(CompileError::new(
                            d.span,
                            ErrorKind::Sema,
                            file,
                            format!("doacross clause names undeclared `{n}`"),
                        ));
                    }
                }
                if let Some(aff) = &d.affinity {
                    match info.array_index(&aff.array) {
                        None => errors.push(CompileError::new(
                            d.span,
                            ErrorKind::Sema,
                            file,
                            format!("affinity data array `{}` is not declared", aff.array),
                        )),
                        Some(ai) => {
                            let a = &info.arrays[ai];
                            if aff.indices.len() != a.dims.len() {
                                errors.push(CompileError::new(
                                    d.span,
                                    ErrorKind::Sema,
                                    file,
                                    format!(
                                        "affinity reference to `{}` has {} indices, rank is {}",
                                        a.name,
                                        aff.indices.len(),
                                        a.dims.len()
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            for s in body {
                check_stmt(info, s, file, errors);
            }
        }
        AStmt::If {
            span,
            cond,
            then_body,
            else_body,
        } => {
            check_expr(info, *span, cond, file, errors);
            for s in then_body.iter().chain(else_body) {
                check_stmt(info, s, file, errors);
            }
        }
        AStmt::Call { span, args, .. } => {
            for a in args {
                // A bare name may be a whole array here.
                if let AExpr::Name(n) = a {
                    if info.array_index(n).is_some() {
                        continue;
                    }
                }
                check_expr(info, *span, a, file, errors);
            }
        }
        AStmt::Barrier { .. } => {}
        AStmt::Redistribute { span, array, dists } => match info.array_index(array) {
            None => errors.push(CompileError::new(
                *span,
                ErrorKind::Sema,
                file,
                format!("redistribute of undeclared array `{array}`"),
            )),
            Some(ai) => {
                let a = &info.arrays[ai];
                if a.dist_kind == DistKind::Reshaped {
                    errors.push(CompileError::new(
                        *span,
                        ErrorKind::DistLegality,
                        file,
                        format!("redistribute of reshaped array `{array}` is not allowed"),
                    ));
                }
                if a.dist_kind == DistKind::None {
                    errors.push(CompileError::new(
                        *span,
                        ErrorKind::DistLegality,
                        file,
                        format!("redistribute of `{array}` which has no c$distribute"),
                    ));
                }
                if dists.len() != a.dims.len() {
                    errors.push(CompileError::new(
                        *span,
                        ErrorKind::Sema,
                        file,
                        format!("redistribute of `{array}`: rank mismatch"),
                    ));
                }
            }
        },
        AStmt::ResizeTeam { span, .. } => {
            // Reshaped portions are bound to the old processor grid; the
            // paper's static reshaping contract forbids re-chunking them.
            for a in &info.arrays {
                if a.dist_kind == DistKind::Reshaped {
                    errors.push(CompileError::new(
                        *span,
                        ErrorKind::DistLegality,
                        file,
                        format!("resize_team with reshaped array `{}` declared", a.name),
                    ));
                    break;
                }
            }
        }
    }
}

fn check_array_ref(
    info: &UnitInfo,
    span: Span,
    name: &str,
    arity: usize,
    file: &str,
    errors: &mut Vec<CompileError>,
) {
    match info.array_index(name) {
        None => errors.push(CompileError::new(
            span,
            ErrorKind::Sema,
            file,
            format!("`{name}` is not a declared array"),
        )),
        Some(ai) => {
            let a = &info.arrays[ai];
            if a.dims.len() != arity {
                errors.push(CompileError::new(
                    span,
                    ErrorKind::Sema,
                    file,
                    format!(
                        "`{name}` has rank {}, referenced with {arity} indices",
                        a.dims.len()
                    ),
                ));
            }
        }
    }
}

fn check_expr(info: &UnitInfo, span: Span, e: &AExpr, file: &str, errors: &mut Vec<CompileError>) {
    match e {
        AExpr::Int(_) | AExpr::Real(_) => {}
        AExpr::Name(n) => {
            if info.scalar_index(n).is_none() && !info.params_const.contains_key(n) {
                errors.push(CompileError::new(
                    span,
                    ErrorKind::Sema,
                    file,
                    format!("use of undeclared name `{n}`"),
                ));
            }
        }
        AExpr::Index(n, args) => {
            if DIST_INTRINSICS.contains(&n.as_str()) {
                let ok = args.len() == 2
                    && matches!(&args[0], AExpr::Name(a) if info.array_index(a).is_some())
                    && fold_const(&args[1], &info.params_const).is_some_and(|d| d >= 1);
                if !ok {
                    errors.push(CompileError::new(
                        span,
                        ErrorKind::Sema,
                        file,
                        format!("`{n}` takes (distributed array, literal dimension >= 1)"),
                    ));
                }
                return;
            }
            if INTRINSICS.contains(&n.as_str()) {
                // arity sanity for the fixed-arity intrinsics
                let bad = match n.as_str() {
                    "mod" => args.len() != 2,
                    "abs" | "sqrt" | "dble" | "int" => args.len() != 1,
                    "numthreads" => !args.is_empty(),
                    _ => args.len() < 2, // max/min variadic >= 2
                };
                if bad {
                    errors.push(CompileError::new(
                        span,
                        ErrorKind::Sema,
                        file,
                        format!("wrong number of arguments to intrinsic `{n}`"),
                    ));
                }
            } else {
                check_array_ref(info, span, n, args.len(), file, errors);
            }
            for a in args {
                check_expr(info, span, a, file, errors);
            }
        }
        AExpr::Un(_, x) => check_expr(info, span, x, file, errors),
        AExpr::Bin(_, a, b) => {
            check_expr(info, span, a, file, errors);
            check_expr(info, span, b, file, errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_sources;

    fn ok(src: &str) -> Analysis {
        compile_sources(&[("t.f", src)]).expect("expected clean analysis")
    }

    fn errs(src: &str) -> Vec<CompileError> {
        compile_sources(&[("t.f", src)]).expect_err("expected errors")
    }

    #[test]
    fn simple_program_analyzes() {
        let a = ok("      program main\n      integer i\n      real*8 a(10)\n      do i = 1, 10\n        a(i) = i\n      enddo\n      end\n");
        assert_eq!(a.units.len(), 1);
        assert_eq!(a.units[0].arrays[0].name, "a");
        assert_eq!(a.units[0].arrays[0].dims, vec![REExtent::Const(10)]);
    }

    #[test]
    fn parameter_folds_into_extent() {
        let a = ok("      program main\n      integer n\n      parameter (n = 4*25)\n      real*8 a(n, n)\n      end\n");
        assert_eq!(
            a.units[0].arrays[0].dims,
            vec![REExtent::Const(100), REExtent::Const(100)]
        );
    }

    #[test]
    fn formal_extent_stays_symbolic() {
        let a = ok("      subroutine s(x, n)\n      integer n\n      real*8 x(n)\n      end\n      program main\n      end\n");
        let u = &a.units[0];
        assert_eq!(u.arrays[0].dims, vec![REExtent::Scalar("n".into())]);
        assert_eq!(u.arrays[0].formal_pos, Some(0));
    }

    #[test]
    fn undeclared_name_reported() {
        let e = errs("      program main\n      integer i\n      i = zz + 1\n      end\n");
        assert!(e.iter().any(|d| d.msg.contains("zz")));
    }

    #[test]
    fn rank_mismatch_reported() {
        let e = errs("      program main\n      real*8 a(10)\n      a(1, 2) = 0.0\n      end\n");
        assert!(e.iter().any(|d| d.msg.contains("rank")));
    }

    #[test]
    fn rank_above_max_rank_rejected_for_locals_and_formals() {
        let dims = |n: usize| vec!["2"; n].join(",");
        let local = |n| {
            format!(
                "      program main\n      real*8 a({})\n      a({}) = 0.0\n      end\n",
                dims(n),
                dims(n)
            )
        };
        let formal = |n| {
            format!("      subroutine s(f)\n      real*8 f({})\n      end\n      program main\n      end\n", dims(n))
        };
        for src in [local(MAX_RANK + 1), formal(MAX_RANK + 1)] {
            let e = errs(&src);
            assert_eq!(e.len(), 1, "one diagnostic, no cascade: {e:?}");
            assert!(
                e[0].msg.contains("rank 9, the maximum is 8"),
                "{}",
                e[0].msg
            );
            assert_eq!(e[0].span.line, 2, "located at the declaration");
        }
        ok(&local(MAX_RANK));
        ok(&formal(MAX_RANK));
    }

    #[test]
    fn distribute_binds_to_array() {
        let a =
            ok("      program main\n      real*8 a(10, 10)\nc$distribute a(*, block)\n      end\n");
        let arr = &a.units[0].arrays[0];
        assert_eq!(arr.dist_kind, DistKind::Regular);
        assert_eq!(
            arr.dist.as_ref().unwrap().dims,
            vec![Dist::Star, Dist::Block]
        );
    }

    #[test]
    fn reshape_binds_with_cyclic_chunk_folded() {
        let a = ok("      program main\n      integer k\n      parameter (k = 5)\n      real*8 a(1000)\nc$distribute_reshape a(cyclic(k))\n      end\n");
        let arr = &a.units[0].arrays[0];
        assert_eq!(arr.dist_kind, DistKind::Reshaped);
        assert_eq!(arr.dist.as_ref().unwrap().dims, vec![Dist::Cyclic(5)]);
    }

    #[test]
    fn equivalenced_reshape_is_dist_legality_error() {
        let e = errs("      program main\n      real*8 a(10), b(10)\n      equivalence (a, b)\nc$distribute_reshape a(block)\n      end\n");
        assert!(
            e.iter()
                .any(|d| d.kind == ErrorKind::DistLegality && d.msg.contains("equivalenced")),
            "{e:?}"
        );
    }

    #[test]
    fn equivalenced_regular_distribute_is_fine() {
        let a = ok("      program main\n      real*8 a(10), b(10)\n      equivalence (a, b)\nc$distribute a(block)\n      end\n");
        assert_eq!(a.units[0].arrays[0].dist_kind, DistKind::Regular);
    }

    #[test]
    fn directive_on_formal_rejected() {
        let e = errs("      subroutine s(x)\n      real*8 x(10)\nc$distribute_reshape x(block)\n      end\n      program main\n      end\n");
        assert!(e
            .iter()
            .any(|d| d.kind == ErrorKind::DistLegality && d.msg.contains("formal")));
    }

    #[test]
    fn double_distribution_rejected() {
        let e = errs("      program main\n      real*8 a(10)\nc$distribute a(block)\nc$distribute_reshape a(block)\n      end\n");
        assert!(e
            .iter()
            .any(|d| d.msg.contains("already has a distribution")));
    }

    #[test]
    fn redistribute_of_reshaped_rejected() {
        let e = errs("      program main\n      real*8 a(10)\nc$distribute_reshape a(block)\nc$redistribute a(cyclic)\n      end\n");
        assert!(e.iter().any(|d| d.kind == ErrorKind::DistLegality));
    }

    #[test]
    fn redistribute_needs_prior_distribute() {
        let e =
            errs("      program main\n      real*8 a(10)\nc$redistribute a(cyclic)\n      end\n");
        assert!(e.iter().any(|d| d.msg.contains("no c$distribute")));
    }

    #[test]
    fn onto_rank_checked() {
        let e = errs("      program main\n      real*8 a(10, 10)\nc$distribute a(block, block) onto(2, 2, 2)\n      end\n");
        assert!(e.iter().any(|d| d.msg.contains("onto")));
    }

    #[test]
    fn no_program_unit_is_error() {
        let e = errs("      subroutine s\n      end\n");
        assert!(e.iter().any(|d| d.msg.contains("no `program`")));
    }

    #[test]
    fn common_members_resolved() {
        let a = ok(
            "      program main\n      real*8 a(10), b(20)\n      common /blk/ a, b\n      end\n",
        );
        assert_eq!(a.units[0].arrays[0].common, Some(("blk".into(), 0)));
        assert_eq!(a.units[0].arrays[1].common, Some(("blk".into(), 1)));
    }

    #[test]
    fn intrinsic_arity_checked() {
        let e = errs("      program main\n      real*8 x\n      x = mod(3)\n      end\n");
        assert!(e.iter().any(|d| d.msg.contains("intrinsic")));
    }

    #[test]
    fn multi_file_compilation() {
        let a = compile_sources(&[
            ("main.f", "      program main\n      call s\n      end\n"),
            ("sub.f", "      subroutine s\n      end\n"),
        ])
        .unwrap();
        assert_eq!(a.units.len(), 2);
        assert_eq!(a.main, 0);
        assert_eq!(a.units[1].unit.file, 1);
    }
}
