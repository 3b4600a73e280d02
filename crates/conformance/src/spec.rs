//! Structured model of a generated test program.
//!
//! The fuzzer does not manipulate Fortran text directly: it builds a
//! [`Spec`] — arrays, distribution directives, phases, callee
//! subroutines — and renders it to directive-Fortran sources on demand.
//! The shrinker mutates the [`Spec`] (drop a phase, simplify an
//! expression, strip a clause) and re-renders, so every shrink candidate
//! is a structurally plausible program rather than a random text edit.
//!
//! Every program a [`Spec`] can express is *confluent by construction*:
//! `doacross` bodies write arrays only at indices that carry the parallel
//! loop variable bare in a fixed dimension slot, so distinct iterations
//! touch disjoint elements and the final array contents are independent
//! of scheduling, distribution, and team interleaving. That is exactly
//! the paper's invariant (directives change placement, not semantics),
//! and it is what lets a layout-oblivious serial oracle predict the
//! output of every machine configuration.

/// Element type of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// `real*8`
    Real,
    /// `integer`
    Int,
}

/// One per-dimension item of a distribution directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistItemSpec {
    /// `block`
    Block,
    /// `cyclic` (chunk 1) or `cyclic(k)`
    Cyclic(Option<i64>),
    /// `*` (not distributed)
    Star,
}

impl DistItemSpec {
    fn render(self) -> String {
        match self {
            DistItemSpec::Block => "block".into(),
            DistItemSpec::Cyclic(None) => "cyclic".into(),
            DistItemSpec::Cyclic(Some(k)) => format!("cyclic({k})"),
            DistItemSpec::Star => "*".into(),
        }
    }
}

/// How an array is distributed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistSpec {
    /// No directive: placed by the page policy.
    None,
    /// `c$distribute` (page-granularity regular distribution).
    Regular(Vec<DistItemSpec>),
    /// `c$distribute_reshape` (layout-changing distribution).
    Reshaped(Vec<DistItemSpec>),
}

/// One main-program array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySpec {
    /// Fortran name (`a`, `b`, …).
    pub name: String,
    /// Extents (all ≥ 3).
    pub dims: Vec<i64>,
    /// Element type.
    pub ty: ElemTy,
    /// Distribution directive.
    pub dist: DistSpec,
}

/// Safe index forms for reading an array inside a loop: every form maps
/// any loop-variable value ≥ 1 into the dimension's bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `mod(v + c, E) + 1` — wraps, always in bounds.
    Mod,
    /// `min(v + 1, E)` on dim 0, `max(E - v, 1)` elsewhere — both clamp
    /// from *both* sides, since the driving variable may range far past
    /// this array's extent.
    Clamp,
    /// `E + 1 - min(v, E)` — reversed traversal.
    Rev,
    /// `v + c` with `0 ≤ c ≤ E − R`, `R` the largest value the driving
    /// variable takes — an affine, stencil-style reference, which is what
    /// the executor's loop kernels are made of; a constant index where
    /// the variable's range does not fit the extent (`R > E`).
    Shift,
}

/// Generated right-hand-side expressions. All real-valued (integer
/// leaves are wrapped in `dble`), so any tree is type-correct anywhere.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// Real literal.
    F(f64),
    /// The shared real scalar `s`.
    SVar,
    /// `dble(i)` — the (outermost) loop variable in scope.
    PvF,
    /// `dble(j)` — the second loop variable; renders `dble(1)` when not
    /// in scope (shrink mutations may strip the inner loop).
    IvF,
    /// Identity read of the statement's target array (same indices as
    /// the left-hand side).
    SelfRead,
    /// Read of main array `arr` through a safe index form (offset `off`).
    Read(usize, i64, ReadKind),
    /// `(x + y)`
    Add(Box<RExpr>, Box<RExpr>),
    /// `(x - y)`
    Sub(Box<RExpr>, Box<RExpr>),
    /// `(x * y)`
    Mul(Box<RExpr>, Box<RExpr>),
    /// `(x / 2.0)`
    Half(Box<RExpr>),
    /// `sqrt(abs(x))`
    SqrtAbs(Box<RExpr>),
    /// `dble(int(x))` — exercises real→int truncation.
    Trunc(Box<RExpr>),
    /// `max(x, y)` / `min(x, y)` over reals.
    MaxR(Box<RExpr>, Box<RExpr>),
}

/// Loop bounds relative to the driven dimension's extent `E`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bounds {
    /// `1, E`
    Full,
    /// `2, E - 1`
    Shifted,
    /// `1, E, 2`
    Strided,
    /// `E, 1, -1`
    Reversed,
}

/// `schedtype` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedSpec {
    /// `schedtype(simple)`
    Simple,
    /// `schedtype(interleave(k))`
    Interleave(i64),
    /// `schedtype(dynamic(k))`
    Dynamic(i64),
}

/// `affinity(i) = data(arr(…))` clause: the loop variable drives
/// dimension `slot` of array `arr` (other index positions are `1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffSpec {
    /// Index into [`Spec::arrays`].
    pub arr: usize,
    /// Dimension of `arr` driven by the loop variable.
    pub slot: usize,
}

/// A loop nest writing one array at identity indices.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// Written array (index into [`Spec::arrays`]).
    pub arr: usize,
    /// Dimension of `arr` driven by the outer (parallel) loop variable.
    pub slot: usize,
    /// Outer loop bounds.
    pub bounds: Bounds,
    /// Emit a `c$doacross` on the outer loop.
    pub doacross: bool,
    /// Emit `nest(i, j)` (needs rank ≥ 2, no guard).
    pub nest2: bool,
    /// Emit a `shared(...)` clause listing referenced arrays.
    pub shareds: bool,
    /// Optional affinity clause.
    pub affinity: Option<AffSpec>,
    /// Optional schedtype clause (not combined with affinity).
    pub sched: Option<SchedSpec>,
    /// `if (mod(i, k) .eq. 0) then … endif` around the body.
    pub guard: Option<i64>,
    /// Right-hand side of the assignment.
    pub rhs: RExpr,
}

/// One top-level phase of the main program.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Serial loop nest writing every element of an array.
    Init {
        /// Written array.
        arr: usize,
        /// Right-hand side.
        rhs: RExpr,
    },
    /// `s = <expr>` at serial level.
    ScalarAssign {
        /// Right-hand side (no loop variables in scope).
        rhs: RExpr,
    },
    /// A (possibly parallel) loop nest.
    Loop(LoopSpec),
    /// `c$redistribute` of a regular-distributed array.
    Redistribute {
        /// Redistributed array.
        arr: usize,
        /// New per-dimension items.
        dists: Vec<DistItemSpec>,
    },
    /// `c$resize_team(P)` — re-chunk every regular array for a team of
    /// `P` processors (only legal when no reshaped array is declared).
    ResizeTeam {
        /// New team size (clamped to the machine at run time).
        nprocs: i64,
    },
    /// Cross-file call passing a whole array.
    Call {
        /// Index into [`Spec::subs`].
        sub: usize,
        /// Passed array (must be `real*8`; formal shape matches).
        arr: usize,
    },
    /// `c$barrier`.
    Barrier,
}

/// A subroutine in the second source file. It takes a single `real*8`
/// formal `x` with fixed declared shape and updates it in place at
/// identity indices (reads only `x`, loop variables and literals).
#[derive(Debug, Clone, PartialEq)]
pub struct SubSpec {
    /// Subroutine name (`sub1`, `sub2`, …).
    pub name: String,
    /// Declared formal extents.
    pub dims: Vec<i64>,
    /// Put a `c$doacross` on the outer loop of the update nest.
    pub doacross: bool,
    /// Right-hand side (must not contain [`RExpr::Read`]).
    pub rhs: RExpr,
}

/// A complete generated program.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Main-program arrays.
    pub arrays: Vec<ArraySpec>,
    /// Cross-file subroutines.
    pub subs: Vec<SubSpec>,
    /// Main-program phases in order.
    pub phases: Vec<Phase>,
}

const LOOP_VARS: [&str; 3] = ["i", "j", "k"];

impl Spec {
    /// Names of all main-program arrays, in declaration order (the
    /// capture list of every differential run).
    pub fn capture_names(&self) -> Vec<String> {
        self.arrays.iter().map(|a| a.name.clone()).collect()
    }

    /// Render to `(file name, source)` pairs: `main.f`, plus `subs.f`
    /// when any subroutine exists (cross-file to exercise the
    /// shadow/prelink mechanism).
    pub fn render(&self) -> Vec<(String, String)> {
        let mut main = String::new();
        main.push_str("      program main\n");
        main.push_str("      integer i, j, k\n");
        main.push_str("      real*8 s\n");
        for a in &self.arrays {
            let dims = a
                .dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let ty = match a.ty {
                ElemTy::Real => "real*8",
                ElemTy::Int => "integer",
            };
            main.push_str(&format!("      {ty} {}({dims})\n", a.name));
        }
        for a in &self.arrays {
            let (kw, items) = match &a.dist {
                DistSpec::None => continue,
                DistSpec::Regular(items) => ("c$distribute", items),
                DistSpec::Reshaped(items) => ("c$distribute_reshape", items),
            };
            let items = items
                .iter()
                .map(|d| d.render())
                .collect::<Vec<_>>()
                .join(", ");
            main.push_str(&format!("{kw} {}({items})\n", a.name));
        }
        for p in &self.phases {
            self.render_phase(&mut main, p);
        }
        main.push_str("      end\n");

        let mut out = vec![("main.f".to_string(), main)];
        if !self.subs.is_empty() {
            let mut subs = String::new();
            for s in &self.subs {
                self.render_sub(&mut subs, s);
            }
            out.push(("subs.f".to_string(), subs));
        }
        out
    }

    fn render_phase(&self, out: &mut String, p: &Phase) {
        match p {
            Phase::Init { arr, rhs } => {
                let a = &self.arrays[*arr];
                let rank = a.dims.len();
                let idx: Vec<String> = (0..rank).map(|d| LOOP_VARS[d].to_string()).collect();
                let lhs = format!("{}({})", a.name, idx.join(", "));
                for (d, e) in a.dims.iter().enumerate() {
                    out.push_str(&format!("{}do {} = 1, {e}\n", indent(d), LOOP_VARS[d]));
                }
                let cx = RenderCx {
                    spec: self,
                    ranges: a.dims.clone(),
                    self_ref: Some(lhs.clone()),
                };
                out.push_str(&format!(
                    "{}{lhs} = {}\n",
                    indent(rank),
                    cx.render_expr(rhs)
                ));
                for d in (0..rank).rev() {
                    out.push_str(&format!("{}enddo\n", indent(d)));
                }
            }
            Phase::ScalarAssign { rhs } => {
                let cx = RenderCx {
                    spec: self,
                    ranges: Vec::new(),
                    self_ref: None,
                };
                out.push_str(&format!("      s = {}\n", cx.render_expr(rhs)));
            }
            Phase::Loop(l) => self.render_loop(out, l),
            Phase::Redistribute { arr, dists } => {
                let items = dists
                    .iter()
                    .map(|d| d.render())
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "c$redistribute {}({items})\n",
                    self.arrays[*arr].name
                ));
            }
            Phase::ResizeTeam { nprocs } => {
                out.push_str(&format!("c$resize_team({nprocs})\n"));
            }
            Phase::Call { sub, arr } => {
                out.push_str(&format!(
                    "      call {}({})\n",
                    self.subs[*sub].name, self.arrays[*arr].name
                ));
            }
            Phase::Barrier => out.push_str("c$barrier\n"),
        }
    }

    /// LHS index list of a loop phase: the parallel variable `i` sits
    /// bare in dimension `slot`, inner serial variables fill the rest.
    fn loop_lhs(&self, l: &LoopSpec) -> (String, usize) {
        let a = &self.arrays[l.arr];
        let rank = a.dims.len();
        let mut next_inner = 1; // j, k
        let mut idx = Vec::with_capacity(rank);
        for d in 0..rank {
            if d == l.slot {
                idx.push(LOOP_VARS[0].to_string());
            } else {
                idx.push(LOOP_VARS[next_inner].to_string());
                next_inner += 1;
            }
        }
        (format!("{}({})", a.name, idx.join(", ")), rank)
    }

    fn render_loop(&self, out: &mut String, l: &LoopSpec) {
        let a = &self.arrays[l.arr];
        let rank = a.dims.len();
        let (lhs, _) = self.loop_lhs(l);
        // Inner serial loop dims, in order, with their variables.
        let inner: Vec<(usize, &str)> = (0..rank)
            .filter(|d| *d != l.slot)
            .zip(LOOP_VARS[1..].iter().copied())
            .collect();
        if l.doacross {
            let mut dir = String::from("c$doacross");
            if l.nest2 && !inner.is_empty() {
                dir.push_str(&format!(" nest(i, {})", inner[0].1));
            }
            let mut locals = vec!["i"];
            locals.extend(inner.iter().map(|(_, v)| *v));
            dir.push_str(&format!(" local({})", locals.join(", ")));
            if l.shareds {
                let mut names = vec![a.name.clone()];
                collect_reads(&l.rhs, &mut |arr| {
                    let n = self.arrays[arr].name.clone();
                    if !names.contains(&n) {
                        names.push(n);
                    }
                });
                dir.push_str(&format!(" shared({})", names.join(", ")));
            }
            if let Some(aff) = &l.affinity {
                let t = &self.arrays[aff.arr];
                let idx: Vec<String> = (0..t.dims.len())
                    .map(|d| {
                        if d == aff.slot {
                            "i".into()
                        } else {
                            "1".to_string()
                        }
                    })
                    .collect();
                dir.push_str(&format!(
                    " affinity(i) = data({}({}))",
                    t.name,
                    idx.join(", ")
                ));
            } else if let Some(s) = &l.sched {
                let s = match s {
                    SchedSpec::Simple => "simple".to_string(),
                    SchedSpec::Interleave(k) => format!("interleave({k})"),
                    SchedSpec::Dynamic(k) => format!("dynamic({k})"),
                };
                dir.push_str(&format!(" schedtype({s})"));
            }
            dir.push('\n');
            out.push_str(&dir);
        }
        let e = a.dims[l.slot];
        let bounds = match l.bounds {
            Bounds::Full => format!("1, {e}"),
            Bounds::Shifted => format!("2, {}", e - 1),
            Bounds::Strided => format!("1, {e}, 2"),
            Bounds::Reversed => format!("{e}, 1, -1"),
        };
        out.push_str(&format!("      do i = {bounds}\n"));
        let mut depth = 1;
        if let Some(k) = l.guard {
            out.push_str(&format!("{}if (mod(i, {k}) .eq. 0) then\n", indent(depth)));
            depth += 1;
        }
        for (d, v) in &inner {
            out.push_str(&format!("{}do {v} = 1, {}\n", indent(depth), a.dims[*d]));
            depth += 1;
        }
        let cx = RenderCx {
            spec: self,
            // Every bounds form keeps `i` within `1..=e`.
            ranges: std::iter::once(e)
                .chain(inner.iter().map(|(d, _)| a.dims[*d]))
                .collect(),
            self_ref: Some(lhs.clone()),
        };
        out.push_str(&format!(
            "{}{lhs} = {}\n",
            indent(depth),
            cx.render_expr(&l.rhs)
        ));
        for _ in &inner {
            depth -= 1;
            out.push_str(&format!("{}enddo\n", indent(depth)));
        }
        if l.guard.is_some() {
            depth -= 1;
            out.push_str(&format!("{}endif\n", indent(depth)));
        }
        out.push_str("      enddo\n");
    }

    fn render_sub(&self, out: &mut String, s: &SubSpec) {
        let rank = s.dims.len();
        out.push_str(&format!("      subroutine {}(x)\n", s.name));
        out.push_str(&format!("      integer {}\n", LOOP_VARS[..rank].join(", ")));
        let dims = s
            .dims
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!("      real*8 x({dims})\n"));
        let idx: Vec<String> = (0..rank).map(|d| LOOP_VARS[d].to_string()).collect();
        let lhs = format!("x({})", idx.join(", "));
        if s.doacross {
            out.push_str(&format!(
                "c$doacross local({})\n",
                LOOP_VARS[..rank].join(", ")
            ));
        }
        for (d, e) in s.dims.iter().enumerate() {
            out.push_str(&format!("{}do {} = 1, {e}\n", indent(d), LOOP_VARS[d]));
        }
        let cx = RenderCx {
            spec: self,
            ranges: s.dims.clone(),
            self_ref: Some(lhs.clone()),
        };
        out.push_str(&format!(
            "{}{lhs} = {}\n",
            indent(rank),
            cx.render_expr(&s.rhs)
        ));
        for d in (0..rank).rev() {
            out.push_str(&format!("{}enddo\n", indent(d)));
        }
        out.push_str("      end\n");
    }
}

fn indent(depth: usize) -> String {
    " ".repeat(6 + 2 * depth)
}

/// Visit every [`RExpr::Read`] in an expression.
pub fn collect_reads(e: &RExpr, f: &mut impl FnMut(usize)) {
    match e {
        RExpr::Read(arr, _, _) => f(*arr),
        RExpr::Add(a, b) | RExpr::Sub(a, b) | RExpr::Mul(a, b) | RExpr::MaxR(a, b) => {
            collect_reads(a, f);
            collect_reads(b, f);
        }
        RExpr::Half(a) | RExpr::SqrtAbs(a) | RExpr::Trunc(a) => collect_reads(a, f),
        _ => {}
    }
}

struct RenderCx<'a> {
    spec: &'a Spec,
    /// Largest value of each loop variable in scope (`i`, then `j`, then
    /// `k`); all start at 1 or above.
    ranges: Vec<i64>,
    /// Rendered identity reference of the target array, if any.
    self_ref: Option<String>,
}

impl RenderCx<'_> {
    fn render_expr(&self, e: &RExpr) -> String {
        match e {
            RExpr::F(v) => format!("{v:?}"),
            RExpr::SVar => "s".into(),
            RExpr::PvF => {
                if !self.ranges.is_empty() {
                    "dble(i)".into()
                } else {
                    "dble(1)".into()
                }
            }
            RExpr::IvF => {
                if self.ranges.len() >= 2 {
                    "dble(j)".into()
                } else {
                    "dble(1)".into()
                }
            }
            RExpr::SelfRead => self.self_ref.clone().unwrap_or_else(|| "0.0".into()),
            RExpr::Read(arr, off, kind) => {
                let a = &self.spec.arrays[*arr];
                let idx: Vec<String> = a
                    .dims
                    .iter()
                    .enumerate()
                    .map(|(d, &e)| self.render_index(d, e, *off, *kind))
                    .collect();
                format!("{}({})", a.name, idx.join(", "))
            }
            RExpr::Add(a, b) => {
                format!("({} + {})", self.render_expr(a), self.render_expr(b))
            }
            RExpr::Sub(a, b) => {
                format!("({} - {})", self.render_expr(a), self.render_expr(b))
            }
            RExpr::Mul(a, b) => {
                format!("({} * {})", self.render_expr(a), self.render_expr(b))
            }
            RExpr::Half(a) => format!("({} / 2.0)", self.render_expr(a)),
            RExpr::SqrtAbs(a) => format!("sqrt(abs({}))", self.render_expr(a)),
            RExpr::Trunc(a) => format!("dble(int({}))", self.render_expr(a)),
            RExpr::MaxR(a, b) => {
                format!("max({}, {})", self.render_expr(a), self.render_expr(b))
            }
        }
    }

    /// A safe 1-based index expression for dimension `d` (extent `e`).
    fn render_index(&self, d: usize, e: i64, off: i64, kind: ReadKind) -> String {
        // Variable driving this dimension: reuse the in-scope loop vars
        // round-robin; constant fallback outside any loop.
        let constant = ((off + d as i64).rem_euclid(e) + 1).to_string();
        let Some(var) = self.ranges.len().checked_sub(1).map(|last| d.min(last)) else {
            return constant;
        };
        let v = LOOP_VARS[var];
        match kind {
            ReadKind::Mod => format!("mod({v} + {}, {e}) + 1", off + d as i64),
            ReadKind::Clamp => {
                if d == 0 {
                    format!("min({v} + 1, {e})")
                } else {
                    format!("max({e} - {v}, 1)")
                }
            }
            ReadKind::Rev => format!("{e} + 1 - min({v}, {e})"),
            ReadKind::Shift => match e - self.ranges[var] {
                room @ 0.. => format!("{v} + {}", off.min(room)),
                _ => constant,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            arrays: vec![ArraySpec {
                name: "a".into(),
                dims: vec![8],
                ty: ElemTy::Real,
                dist: DistSpec::Regular(vec![DistItemSpec::Block]),
            }],
            subs: vec![],
            phases: vec![Phase::Loop(LoopSpec {
                arr: 0,
                slot: 0,
                bounds: Bounds::Full,
                doacross: true,
                nest2: false,
                shareds: false,
                affinity: None,
                sched: None,
                guard: None,
                rhs: RExpr::PvF,
            })],
        }
    }

    #[test]
    fn renders_parseable_fortran() {
        let sources = tiny().render();
        assert_eq!(sources.len(), 1, "no subs -> one file");
        let (_, text) = &sources[0];
        assert!(text.contains("c$doacross local(i)"), "{text}");
        assert!(text.contains("a(i) = dble(i)"), "{text}");
        let parsed = dsm_frontend::parse_source(0, "main.f", text);
        assert!(parsed.is_ok(), "{parsed:?}\n{text}");
    }

    #[test]
    fn shifted_reads_are_affine_and_in_bounds() {
        let cx = |spec, ranges| RenderCx { spec, ranges, self_ref: None };
        let spec = tiny();
        // `v` up to 5 into an extent of 8: room for a shift of 3 at most.
        assert_eq!(cx(&spec, vec![5]).render_index(0, 8, 2, ReadKind::Shift), "i + 2");
        assert_eq!(cx(&spec, vec![5]).render_index(0, 8, 7, ReadKind::Shift), "i + 3");
        assert_eq!(cx(&spec, vec![8, 4]).render_index(1, 4, 1, ReadKind::Shift), "j + 0");
        // The last variable in scope drives the remaining dimensions.
        assert_eq!(cx(&spec, vec![3]).render_index(2, 4, 1, ReadKind::Shift), "i + 1");
        // No room, or no variable: a constant inside the extent.
        assert_eq!(cx(&spec, vec![9]).render_index(0, 8, 2, ReadKind::Shift), "3");
        assert_eq!(cx(&spec, vec![]).render_index(1, 3, 4, ReadKind::Shift), "3");
    }

    #[test]
    fn index_forms_stay_in_bounds() {
        // mod form over any extent: v in 1..=64, extents 3..=16.
        for e in 3..=16i64 {
            for v in 1..=64i64 {
                for off in 0..4 {
                    let m = (v + off).rem_euclid(e) + 1;
                    assert!((1..=e).contains(&m));
                    let c0 = (v + 1).min(e);
                    assert!((1..=e).contains(&c0));
                    let c1 = (e - v).max(1);
                    assert!((1..=e).contains(&c1));
                    let r = e + 1 - v.min(e);
                    assert!((1..=e).contains(&r));
                }
            }
        }
    }
}
