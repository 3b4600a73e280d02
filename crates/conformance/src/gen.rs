//! Seeded random program generator.
//!
//! [`generate`] maps a `u64` seed to a [`Spec`] deterministically (the
//! vendored SplitMix64 generator), so a failing seed printed by CI can
//! be replayed bit-for-bit with `dsmfuzz --replay <seed>`.
//!
//! The generator enforces the safety rules that make the differential
//! oracle sound (see `spec.rs`): doacross bodies only write their
//! target array at indices carrying the parallel variable bare in a
//! fixed slot, never assign scalars, never call subroutines; reads of
//! other arrays go through always-in-bounds index forms; redistribution
//! only targets regular-distributed arrays; calls pass whole `real*8`
//! arrays to formals of identical declared shape. Everything else —
//! distributions, reshapes, schedules, affinity, bounds shapes, guards,
//! nesting, expression trees — is fuzzed freely.

use crate::spec::{
    AffSpec, ArraySpec, Bounds, DistItemSpec, DistSpec, ElemTy, LoopSpec, Phase, RExpr, ReadKind,
    SchedSpec, Spec, SubSpec,
};
use rand::{Rng, SmallRng};

const ARRAY_NAMES: [&str; 3] = ["a", "b", "c"];

/// Options for [`generate_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GenOptions {
    /// Emit the program without any placement directives — no
    /// `distribute`/`distribute_reshape`, no `redistribute` phases, no
    /// `doacross` annotations (`c$barrier` stays; it is synchronization,
    /// not placement). The stripped program computes the same values as
    /// the annotated one for the same seed, which is exactly what the
    /// advisor needs as fuzz input: unannotated programs whose oracle
    /// expectations are already known-good.
    pub strip_directives: bool,
}

/// Generate the program for one seed under `opts`.
pub fn generate_with(seed: u64, opts: &GenOptions) -> Spec {
    let mut spec = generate(seed);
    if opts.strip_directives {
        strip_spec(&mut spec);
    }
    spec
}

/// Remove every placement directive from a generated spec. Serial
/// execution is strictly more permissive than the generator's doacross
/// safety rules, so the stripped program is always valid.
fn strip_spec(spec: &mut Spec) {
    for a in &mut spec.arrays {
        a.dist = DistSpec::None;
    }
    for s in &mut spec.subs {
        s.doacross = false;
    }
    spec.phases
        .retain(|p| !matches!(p, Phase::Redistribute { .. } | Phase::ResizeTeam { .. }));
    for p in &mut spec.phases {
        if let Phase::Loop(l) = p {
            l.doacross = false;
            l.nest2 = false;
            l.shareds = false;
            l.affinity = None;
            l.sched = None;
        }
    }
}

/// Generate the program for one seed.
pub fn generate(seed: u64) -> Spec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let r = &mut rng;

    let n_arrays = match r.gen_range(0..10) {
        0..=2 => 1,
        3..=6 => 2,
        _ => 3,
    };
    let arrays: Vec<ArraySpec> = (0..n_arrays)
        .map(|i| gen_array(r, ARRAY_NAMES[i]))
        .collect();

    let mut spec = Spec {
        arrays,
        subs: Vec::new(),
        phases: Vec::new(),
    };

    // Initialise a prefix of the arrays (the rest start zeroed, like the
    // simulated machine's memory).
    for arr in 0..spec.arrays.len() {
        if r.gen_range(0..10) < 7 {
            let rhs = gen_expr(r, &spec, 0, true, false, None);
            spec.phases.push(Phase::Init { arr, rhs });
        }
    }

    let n_extra = 2 + r.gen_range(0..4) as usize;
    let mut have_doacross = false;
    for _ in 0..n_extra {
        match r.gen_range(0..100) {
            0..=54 => {
                let l = gen_loop(r, &spec, true);
                have_doacross |= l.doacross;
                spec.phases.push(Phase::Loop(l));
            }
            55..=69 => {
                if let Some(p) = gen_call(r, &mut spec) {
                    spec.phases.push(p);
                }
            }
            70..=79 => {
                if let Some(p) = gen_redistribute(r, &spec) {
                    spec.phases.push(p);
                }
            }
            95..=97 => {
                if let Some(p) = gen_resize(r, &spec) {
                    spec.phases.push(p);
                }
            }
            80..=89 => {
                let rhs = gen_expr(r, &spec, 0, false, true, None);
                spec.phases.push(Phase::ScalarAssign { rhs });
            }
            90..=94 => {
                let l = gen_loop(r, &spec, false);
                spec.phases.push(Phase::Loop(l));
            }
            _ => spec.phases.push(Phase::Barrier),
        }
    }
    if !have_doacross {
        let mut l = gen_loop(r, &spec, true);
        l.doacross = true;
        spec.phases.push(Phase::Loop(l));
    }
    let stencil = gen_stencil(r, &spec);
    spec.phases.push(Phase::Loop(stencil));
    spec
}

/// A stencil sweep — the sum of two to four affine ([`ReadKind::Shift`])
/// references, the target's own element among them — whose innermost
/// loop is serial and unguarded: the shape the bytecode engine runs as a
/// stream kernel, so `--engine-diff` meets a multi-reference kernel (or
/// the reason it fell back: a tile crossing, a `cyclic(k)` array) on
/// every seed. Rank 1 sweeps are serial and may read the target itself at
/// a shift; higher ranks are parallel half the time, over other arrays.
fn gen_stencil(r: &mut SmallRng, spec: &Spec) -> LoopSpec {
    let arr = r.gen_range(0..spec.arrays.len() as u64) as usize;
    let rank = spec.arrays[arr].dims.len();
    let doacross = rank >= 2 && r.gen_range(0..2) == 0;
    let readable: Vec<usize> = (0..spec.arrays.len())
        .filter(|i| !doacross || *i != arr)
        .collect();
    let mut rhs = RExpr::SelfRead;
    for _ in 0..1 + r.gen_range(0..3) {
        let read = match readable.is_empty() {
            true => RExpr::PvF,
            false => RExpr::Read(*pick(r, &readable), r.gen_range(0..4) as i64, ReadKind::Shift),
        };
        rhs = RExpr::Add(Box::new(rhs), Box::new(read));
    }
    LoopSpec {
        arr,
        slot: r.gen_range(0..rank as u64) as usize,
        bounds: *pick(r, &[Bounds::Full, Bounds::Shifted, Bounds::Reversed]),
        doacross,
        nest2: false,
        shareds: false,
        affinity: None,
        sched: None,
        guard: None,
        rhs: RExpr::Half(Box::new(rhs)),
    }
}

/// Generate the program for one seed with the redistribution axis
/// forced on: every reshaped array is regularized (so `c$redistribute`
/// and `c$resize_team` are always legal), at least one array carries a
/// regular distribution, and the phase list is guaranteed to contain at
/// least one `Redistribute` (fresh per-dimension items — block ↔
/// cyclic(k) ↔ cyclic(k′) conversions included) and one `ResizeTeam`
/// point, inserted between existing phases. Used by the scheduled-vs-
/// naive differential matrix.
pub fn generate_redist(seed: u64) -> Spec {
    let mut spec = generate(seed);
    // Dedicated axis: reshaped arrays would statically reject
    // resize_team and redistribute, so regularize them.
    for a in &mut spec.arrays {
        if let DistSpec::Reshaped(items) = &a.dist {
            a.dist = DistSpec::Regular(items.clone());
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let r = &mut rng;
    if !spec
        .arrays
        .iter()
        .any(|a| matches!(a.dist, DistSpec::Regular(_)))
    {
        let rank = spec.arrays[0].dims.len();
        spec.arrays[0].dist = DistSpec::Regular(gen_dist_items(r, rank));
    }
    let n_redist = 1 + r.gen_range(0..2) as usize;
    for _ in 0..n_redist {
        if let Some(p) = gen_redistribute(r, &spec) {
            let at = r.gen_range(0..(spec.phases.len() + 1) as u64) as usize;
            spec.phases.insert(at, p);
        }
    }
    if let Some(p) = gen_resize(r, &spec) {
        let at = r.gen_range(0..(spec.phases.len() + 1) as u64) as usize;
        spec.phases.insert(at, p);
    }
    spec
}

fn gen_array(r: &mut SmallRng, name: &str) -> ArraySpec {
    let rank = 1 + r.gen_range(0..3) as usize;
    let dims: Vec<i64> = match rank {
        1 => vec![*pick(r, &[6, 8, 9, 12, 16, 24])],
        2 => (0..2).map(|_| *pick(r, &[4, 5, 6, 8, 9])).collect(),
        _ => (0..3).map(|_| *pick(r, &[3, 4, 5])).collect(),
    };
    let ty = if r.gen_range(0..10) == 0 {
        ElemTy::Int
    } else {
        ElemTy::Real
    };
    let dist = match r.gen_range(0..100) {
        0..=34 => DistSpec::Regular(gen_dist_items(r, rank)),
        35..=64 => DistSpec::Reshaped(gen_dist_items(r, rank)),
        _ => DistSpec::None,
    };
    ArraySpec {
        name: name.to_string(),
        dims,
        ty,
        dist,
    }
}

/// Per-dimension items with at least one distributed dimension.
fn gen_dist_items(r: &mut SmallRng, rank: usize) -> Vec<DistItemSpec> {
    loop {
        let items: Vec<DistItemSpec> = (0..rank)
            .map(|_| match r.gen_range(0..100) {
                0..=44 => DistItemSpec::Block,
                45..=64 => DistItemSpec::Cyclic(None),
                65..=84 => DistItemSpec::Cyclic(Some(*pick(r, &[1, 2, 3, 5]))),
                _ => DistItemSpec::Star,
            })
            .collect();
        if items.iter().any(|d| !matches!(d, DistItemSpec::Star)) {
            return items;
        }
    }
}

fn gen_loop(r: &mut SmallRng, spec: &Spec, doacross: bool) -> LoopSpec {
    let arr = r.gen_range(0..spec.arrays.len() as u64) as usize;
    let rank = spec.arrays[arr].dims.len();
    let slot = r.gen_range(0..rank as u64) as usize;
    let bounds = match r.gen_range(0..100) {
        0..=59 => Bounds::Full,
        60..=74 => Bounds::Shifted,
        75..=84 => Bounds::Strided,
        _ => Bounds::Reversed,
    };
    let guard = if r.gen_range(0..100) < 15 {
        Some(*pick(r, &[2, 3]))
    } else {
        None
    };
    // nest(i, j) demands a perfect nest: no guard between the loops.
    let nest2 = doacross && rank >= 2 && guard.is_none() && r.gen_range(0..4) == 0;
    // Affinity candidates: distributed arrays with a dimension whose
    // extent covers the loop range, so `data(t(.., i, ..))` never
    // references past the end of the target (the tile lowering assumes
    // the affinity index stays within the array's declared extent).
    let loop_extent = spec.arrays[arr].dims[slot];
    let aff_pairs: Vec<(usize, usize)> = spec
        .arrays
        .iter()
        .enumerate()
        .filter(|(_, a)| !matches!(a.dist, DistSpec::None))
        .flat_map(|(i, a)| {
            a.dims
                .iter()
                .enumerate()
                .filter(move |(_, &e)| e >= loop_extent)
                .map(move |(d, _)| (i, d))
        })
        .collect();
    let affinity = if doacross && !aff_pairs.is_empty() && r.gen_range(0..10) < 4 {
        let (t, aslot) = *pick(r, &aff_pairs);
        Some(AffSpec {
            arr: t,
            slot: aslot,
        })
    } else {
        None
    };
    let sched = if doacross && affinity.is_none() {
        match r.gen_range(0..10) {
            0..=3 => None,
            4..=5 => Some(SchedSpec::Simple),
            6..=7 => Some(SchedSpec::Interleave(*pick(r, &[1, 2, 3]))),
            _ => Some(SchedSpec::Dynamic(*pick(r, &[1, 2]))),
        }
    } else {
        None
    };
    // Inside a parallel region the written array is off-limits to
    // non-identity reads; serial loops may read anything (the oracle
    // replays the same sequential order).
    let rhs = gen_expr(r, spec, 0, true, false, doacross.then_some(arr));
    LoopSpec {
        arr,
        slot,
        bounds,
        doacross,
        nest2,
        shareds: doacross && r.gen_range(0..2) == 0,
        affinity,
        sched,
        guard,
        rhs,
    }
}

/// Pick a `real*8` array and route it to a subroutine whose formal has
/// the same declared shape, reusing an existing compatible sub half the
/// time (repeat calls through one clone vs. fresh clones both matter).
fn gen_call(r: &mut SmallRng, spec: &mut Spec) -> Option<Phase> {
    let candidates: Vec<usize> = spec
        .arrays
        .iter()
        .enumerate()
        .filter(|(_, a)| a.ty == ElemTy::Real)
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let arr = *pick(r, &candidates);
    let dims = spec.arrays[arr].dims.clone();
    let existing = spec.subs.iter().position(|s| s.dims == dims);
    let sub = match existing {
        Some(s) if r.gen_range(0..2) == 0 => s,
        _ => {
            let name = format!("sub{}", spec.subs.len() + 1);
            let rank = dims.len();
            let rhs = gen_sub_expr(r, rank);
            spec.subs.push(SubSpec {
                name,
                dims,
                doacross: r.gen_range(0..10) < 3,
                rhs,
            });
            spec.subs.len() - 1
        }
    };
    Some(Phase::Call { sub, arr })
}

/// A `c$resize_team` point. Only legal when no reshaped array is
/// declared (sema rejects the directive otherwise); the team size may
/// exceed the machine's — the runtime clamps it.
fn gen_resize(r: &mut SmallRng, spec: &Spec) -> Option<Phase> {
    if spec
        .arrays
        .iter()
        .any(|a| matches!(a.dist, DistSpec::Reshaped(_)))
    {
        return None;
    }
    Some(Phase::ResizeTeam {
        nprocs: *pick(r, &[1, 2, 3, 4, 6, 8]),
    })
}

fn gen_redistribute(r: &mut SmallRng, spec: &Spec) -> Option<Phase> {
    let regular: Vec<usize> = spec
        .arrays
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.dist, DistSpec::Regular(_)))
        .map(|(i, _)| i)
        .collect();
    if regular.is_empty() {
        return None;
    }
    let arr = *pick(r, &regular);
    let rank = spec.arrays[arr].dims.len();
    Some(Phase::Redistribute {
        arr,
        dists: gen_dist_items(r, rank),
    })
}

/// Random real-valued expression tree.
///
/// `self_ok` gates [`RExpr::SelfRead`] (only meaningful when assigning
/// to an array). `exclude` names an array [`RExpr::Read`] must avoid:
/// inside a `doacross` body the written array may be referenced *only*
/// through the identity `SelfRead` — a read at any other index races
/// with another iteration's write and the result would legitimately
/// depend on scheduling, which is exactly what the oracle cannot (and
/// must not) predict.
fn gen_expr(
    r: &mut SmallRng,
    spec: &Spec,
    depth: u32,
    self_ok: bool,
    scalar_cx: bool,
    exclude: Option<usize>,
) -> RExpr {
    if depth < 3 && r.gen_range(0..10) < 5 {
        let op = r.gen_range(0..8);
        let a = Box::new(gen_expr(r, spec, depth + 1, self_ok, scalar_cx, exclude));
        return match op {
            0 | 1 => RExpr::Add(
                a,
                Box::new(gen_expr(r, spec, depth + 1, self_ok, scalar_cx, exclude)),
            ),
            2 => RExpr::Sub(
                a,
                Box::new(gen_expr(r, spec, depth + 1, self_ok, scalar_cx, exclude)),
            ),
            3 => RExpr::Mul(
                a,
                Box::new(gen_expr(r, spec, depth + 1, self_ok, scalar_cx, exclude)),
            ),
            4 => RExpr::Half(a),
            5 => RExpr::SqrtAbs(a),
            6 => RExpr::Trunc(a),
            _ => RExpr::MaxR(
                a,
                Box::new(gen_expr(r, spec, depth + 1, self_ok, scalar_cx, exclude)),
            ),
        };
    }
    gen_leaf(r, spec, self_ok, scalar_cx, exclude)
}

fn gen_leaf(
    r: &mut SmallRng,
    spec: &Spec,
    self_ok: bool,
    scalar_cx: bool,
    exclude: Option<usize>,
) -> RExpr {
    const LITS: [f64; 6] = [0.5, 1.0, 1.5, 2.0, 0.25, 3.0];
    loop {
        match r.gen_range(0..100) {
            0..=24 => return RExpr::F(*pick(r, &LITS)),
            25..=34 => return RExpr::SVar,
            35..=54 => {
                if !scalar_cx {
                    return RExpr::PvF;
                }
            }
            55..=64 => {
                if !scalar_cx {
                    return RExpr::IvF;
                }
            }
            65..=84 => {
                if self_ok && !scalar_cx {
                    return RExpr::SelfRead;
                }
            }
            _ => {
                let readable: Vec<usize> = (0..spec.arrays.len())
                    .filter(|i| Some(*i) != exclude)
                    .collect();
                if !readable.is_empty() {
                    let arr = *pick(r, &readable);
                    let kind = match r.gen_range(0..10) {
                        0..=3 => ReadKind::Mod,
                        4..=5 => ReadKind::Shift,
                        6..=7 => ReadKind::Clamp,
                        _ => ReadKind::Rev,
                    };
                    return RExpr::Read(arr, r.gen_range(0..4) as i64, kind);
                }
            }
        }
    }
}

/// Expressions legal inside a subroutine body: formal, loop vars,
/// scalars and literals only.
fn gen_sub_expr(r: &mut SmallRng, rank: usize) -> RExpr {
    let leaf = |r: &mut SmallRng| match r.gen_range(0..10) {
        0..=2 => RExpr::SelfRead,
        3..=5 => RExpr::PvF,
        6 if rank >= 2 => RExpr::IvF,
        6 | 7 => RExpr::F(0.5),
        _ => RExpr::F(2.0),
    };
    let a = Box::new(leaf(r));
    let b = Box::new(leaf(r));
    match r.gen_range(0..5) {
        0 => RExpr::Add(a, b),
        1 => RExpr::Mul(a, b),
        2 => RExpr::Half(a),
        3 => RExpr::Sub(a, b),
        _ => RExpr::MaxR(a, b),
    }
}

fn pick<'a, T>(r: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[r.gen_range(0..items.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn stripped_seeds_have_no_placement_directives() {
        let opts = GenOptions {
            strip_directives: true,
        };
        for seed in 0..50u64 {
            let spec = generate_with(seed, &opts);
            for (name, text) in spec.render() {
                for kw in ["c$distribute", "c$redistribute", "c$doacross"] {
                    assert!(
                        !text.contains(kw),
                        "seed {seed} {name} still has {kw}:\n{text}"
                    );
                }
                dsm_frontend::parse_source(0, &name, &text).expect("stripped program parses");
            }
        }
    }

    #[test]
    fn first_hundred_seeds_parse() {
        for seed in 0..100u64 {
            let spec = generate(seed);
            for (name, text) in spec.render() {
                let parsed = dsm_frontend::parse_source(0, &name, &text);
                assert!(parsed.is_ok(), "seed {seed} {name}: {parsed:?}\n{text}");
            }
        }
    }
}
