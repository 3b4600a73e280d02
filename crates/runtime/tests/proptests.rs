//! Property-based tests of the distribution runtime's core invariants.
//!
//! The first group is **the distribution spec**: everything the system
//! believes about *who owns index i* is pinned here, against definitions
//! written out in this file (the paper's Table 1 formulas, per-element
//! walks, per-iteration schedules) rather than against the code under
//! test. `DistDescriptor` answers in three ways — per index (`locate`),
//! per processor (`boxes`), per run (`runs`, `last_owner_in`,
//! `partition`) — and each property holds one of them to the definition,
//! so any two of them are each other's oracle.

use std::sync::Arc;

use dsm_ir::{Dist, DistKind, Distribution, OntoSpec, SchedType};
use dsm_machine::{Machine, MachineConfig, ProcId};
use dsm_runtime::sched::{partition_affinity, partition_interleave, partition_simple};
use dsm_runtime::{
    partition, plan_schedule, ArrayLayout, DimDesc, DistDescriptor, IndexBox, PoolSet, RtArray,
};
use proptest::prelude::*;

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        (1u64..8).prop_map(Dist::Cyclic),
        Just(Dist::Star),
    ]
}

/// A descriptor of rank 1–4 over small extents (so teams outnumber
/// elements), any format mix, often with an `onto` clause.
fn arb_desc() -> impl Strategy<Value = DistDescriptor> {
    (
        prop::collection::vec((1u64..7, arb_dist()), 1..5),
        1usize..17,
        prop::collection::vec(0u64..5, 4),
    )
        .prop_map(|(dims, nprocs, ratios)| {
            let extents: Vec<u64> = dims.iter().map(|d| d.0).collect();
            let mut dist = Distribution::new(dims.iter().map(|d| d.1).collect());
            let ratios = &ratios[..dist.n_distributed()];
            dist.onto = ratios.iter().all(|&r| r > 0).then(|| OntoSpec {
                ratios: ratios.to_vec(),
            });
            DistDescriptor::new(&extents, &dist, nprocs)
        })
}

/// Table 1 of the paper for 0-based index `i` of `dim`: `block` owner
/// `i / b` at offset `i mod b`; `cyclic(k)` owner `(i / k) mod P` at
/// offset `(i / (k·P))·k + i mod k`; `*` owner 0 at offset `i`.
fn table_one(dim: &DimDesc, i: u64) -> (u64, u64) {
    let (b, p) = (dim.chunk, dim.nprocs);
    match dim.dist {
        Dist::Block => (i / b, i % b),
        Dist::Cyclic(k) => ((i / k) % p, (i / (k * p)) * k + i % k),
        Dist::Star => (0, i),
    }
}

/// 0-based indices of column-major element `linear`.
fn delinearize(desc: &DistDescriptor, linear: u64) -> Vec<u64> {
    let mut rest = linear;
    let step = |d: &DimDesc| {
        let i = rest % d.extent;
        rest /= d.extent;
        i
    };
    desc.dims.iter().map(step).collect()
}

/// Trip count of the Fortran loop `lb, ub, step`.
fn trip_count(lb: i64, ub: i64, step: i64) -> i64 {
    ((ub - lb + step) / step).max(0)
}

/// Every run of coordinate `p` of a lone dimension.
fn runs(extent: u64, dist: Dist, nprocs: u64, p: u64) -> Vec<(u64, u64)> {
    DimDesc::new(extent, dist, nprocs).runs(p).collect()
}

// Worked examples: what the unit tests of the deleted `intrinsics` module
// and of `Distribution::block_size` asserted that the properties do not.

#[test]
fn block_runs_and_bounds() {
    assert_eq!(runs(100, Dist::Block, 4, 0), [(0, 25)], "block has one run");
    assert_eq!(runs(100, Dist::Block, 4, 2), [(50, 75)]);
    assert_eq!(
        runs(5, Dist::Star, 7, 0),
        [(0, 5)],
        "`*` is one run on one processor"
    );
    assert_eq!(DimDesc::new(5, Dist::Star, 7).nprocs, 1);
}

#[test]
fn cyclic_runs_walk_the_portion() {
    let tail_truncated = [(0, 3), (6, 9), (12, 15), (18, 20)];
    assert_eq!(runs(20, Dist::Cyclic(3), 2, 0), tail_truncated);
    assert_eq!(DimDesc::new(20, Dist::Cyclic(3), 2).portion_extent(0), 11);
}

#[test]
fn block_size_rounds_up() {
    for (n, p, b) in [(1000, 3, 334), (1000, 4, 250), (5, 8, 1)] {
        assert_eq!(DimDesc::new(n, Dist::Block, p).chunk, b);
    }
}

proptest! {
    /// Every element is owned by exactly one processor, and the portion
    /// lengths sum to the array size.
    #[test]
    fn portions_partition_any_array(
        extents in prop::collection::vec(1u64..40, 1..4),
        dists in prop::collection::vec(arb_dist(), 1..4),
        nprocs in 1usize..17,
    ) {
        let rank = extents.len().min(dists.len());
        let extents = &extents[..rank];
        let dists = dists[..rank].to_vec();
        let desc = DistDescriptor::new(extents, &Distribution::new(dists), nprocs);
        let total: u64 = (0..desc.grid_size()).map(|p| desc.portion_len(p)).sum();
        prop_assert_eq!(total, desc.total_len());
    }

    /// `local_linear` is a bijection from a processor's elements onto
    /// `0..portion_len` (dense packing of reshaped portions).
    #[test]
    fn local_linear_is_dense(
        n0 in 1u64..30,
        n1 in 1u64..30,
        d0 in arb_dist(),
        d1 in arb_dist(),
        nprocs in 1usize..10,
    ) {
        let desc = DistDescriptor::new(&[n0, n1], &Distribution::new(vec![d0, d1]), nprocs);
        let mut seen = vec![std::collections::HashSet::new(); desc.grid_size()];
        for i in 0..n0 {
            for j in 0..n1 {
                let p = desc.owner_proc(&[i, j]);
                let off = desc.local_linear(&[i, j]);
                prop_assert!(off < desc.portion_len(p), "offset beyond portion");
                prop_assert!(seen[p].insert(off), "duplicate local offset");
            }
        }
        for (p, s) in seen.iter().enumerate() {
            prop_assert_eq!(s.len() as u64, desc.portion_len(p));
        }
    }

    /// `DimDesc::locate` — one division for `block`, the owner reused for
    /// the offset — answers Table 1 of the paper.
    #[test]
    fn locate_is_table_one(extent in 1u64..200, dist in arb_dist(), nprocs in 1usize..17) {
        let dim = DistDescriptor::new(&[extent], &Distribution::new(vec![dist]), nprocs).dims[0];
        for i in 0..extent {
            let want = table_one(&dim, i);
            prop_assert_eq!(dim.locate(i), want, "{:?} index {}", dim, i);
            prop_assert_eq!((dim.owner(i), dim.local_offset(i)), want);
        }
    }

    /// `DistDescriptor::locate` is the old `(owner_proc, local_linear)`
    /// pair on every element, spelled the long way: Table 1 per
    /// dimension, owner coordinates of the *distributed* dimensions folded
    /// over `grid` first-fastest, local offsets folded over the owner's
    /// portion extents (counted, not computed).
    #[test]
    fn locate_is_owner_and_local_offset(desc in arb_desc()) {
        let counted_extent = |d: &DimDesc, c: u64| (0..d.extent).filter(|&i| table_one(d, i).0 == c).count() as u64;
        for linear in 0..desc.total_len() {
            let idx = delinearize(&desc, linear);
            let mut proc = 0;
            for (axis, &d) in desc.distributed.iter().enumerate().rev() {
                proc = proc * desc.grid[axis] + table_one(&desc.dims[d], idx[d]).0 as usize;
            }
            let mut off = 0;
            for (d, &i) in desc.dims.iter().zip(&idx).rev() {
                let (c, local) = table_one(d, i);
                off = off * counted_extent(d, c) + local;
            }
            prop_assert_eq!(desc.locate(&idx), (proc, off), "{:?}", idx);
            prop_assert_eq!((desc.owner_proc(&idx), desc.local_linear(&idx)), (proc, off));
            prop_assert_eq!(desc.proc_at(&desc.coords_of(proc)), proc);
        }
    }

    /// `boxes(p)` over all `p` are the array cut into disjoint boxes: each
    /// lies inside the extents, `p`'s boxes hold `portion_len(p)` elements
    /// and exactly the indices `owner_proc` gives to `p` — so they are
    /// pairwise disjoint and cover the array. `block`/`*` give at most one
    /// box per processor.
    #[test]
    fn boxes_are_the_owners_elements(desc in arb_desc()) {
        let rank = desc.dims.len();
        let cyclic = desc.dims.iter().any(|d| matches!(d.dist, Dist::Cyclic(_)));
        let mut covered = 0;
        for p in 0..desc.grid_size() {
            let boxes: Vec<_> = desc.boxes(p).collect();
            prop_assert!(cyclic || boxes.len() <= 1, "block/* processor with {} boxes", boxes.len());
            let mut held = 0;
            for b in &boxes {
                for d in 0..rank {
                    prop_assert!(b.len[d] > 0 && b.lo[d] + b.len[d] <= desc.dims[d].extent);
                }
                prop_assert!(b.lo[rank..].iter().chain(&b.len[rank..]).all(|&x| x == 0));
                held += b.len[..rank].iter().product::<u64>();
            }
            prop_assert_eq!(held, desc.portion_len(p), "processor {}", p);
            covered += held;
            for linear in 0..desc.total_len() {
                let idx = delinearize(&desc, linear);
                let holds = |b: &&IndexBox| (0..rank).all(|d| idx[d].wrapping_sub(b.lo[d]) < b.len[d]);
                let inside = boxes.iter().filter(holds).count();
                prop_assert_eq!(inside, usize::from(desc.owner_proc(&idx) == p), "{:?} of {}", idx, p);
            }
        }
        prop_assert_eq!(covered, desc.total_len());
    }

    /// `simple` and `interleave(k)` are the per-iteration definition:
    /// iteration `n` of the trip count `N` runs on worker `n / ⌈N/P⌉`,
    /// resp. `(n / k) mod P` — for either step sign and empty loops — and
    /// each worker's chunks list its iterations in loop order.
    #[test]
    fn schedules_are_the_per_iteration_definition(
        lb in -50i64..50,
        len in -3i64..100,
        step in prop_oneof![1i64..7, -6i64..0],
        nworkers in 1usize..9,
        k in 0u64..9,
    ) {
        let k = (k > 0).then_some(k); // 0: `simple`
        let ub = lb + len * step.signum();
        let total = trip_count(lb, ub, step) as u64;
        let per = total.div_ceil(nworkers as u64).max(1);
        let sched = k.map_or(SchedType::Simple, SchedType::Interleave);
        let parts = partition(sched, lb, ub, step, nworkers);
        prop_assert_eq!(parts.len(), nworkers);
        for (w, chunks) in parts.iter().enumerate() {
            let mut got = Vec::new();
            for c in chunks {
                prop_assert!(!c.is_empty() && c.step == step);
                got.extend((0..c.len() as i64).map(|j| c.lb + j * step));
                prop_assert_eq!(*got.last().unwrap(), c.ub);
            }
            let want: Vec<i64> = (0..total)
                .filter(|&n| match k {
                    None => n / per == w as u64,
                    Some(k) => (n / k) % nworkers as u64 == w as u64,
                })
                .map(|n| lb + n as i64 * step)
                .collect();
            prop_assert_eq!(got, want, "worker {}", w);
        }
    }

    /// The chunk-run page-owner scan equals the per-element walk it
    /// replaces — the highest owner of any element in the range, clamped
    /// to the array — for any format, rank 1–3, and any `[first, last]`,
    /// ranges past the end and empty ones included.
    #[test]
    fn last_owner_matches_per_element_walk(
        extents in prop::collection::vec(1u64..24, 1..4),
        dists in prop::collection::vec(arb_dist(), 3),
        nprocs in 1usize..17,
        first in 0u64..16000,
        len in 0u64..600,
    ) {
        let dists = dists[..extents.len()].to_vec();
        let desc = DistDescriptor::new(&extents, &Distribution::new(dists), nprocs);
        let total = desc.total_len();
        let first = first % (total + 8);
        let last = first + len;
        let mut expect = 0;
        for e in first..=last.min(total - 1) {
            expect = expect.max(desc.owner_proc(&delinearize(&desc, e)));
        }
        prop_assert_eq!(desc.last_owner_in(first, last), expect, "range {}..={}", first, last);
    }
}

proptest! {
    /// Owner coordinates are always inside the processor grid.
    #[test]
    fn owners_within_grid(
        n in 1u64..200,
        d in arb_dist(),
        nprocs in 1usize..33,
        probe in 0u64..200,
    ) {
        let desc = DistDescriptor::new(&[n], &Distribution::new(vec![d]), nprocs);
        let i = probe % n;
        let p = desc.owner_proc(&[i]);
        prop_assert!(p < desc.grid_size());
    }

    /// `run_remaining` never exceeds the distance to the array end and is
    /// positive inside the array.
    #[test]
    fn run_remaining_bounds(
        n in 1u64..200,
        d in arb_dist(),
        nprocs in 1usize..9,
        probe in 0u64..200,
    ) {
        let desc = DistDescriptor::new(&[n], &Distribution::new(vec![d]), nprocs);
        let i = probe % n;
        let rem = desc.dims[0].run_remaining(i);
        prop_assert!(rem >= 1);
        prop_assert!(rem <= n - i);
    }

    /// Simple scheduling covers every iteration exactly once.
    #[test]
    fn simple_schedule_exact_cover(
        lb in -50i64..50,
        len in 0i64..100,
        step in 1i64..7,
        n in 1usize..9,
    ) {
        let ub = lb + len;
        let parts = partition_simple(lb, ub, step, n);
        let mut seen = std::collections::BTreeSet::new();
        for chunks in &parts {
            for c in chunks {
                let mut i = c.lb;
                while i <= c.ub {
                    prop_assert!(seen.insert(i), "duplicate iteration {}", i);
                    i += c.step;
                }
            }
        }
        let mut expect = std::collections::BTreeSet::new();
        let mut i = lb;
        while i <= ub {
            expect.insert(i);
            i += step;
        }
        prop_assert_eq!(seen, expect);
    }

    /// Interleaved scheduling covers every iteration exactly once.
    #[test]
    fn interleave_schedule_exact_cover(
        len in 0i64..100,
        n in 1usize..9,
        k in 1u64..9,
    ) {
        let parts = partition_interleave(1, len, 1, n, k);
        let total: u64 = parts.iter().flatten().map(|c| c.len()).sum();
        prop_assert_eq!(total as i64, len.max(0));
    }

    /// Affinity scheduling covers every iteration exactly once and agrees
    /// with element ownership for in-range elements.
    #[test]
    fn affinity_schedule_cover_and_ownership(
        n in 1u64..120,
        d in prop_oneof![Just(Dist::Block), (1u64..5).prop_map(Dist::Cyclic)],
        nprocs in 1usize..9,
        scale in 1i64..4,
        offset in -3i64..4,
    ) {
        let desc = DistDescriptor::new(&[n], &Distribution::new(vec![d]), nprocs);
        // Loop range chosen so most elements are in range.
        let lb = 1i64;
        let ub = (n as i64 - offset) / scale;
        prop_assume!(ub >= lb);
        let parts = partition_affinity(lb, ub, 1, &desc.dims[0], scale, offset);
        let mut count = 0u64;
        for (coord, chunks) in parts.iter().enumerate() {
            for c in chunks {
                let mut i = c.lb;
                while i <= c.ub {
                    count += 1;
                    let elem = scale * i + offset;
                    if elem >= 1 && elem <= n as i64 {
                        prop_assert_eq!(
                            desc.dims[0].owner((elem - 1) as u64) as usize,
                            coord,
                            "iteration {} scheduled off its element's owner", i
                        );
                    }
                    i += 1;
                }
            }
        }
        prop_assert_eq!(count as i64, ub - lb + 1);
    }
}

/// Build a distributed array on a fresh machine, ready to redistribute.
fn redist_fixture(extent: u64, dist: Dist, nprocs: usize) -> (Machine, PoolSet, RtArray) {
    let mut m = Machine::new(MachineConfig::small_test(nprocs));
    let mut pools = PoolSet::new(nprocs, 4096);
    let a = RtArray::instantiate(
        &mut m,
        &mut pools,
        "a",
        &[extent],
        Some(&Distribution::new(vec![dist])),
        DistKind::Regular,
        nprocs,
    );
    (m, pools, a)
}

proptest! {
    /// A redistribution schedule moves each page at most once, and within
    /// every round no node sources or sinks more pages than the fan
    /// bound allows.
    #[test]
    fn schedule_moves_each_page_once_within_fan_bounds(
        extent in 64u64..4096,
        d0 in prop_oneof![Just(Dist::Block), (1u64..65).prop_map(Dist::Cyclic)],
        d1 in prop_oneof![Just(Dist::Block), (1u64..65).prop_map(Dist::Cyclic)],
        nprocs in 1usize..9,
        fan in 1usize..4,
    ) {
        let (m, _pools, mut a) = redist_fixture(extent, d0, nprocs);
        a.desc = Arc::new(DistDescriptor::new(&[extent], &Distribution::new(vec![d1]), nprocs));
        let ArrayLayout::Contiguous { base } = a.layout else { unreachable!() };
        let sched = plan_schedule(
            &m,
            base,
            extent * a.elem_bytes,
            &a.desc,
            a.elem_bytes,
            fan,
        );
        prop_assert_eq!(sched.fan, fan);
        let mut seen = std::collections::HashSet::new();
        let n_nodes = m.config().n_nodes;
        for round in &sched.rounds {
            let mut fan_out = vec![0usize; n_nodes];
            let mut fan_in = vec![0usize; n_nodes];
            for mv in round {
                prop_assert!(seen.insert(mv.vpage), "page {} moved twice", mv.vpage);
                fan_out[mv.from.0] += 1;
                fan_in[mv.to.0] += 1;
            }
            prop_assert!(fan_out.iter().all(|&c| c <= fan), "fan-out bound exceeded");
            prop_assert!(fan_in.iter().all(|&c| c <= fan), "fan-in bound exceeded");
        }
        prop_assert!(seen.len() as u64 <= sched.pages_scanned);
    }

    /// The scheduled mover leaves every page on exactly the node the
    /// naive per-page walker would choose, for any block/cyclic(k) →
    /// block/cyclic(k′) conversion, and the node page census matches.
    #[test]
    fn scheduled_and_naive_movers_agree_on_final_homes(
        extent in 64u64..4096,
        d0 in prop_oneof![Just(Dist::Block), (1u64..65).prop_map(Dist::Cyclic)],
        d1 in prop_oneof![Just(Dist::Block), (1u64..65).prop_map(Dist::Cyclic)],
        nprocs in 1usize..9,
    ) {
        let (mut m_s, _p_s, mut a_s) = redist_fixture(extent, d0, nprocs);
        let (mut m_n, _p_n, mut a_n) = redist_fixture(extent, d0, nprocs);
        let dist = Distribution::new(vec![d1]);
        a_s.redistribute_scheduled(&mut m_s, ProcId(0), &dist, nprocs).unwrap();
        a_n.redistribute(&mut m_n, ProcId(0), &dist, nprocs).unwrap();
        for i in 0..extent {
            prop_assert_eq!(
                m_s.home_of(a_s.addr_of(&[i])),
                m_n.home_of(a_n.addr_of(&[i])),
                "element {} home diverges between movers", i
            );
        }
        prop_assert_eq!(m_s.pages_per_node(), m_n.pages_per_node());
    }

    /// Team resizing moves only delta pages and both movers land the
    /// same homes; an immediate resize back restores every page to a
    /// home of the original chunking.
    #[test]
    fn resize_team_delta_only_and_mover_agreement(
        extent in 64u64..4096,
        d0 in prop_oneof![Just(Dist::Block), (1u64..65).prop_map(Dist::Cyclic)],
        nprocs in 1usize..9,
        new_team in 1usize..9,
    ) {
        let (mut m_s, _p_s, mut a_s) = redist_fixture(extent, d0, nprocs);
        let (mut m_n, _p_n, mut a_n) = redist_fixture(extent, d0, nprocs);
        let sched_moved = a_s.resize_team(&mut m_s, ProcId(0), new_team, true).unwrap();
        let naive_moved = a_n.resize_team(&mut m_n, ProcId(0), new_team, false).unwrap();
        // The naive mover remaps the full page span; the scheduler only
        // the delta.
        prop_assert!(sched_moved <= naive_moved);
        for i in 0..extent {
            prop_assert_eq!(
                m_s.home_of(a_s.addr_of(&[i])),
                m_n.home_of(a_n.addr_of(&[i])),
                "element {} home diverges after resize", i
            );
        }
        prop_assert_eq!(m_s.pages_per_node(), m_n.pages_per_node());
        // Round trip: resizing back to the original team is delta-only
        // as well and restores the original chunk owners.
        let reference = {
            let (mut m_r, _p_r, mut a_r) = redist_fixture(extent, d0, nprocs);
            a_r.resize_team(&mut m_r, ProcId(0), nprocs, true).unwrap();
            (0..extent).map(|i| m_r.home_of(a_r.addr_of(&[i]))).collect::<Vec<_>>()
        };
        a_s.resize_team(&mut m_s, ProcId(0), nprocs, true).unwrap();
        for (i, want) in reference.iter().enumerate() {
            prop_assert_eq!(
                &m_s.home_of(a_s.addr_of(&[i as u64])), want,
                "element {} not restored by the round trip", i
            );
        }
    }
}
