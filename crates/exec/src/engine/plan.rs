//! Interned address plans.
//!
//! The engine interns one [`AddrPlan`] per live array instance and
//! answers a reference in two tiers, two formulations of the same
//! geometry that check each other:
//!
//! * **Tiles** (the paper's Section 7, applied to the host): a [`Tile`]
//!   is one of the runtime's index boxes ([`DistDescriptor::boxes`])
//!   plus where it is stored — inside one grid processor's box the
//!   address is `base + Σ (idx − lo) · stride`. A plan carries one tile
//!   per grid processor (exactly one for a contiguous array) and
//!   [`AddrPlan::locate`] tests the reference site's hinted tile first.
//!   The per-dimension test `(idx − 1 − lo) as u64 < len` *is* the bounds
//!   check — every box lies inside the declared extents — so a hit costs
//!   a compare and a multiply-add per dimension: no division.
//! * **Table 1** (the miss path, and the only path of a plan with a
//!   `cyclic(k)` dimension, whose processors own many boxes and which
//!   therefore carries no tiles): bounds check, then
//!   [`DistDescriptor::locate`] and the owner's portion base — what the
//!   interpreter's [`RtArray::addr_of`] does, and the value every hit is
//!   `debug_assert`ed against.
//!
//! The plan holds the array's descriptor by `Arc`, not a copy: a
//! redistribution installs a new descriptor in the `RtArray`, so a plan
//! that was not rebuilt is detectably stale ([`AddrPlan::is_for`]).
//!
//! A hint is a guess validated on use: any byte is a correct starting
//! hint for any plan, so nothing that swaps the plan under a site
//! (redistribute, team resize, call rebinding, formal/actual aliasing)
//! has to invalidate anything.  The plans reproduce
//! [`dsm_runtime::RtArray::addr_of`] bit-for-bit.

use std::sync::Arc;

use dsm_ir::Dist;
use dsm_runtime::{ArrayLayout, DistDescriptor, IndexBox, RtArray, MAX_RANK};

use crate::bind::Binder;

/// One dimension of a [`Tile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TileDim {
    /// 0-based first index of the box.
    pub lo: u64,
    /// Box extent (0: the processor owns nothing).
    pub len: u64,
    /// Byte stride.
    pub stride: u64,
}

/// One grid processor's box of the array: for an element inside it,
/// `addr = base + Σ (idx[d] − lo[d]) · stride[d]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tile {
    /// Address of the box's first element.
    pub base: u64,
    /// The owner's portion-pointer slot (`None` for contiguous layouts).
    pub slot: Option<u64>,
    /// Per-dimension geometry (entries past the rank are empty).
    pub dims: [TileDim; MAX_RANK],
}

impl Tile {
    /// Index box `b` stored column-major at `base`.
    fn new(base: u64, slot: Option<u64>, elem_bytes: u64, b: &IndexBox) -> Tile {
        let mut dims = [TileDim::default(); MAX_RANK];
        let mut stride = elem_bytes;
        for (d, (&lo, &len)) in dims.iter_mut().zip(b.lo.iter().zip(&b.len)) {
            *d = TileDim { lo, len, stride };
            stride *= len;
        }
        Tile { base, slot, dims }
    }
}

/// One array instance's interned addressing state.
#[derive(Debug, Clone)]
pub(crate) struct AddrPlan {
    /// Interned machine symbol (access-tag attribution).
    pub sym: u32,
    /// The array's geometry, shared with the [`RtArray`] (extents for the
    /// bounds check, Table 1 for the miss path).
    pub desc: Arc<DistDescriptor>,
    /// Distributed-dimension count, min 1 (the per-access div count of
    /// the raw addressing modes).
    pub n_dist: u64,
    /// Where the elements are stored.
    pub layout: ArrayLayout,
    /// One box per grid processor, indexed like the layout's portions;
    /// empty when a dimension is `cyclic(k)` (a processor's elements are
    /// then not one box).
    pub tiles: Vec<Tile>,
}

impl AddrPlan {
    /// Build the plan for a live array instance.
    pub fn build(arr: &RtArray) -> AddrPlan {
        let desc = &arr.desc;
        let tiles = match &arr.layout {
            ArrayLayout::Contiguous { base } => {
                let mut whole = IndexBox::default();
                for (len, d) in whole.len.iter_mut().zip(&desc.dims) {
                    *len = d.extent;
                }
                vec![Tile::new(*base, None, arr.elem_bytes, &whole)]
            }
            ArrayLayout::Reshaped { .. }
                if desc.dims.iter().any(|d| matches!(d.dist, Dist::Cyclic(_))) =>
            {
                Vec::new()
            }
            ArrayLayout::Reshaped { portions, .. } => (portions.iter().enumerate())
                .map(|(p, &base)| {
                    // `block`/`*`: at most one box (none: `p` owns nothing).
                    let b = desc.boxes(p).next().unwrap_or_default();
                    Tile::new(base, arr.ptr_slot_addr(p), arr.elem_bytes, &b)
                })
                .collect(),
        };
        AddrPlan {
            sym: arr.sym,
            desc: Arc::clone(desc),
            n_dist: desc.distributed.len().max(1) as u64,
            layout: arr.layout.clone(),
            tiles,
        }
    }

    /// Whether this plan was built from `arr`'s current descriptor.
    pub fn is_for(&self, arr: &RtArray) -> bool {
        Arc::ptr_eq(&self.desc, &arr.desc)
    }

    /// Locate-through-a-hint, the one entry point of every reference
    /// site: address and owner's portion-pointer slot of the element at
    /// 1-based `vals`, or `None` when an index is out of bounds.  `hint`
    /// names the tile to try first and is left naming the owner's.
    #[inline]
    pub fn locate(&self, vals: &[i64], hint: &mut u8) -> Option<(u64, Option<u64>)> {
        if let Some(t) = self.tiles.get(*hint as usize) {
            let mut addr = t.base;
            let mut inside = true;
            for (&v, d) in vals.iter().zip(&t.dims) {
                let off = (v as u64).wrapping_sub(1).wrapping_sub(d.lo);
                inside &= off < d.len;
                addr = addr.wrapping_add(off.wrapping_mul(d.stride));
            }
            if inside {
                debug_assert_eq!(self.locate_owner(vals), Some((addr, t.slot, *hint as usize)));
                return Some((addr, t.slot));
            }
        }
        let (addr, slot, owner) = self.locate_owner(vals)?;
        *hint = owner as u8;
        Some((addr, slot))
    }

    /// [`AddrPlan::locate`] for a whole affine run of references, from
    /// the element at `first` to the one at `last`: the first element's
    /// address and the tile holding it, if that tile holds the last
    /// element too — a tile is a box and an affine index is monotone, so
    /// it then holds every element between, each `stride` bytes from the
    /// one before. `None` when the run crosses tiles or leaves the array,
    /// and for every run of a plan without tiles.
    #[inline]
    pub fn locate_run(&self, first: &[i64], last: &[i64], hint: &mut u8) -> Option<(u64, &Tile)> {
        let (addr, _) = self.locate(first, hint)?;
        let t = self.tiles.get(*hint as usize)?;
        (last.iter().zip(&t.dims))
            .all(|(&v, d)| (v as u64).wrapping_sub(1).wrapping_sub(d.lo) < d.len)
            .then_some((addr, t))
    }

    /// The hint-free path: bounds check, then Table 1 — address, owner's
    /// portion-pointer slot and owning grid processor (0 for a contiguous
    /// array, whose one tile is the whole array).
    fn locate_owner(&self, vals: &[i64]) -> Option<(u64, Option<u64>, usize)> {
        let mut idx0 = [0u64; MAX_RANK];
        for ((i0, &v), d) in idx0.iter_mut().zip(vals).zip(&self.desc.dims) {
            if v < 1 || v as u64 > d.extent {
                return None;
            }
            *i0 = (v - 1) as u64;
        }
        let idx0 = &idx0[..vals.len()];
        Some(match &self.layout {
            ArrayLayout::Contiguous { base } => (base + self.desc.global_linear(idx0) * 8, None, 0),
            ArrayLayout::Reshaped {
                ptr_table,
                portions,
            } => {
                let (proc, off) = self.desc.locate(idx0);
                (portions[proc] + off * 8, Some(ptr_table + proc as u64 * 8), proc)
            }
        })
    }
}

/// Plans for every live binder instance, indexed by arena slot.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    plans: Vec<AddrPlan>,
}

impl PlanCache {
    pub fn new() -> Self {
        PlanCache { plans: Vec::new() }
    }

    /// Intern plans for instances bound since the last sync (the arena
    /// only grows; existing plans stay valid except across
    /// [`PlanCache::rebuild`]).
    pub fn sync(&mut self, binder: &Binder) {
        while self.plans.len() < binder.live() {
            self.plans.push(AddrPlan::build(binder.get(self.plans.len())));
        }
    }

    /// Re-intern one instance after a redistribution changed its
    /// descriptor.
    pub fn rebuild(&mut self, idx: usize, binder: &Binder) {
        self.plans[idx] = AddrPlan::build(binder.get(idx));
    }

    #[inline]
    pub fn get(&self, idx: usize) -> &AddrPlan {
        &self.plans[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_ir::{DistKind, Distribution, OntoSpec};
    use dsm_machine::{Machine, MachineConfig};
    use dsm_runtime::PoolSet;

    /// 0-based indices of column-major element `linear`.
    fn delinearize(arr: &RtArray, linear: u64) -> Vec<u64> {
        let mut rest = linear;
        arr.desc
            .dims
            .iter()
            .map(|d| {
                let i = rest % d.extent;
                rest /= d.extent;
                i
            })
            .collect()
    }

    /// The spec of locate-through-a-hint: whatever the hint, every element
    /// is found where `RtArray` puts it, with its owner's slot, the hint is
    /// left on the owner's tile, and every out-of-extent index is refused.
    fn check_locate(arr: &RtArray) {
        let plan = AddrPlan::build(arr);
        let reshaped = matches!(arr.layout, ArrayLayout::Reshaped { .. });
        for linear in 0..arr.desc.total_len() {
            let idx0 = delinearize(arr, linear);
            let owner = if reshaped {
                arr.desc.owner_proc(&idx0)
            } else {
                0
            };
            let want = Some((arr.addr_of(&idx0), arr.ptr_slot_addr(owner)));
            let vals: Vec<i64> = idx0.iter().map(|&i| i as i64 + 1).collect();
            assert_eq!(plan.locate_owner(&vals), want.map(|(a, s)| (a, s, owner)));
            for start in 0..=u8::MAX {
                let mut hint = start;
                assert_eq!(plan.locate(&vals, &mut hint), want, "{vals:?} hint {start}");
                if !plan.tiles.is_empty() {
                    assert_eq!(hint as usize, owner, "{vals:?} hint {start}");
                }
                // The hint it left is good for a second visit.
                assert_eq!(plan.locate(&vals, &mut hint), want, "{vals:?} revisit");
            }
            if linear == arr.desc.total_len() / 2 {
                for d in 0..vals.len() {
                    for bad in [0, plan.desc.dims[d].extent as i64 + 1, i64::MIN, i64::MAX] {
                        let mut out = vals.clone();
                        out[d] = bad;
                        for start in 0..=u8::MAX {
                            let mut hint = start;
                            assert_eq!(plan.locate(&out, &mut hint), None, "{out:?}");
                            assert_eq!(hint, start, "a refused access moved the hint");
                        }
                    }
                }
            }
        }
    }

    /// The spec of `locate_run`: along every dimension, from the array's
    /// middle element, over runs of both directions and several strides
    /// and lengths — a run is accepted exactly when every element of it
    /// resolves (is in bounds) to one owner, and then element `k` lies
    /// `k` strides of that owner's tile from the first, behind the same
    /// portion-pointer slot.
    fn check_runs(arr: &RtArray) {
        let plan = AddrPlan::build(arr);
        let mid: Vec<i64> = arr.desc.dims.iter().map(|d| (d.extent / 2 + 1) as i64).collect();
        for d in 0..mid.len() {
            for step in [1i64, -1, 2, -3] {
                for n in [1i64, 2, 3, 5, 9] {
                    let at = |k: i64| {
                        let mut v = mid.clone();
                        v[d] += k * step;
                        v
                    };
                    let each: Vec<_> = (0..n).map(|k| plan.locate_owner(&at(k))).collect();
                    let one_tile = !plan.tiles.is_empty()
                        && each.iter().all(|e| e.is_some_and(|e| Some(e.2) == each[0].map(|f| f.2)));
                    let mut hint = 0;
                    match plan.locate_run(&at(0), &at(n - 1), &mut hint) {
                        None => assert!(!one_tile, "refused {:?} x{n} by {step}", at(0)),
                        Some((addr, tile)) => {
                            assert!(one_tile, "accepted {:?} x{n} by {step}", at(0));
                            let stride = step * tile.dims[d].stride as i64;
                            for (k, e) in each.iter().enumerate() {
                                let want = (addr as i64 + k as i64 * stride) as u64;
                                assert_eq!(e.map(|e| (e.0, e.1)), Some((want, tile.slot)));
                            }
                        }
                    }
                }
            }
        }
    }

    /// A tile is the runtime's box plus addresses: tile `p` is exactly
    /// `boxes(p)` (that the boxes are disjoint, inside the extents and
    /// cover the array is the runtime spec suite's half) stored
    /// column-major from the portion base, unused dimensions empty.
    fn check_tiles(arr: &RtArray) {
        let plan = AddrPlan::build(arr);
        let rank = arr.desc.dims.len();
        for (p, t) in plan.tiles.iter().enumerate() {
            let mut b = arr.desc.boxes(p).next().unwrap_or_default();
            if let ArrayLayout::Contiguous { .. } = arr.layout {
                b = IndexBox::default();
                b.len[..rank].copy_from_slice(&arr.desc.extents());
            }
            let mut stride = arr.elem_bytes;
            for (d, dim) in t.dims.iter().enumerate() {
                let want = TileDim { lo: b.lo[d], len: b.len[d], stride };
                assert_eq!(*dim, want, "tile {p} dimension {d}");
                stride *= b.len[d];
            }
            assert!(t.dims[rank..].iter().all(|d| d.len == 0));
            assert_eq!(Some(t.base), arr.portion_base(p).or(Some(arr.addr_of(&b.lo[..rank]))));
        }
    }

    fn dist(dims: Vec<Dist>) -> Option<Distribution> {
        Some(Distribution::new(dims))
    }

    #[test]
    fn plans_match_rtarray_addressing() {
        use Dist::{Block, Cyclic, Star};
        let mut m = Machine::new(MachineConfig::small_test(8));
        let mut pools = PoolSet::new(8, 1 << 16);
        let onto = |dims, ratios| {
            let mut d = Distribution::new(dims);
            d.onto = Some(OntoSpec { ratios });
            Some(d)
        };
        // Extents the processor grid does not divide, so trailing
        // portions are short. `tiled`: the plan must carry one tile per
        // portion (`false`: none — a `cyclic(k)` dimension).
        for (extents, dist, kind, nprocs, tiled) in [
            (&[13, 9][..], None, DistKind::None, 4, true),
            (&[13, 9], dist(vec![Block, Star]), DistKind::Reshaped, 4, true),
            (&[13, 9], dist(vec![Block, Block]), DistKind::Reshaped, 4, true),
            (&[13, 9], dist(vec![Block, Block]), DistKind::Regular, 4, true),
            // LU's shape.
            (
                &[3, 7, 6, 2],
                dist(vec![Star, Block, Block, Star]),
                DistKind::Reshaped,
                8,
                true,
            ),
            // `onto`: uneven grids, both ways round.
            (
                &[11, 5],
                onto(vec![Block, Block], vec![4, 1]),
                DistKind::Reshaped,
                8,
                true,
            ),
            (
                &[5, 11],
                onto(vec![Block, Block], vec![2, 3]),
                DistKind::Reshaped,
                6,
                true,
            ),
            // Fewer elements than processors, and a block size that
            // leaves the last processors empty (9 over 8 → 2 each).
            (&[3, 4], dist(vec![Block, Star]), DistKind::Reshaped, 8, true),
            (&[9], dist(vec![Block]), DistKind::Reshaped, 8, true),
            (&[13, 9], dist(vec![Cyclic(3), Block]), DistKind::Reshaped, 4, false),
            (&[13, 9], dist(vec![Cyclic(3), Cyclic(2)]), DistKind::Reshaped, 4, false),
            (
                &[5, 7, 9],
                dist(vec![Star, Cyclic(2), Block]),
                DistKind::Reshaped,
                4,
                false,
            ),
            (
                &[7, 5, 6],
                dist(vec![Block, Block, Cyclic(1)]),
                DistKind::Reshaped,
                4,
                false,
            ),
        ] {
            let arr =
                RtArray::instantiate(&mut m, &mut pools, "a", extents, dist.as_ref(), kind, nprocs);
            let n_tiles = AddrPlan::build(&arr).tiles.len();
            if tiled {
                let want = match arr.layout {
                    ArrayLayout::Contiguous { .. } => 1,
                    ArrayLayout::Reshaped { .. } => arr.desc.grid_size(),
                };
                assert_eq!(n_tiles, want, "{extents:?} {dist:?}");
                check_tiles(&arr);
            } else {
                assert_eq!(n_tiles, 0, "{extents:?} {dist:?}: cyclic plans carry no tiles");
            }
            check_locate(&arr);
            check_runs(&arr);
        }
    }

    proptest::proptest! {
        /// The same spec over random ranks, extents, formats, team sizes
        /// and `onto` ratios (CI runs 1024 cases in release).
        #[test]
        fn random_plans_match_rtarray_addressing(
            dims in proptest::collection::vec((1u64..6, 0usize..5, 1u64..4), 1..5),
            nprocs in 1usize..9,
            ratios in proptest::collection::vec(1u64..5, 4),
            reshaped in proptest::arbitrary::any::<bool>(),
        ) {
            let extents: Vec<u64> = dims.iter().map(|d| d.0).collect();
            let formats: Vec<Dist> = dims
                .iter()
                .map(|&(_, format, k)| match format {
                    0 => Dist::Star,
                    1..=3 => Dist::Block,
                    _ => Dist::Cyclic(k),
                })
                .collect();
            let mut dist = Distribution::new(formats);
            dist.onto = Some(OntoSpec {
                ratios: ratios[..dist.n_distributed()].to_vec(),
            });
            let kind = if reshaped { DistKind::Reshaped } else { DistKind::Regular };
            let mut m = Machine::new(MachineConfig::small_test(8));
            let mut pools = PoolSet::new(8, 1 << 16);
            let arr = RtArray::instantiate(&mut m, &mut pools, "a", &extents, Some(&dist), kind, nprocs);
            let cyclic = dist.dims.iter().any(|d| matches!(d, Dist::Cyclic(_)));
            if reshaped && cyclic {
                proptest::prop_assert!(AddrPlan::build(&arr).tiles.is_empty());
            } else {
                check_tiles(&arr);
            }
            check_locate(&arr);
            check_runs(&arr);
        }
    }
}
