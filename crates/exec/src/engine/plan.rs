//! Interned address plans.
//!
//! The interpreter recomputes every element address from the runtime
//! descriptor — allocating owner-coordinate and local-offset vectors on
//! each reshaped access.  The engine interns one [`AddrPlan`] per live
//! array instance instead, and answers a reference in two tiers:
//!
//! * **Tiles** (the paper's Section 7, applied to the host): inside one
//!   grid processor's portion the address is `base + Σ (idx − lo) ·
//!   stride`, so a plan carries one [`Tile`] per grid processor (exactly
//!   one for a contiguous array) and [`AddrPlan::locate`] tests the
//!   reference site's hinted tile first.  The per-dimension test
//!   `(idx − 1 − lo) as u64 < len` *is* the bounds check — every tile
//!   lies inside the declared extents — so a hit costs a compare and a
//!   multiply-add per dimension: no division, no table walk.
//! * **Resolve** (the miss path, and the only path of a plan with a
//!   `cyclic(k)` dimension, which carries no tiles): bounds check, then
//!   one [`DimDesc::locate`] per distributed dimension through flattened
//!   grid/portion tables — allocation-free, and the value every hit is
//!   `debug_assert`ed against.
//!
//! A hint is a guess validated on use: any byte is a correct starting
//! hint for any plan, so nothing that swaps the plan under a site
//! (redistribute, team resize, call rebinding, formal/actual aliasing)
//! has to invalidate anything.  The plans reproduce
//! [`dsm_runtime::RtArray::addr_of`] bit-for-bit.

use dsm_ir::Dist;
use dsm_runtime::{ArrayLayout, DimDesc, RtArray};

use crate::bind::Binder;

/// Maximum supported array rank (Fortran allows 7).
pub(crate) const MAX_RANK: usize = 8;

/// Per-dimension geometry of a reshaped plan.
#[derive(Debug, Clone)]
pub(crate) struct DimPlan {
    /// The resolved dimension descriptor (owner / local-offset math).
    pub desc: DimDesc,
    /// Whether this dimension is distributed.
    pub distributed: bool,
    /// `portion_extent(c)` for every grid coordinate `c` of this
    /// dimension (all `1`s when undistributed).
    pub pext: Box<[u64]>,
}

/// Layout-specific part of a plan.
#[derive(Debug, Clone)]
pub(crate) enum PlanKind {
    /// Column-major storage: the plan's single tile is the whole array.
    Contig,
    /// Figure-3 processor-array storage.
    Resh(Box<ReshPlan>),
}

/// Flattened reshaped-layout tables.
#[derive(Debug, Clone)]
pub(crate) struct ReshPlan {
    /// Portion-pointer table base address.
    pub ptr_table: u64,
    /// Portion base address per linearized grid processor.
    pub portions: Vec<u64>,
    /// Grid extent per distributed dimension.
    pub grid: Vec<u64>,
    /// Dimension index of each grid axis (the descriptor's
    /// `distributed` list).
    pub dist_dims: Vec<usize>,
    /// All dimensions, declaration order.
    pub dims: Vec<DimPlan>,
}

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
    /// The column-major box of `(lo, len)` per dimension stored at `base`.
    fn new(
        base: u64,
        slot: Option<u64>,
        elem_bytes: u64,
        boxes: impl Iterator<Item = (u64, u64)>,
    ) -> Tile {
        let mut dims = [TileDim::default(); MAX_RANK];
        let mut stride = elem_bytes;
        for (d, (lo, len)) in dims.iter_mut().zip(boxes) {
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
    /// Declared extent per dimension (bounds checks).
    pub extents: Vec<u64>,
    /// Distributed-dimension count, min 1 (the per-access div count of
    /// the raw addressing modes).
    pub n_dist: u64,
    /// Layout-specific tables.
    pub kind: PlanKind,
    /// One box per grid processor, indexed like `portions`; empty when a
    /// dimension is `cyclic(k)` (a processor's elements are then not one
    /// box).
    pub tiles: Vec<Tile>,
}

impl AddrPlan {
    /// Build the plan for a live array instance.
    pub fn build(arr: &RtArray) -> AddrPlan {
        let desc = &arr.desc;
        let extents: Vec<u64> = desc.dims.iter().map(|d| d.extent).collect();
        let n_dist = desc.distributed.len().max(1) as u64;
        let (kind, tiles) = match &arr.layout {
            ArrayLayout::Contiguous { base } => {
                let whole = extents.iter().map(|&e| (0, e));
                let tile = Tile::new(*base, None, arr.elem_bytes, whole);
                (PlanKind::Contig, vec![tile])
            }
            ArrayLayout::Reshaped {
                ptr_table,
                portions,
            } => {
                let dims = desc
                    .dims
                    .iter()
                    .map(|d| DimPlan {
                        desc: *d,
                        distributed: d.dist.is_distributed(),
                        pext: (0..d.nprocs).map(|p| d.portion_extent(p)).collect(),
                    })
                    .collect();
                let resh = ReshPlan {
                    ptr_table: *ptr_table,
                    portions: portions.clone(),
                    grid: desc.grid.iter().map(|&g| g as u64).collect(),
                    dist_dims: desc.distributed.clone(),
                    dims,
                };
                let cyclic = desc.dims.iter().any(|d| matches!(d.dist, Dist::Cyclic(_)));
                let n_tiles = if cyclic { 0 } else { portions.len() };
                let tiles = (0..n_tiles)
                    .map(|p| {
                        // `block`/`*`: the processor's single run per
                        // dimension (`None`: it owns nothing).
                        let mut coords = desc.delinearize_proc(p).into_iter();
                        let boxes = desc.dims.iter().map(|d| {
                            let c = if d.dist.is_distributed() {
                                coords.next().expect("one coordinate per grid axis")
                            } else {
                                0
                            };
                            d.run(c, 0).map_or((0, 0), |(lo, hi)| (lo, hi - lo))
                        });
                        let slot = ptr_table + (p * 8) as u64;
                        Tile::new(portions[p], Some(slot), arr.elem_bytes, boxes)
                    })
                    .collect();
                (PlanKind::Resh(Box::new(resh)), tiles)
            }
        };
        AddrPlan {
            sym: arr.sym,
            extents,
            n_dist,
            kind,
            tiles,
        }
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

    /// The hint-free path: bounds check, then [`AddrPlan::resolve`].
    fn locate_owner(&self, vals: &[i64]) -> Option<(u64, Option<u64>, usize)> {
        let mut idx0 = [0u64; MAX_RANK];
        for ((i0, &v), &extent) in idx0.iter_mut().zip(vals).zip(&self.extents) {
            if v < 1 || v as u64 > extent {
                return None;
            }
            *i0 = (v - 1) as u64;
        }
        Some(self.resolve(&idx0[..vals.len()]))
    }

    /// Address, owner's portion-pointer slot and owning grid processor of
    /// the element at 0-based `idx0` — the allocation-free equivalent of
    /// [`RtArray::addr_of`], `ptr_slot_addr` and `owner_proc`.
    fn resolve(&self, idx0: &[u64]) -> (u64, Option<u64>, usize) {
        match &self.kind {
            PlanKind::Contig => {
                let t = &self.tiles[0];
                let mut a = t.base;
                for (&i, d) in idx0.iter().zip(&t.dims) {
                    a += i * d.stride;
                }
                (a, None, 0)
            }
            PlanKind::Resh(r) => {
                // Column-major offset within the owner's portion (mirrors
                // `DistDescriptor::local_linear`); one `locate` per
                // distributed dimension also yields its owner coordinate.
                let mut coord = [0u64; MAX_RANK];
                let mut off = 0u64;
                for di in (0..r.dims.len()).rev() {
                    let d = &r.dims[di];
                    let (li, ext) = if d.distributed {
                        let (c, li) = d.desc.locate(idx0[di]);
                        coord[di] = c;
                        (li, d.pext[c as usize])
                    } else {
                        (idx0[di], d.desc.extent)
                    };
                    off = off * ext + li;
                }
                // Linearized owner: fold grid axes highest-first
                // (mirrors `DistDescriptor::linearize_coords`).
                let mut proc = 0u64;
                for gi in (0..r.dist_dims.len()).rev() {
                    proc = proc * r.grid[gi] + coord[r.dist_dims[gi]];
                }
                let slot = r.ptr_table + proc * 8;
                (r.portions[proc as usize] + off * 8, Some(slot), proc as usize)
            }
        }
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
            assert_eq!(Some(plan.resolve(&idx0)), want.map(|(a, s)| (a, s, owner)));
            let vals: Vec<i64> = idx0.iter().map(|&i| i as i64 + 1).collect();
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
                    for bad in [0, plan.extents[d] as i64 + 1, i64::MIN, i64::MAX] {
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

    /// Tiles are boxes inside the extents, pairwise disjoint, and cover
    /// the array — so "inside some tile" is exactly "in bounds".
    fn check_tiles(arr: &RtArray) {
        let plan = AddrPlan::build(arr);
        let rank = plan.extents.len();
        let mut covered = 0u64;
        for (p, t) in plan.tiles.iter().enumerate() {
            let dims = &t.dims[..rank];
            for (d, &extent) in dims.iter().zip(&plan.extents) {
                assert!(d.lo + d.len <= extent, "tile {p} leaves the extents");
            }
            assert!(t.dims[rank..].iter().all(|d| *d == TileDim::default()));
            covered += dims.iter().map(|d| d.len).product::<u64>();
            for u in &plan.tiles[..p] {
                let apart = dims
                    .iter()
                    .zip(&u.dims)
                    .any(|(a, b)| a.lo + a.len <= b.lo || b.lo + b.len <= a.lo);
                let empty = dims.iter().any(|d| d.len == 0);
                assert!(apart || empty, "tile {p} overlaps an earlier tile");
            }
        }
        assert_eq!(covered, arr.desc.total_len(), "tiles do not cover the array");
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
        }
    }
}
