//! Interned address plans.
//!
//! The interpreter recomputes every element address from the runtime
//! descriptor — allocating owner-coordinate and local-offset vectors on
//! each reshaped access.  The engine interns one [`AddrPlan`] per live
//! array instance instead: byte strides for contiguous layouts, and
//! flattened grid/portion tables for reshaped ones, so an address resolve
//! is pure arithmetic with zero allocation.  The plans reproduce
//! [`dsm_runtime::RtArray::addr_of`] bit-for-bit.

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
    /// Column-major storage: `addr = base + Σ idx[d] · strides[d]`.
    Contig {
        /// First element's address.
        base: u64,
        /// Byte stride per dimension.
        strides: Vec<u64>,
    },
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
}

impl AddrPlan {
    /// Build the plan for a live array instance.
    pub fn build(arr: &RtArray) -> AddrPlan {
        let extents: Vec<u64> = arr.desc.dims.iter().map(|d| d.extent).collect();
        let n_dist = arr.desc.distributed.len().max(1) as u64;
        let kind = match &arr.layout {
            ArrayLayout::Contiguous { base } => {
                let mut strides = Vec::with_capacity(extents.len());
                let mut s = arr.elem_bytes;
                for &e in &extents {
                    strides.push(s);
                    s *= e;
                }
                PlanKind::Contig {
                    base: *base,
                    strides,
                }
            }
            ArrayLayout::Reshaped {
                ptr_table,
                portions,
            } => {
                let dims = arr
                    .desc
                    .dims
                    .iter()
                    .map(|d| DimPlan {
                        desc: *d,
                        distributed: d.dist.is_distributed(),
                        pext: (0..d.nprocs).map(|p| d.portion_extent(p)).collect(),
                    })
                    .collect();
                PlanKind::Resh(Box::new(ReshPlan {
                    ptr_table: *ptr_table,
                    portions: portions.clone(),
                    grid: arr.desc.grid.iter().map(|&g| g as u64).collect(),
                    dist_dims: arr.desc.distributed.clone(),
                    dims,
                }))
            }
        };
        AddrPlan {
            sym: arr.sym,
            extents,
            n_dist,
            kind,
        }
    }

    /// Address and owning grid processor of the element at 0-based
    /// `idx0` — the allocation-free equivalent of
    /// [`RtArray::addr_of`] + `owner_proc`.
    #[inline]
    pub fn resolve(&self, idx0: &[u64]) -> (u64, usize) {
        match &self.kind {
            PlanKind::Contig { base, strides } => {
                let mut a = *base;
                for (d, &i) in idx0.iter().enumerate() {
                    a += i * strides[d];
                }
                (a, 0)
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
                (r.portions[proc as usize] + off * 8, proc as usize)
            }
        }
    }

    /// Address of the portion-pointer slot for grid processor `p`
    /// (`None` for contiguous layouts), as
    /// [`RtArray::ptr_slot_addr`].
    #[inline]
    pub fn slot_addr(&self, p: usize) -> Option<u64> {
        match &self.kind {
            PlanKind::Resh(r) => Some(r.ptr_table + (p * 8) as u64),
            PlanKind::Contig { .. } => None,
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
    use dsm_ir::{Dist, DistKind, Distribution};
    use dsm_machine::{Machine, MachineConfig};
    use dsm_runtime::PoolSet;

    fn check_parity(arr: &RtArray) {
        let plan = AddrPlan::build(arr);
        let rank = arr.desc.dims.len();
        let total = arr.desc.total_len();
        for linear in 0..total {
            let mut rest = linear;
            let mut idx = Vec::with_capacity(rank);
            for d in &arr.desc.dims {
                idx.push(rest % d.extent);
                rest /= d.extent;
            }
            let (addr, owner) = plan.resolve(&idx);
            assert_eq!(addr, arr.addr_of(&idx), "addr mismatch at {idx:?}");
            if matches!(arr.layout, ArrayLayout::Reshaped { .. }) {
                assert_eq!(owner, arr.desc.owner_proc(&idx), "owner at {idx:?}");
                assert_eq!(plan.slot_addr(owner), arr.ptr_slot_addr(owner));
            } else {
                assert_eq!(plan.slot_addr(owner), None);
            }
        }
    }

    #[test]
    fn plans_match_rtarray_addressing() {
        let mut m = Machine::new(MachineConfig::small_test(4));
        let mut pools = PoolSet::new(4, 1 << 16);
        // Extents the processor grid does not divide, so trailing
        // portions are short.
        for (extents, dist, kind) in [
            (&[13, 9][..], None, DistKind::None),
            (
                &[13, 9],
                Some(Distribution::new(vec![Dist::Block, Dist::Star])),
                DistKind::Reshaped,
            ),
            (
                &[13, 9],
                Some(Distribution::new(vec![Dist::Cyclic(3), Dist::Block])),
                DistKind::Reshaped,
            ),
            (
                &[13, 9],
                Some(Distribution::new(vec![Dist::Cyclic(3), Dist::Cyclic(2)])),
                DistKind::Reshaped,
            ),
            (
                &[5, 7, 9],
                Some(Distribution::new(vec![
                    Dist::Star,
                    Dist::Cyclic(2),
                    Dist::Block,
                ])),
                DistKind::Reshaped,
            ),
            (
                &[7, 5, 6],
                Some(Distribution::new(vec![
                    Dist::Block,
                    Dist::Block,
                    Dist::Cyclic(1),
                ])),
                DistKind::Reshaped,
            ),
            (
                &[13, 9],
                Some(Distribution::new(vec![Dist::Block, Dist::Block])),
                DistKind::Regular,
            ),
        ] {
            let arr = RtArray::instantiate(
                &mut m,
                &mut pools,
                "a",
                extents,
                dist.as_ref(),
                kind,
                4,
            );
            check_parity(&arr);
        }
    }
}
