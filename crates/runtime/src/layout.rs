//! Array storage layouts: regular (contiguous) vs reshaped.
//!
//! * **Regular** (`c$distribute`, Section 4.2): the array keeps its
//!   standard Fortran column-major layout; the runtime only issues the
//!   page-placement system call so that each page lands on the node owning
//!   (most of) its elements.  Page-granularity false sharing is *not*
//!   avoided — that is the point of the paper's comparison.
//!
//! * **Reshaped** (`c$distribute_reshape`, Section 4.3 / Figure 3): the
//!   array becomes a *processor array* of portion pointers; each
//!   processor's portion is allocated from that processor's pool (pages
//!   local, no page padding).  The portion-pointer table is real simulated
//!   memory, so the indirect loads the compiler worries about in
//!   Section 7.2 hit the simulated cache hierarchy.

use std::sync::Arc;

use dsm_ir::{DistKind, Distribution};
use dsm_machine::{Machine, NodeId, ProcId, VAddr};

use crate::descriptor::DistDescriptor;
use crate::pool::PoolSet;

/// Where an array's elements live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayLayout {
    /// Standard column-major storage at `base`.
    Contiguous {
        /// First element's virtual address.
        base: VAddr,
    },
    /// Figure-3 layout: a table of per-processor portion pointers plus the
    /// portions themselves.
    Reshaped {
        /// Address of the portion-pointer table (8 bytes per grid proc).
        ptr_table: VAddr,
        /// Portion base addresses, indexed by linearized grid processor.
        portions: Vec<VAddr>,
    },
}

/// A live array instance bound to simulated storage.
#[derive(Debug, Clone)]
pub struct RtArray {
    /// Source name (diagnostics).
    pub name: String,
    /// Symbol interned in the machine ([`Machine::intern_symbol`]) for
    /// access-tag attribution.
    pub sym: u32,
    /// Resolved distribution geometry. Shared, never mutated: a
    /// redistribution installs a new descriptor, so whoever kept the old
    /// `Arc` (a VM address plan) can tell it went stale.
    pub desc: Arc<DistDescriptor>,
    /// Which directive governs this array.
    pub kind: DistKind,
    /// Storage layout.
    pub layout: ArrayLayout,
    /// Bytes per element.
    pub elem_bytes: u64,
}

impl RtArray {
    /// Allocate and place an array instance.
    ///
    /// `nprocs` is the executing processor count used to resolve the
    /// distribution. Reshaped arrays draw their portions from `pools`.
    ///
    /// # Panics
    ///
    /// Panics if a distribution is supplied with mismatched rank, or if
    /// `kind` names a distribution but `dist` is `None`.
    pub fn instantiate(
        m: &mut Machine,
        pools: &mut PoolSet,
        name: &str,
        extents: &[u64],
        dist: Option<&Distribution>,
        kind: DistKind,
        nprocs: usize,
    ) -> RtArray {
        let elem_bytes = 8u64;
        let sym = m.intern_symbol(name);
        match kind {
            DistKind::None => {
                let desc = Arc::new(DistDescriptor::undistributed(extents));
                let bytes = (desc.total_len() * elem_bytes) as usize;
                let base = m.alloc(bytes, 8);
                RtArray {
                    name: name.into(),
                    sym,
                    desc,
                    kind,
                    layout: ArrayLayout::Contiguous { base },
                    elem_bytes,
                }
            }
            DistKind::Regular => {
                let dist = dist.expect("regular distribution requires a Distribution");
                let desc = Arc::new(DistDescriptor::new(extents, dist, nprocs));
                let bytes = (desc.total_len() * elem_bytes) as usize;
                let base = m.alloc_pages(bytes);
                let arr = RtArray {
                    name: name.into(),
                    sym,
                    desc,
                    kind,
                    layout: ArrayLayout::Contiguous { base },
                    elem_bytes,
                };
                arr.place_regular(m);
                arr
            }
            DistKind::Reshaped => {
                let dist = dist.expect("reshaped distribution requires a Distribution");
                let desc = Arc::new(DistDescriptor::new(extents, dist, nprocs));
                let gs = desc.grid_size();
                let mut portions = Vec::with_capacity(gs);
                for p in 0..gs {
                    let bytes = (desc.portion_len(p) * elem_bytes) as usize;
                    let node = node_of_grid_proc(m, p);
                    let base = pools.alloc(m, p, node, bytes.max(8));
                    portions.push(base);
                }
                let ptr_table = m.alloc(gs * 8, 8);
                // The real runtime writes the table at start-up, so its
                // pages are mapped (on the binding processor's node) before
                // any region runs. Left to first-touch, whichever team
                // member's first slot load won the host race would home
                // them. Pages already mapped hold earlier data and stay put.
                let page = m.config().page_size as u64;
                let home = node_of_grid_proc(m, 0);
                for vpage in ptr_table / page..=(ptr_table + gs as u64 * 8 - 1) / page {
                    if m.home_of(vpage * page).is_none() {
                        m.place_page(vpage, home);
                    }
                }
                for (p, &b) in portions.iter().enumerate() {
                    m.poke_i64(ptr_table + (p * 8) as u64, b as i64);
                }
                RtArray {
                    name: name.into(),
                    sym,
                    desc,
                    kind,
                    layout: ArrayLayout::Reshaped {
                        ptr_table,
                        portions,
                    },
                    elem_bytes,
                }
            }
        }
    }

    /// Virtual address of the element at 0-based `indices` (exact for both
    /// layouts; no cycles are charged here) and the grid processor whose
    /// portion holds it (0 for contiguous layouts, which have none).
    pub fn locate(&self, indices: &[u64]) -> (VAddr, usize) {
        match &self.layout {
            ArrayLayout::Contiguous { base } => {
                (base + self.desc.global_linear(indices) * self.elem_bytes, 0)
            }
            ArrayLayout::Reshaped { portions, .. } => {
                let (owner, off) = self.desc.locate(indices);
                (portions[owner] + off * self.elem_bytes, owner)
            }
        }
    }

    /// Virtual address of the element at 0-based `indices`.
    pub fn addr_of(&self, indices: &[u64]) -> VAddr {
        self.locate(indices).0
    }

    /// Address of the portion-pointer slot for grid processor `p`
    /// (the target of the per-access indirect load in the raw/tiled
    /// addressing modes). `None` for contiguous layouts.
    pub fn ptr_slot_addr(&self, p: usize) -> Option<VAddr> {
        match &self.layout {
            ArrayLayout::Reshaped { ptr_table, .. } => Some(ptr_table + (p * 8) as u64),
            ArrayLayout::Contiguous { .. } => None,
        }
    }

    /// Base address of grid processor `p`'s portion (reshaped only).
    pub fn portion_base(&self, p: usize) -> Option<VAddr> {
        match &self.layout {
            ArrayLayout::Reshaped { portions, .. } => portions.get(p).copied(),
            ArrayLayout::Contiguous { .. } => None,
        }
    }

    /// Issue the placement system call for a regular distribution.
    ///
    /// Each processor's portion requests the pages its elements lie on;
    /// a page requested by several processors ends up on the node of the
    /// **last** requester (the behaviour the paper observes in
    /// Section 8.2 — for a `(block, *)` matrix whose contiguous runs are
    /// much smaller than a page, most pages land on a couple of nodes).
    /// Equivalently: each page goes to the highest-numbered processor
    /// owning any element in it.
    pub fn place_regular(&self, m: &mut Machine) {
        let ArrayLayout::Contiguous { base } = &self.layout else {
            return;
        };
        let page = m.config().page_size as u64;
        let total_bytes = self.desc.total_len() * self.elem_bytes;
        let mut off = 0;
        while off < total_bytes {
            let len = page.min(total_bytes - off);
            let eb = self.elem_bytes;
            let owner = self.desc.last_owner_in(off / eb, (off + page - 1) / eb);
            let node = node_of_grid_proc(m, owner);
            m.place_range(base + off, len as usize, node);
            off += page;
        }
    }

    /// Dynamically redistribute a regular array (`c$redistribute`,
    /// Section 3.3): rebind the descriptor and remap every page, charging
    /// the remap cost to `caller`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RuntimeError::RedistributeReshaped`] when invoked
    /// on a reshaped array — the paper forbids dynamic reshaping.
    pub fn redistribute(
        &mut self,
        m: &mut Machine,
        caller: ProcId,
        new_dist: &Distribution,
        nprocs: usize,
    ) -> Result<usize, crate::RuntimeError> {
        if self.kind == DistKind::Reshaped {
            return Err(crate::RuntimeError::RedistributeReshaped {
                array: self.name.clone(),
            });
        }
        self.desc = Arc::new(DistDescriptor::new(&self.desc.extents(), new_dist, nprocs));
        let ArrayLayout::Contiguous { base } = self.layout else {
            unreachable!("non-reshaped arrays are contiguous")
        };
        let page = m.config().page_size as u64;
        let total_bytes = self.desc.total_len() * self.elem_bytes;
        let desc = &self.desc;
        let elem_bytes = self.elem_bytes;
        let procs_per_node = m.config().procs_per_node;
        let pages = m.remap_range(caller, base, total_bytes as usize, |page_idx| {
            // Same "last requester wins" rule as initial placement.
            let off = page_idx * page;
            let owner = desc.last_owner_in(off / elem_bytes, (off + page - 1) / elem_bytes);
            NodeId(owner / procs_per_node)
        });
        Ok(pages)
    }
}

/// Node hosting linearized grid processor `p` (grid processors map
/// one-to-one onto machine processors in numbering order).
pub fn node_of_grid_proc(m: &Machine, p: usize) -> NodeId {
    let p = p.min(m.nprocs() - 1);
    m.node_of(ProcId(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_ir::Dist;
    use dsm_machine::MachineConfig;

    fn setup(nprocs: usize) -> (Machine, PoolSet) {
        let m = Machine::new(MachineConfig::small_test(nprocs));
        let pools = PoolSet::new(nprocs, 4096);
        (m, pools)
    }

    #[test]
    fn plain_array_is_column_major() {
        let (mut m, mut pools) = setup(2);
        let a = RtArray::instantiate(&mut m, &mut pools, "a", &[4, 4], None, DistKind::None, 2);
        let base = a.addr_of(&[0, 0]);
        assert_eq!(a.addr_of(&[1, 0]), base + 8);
        assert_eq!(a.addr_of(&[0, 1]), base + 32);
    }

    #[test]
    fn regular_block_places_pages_by_owner() {
        let (mut m, mut pools) = setup(4); // 2 nodes, page 1024 = 128 elements
                                           // 512 elements block-distributed over 4 procs: 128 each = 1 page each.
        let dist = Distribution::new(vec![Dist::Block]);
        let a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[512],
            Some(&dist),
            DistKind::Regular,
            4,
        );
        // Element 0 owned by proc 0 (node 0); element 511 by proc 3 (node 1).
        assert_eq!(m.home_of(a.addr_of(&[0])), Some(NodeId(0)));
        assert_eq!(m.home_of(a.addr_of(&[511])), Some(NodeId(1)));
    }

    #[test]
    fn regular_layout_unchanged_by_distribution() {
        let (mut m, mut pools) = setup(4);
        let dist = Distribution::new(vec![Dist::Block]);
        let a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[64],
            Some(&dist),
            DistKind::Regular,
            4,
        );
        let base = a.addr_of(&[0]);
        for i in 0..64u64 {
            assert_eq!(
                a.addr_of(&[i]),
                base + i * 8,
                "regular keeps column-major layout"
            );
        }
    }

    #[test]
    fn reshaped_portions_are_local_and_contiguous() {
        let (mut m, mut pools) = setup(4);
        let dist = Distribution::new(vec![Dist::Block]);
        let a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[100],
            Some(&dist),
            DistKind::Reshaped,
            4,
        );
        // b = 25. Each portion contiguous, placed on the owner's node.
        for p in 0..4usize {
            let first = a.addr_of(&[p as u64 * 25]);
            let last = a.addr_of(&[p as u64 * 25 + 24]);
            assert_eq!(last - first, 24 * 8, "portion {p} not contiguous");
            assert_eq!(
                m.home_of(first),
                Some(NodeId(p / 2)),
                "portion {p} on wrong node"
            );
        }
        // The portion-pointer table is mapped at instantiate, on the
        // binding processor's node: no team member first-touches it.
        let slot = a.ptr_slot_addr(3).expect("reshaped arrays have a table");
        assert_eq!(m.home_of(slot), Some(NodeId(0)));
    }

    #[test]
    fn reshaped_block_star_makes_rows_contiguous() {
        // The paper's motivating case: A(n, n) distributed (block, *) has
        // tiny contiguous runs per processor in column-major order; after
        // reshaping each processor's portion is one contiguous slab.
        let (mut m, mut pools) = setup(4);
        let dist = Distribution::new(vec![Dist::Block, Dist::Star]);
        let a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[32, 32],
            Some(&dist),
            DistKind::Reshaped,
            4,
        );
        // Proc 1 owns rows 8..16; its portion must be one contiguous run
        // in column-major portion order.
        let base = a.addr_of(&[8, 0]);
        let mut expect = base;
        for j in 0..32u64 {
            for i in 8..16u64 {
                assert_eq!(a.addr_of(&[i, j]), expect);
                expect += 8;
            }
        }
    }

    #[test]
    fn ptr_table_holds_portion_bases() {
        let (mut m, mut pools) = setup(4);
        let dist = Distribution::new(vec![Dist::Block]);
        let a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[100],
            Some(&dist),
            DistKind::Reshaped,
            4,
        );
        for p in 0..4 {
            let slot = a.ptr_slot_addr(p).unwrap();
            assert_eq!(m.peek_i64(slot) as u64, a.portion_base(p).unwrap());
        }
    }

    #[test]
    fn redistribute_moves_pages() {
        let (mut m, mut pools) = setup(4);
        let dist = Distribution::new(vec![Dist::Block]);
        let mut a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[512],
            Some(&dist),
            DistKind::Regular,
            4,
        );
        let elem300 = a.addr_of(&[300]);
        let before = m.home_of(elem300);
        // Redistribute cyclically by pages' midpoints — ownership changes.
        let pages = a
            .redistribute(
                &mut m,
                ProcId(0),
                &Distribution::new(vec![Dist::Cyclic(64)]),
                4,
            )
            .unwrap();
        assert_eq!(pages, 4);
        // Element 300: cyclic(64) over 4 procs => chunk 4 (256..320) on proc 0.
        assert_eq!(a.desc.dims[0].owner(300), 0);
        let _ = before;
        assert_eq!(m.home_of(elem300), Some(NodeId(0)));
    }

    #[test]
    fn redistribute_reshaped_is_rejected() {
        let (mut m, mut pools) = setup(2);
        let dist = Distribution::new(vec![Dist::Block]);
        let mut a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[64],
            Some(&dist),
            DistKind::Reshaped,
            2,
        );
        let err = a
            .redistribute(
                &mut m,
                ProcId(0),
                &Distribution::new(vec![Dist::Cyclic(1)]),
                2,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            crate::RuntimeError::RedistributeReshaped { .. }
        ));
    }

    #[test]
    fn reshaped_cyclic_interleaves_ownership() {
        let (mut m, mut pools) = setup(2);
        let dist = Distribution::new(vec![Dist::Cyclic(5)]);
        let a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[1000],
            Some(&dist),
            DistKind::Reshaped,
            2,
        );
        // The paper's Section 3.2.1 example: portions of 5 elements.
        // Elements 0..5 proc 0, 5..10 proc 1, 10..15 proc 0 again.
        assert_eq!(a.desc.owner_proc(&[0]), 0);
        assert_eq!(a.desc.owner_proc(&[7]), 1);
        assert_eq!(a.desc.owner_proc(&[12]), 0);
        // Within proc 0, element 10 follows element 4 contiguously.
        assert_eq!(a.addr_of(&[10]), a.addr_of(&[4]) + 8);
    }
}
