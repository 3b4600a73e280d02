//! Runtime distribution descriptors: the one geometry of a distributed
//! array.
//!
//! A [`DistDescriptor`] resolves a symbolic [`Distribution`] against the
//! actual array extents and processor count at program start-up — the
//! paper's "number of processors in each distributed dimension is
//! determined at program start-up time, which enables the same executable
//! to run with different numbers of processors" (Section 3.2).
//!
//! Everything that asks *who owns what* asks here, in one of three ways,
//! none of which allocates:
//!
//! * **per index** — [`DistDescriptor::locate`]: the grid processor owning
//!   an element and the element's offset in that processor's portion,
//!   Table 1 ([`DimDesc::locate`]) folded over the dimensions.
//!   `RtArray::addr_of` (the interpreter) and the VM's tile-miss path are
//!   this plus a portion base;
//! * **per processor** — [`DistDescriptor::boxes`]: the disjoint index
//!   boxes a grid processor owns, the product of [`DimDesc::run`] over
//!   the dimensions (one box for `block`/`*`, one per chunk tuple for
//!   `cyclic(k)`). The VM's tiles are these boxes plus addresses;
//! * **per run** — [`DimDesc::runs`] and [`DimDesc::run_remaining`]: the
//!   contiguous same-owner runs of one dimension, which the page-owner
//!   scan ([`DistDescriptor::last_owner_in`]), the element-passing rule
//!   ([`DistDescriptor::portion_remaining`]) and the `simple` /
//!   `interleave(k)` loop schedules (a `block` / `cyclic(k)` dimension of
//!   the trip count) step over.
//!
//! The per-format arithmetic (`block`, `cyclic(k)`, `*`) is in [`DimDesc`]
//! and nowhere else.

use dsm_ir::{Dist, Distribution};

pub use dsm_ir::MAX_RANK;

/// Resolved geometry of one array dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimDesc {
    /// Extent (number of elements).
    pub extent: u64,
    /// Distribution format.
    pub dist: Dist,
    /// Processors assigned to this dimension (1 for `*`).
    pub nprocs: u64,
    /// `block`: portion size `b = ceil(extent / nprocs)`;
    /// `cyclic(k)`: the chunk size `k` (at least 1); `*`: the whole
    /// extent. Every format arm below reads this, never the raw `k`.
    pub chunk: u64,
}

impl DimDesc {
    /// Resolve format `dist` for `extent` indices over `nprocs`
    /// processors (`*` always gets one).
    pub fn new(extent: u64, dist: Dist, nprocs: u64) -> DimDesc {
        let nprocs = if dist.is_distributed() { nprocs } else { 1 };
        let chunk = match dist {
            Dist::Star => extent,
            Dist::Block => extent.div_ceil(nprocs),
            Dist::Cyclic(k) => k.max(1),
        };
        DimDesc {
            extent,
            dist,
            nprocs,
            chunk,
        }
    }

    /// Owner coordinate (0-based) of 0-based index `i` and `i`'s offset
    /// within that owner's portion — the two answers of Table 1, from one
    /// division for `block` and two for `cyclic(k)`. Every reshaped
    /// reference resolves through here, so the offset is derived from the
    /// owner instead of dividing again.
    #[inline]
    pub fn locate(&self, i: u64) -> (u64, u64) {
        match self.dist {
            Dist::Star => (0, i),
            Dist::Block => {
                let owner = (i / self.chunk).min(self.nprocs - 1);
                (owner, i - owner * self.chunk)
            }
            Dist::Cyclic(_) => {
                let chunk = i / self.chunk;
                let round = chunk / self.nprocs;
                (
                    chunk - round * self.nprocs,
                    round * self.chunk + (i - chunk * self.chunk),
                )
            }
        }
    }

    /// Processor coordinate (0-based) owning 0-based index `i`.
    pub fn owner(&self, i: u64) -> u64 {
        self.locate(i).0
    }

    /// Offset of 0-based index `i` within its owner's portion.
    pub fn local_offset(&self, i: u64) -> u64 {
        self.locate(i).1
    }

    /// Number of elements owned by processor coordinate `p` along this
    /// dimension.
    #[inline]
    pub fn portion_extent(&self, p: u64) -> u64 {
        match self.dist {
            Dist::Star => self.extent,
            Dist::Block => self.extent.saturating_sub(p * self.chunk).min(self.chunk),
            Dist::Cyclic(_) => {
                // Elements i with (i/k) % P == p.
                let round = self.chunk * self.nprocs;
                let full_rounds = self.extent / round;
                let rem = self.extent - full_rounds * round;
                full_rounds * self.chunk + rem.saturating_sub(p * self.chunk).min(self.chunk)
            }
        }
    }

    /// Elements remaining in the contiguous run containing 0-based index
    /// `i`, from `i` to the run's end (clamped by the extent).  This is
    /// the "portion" size of the paper's element-passing rule: for
    /// `cyclic(5)`, passing element 0 passes a 5-element portion.
    pub fn run_remaining(&self, i: u64) -> u64 {
        ((i / self.chunk + 1) * self.chunk).min(self.extent) - i
    }

    /// Global 0-based index range `[start, end)` of the `n`-th contiguous
    /// run owned by coordinate `p` (for `block` there is exactly one run;
    /// for `cyclic(k)` run `n` starts at `(n*P + p) * k`). Returns `None`
    /// when the run is beyond the extent.
    pub fn run(&self, p: u64, n: u64) -> Option<(u64, u64)> {
        let start = match self.dist {
            Dist::Star | Dist::Block if n > 0 => return None,
            Dist::Star | Dist::Block => p * self.chunk,
            Dist::Cyclic(_) => (n * self.nprocs + p) * self.chunk,
        };
        (start < self.extent).then(|| (start, (start + self.chunk).min(self.extent)))
    }

    /// Every run of coordinate `p`, in index order.
    pub fn runs(&self, p: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..).map_while(move |n| self.run(p, n))
    }
}

/// A box of index space: `len[d]` consecutive indices from 0-based
/// `lo[d]` in each dimension (entries past the rank stay zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexBox {
    /// First index per dimension.
    pub lo: [u64; MAX_RANK],
    /// Extent per dimension.
    pub len: [u64; MAX_RANK],
}

/// Resolved distribution of a whole array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistDescriptor {
    /// Per-dimension geometry, declaration order.
    pub dims: Vec<DimDesc>,
    /// Indices of the distributed dimensions.
    pub distributed: Vec<usize>,
    /// Processor-grid extents, one per distributed dimension
    /// (product ≤ total processors).
    pub grid: Vec<usize>,
}

impl DistDescriptor {
    /// Resolve `dist` for an array of the given `extents` on `nprocs`
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics if ranks mismatch, the rank exceeds [`MAX_RANK`] or any
    /// extent is zero.
    pub fn new(extents: &[u64], dist: &Distribution, nprocs: usize) -> Self {
        assert_eq!(extents.len(), dist.dims.len(), "distribution rank mismatch");
        assert!(extents.len() <= MAX_RANK, "array rank exceeds MAX_RANK");
        assert!(extents.iter().all(|&e| e > 0), "zero-extent array");
        let grid = dist.factor_grid(nprocs);
        let mut axes = grid.iter();
        let dims = (extents.iter().zip(&dist.dims))
            .map(|(&extent, &d)| {
                let nprocs = if d.is_distributed() {
                    axes.next()
                } else {
                    None
                };
                DimDesc::new(extent, d, nprocs.map_or(1, |&g| g as u64))
            })
            .collect();
        DistDescriptor {
            dims,
            distributed: dist.distributed_dims(),
            grid,
        }
    }

    /// A descriptor for an undistributed array (all dims `*`).
    pub fn undistributed(extents: &[u64]) -> Self {
        let dist = Distribution::new(vec![Dist::Star; extents.len()]);
        Self::new(extents, &dist, 1)
    }

    /// Total processors used by the grid (product of grid extents; 1 when
    /// nothing is distributed).
    pub fn grid_size(&self) -> usize {
        self.grid.iter().product::<usize>().max(1)
    }

    /// Declared extent per dimension.
    pub fn extents(&self) -> Vec<u64> {
        self.dims.iter().map(|d| d.extent).collect()
    }

    /// Owning grid processor (in `0..grid_size()`) of the element at
    /// 0-based `idx0` and the element's column-major offset *within* that
    /// processor's portion (using the portion's own extents): Table 1 per
    /// dimension, folded lowest dimension fastest on both sides — a `*`
    /// dimension has one processor and so drops out of the grid fold.
    #[inline]
    pub fn locate(&self, idx0: &[u64]) -> (usize, u64) {
        let (mut proc, mut grid_stride) = (0, 1);
        let (mut off, mut stride) = (0, 1);
        for (d, &i) in self.dims.iter().zip(idx0) {
            let (c, local) = d.locate(i);
            proc += c * grid_stride;
            grid_stride *= d.nprocs;
            off += local * stride;
            stride *= d.portion_extent(c);
        }
        (proc as usize, off)
    }

    /// Processor number owning the element at 0-based `indices`.
    pub fn owner_proc(&self, indices: &[u64]) -> usize {
        self.locate(indices).0
    }

    /// Offset of 0-based `indices` within the owner's portion.
    pub fn local_linear(&self, indices: &[u64]) -> u64 {
        self.locate(indices).1
    }

    /// Coordinate of grid processor `p` along every *dimension* (0 along
    /// `*`): the first distributed dimension varies fastest, matching
    /// Fortran column-major convention.
    pub fn coords_of(&self, p: usize) -> [u64; MAX_RANK] {
        let mut coords = [0; MAX_RANK];
        let mut rest = p as u64;
        for (c, d) in coords.iter_mut().zip(&self.dims) {
            *c = rest % d.nprocs;
            rest /= d.nprocs;
        }
        coords
    }

    /// Inverse of [`DistDescriptor::coords_of`]: the grid processor at
    /// per-dimension coordinates `coords`.
    pub fn proc_at(&self, coords: &[u64]) -> usize {
        let mut proc = 0;
        for (&c, d) in coords.iter().zip(&self.dims).rev() {
            proc = proc * d.nprocs + c;
        }
        proc as usize
    }

    /// The disjoint index boxes owned by grid processor `p`, produced
    /// lazily: the product of its runs along each dimension, lowest
    /// dimension fastest (exactly one box unless a dimension is
    /// `cyclic(k)`; none when `p` owns nothing). Over all `p` the boxes
    /// cover the array.
    pub fn boxes(&self, p: usize) -> impl Iterator<Item = IndexBox> + '_ {
        let coords = self.coords_of(p);
        // Run number per dimension; `None` once the odometer wraps.
        let mut next = Some([0u64; MAX_RANK]);
        std::iter::from_fn(move || {
            let n = next.as_mut()?;
            let mut b = IndexBox::default();
            for (d, dim) in self.dims.iter().enumerate() {
                // Only a first run can be missing: `p` owns nothing.
                let (lo, hi) = dim.run(coords[d], n[d])?;
                (b.lo[d], b.len[d]) = (lo, hi - lo);
            }
            // Odometer step: the lowest dimension with a further run.
            let more = self.dims.iter().enumerate().any(|(d, dim)| {
                n[d] += 1;
                let has = dim.run(coords[d], n[d]).is_some();
                if !has {
                    n[d] = 0;
                }
                has
            });
            if !more {
                next = None;
            }
            Some(b)
        })
    }

    /// Element count of the portion owned by linearized processor `p`.
    pub fn portion_len(&self, p: usize) -> u64 {
        let coords = self.coords_of(p);
        (self.dims.iter().zip(coords))
            .map(|(d, c)| d.portion_extent(c))
            .product()
    }

    /// The paper's rule for passing an element of a reshaped array: the
    /// passed "portion" runs from the element at 0-based `idx0` to the end
    /// of its contiguous run in the fastest dimension, times the
    /// remaining portion rectangle in the outer dimensions.
    pub fn portion_remaining(&self, idx0: &[u64]) -> u64 {
        let outer = self.dims.iter().zip(idx0).skip(1).map(|(d, &i)| {
            let (c, local) = d.locate(i);
            d.portion_extent(c) - local
        });
        self.dims[0].run_remaining(idx0[0]) * outer.product::<u64>()
    }

    /// The "last requester wins" page-owner rule of regular placement
    /// (Section 8.2) and of both redistribution movers: the
    /// highest-numbered grid processor owning any element whose
    /// column-major linear index lies in `[first, last]`, clamped to the
    /// array (0 for an empty range). Steps over the contiguous same-owner
    /// runs of the fastest-varying dimension (a run's elements share every
    /// index but the first, so they share an owner), which makes the scan
    /// O(chunks-in-range) instead of O(elements-in-range).
    pub fn last_owner_in(&self, first: u64, last: u64) -> usize {
        let last = last.min(self.total_len() - 1);
        let rank = self.dims.len();
        let mut owner = 0usize;
        let mut idx = [0u64; MAX_RANK];
        let mut e = first;
        while e <= last {
            let mut rest = e;
            for (i, d) in idx.iter_mut().zip(&self.dims) {
                *i = rest % d.extent;
                rest /= d.extent;
            }
            owner = owner.max(self.owner_proc(&idx[..rank]));
            // Jump to the end of the current dim-0 run (which ends at the
            // column boundary at the latest): every element in between
            // shares this owner.
            e += self.dims[0].run_remaining(idx[0]);
        }
        owner
    }

    /// Column-major offset of 0-based `indices` in the *undistributed*
    /// (standard Fortran) layout.
    pub fn global_linear(&self, indices: &[u64]) -> u64 {
        let mut off = 0u64;
        for di in (0..self.dims.len()).rev() {
            off = off * self.dims[di].extent + indices[di];
        }
        off
    }

    /// Total number of elements.
    pub fn total_len(&self) -> u64 {
        self.dims.iter().map(|d| d.extent).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_desc(n: u64, p: usize) -> DimDesc {
        let d = DistDescriptor::new(&[n], &Distribution::new(vec![Dist::Block]), p);
        d.dims[0]
    }

    #[test]
    fn block_ownership_and_offsets() {
        let d = block_desc(10, 4); // b = 3
        assert_eq!(d.chunk, 3);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(2), 0);
        assert_eq!(d.owner(3), 1);
        assert_eq!(d.owner(9), 3);
        assert_eq!(d.local_offset(4), 1);
        assert_eq!(d.portion_extent(0), 3);
        assert_eq!(d.portion_extent(3), 1); // last gets the remainder
    }

    #[test]
    fn block_portions_cover_extent() {
        for n in [1u64, 7, 16, 100, 1000] {
            for p in [1usize, 2, 3, 7, 8] {
                let d = block_desc(n, p);
                let total: u64 = (0..p as u64).map(|c| d.portion_extent(c)).sum();
                assert_eq!(total, n, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn cyclic_ownership() {
        let desc = DistDescriptor::new(&[10], &Distribution::new(vec![Dist::Cyclic(1)]), 3);
        let d = desc.dims[0];
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(1), 1);
        assert_eq!(d.owner(2), 2);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.local_offset(3), 1);
        assert_eq!(d.local_offset(9), 3);
        assert_eq!(d.portion_extent(0), 4); // 0,3,6,9
        assert_eq!(d.portion_extent(1), 3);
    }

    #[test]
    fn block_cyclic_ownership() {
        let desc = DistDescriptor::new(&[1000], &Distribution::new(vec![Dist::Cyclic(5)]), 4);
        let d = desc.dims[0];
        // Elements 0..5 on p0, 5..10 on p1, ...
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(4), 0);
        assert_eq!(d.owner(5), 1);
        assert_eq!(d.owner(19), 3);
        assert_eq!(d.owner(20), 0);
        assert_eq!(d.local_offset(20), 5);
        assert_eq!(d.local_offset(24), 9);
        let total: u64 = (0..4).map(|c| d.portion_extent(c)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn cyclic_runs_enumerate_ownership() {
        let desc = DistDescriptor::new(&[23], &Distribution::new(vec![Dist::Cyclic(4)]), 3);
        let d = desc.dims[0];
        let mut owned = vec![];
        let mut n = 0;
        while let Some((s, e)) = d.run(1, n) {
            owned.extend(s..e);
            n += 1;
        }
        let expect: Vec<u64> = (0..23).filter(|&i| d.owner(i) == 1).collect();
        assert_eq!(owned, expect);
    }

    #[test]
    fn two_dim_block_block_grid() {
        let dist = Distribution::new(vec![Dist::Block, Dist::Block]);
        let desc = DistDescriptor::new(&[100, 100], &dist, 16);
        assert_eq!(desc.grid, vec![4, 4]);
        assert_eq!(desc.grid_size(), 16);
        // Element (0,0) owned by proc 0, (99,99) by the last proc.
        assert_eq!(desc.owner_proc(&[0, 0]), 0);
        assert_eq!(desc.owner_proc(&[99, 99]), 15);
        // Coordinates linearize column-major.
        assert_eq!(desc.proc_at(&[1, 0]), 1);
        assert_eq!(desc.proc_at(&[0, 1]), 4);
        assert_eq!(desc.coords_of(6)[..2], [2, 1]);
    }

    #[test]
    fn star_block_only_distributes_second_dim() {
        let dist = Distribution::new(vec![Dist::Star, Dist::Block]);
        let desc = DistDescriptor::new(&[8, 100], &dist, 4);
        assert_eq!(desc.grid, vec![4]);
        assert_eq!(desc.owner_proc(&[3, 0]), 0);
        assert_eq!(desc.owner_proc(&[3, 99]), 3);
        assert_eq!(desc.portion_len(0), 8 * 25);
    }

    #[test]
    fn portions_partition_the_array() {
        let dist = Distribution::new(vec![Dist::Block, Dist::Cyclic(3)]);
        let desc = DistDescriptor::new(&[17, 29], &dist, 6);
        let total: u64 = (0..desc.grid_size()).map(|p| desc.portion_len(p)).sum();
        assert_eq!(total, 17 * 29);
    }

    #[test]
    fn local_linear_is_dense_and_unique_per_portion() {
        let dist = Distribution::new(vec![Dist::Block, Dist::Block]);
        let desc = DistDescriptor::new(&[10, 10], &dist, 4);
        for p in 0..desc.grid_size() {
            let mut seen = std::collections::HashSet::new();
            for i in 0..10u64 {
                for j in 0..10u64 {
                    if desc.owner_proc(&[i, j]) == p {
                        let off = desc.local_linear(&[i, j]);
                        assert!(off < desc.portion_len(p));
                        assert!(seen.insert(off), "duplicate offset {off} in portion {p}");
                    }
                }
            }
            assert_eq!(seen.len() as u64, desc.portion_len(p));
        }
    }

    /// The stored chunk is the one every arm divides by: `cyclic(0)` is
    /// `cyclic(1)`, not a division by zero.
    #[test]
    fn cyclic_zero_resolves_to_chunk_one() {
        let zero = DistDescriptor::new(&[10], &Distribution::new(vec![Dist::Cyclic(0)]), 2);
        let one = DistDescriptor::new(&[10], &Distribution::new(vec![Dist::Cyclic(1)]), 2);
        let d = zero.dims[0];
        assert_eq!(d.chunk, 1);
        assert_eq!(d.locate(3), (1, 1));
        for i in 0..10 {
            assert_eq!(d.locate(i), one.dims[0].locate(i));
            assert_eq!(d.run_remaining(i), 1);
            assert_eq!(zero.locate(&[i]), one.locate(&[i]));
        }
        for p in 0..2 {
            assert_eq!(d.portion_extent(p), 5);
            assert_eq!(
                d.runs(p).collect::<Vec<_>>(),
                one.dims[0].runs(p).collect::<Vec<_>>()
            );
            assert_eq!(zero.boxes(p as usize).count(), 5);
        }
    }

    #[test]
    fn global_linear_is_column_major() {
        let desc = DistDescriptor::undistributed(&[3, 4]);
        assert_eq!(desc.global_linear(&[0, 0]), 0);
        assert_eq!(desc.global_linear(&[1, 0]), 1);
        assert_eq!(desc.global_linear(&[0, 1]), 3);
        assert_eq!(desc.global_linear(&[2, 3]), 11);
        assert_eq!(desc.total_len(), 12);
    }

    #[test]
    fn undistributed_has_trivial_grid() {
        let desc = DistDescriptor::undistributed(&[5, 5]);
        assert_eq!(desc.grid_size(), 1);
        assert_eq!(desc.owner_proc(&[4, 4]), 0);
        assert_eq!(desc.local_linear(&[2, 2]), desc.global_linear(&[2, 2]));
    }
}
