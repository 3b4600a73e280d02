//! Runtime distribution descriptors.
//!
//! A [`DistDescriptor`] resolves a symbolic [`Distribution`] against the
//! actual array extents and processor count at program start-up — the
//! paper's "number of processors in each distributed dimension is
//! determined at program start-up time, which enables the same executable
//! to run with different numbers of processors" (Section 3.2).
//!
//! The descriptor answers the ownership questions of Table 1:
//! for each distributed dimension, *which processor coordinate owns index
//! i* and *at which local offset* — for `block`, `cyclic` and `cyclic(k)`.

use dsm_ir::{Dist, Distribution};

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
    /// `cyclic(k)`: the chunk size `k`; `*`: the whole extent.
    pub chunk: u64,
}

impl DimDesc {
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
            Dist::Cyclic(k) => {
                let chunk = i / k;
                let round = chunk / self.nprocs;
                (chunk - round * self.nprocs, round * k + (i - chunk * k))
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
    pub fn portion_extent(&self, p: u64) -> u64 {
        match self.dist {
            Dist::Star => self.extent,
            Dist::Block => {
                let lo = p * self.chunk;
                if lo >= self.extent {
                    0
                } else {
                    (self.extent - lo).min(self.chunk)
                }
            }
            Dist::Cyclic(k) => {
                // Elements i with (i/k) % P == p.
                let full_rounds = self.extent / (k * self.nprocs);
                let rem = self.extent - full_rounds * k * self.nprocs;
                let extra = rem.saturating_sub(p * k).min(k);
                full_rounds * k + extra
            }
        }
    }

    /// Maximum portion extent over all coordinates (allocation size).
    pub fn max_portion_extent(&self) -> u64 {
        (0..self.nprocs)
            .map(|p| self.portion_extent(p))
            .max()
            .unwrap_or(0)
    }

    /// Elements remaining in the contiguous run containing 0-based index
    /// `i`, from `i` to the run's end (clamped by the extent).  This is
    /// the "portion" size of the paper's element-passing rule: for
    /// `cyclic(5)`, passing element 0 passes a 5-element portion.
    pub fn run_remaining(&self, i: u64) -> u64 {
        match self.dist {
            Dist::Star => self.extent - i,
            Dist::Block => ((self.owner(i) + 1) * self.chunk).min(self.extent) - i,
            Dist::Cyclic(k) => (k - i % k).min(self.extent - i),
        }
    }

    /// Global 0-based index range `[start, end)` of the `n`-th contiguous
    /// run owned by coordinate `p` (for `block` there is exactly one run;
    /// for `cyclic(k)` run `n` starts at `(n*P + p) * k`). Returns `None`
    /// when the run is beyond the extent.
    pub fn run(&self, p: u64, n: u64) -> Option<(u64, u64)> {
        let (start, len) = match self.dist {
            Dist::Star => {
                if n > 0 {
                    return None;
                }
                (0, self.extent)
            }
            Dist::Block => {
                if n > 0 {
                    return None;
                }
                (p * self.chunk, self.chunk)
            }
            Dist::Cyclic(k) => ((n * self.nprocs + p) * k, k),
        };
        if start >= self.extent {
            None
        } else {
            Some((start, (start + len).min(self.extent)))
        }
    }
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
    /// Panics if ranks mismatch or any extent is zero.
    pub fn new(extents: &[u64], dist: &Distribution, nprocs: usize) -> Self {
        assert_eq!(extents.len(), dist.dims.len(), "distribution rank mismatch");
        assert!(extents.iter().all(|&e| e > 0), "zero-extent array");
        let grid = dist.factor_grid(nprocs);
        let distributed = dist.distributed_dims();
        let mut gi = 0;
        let dims = extents
            .iter()
            .zip(&dist.dims)
            .map(|(&extent, &d)| {
                let nprocs = if d.is_distributed() {
                    let p = grid[gi] as u64;
                    gi += 1;
                    p
                } else {
                    1
                };
                let chunk = match d {
                    Dist::Star => extent,
                    Dist::Block => extent.div_ceil(nprocs),
                    Dist::Cyclic(k) => k.max(1),
                };
                DimDesc {
                    extent,
                    dist: d,
                    nprocs,
                    chunk,
                }
            })
            .collect();
        DistDescriptor {
            dims,
            distributed,
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

    /// Owning grid coordinates (one per distributed dim) of the element at
    /// the given 0-based `indices`.
    pub fn owner_coords(&self, indices: &[u64]) -> Vec<u64> {
        self.distributed
            .iter()
            .map(|&d| self.dims[d].owner(indices[d]))
            .collect()
    }

    /// Linearize grid coordinates into a processor number in
    /// `0..grid_size()` (first distributed dimension fastest-varying,
    /// matching Fortran column-major convention).
    pub fn linearize_coords(&self, coords: &[u64]) -> usize {
        let mut proc = 0u64;
        for (i, &c) in coords.iter().enumerate().rev() {
            proc = proc * self.grid[i] as u64 + c;
        }
        proc as usize
    }

    /// Grid coordinates of linearized processor `p`.
    pub fn delinearize_proc(&self, p: usize) -> Vec<u64> {
        let mut rest = p as u64;
        self.grid
            .iter()
            .map(|&g| {
                let c = rest % g as u64;
                rest /= g as u64;
                c
            })
            .collect()
    }

    /// Processor number (in `0..grid_size()`) owning the element at
    /// 0-based `indices`.
    pub fn owner_proc(&self, indices: &[u64]) -> usize {
        self.linearize_coords(&self.owner_coords(indices))
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
        let dim0 = &self.dims[0];
        let mut owner = 0usize;
        let mut idx: Vec<u64> = Vec::with_capacity(self.dims.len());
        let mut e = first;
        while e <= last {
            idx.clear();
            let mut rest = e;
            for d in &self.dims {
                idx.push(rest % d.extent);
                rest /= d.extent;
            }
            owner = owner.max(self.owner_proc(&idx));
            // Jump to the end of the current dim-0 run (clamped to the
            // column boundary): every element in between shares this owner.
            e += dim0.run_remaining(idx[0]).min(dim0.extent - idx[0]).max(1);
        }
        owner
    }

    /// Element count of the portion owned by linearized processor `p`.
    pub fn portion_len(&self, p: usize) -> u64 {
        let coords = self.delinearize_proc(p);
        let mut gi = 0;
        self.dims
            .iter()
            .map(|d| {
                if d.dist.is_distributed() {
                    let e = d.portion_extent(coords[gi]);
                    gi += 1;
                    e
                } else {
                    d.extent
                }
            })
            .product()
    }

    /// Column-major offset of 0-based `indices` *within* the owner's
    /// portion (using that portion's own extents).
    pub fn local_linear(&self, indices: &[u64]) -> u64 {
        let coords = self.owner_coords(indices);
        let mut gi_of_dim = vec![usize::MAX; self.dims.len()];
        for (gi, &d) in self.distributed.iter().enumerate() {
            gi_of_dim[d] = gi;
        }
        let mut off = 0u64;
        for di in (0..self.dims.len()).rev() {
            let d = &self.dims[di];
            let (local_idx, local_ext) = if d.dist.is_distributed() {
                let c = coords[gi_of_dim[di]];
                (d.local_offset(indices[di]), d.portion_extent(c))
            } else {
                (indices[di], d.extent)
            };
            off = off * local_ext + local_idx;
        }
        off
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
        assert_eq!(desc.linearize_coords(&[1, 0]), 1);
        assert_eq!(desc.linearize_coords(&[0, 1]), 4);
        assert_eq!(desc.delinearize_proc(6), vec![2, 1]);
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
