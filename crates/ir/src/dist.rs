//! Data-distribution descriptors: the `c$distribute` family.
//!
//! A [`Distribution`] mirrors the paper's directive (Section 3.2):
//!
//! ```fortran
//!       real*8 A(m, n, ...)
//! c$distribute A(<dist>, <dist>, ...) onto (p1, p2, ...)
//! ```
//!
//! where each `<dist>` is `block`, `cyclic`, `cyclic(<expr>)` or `*`, with
//! HPF semantics.  The same descriptor serves `c$distribute_reshape` and
//! `c$redistribute`; [`DistKind`] records which directive introduced it.

/// Highest array rank the system accepts (Fortran allows 7): sema refuses
/// more, so runtime descriptors and VM tiles are fixed arrays of this size.
pub const MAX_RANK: usize = 8;

/// Distribution format of a single array dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dist {
    /// `block`: contiguous chunks of `ceil(N/P)` elements per processor.
    Block,
    /// `cyclic(k)`: chunks of `k` elements dealt round-robin.
    /// `cyclic` is `Cyclic(1)`.
    Cyclic(u64),
    /// `*`: dimension not distributed.
    Star,
}

impl Dist {
    /// True if this dimension is actually distributed across processors.
    pub fn is_distributed(&self) -> bool {
        !matches!(self, Dist::Star)
    }
}

impl std::fmt::Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dist::Block => write!(f, "block"),
            Dist::Cyclic(1) => write!(f, "cyclic"),
            Dist::Cyclic(k) => write!(f, "cyclic({k})"),
            Dist::Star => write!(f, "*"),
        }
    }
}

/// An `onto(p1, p2, …)` clause: relative weights for dividing the total
/// processor count across the distributed dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct OntoSpec {
    /// One weight per *distributed* dimension, in order.
    pub ratios: Vec<u64>,
}

/// Which directive declared a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistKind {
    /// No distribution directive.
    #[default]
    None,
    /// `c$distribute`: page-granular placement, layout unchanged.
    Regular,
    /// `c$distribute_reshape`: layout reorganized into per-processor
    /// portions; exact distribution guaranteed.
    Reshaped,
}

impl std::fmt::Display for DistKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistKind::None => write!(f, "none"),
            DistKind::Regular => write!(f, "distribute"),
            DistKind::Reshaped => write!(f, "distribute_reshape"),
        }
    }
}

/// A complete distribution for an array: one [`Dist`] per dimension plus an
/// optional `onto` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Distribution {
    /// Per-dimension formats, innermost (Fortran leftmost) first.
    pub dims: Vec<Dist>,
    /// Optional processor-assignment ratios across distributed dims.
    pub onto: Option<OntoSpec>,
}

impl Distribution {
    /// Distribution with the given per-dimension formats and no `onto`.
    pub fn new(dims: Vec<Dist>) -> Self {
        Distribution { dims, onto: None }
    }

    /// Number of distributed (non-`*`) dimensions.
    pub fn n_distributed(&self) -> usize {
        self.dims.iter().filter(|d| d.is_distributed()).count()
    }

    /// Indices of the distributed dimensions, in declaration order.
    pub fn distributed_dims(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_distributed())
            .map(|(i, _)| i)
            .collect()
    }

    /// Factor `nprocs` into a processor-grid extent per *distributed*
    /// dimension, honouring the `onto` ratios when present; without `onto`,
    /// processors are split as evenly as possible (favouring earlier
    /// dimensions).  Always returns at least 1 per dimension and a product
    /// ≤ `nprocs` (the product may be < `nprocs` if it does not factor
    /// evenly; leftover processors idle, as on the real system).
    ///
    /// Returns an empty vector when nothing is distributed.
    pub fn factor_grid(&self, nprocs: usize) -> Vec<usize> {
        let nd = self.n_distributed();
        if nd == 0 {
            return Vec::new();
        }
        if nd == 1 {
            return vec![nprocs.max(1)];
        }
        let ratios: Vec<u64> = match &self.onto {
            Some(o) if o.ratios.len() == nd => o.ratios.clone(),
            _ => vec![1; nd],
        };
        // Enumerate factorizations g with product(g) <= nprocs, preferring
        // the largest product, then the grid whose shape best matches the
        // requested ratios (in log space).
        let mut best: Option<(usize, f64, Vec<usize>)> = None;
        let mut current = vec![1usize; nd];
        Self::enumerate_grids(nprocs, 0, &mut current, &mut |g| {
            let prod: usize = g.iter().product();
            let dev: f64 = {
                // Normalize both shapes and compare in log space.
                let gs: f64 = g.iter().map(|&x| (x as f64).ln()).sum::<f64>() / nd as f64;
                let rs: f64 = ratios.iter().map(|&x| (x as f64).ln()).sum::<f64>() / nd as f64;
                g.iter()
                    .zip(&ratios)
                    .map(|(&gi, &ri)| ((gi as f64).ln() - gs - ((ri as f64).ln() - rs)).abs())
                    .sum()
            };
            let better = match &best {
                None => true,
                Some((bp, bd, _)) => prod > *bp || (prod == *bp && dev < *bd - 1e-12),
            };
            if better {
                best = Some((prod, dev, g.to_vec()));
            }
        });
        best.map(|(_, _, g)| g).unwrap_or_else(|| vec![1; nd])
    }

    /// Enumerate all `dims.len()`-tuples of positive integers with product
    /// ≤ `budget`, writing each into `dims[pos..]` and invoking `f`.
    fn enumerate_grids(
        budget: usize,
        pos: usize,
        dims: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]),
    ) {
        if pos == dims.len() {
            f(dims);
            return;
        }
        let mut v = 1;
        while v <= budget {
            dims[pos] = v;
            Self::enumerate_grids(budget / v, pos + 1, dims, f);
            v += 1;
        }
    }
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")?;
        if let Some(o) = &self.onto {
            write!(f, " onto (")?;
            for (i, r) in o.ratios.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{r}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let d = Distribution::new(vec![
            Dist::Star,
            Dist::Block,
            Dist::Cyclic(1),
            Dist::Cyclic(5),
        ]);
        assert_eq!(d.to_string(), "(*, block, cyclic, cyclic(5))");
    }

    #[test]
    fn distributed_dims_skips_star() {
        let d = Distribution::new(vec![Dist::Star, Dist::Block, Dist::Star, Dist::Block]);
        assert_eq!(d.n_distributed(), 2);
        assert_eq!(d.distributed_dims(), vec![1, 3]);
    }

    #[test]
    fn factor_single_dim_takes_all() {
        let d = Distribution::new(vec![Dist::Block, Dist::Star]);
        assert_eq!(d.factor_grid(16), vec![16]);
        assert_eq!(d.factor_grid(1), vec![1]);
    }

    #[test]
    fn factor_two_dims_splits_evenly() {
        let d = Distribution::new(vec![Dist::Block, Dist::Block]);
        assert_eq!(d.factor_grid(16), vec![4, 4]);
        let g = d.factor_grid(8);
        assert_eq!(g.iter().product::<usize>(), 8);
    }

    #[test]
    fn factor_respects_onto_ratios() {
        let mut d = Distribution::new(vec![Dist::Block, Dist::Block]);
        d.onto = Some(OntoSpec { ratios: vec![4, 1] });
        let g = d.factor_grid(16);
        assert_eq!(g.iter().product::<usize>(), 16);
        assert!(
            g[0] > g[1],
            "onto(4,1) must give dim 0 more processors: {g:?}"
        );
    }

    #[test]
    fn factor_never_exceeds_nprocs() {
        for n in 1..40 {
            let d = Distribution::new(vec![Dist::Block, Dist::Cyclic(2)]);
            let g = d.factor_grid(n);
            assert!(g.iter().product::<usize>() <= n, "nprocs={n} grid={g:?}");
            assert!(g.iter().all(|&e| e >= 1));
        }
    }

    #[test]
    fn factor_nothing_distributed() {
        let d = Distribution::new(vec![Dist::Star, Dist::Star]);
        assert!(d.factor_grid(8).is_empty());
    }
}
