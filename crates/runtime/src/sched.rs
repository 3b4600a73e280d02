//! Iteration scheduling for `doacross` loops.
//!
//! Implements the `schedtype` policies of the MIPSpro directives plus
//! runtime affinity scheduling — the fallback used when the compiler has
//! not lowered an `affinity` clause into Figure-2 processor-tile loops.
//! No schedule has arithmetic of its own: `simple` and `interleave(k)`
//! are a `block` / `cyclic(k)` [`DimDesc`] over the trip count, affinity
//! asks the array's own [`DimDesc`] who owns each iteration's element.

use dsm_ir::{Dist, Distribution, SchedType};

use crate::descriptor::{DimDesc, DistDescriptor};

/// A contiguous run of iterations `lb, lb+step, …, ≤ ub` (Fortran
/// inclusive bounds). Empty when `ub < lb` for positive step, and when
/// `lb < ub` for negative step (the bounds are in iteration order, so a
/// downward chunk has `lb >= ub`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration value.
    pub lb: i64,
    /// Last iteration value (inclusive).
    pub ub: i64,
    /// Step (non-zero).
    pub step: i64,
}

impl Chunk {
    /// Number of iterations in this chunk.
    pub fn len(&self) -> u64 {
        if self.step > 0 {
            if self.ub < self.lb {
                0
            } else {
                ((self.ub - self.lb) / self.step + 1) as u64
            }
        } else if self.lb < self.ub {
            0
        } else {
            ((self.lb - self.ub) / (-self.step) + 1) as u64
        }
    }

    /// True when the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Grid axis a proc-tile member reads its coordinate from.
///
/// The compiler bakes `grid_dim` — the rank of the tiled dimension among
/// the affinity array's distributed dimensions — into
/// [`SchedType::ProcTile`] under the array's *declared* distribution. A
/// `c$redistribute` or `c$resize_team` executed before the loop can move
/// that dimension to a different grid axis (or collapse/grow the grid),
/// so the axis must be re-resolved before use: recover the array
/// dimension `grid_dim` named under `decl`, then find that dimension's
/// rank among the dimensions the *live* descriptor actually distributes.
/// When the dimension is no longer distributed (its Figure-2 tile bounds
/// then cover the full extent for coordinate 0 and are empty elsewhere),
/// fall back to the compile-time axis clamped to the live grid.
pub fn proctile_axis(desc: &DistDescriptor, decl: Option<&Distribution>, grid_dim: usize) -> usize {
    let dim = decl.and_then(|d| {
        d.dims
            .iter()
            .enumerate()
            .filter(|(_, x)| x.is_distributed())
            .nth(grid_dim)
            .map(|(i, _)| i)
    });
    dim.and_then(|d| desc.distributed.iter().position(|&dd| dd == d))
        .unwrap_or_else(|| grid_dim.min(desc.grid.len().saturating_sub(1)))
}

/// Partition `lb..=ub:step` across `n` workers under `sched`.
///
/// Returns one chunk list per worker. [`SchedType::RuntimeAffinity`] and
/// [`SchedType::ProcTile`] cannot be partitioned here (they need a
/// distribution descriptor / are handled by the executor) — use
/// [`partition_affinity`] for the former.
///
/// # Panics
///
/// Panics if `step == 0`, `n == 0`, or `sched` is an affinity/proc-tile
/// policy.
pub fn partition(sched: SchedType, lb: i64, ub: i64, step: i64, n: usize) -> Vec<Vec<Chunk>> {
    assert!(step != 0, "zero loop step");
    assert!(n > 0, "no workers");
    match sched {
        SchedType::Simple => partition_simple(lb, ub, step, n),
        SchedType::Interleave(k) | SchedType::Dynamic(k) => {
            partition_interleave(lb, ub, step, n, k)
        }
        SchedType::RuntimeAffinity | SchedType::ProcTile { .. } => {
            panic!("affinity/proc-tile schedules need a distribution descriptor")
        }
    }
}

/// Fault-injection switch for the conformance harness: when the
/// `DSM_INJECT_CHUNK_BUG` environment variable is set at process start,
/// [`partition_simple`] drops the last iteration of every non-final chunk
/// (an off-by-one chunk bound). `dsmfuzz` runs itself under this variable
/// to prove the differential oracle catches and shrinks real scheduler
/// bugs; nothing in the workspace sets it otherwise.
fn inject_chunk_bug() -> bool {
    static BUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *BUG.get_or_init(|| std::env::var_os("DSM_INJECT_CHUNK_BUG").is_some())
}

/// The paper's Section 3 rule: a schedule is a distribution format
/// applied to the iteration space. Worker `w` gets the runs that
/// coordinate `w` owns of a `dist` dimension whose extent is the trip
/// count of `lb..=ub:step`, each turned back into loop-variable values.
fn partition_as(dist: Dist, lb: i64, ub: i64, step: i64, n: usize) -> Vec<Vec<Chunk>> {
    let iters = DimDesc::new(Chunk { lb, ub, step }.len(), dist, n as u64);
    (0..n as u64)
        .map(|w| {
            let chunk = |(first, end): (u64, u64)| Chunk {
                lb: lb + first as i64 * step,
                ub: lb + (end - 1) as i64 * step,
                step,
            };
            iters.runs(w).map(chunk).collect()
        })
        .collect()
}

/// `simple` scheduling: `n` contiguous chunks of `ceil(N/n)` iterations —
/// the iteration space distributed `block`.
pub fn partition_simple(lb: i64, ub: i64, step: i64, n: usize) -> Vec<Vec<Chunk>> {
    let mut parts = partition_as(Dist::Block, lb, ub, step, n);
    if inject_chunk_bug() {
        let non_final = parts.iter_mut().flatten().rev().skip(1);
        non_final
            .filter(|c| c.ub != c.lb)
            .for_each(|c| c.ub -= step);
    }
    parts
}

/// `interleave(k)` scheduling: chunks of `k` iterations dealt round-robin
/// — the iteration space distributed `cyclic(k)`.
pub fn partition_interleave(lb: i64, ub: i64, step: i64, n: usize, k: u64) -> Vec<Vec<Chunk>> {
    partition_as(Dist::Cyclic(k), lb, ub, step, n)
}

/// Runtime affinity scheduling (`affinity(i) = data(A(scale*i+offset))`):
/// iteration `i` is assigned to the *grid coordinate* owning element
/// `scale*i + offset` (1-based) of the distributed dimension `dim`.
///
/// Returns one chunk list per coordinate `0..dim.nprocs`. Iterations whose
/// affinity element falls outside the array are clamped to the nearest
/// coordinate (matching the permissive behaviour of the real runtime).
pub fn partition_affinity(
    lb: i64,
    ub: i64,
    step: i64,
    dim: &DimDesc,
    scale: i64,
    offset: i64,
) -> Vec<Vec<Chunk>> {
    assert!(step != 0, "zero loop step");
    let ncoords = dim.nprocs as usize;
    let mut out = vec![Vec::new(); ncoords];
    let mut cur: Option<(u64, Chunk)> = None;
    let mut i = lb;
    loop {
        if (step > 0 && i > ub) || (step < 0 && i < ub) {
            break;
        }
        let elem1 = scale * i + offset; // 1-based element index
        let elem0 = (elem1 - 1).clamp(0, dim.extent as i64 - 1) as u64;
        let coord = dim.owner(elem0);
        match &mut cur {
            Some((c, ch)) if *c == coord => ch.ub = i,
            _ => {
                if let Some((c, ch)) = cur.take() {
                    out[c as usize].push(ch);
                }
                cur = Some((coord, Chunk { lb: i, ub: i, step }));
            }
        }
        i += step;
    }
    if let Some((c, ch)) = cur {
        out[c as usize].push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_ir::{Dist, Distribution};

    use crate::descriptor::DistDescriptor;

    fn coverage(parts: &[Vec<Chunk>], lb: i64, ub: i64, step: i64) {
        let mut seen = std::collections::BTreeSet::new();
        for chunks in parts {
            for c in chunks {
                let mut i = c.lb;
                while (c.step > 0 && i <= c.ub) || (c.step < 0 && i >= c.ub) {
                    assert!(seen.insert(i), "iteration {i} assigned twice");
                    i += c.step;
                }
            }
        }
        let expect: std::collections::BTreeSet<i64> = {
            let mut s = std::collections::BTreeSet::new();
            let mut i = lb;
            while (step > 0 && i <= ub) || (step < 0 && i >= ub) {
                s.insert(i);
                i += step;
            }
            s
        };
        assert_eq!(seen, expect, "iterations lost or invented");
    }

    #[test]
    fn chunk_len_cases() {
        assert_eq!(
            Chunk {
                lb: 1,
                ub: 10,
                step: 1
            }
            .len(),
            10
        );
        assert_eq!(
            Chunk {
                lb: 1,
                ub: 10,
                step: 3
            }
            .len(),
            4
        );
        assert_eq!(
            Chunk {
                lb: 10,
                ub: 1,
                step: -2
            }
            .len(),
            5
        );
        assert!(Chunk {
            lb: 5,
            ub: 4,
            step: 1
        }
        .is_empty());
    }

    #[test]
    fn chunk_len_negative_step() {
        // Downward chunks run lb, lb+step, …, ≥ ub.
        assert_eq!(
            Chunk {
                lb: 9,
                ub: 1,
                step: -4
            }
            .len(),
            3
        ); // 9, 5, 1
        assert_eq!(
            Chunk {
                lb: 0,
                ub: -10,
                step: -3
            }
            .len(),
            4
        ); // 0, -3, -6, -9
           // `lb < ub` with negative step is empty (iteration-order bounds).
        assert!(Chunk {
            lb: 1,
            ub: 10,
            step: -1
        }
        .is_empty());
        assert_eq!(
            Chunk {
                lb: 1,
                ub: 10,
                step: -1
            }
            .len(),
            0
        );
    }

    #[test]
    fn chunk_len_single_iteration() {
        assert_eq!(
            Chunk {
                lb: 7,
                ub: 7,
                step: 1
            }
            .len(),
            1
        );
        assert_eq!(
            Chunk {
                lb: 7,
                ub: 7,
                step: -3
            }
            .len(),
            1
        );
        // Step overshoots ub: only lb executes.
        assert_eq!(
            Chunk {
                lb: 1,
                ub: 4,
                step: 10
            }
            .len(),
            1
        );
        assert_eq!(
            Chunk {
                lb: 4,
                ub: 1,
                step: -10
            }
            .len(),
            1
        );
    }

    #[test]
    fn simple_covers_exactly() {
        for n in [1, 2, 3, 5, 8] {
            let p = partition(SchedType::Simple, 1, 20, 1, n);
            assert_eq!(p.len(), n);
            coverage(&p, 1, 20, 1);
        }
    }

    #[test]
    fn simple_is_blockwise() {
        let p = partition(SchedType::Simple, 1, 100, 1, 4);
        assert_eq!(
            p[0],
            vec![Chunk {
                lb: 1,
                ub: 25,
                step: 1
            }]
        );
        assert_eq!(
            p[3],
            vec![Chunk {
                lb: 76,
                ub: 100,
                step: 1
            }]
        );
    }

    #[test]
    fn simple_more_workers_than_iterations() {
        let p = partition(SchedType::Simple, 1, 3, 1, 8);
        coverage(&p, 1, 3, 1);
        assert!(p[7].is_empty());
    }

    #[test]
    fn simple_with_stride_and_negative() {
        let p = partition(SchedType::Simple, 1, 19, 3, 2);
        coverage(&p, 1, 19, 3);
        let p = partition(SchedType::Simple, 10, 1, -1, 3);
        coverage(&p, 10, 1, -1);
    }

    #[test]
    fn interleave_deals_round_robin() {
        let p = partition(SchedType::Interleave(2), 1, 8, 1, 2);
        coverage(&p, 1, 8, 1);
        assert_eq!(
            p[0],
            vec![
                Chunk {
                    lb: 1,
                    ub: 2,
                    step: 1
                },
                Chunk {
                    lb: 5,
                    ub: 6,
                    step: 1
                }
            ]
        );
        assert_eq!(
            p[1],
            vec![
                Chunk {
                    lb: 3,
                    ub: 4,
                    step: 1
                },
                Chunk {
                    lb: 7,
                    ub: 8,
                    step: 1
                }
            ]
        );
    }

    #[test]
    fn dynamic_behaves_like_interleave_deterministically() {
        let a = partition(SchedType::Dynamic(3), 1, 17, 1, 4);
        let b = partition(SchedType::Interleave(3), 1, 17, 1, 4);
        assert_eq!(a, b);
        coverage(&a, 1, 17, 1);
    }

    #[test]
    fn affinity_block_matches_ownership() {
        let desc = DistDescriptor::new(&[100], &Distribution::new(vec![Dist::Block]), 4);
        let p = partition_affinity(1, 100, 1, &desc.dims[0], 1, 0);
        coverage(&p, 1, 100, 1);
        // b = 25: coordinate 0 gets iterations 1..=25 (elements 1..=25).
        assert_eq!(
            p[0],
            vec![Chunk {
                lb: 1,
                ub: 25,
                step: 1
            }]
        );
        assert_eq!(
            p[3],
            vec![Chunk {
                lb: 76,
                ub: 100,
                step: 1
            }]
        );
    }

    #[test]
    fn affinity_cyclic_produces_interleaved_chunks() {
        let desc = DistDescriptor::new(&[12], &Distribution::new(vec![Dist::Cyclic(1)]), 3);
        let p = partition_affinity(1, 12, 1, &desc.dims[0], 1, 0);
        coverage(&p, 1, 12, 1);
        assert_eq!(p[0].len(), 4, "cyclic over 3 procs: every third iteration");
        assert!(p[0].iter().all(|c| c.len() == 1));
    }

    #[test]
    fn affinity_with_scale_and_offset() {
        // affinity(i) = data(A(2*i + 1)), A(100) block over 2 procs, b=50.
        let desc = DistDescriptor::new(&[100], &Distribution::new(vec![Dist::Block]), 2);
        let p = partition_affinity(1, 40, 1, &desc.dims[0], 2, 1);
        coverage(&p, 1, 40, 1);
        // Element 2i+1 <= 50  =>  i <= 24 goes to coord 0.
        assert_eq!(
            p[0],
            vec![Chunk {
                lb: 1,
                ub: 24,
                step: 1
            }]
        );
        assert_eq!(
            p[1],
            vec![Chunk {
                lb: 25,
                ub: 40,
                step: 1
            }]
        );
    }

    #[test]
    fn affinity_clamps_out_of_range_elements() {
        let desc = DistDescriptor::new(&[10], &Distribution::new(vec![Dist::Block]), 2);
        // Elements 11..20 are out of range; clamp to the last coordinate.
        let p = partition_affinity(1, 20, 1, &desc.dims[0], 1, 0);
        coverage(&p, 1, 20, 1);
        assert!(p[1].iter().any(|c| c.ub == 20));
    }

    #[test]
    #[should_panic(expected = "zero loop step")]
    fn zero_step_rejected() {
        let _ = partition(SchedType::Simple, 1, 10, 0, 2);
    }
}
