//! Differential conformance harness for the data-distribution simulator.
//!
//! The paper's central claim — distribution directives change
//! *placement, not semantics* (§3; runtime argument checking in §5) —
//! is a property every optimization PR can silently break. This crate
//! turns it into an executable oracle:
//!
//! * [`gen`] — a seeded generator that emits valid Fortran-with-
//!   directives programs (1–3D arrays, `c$distribute` BLOCK/CYCLIC,
//!   `c$distribute_reshape`, mid-program `c$redistribute`, `c$doacross`
//!   with `affinity`/`nest`/`local`/`schedtype` clauses, cross-file
//!   calls that exercise shadow/prelink cloning);
//! * [`oracle`] — a layout-oblivious reference evaluator that computes
//!   expected final array contents directly from the AST;
//! * [`diff`] — a runner that compiles each program once per
//!   optimization variant and executes it across P ∈ {1, 2, 4, 8} ×
//!   serial-team × checks × profile, asserting bit-identical captures,
//!   run-to-run determinism, and machine counter balance;
//! * [`mod@shrink`] — a greedy minimizer that turns any diverging seed into
//!   a paste-able few-line reproducer.
//!
//! The `dsmfuzz` binary drives all of this; see `docs/TESTING.md`.

pub mod diff;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod spec;

pub use diff::{check_engine_diff, check_redist_diff, check_sources, CheckStats, Divergence, Matrix};
pub use gen::{generate, generate_redist, generate_with, GenOptions};
pub use shrink::shrink;
pub use spec::Spec;

/// Run one seed through a matrix: generate, render, check.
pub fn check_seed(seed: u64, matrix: &Matrix) -> Result<CheckStats, Box<Divergence>> {
    let spec = generate(seed);
    let sources = spec.render();
    check_sources(&sources, &spec.capture_names(), matrix)
}

/// Run one redistribution-heavy seed through the scheduled-vs-naive
/// mover differential: generate a program with mid-phase
/// `c$redistribute` / `c$resize_team` directives, render it, and demand
/// both movers produce bit-identical data and placement on every cell.
pub fn check_redist_seed(seed: u64, matrix: &Matrix) -> Result<CheckStats, Box<Divergence>> {
    let spec = generate_redist(seed);
    let sources = spec.render();
    check_redist_diff(&sources, &spec.capture_names(), matrix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_conform_on_the_quick_matrix() {
        let matrix = Matrix::quick();
        for seed in 0..6u64 {
            if let Err(d) = check_seed(seed, &matrix) {
                let spec = generate(seed);
                let src = spec
                    .render()
                    .into_iter()
                    .map(|(n, t)| format!("! {n}\n{t}"))
                    .collect::<String>();
                panic!("seed {seed} diverged: {d}\n{src}");
            }
        }
    }
}
