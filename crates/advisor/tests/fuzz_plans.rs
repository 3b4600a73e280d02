//! Advisor × conformance fuzz smoke: over seeded generated programs
//! (directives stripped), the advisor must produce a plan whose annotated
//! program still passes the differential oracle bit-identically. The
//! advisor is allowed to find nothing better than the baseline — it is
//! NOT allowed to emit a plan that changes results.

use dsm_advisor::{advise, AdvisorConfig};
use dsm_compile::OptConfig;
use dsm_conformance::{check_sources, generate_with, GenOptions, Matrix};

fn smoke_cfg() -> AdvisorConfig {
    AdvisorConfig {
        nprocs: 4,
        scale: 64,
        budget: 6,
        threads: 2,
        // The explicit oracle check below is the point of the test;
        // skip the advisor's own (identical) verification pass.
        verify: false,
        ..AdvisorConfig::default()
    }
}

fn oracle_matrix() -> Matrix {
    Matrix {
        procs: vec![1, 4],
        opt_variants: vec![("default", OptConfig::default())],
        modes: vec![(false, false)],
        policies: vec![dsm_machine::MigrationPolicy::Off],
        // Plan checking targets placement semantics; the sampling axis
        // is exercised by dsmfuzz and sampling_bounds.
        sampling: vec![],
    }
}

#[test]
fn advisor_plans_pass_the_differential_oracle_on_seeded_programs() {
    let cfg = smoke_cfg();
    let opts = GenOptions {
        strip_directives: true,
    };
    let mut planned_something = 0usize;
    for seed in 0..50 {
        let spec = generate_with(seed, &opts);
        let sources = spec.render();
        let captures = spec.capture_names();
        let advice = match advise(&sources, &cfg) {
            Ok(a) => a,
            Err(e) => panic!("seed {seed}: advise failed: {e}"),
        };
        if !advice.plan.dists.is_empty() || !advice.plan.loops.is_empty() {
            planned_something += 1;
        }
        assert!(
            advice.best.total_cycles <= advice.baseline.total_cycles,
            "seed {seed}: winner slower than baseline"
        );
        if let Err(d) = check_sources(&advice.annotated, &captures, &oracle_matrix()) {
            panic!(
                "seed {seed}: advisor plan diverges from the oracle: {d}\nplan: {:#?}\nannotated:\n{}",
                advice.plan, advice.annotated[0].1
            );
        }
    }
    // The search must actually be doing something across the corpus, not
    // just returning 50 empty plans.
    assert!(
        planned_something >= 10,
        "only {planned_something}/50 seeds produced a non-empty plan"
    );
}
