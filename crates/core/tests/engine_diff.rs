//! Engine differential: the compiled bytecode engine and the
//! tree-walking interpreter must be observationally indistinguishable
//! on the shipped example workloads — bit-identical captured arrays and
//! identical machine counters — with the expensive options all on
//! (runtime argument checks, attribution profiling, reactive page
//! migration) across P ∈ {1, 4, 8}. Every run is deterministic, so the
//! full reports are compared cycle-exactly.

use dsm_core::{
    CompiledProgram, Engine, ExecOptions, MachineConfig, MigrationPolicy, RunOutcome, Session,
};

fn example(name: &str) -> CompiledProgram {
    let path = format!(
        "{}/../../examples/fortran/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Session::new()
        .source(name, &src)
        .compile()
        .unwrap_or_else(|e| panic!("{name} failed to compile: {e:?}"))
}

fn run(prog: &CompiledProgram, p: usize, engine: Engine, captures: &[&str]) -> RunOutcome {
    prog.run(
        &MachineConfig::scaled_origin2000(p, 64),
        &ExecOptions::new(p)
            .with_checks(true)
            .profile(true)
            .migration(MigrationPolicy::threshold(4))
            .capture(captures)
            .engine(engine),
    )
    .expect("workload runs")
}

fn assert_captures_identical(byte: &RunOutcome, tree: &RunOutcome, ctx: &str) {
    assert_eq!(
        byte.captures.len(),
        tree.captures.len(),
        "{ctx}: capture set sizes"
    );
    for (a, (g, w)) in byte.captures.iter().zip(&tree.captures).enumerate() {
        assert_eq!(g.len(), w.len(), "{ctx}: capture {a} length");
        for (i, (x, y)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: capture {a} element {i}: bytecode {x:?}, interp {y:?}"
            );
        }
    }
}

/// Full-report equality, minus the host-side wall clocks (which measure
/// the simulator, not the simulation).
fn assert_reports_identical(byte: &RunOutcome, tree: &RunOutcome, ctx: &str) {
    let (rb, rt) = (&byte.report, &tree.report);
    assert_eq!(rb.total_cycles, rt.total_cycles, "{ctx}: total cycles");
    assert_eq!(rb.total, rt.total, "{ctx}: aggregate counters");
    assert_eq!(rb.per_proc, rt.per_proc, "{ctx}: per-processor counters");
    assert_eq!(
        rb.parallel_regions, rt.parallel_regions,
        "{ctx}: parallel regions"
    );
    assert_eq!(
        rb.parallel_cycles, rt.parallel_cycles,
        "{ctx}: parallel cycles"
    );
    assert_eq!(rb.pages_per_node, rt.pages_per_node, "{ctx}: page placement");
    assert_eq!(rb.argcheck_ops, rt.argcheck_ops, "{ctx}: argcheck traffic");
    assert_eq!(rb.pages_migrated, rt.pages_migrated, "{ctx}: pages migrated");
    assert_eq!(
        rb.migration_cycles, rt.migration_cycles,
        "{ctx}: migration cycles"
    );
    assert_eq!(rb.profile, rt.profile, "{ctx}: attribution profiles");
}

fn diff_workload(name: &str, captures: &[&str]) {
    let prog = example(name);
    for p in [1usize, 4, 8] {
        let ctx = format!("{name} P={p}");
        let byte = run(&prog, p, Engine::Bytecode, captures);
        let tree = run(&prog, p, Engine::Interp, captures);
        assert_captures_identical(&byte, &tree, &ctx);
        assert_reports_identical(&byte, &tree, &ctx);
    }
}

#[test]
fn heat_engines_agree() {
    diff_workload("heat.f", &["u", "unew"]);
}

#[test]
fn transpose_engines_agree() {
    diff_workload("transpose.f", &["a", "b"]);
}

#[test]
fn phases_engines_agree() {
    diff_workload("phases.f", &["a"]);
}

#[test]
fn quickstart_engines_agree() {
    diff_workload("quickstart.f", &["a", "b"]);
}
