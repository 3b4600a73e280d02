//! Golden digests of the machine *model*.
//!
//! Every differential suite in this workspace (`engine_diff`, the
//! conformance mover axis, the daemon's remote-vs-local identity)
//! compares two engines, two movers or two transports on
//! the **same** machine model, so if the model itself drifted — a cache
//! that evicts a different way, a TLB that forgets a shootdown, a
//! directory that loses a sharer — both sides would drift together and
//! nothing but `cli.rs::quickstart_golden_stdout` would notice. These
//! files pin [`RunReport::digest_json`] (every counter of every
//! processor, cycles, placement, migration, redistribution and sampling
//! totals) of small paper kernels under the bytecode engine, so a change to `dsm-machine`'s data structures has to
//! reproduce the committed numbers exactly. They were generated at the
//! commit *before* the flat cache / translation-carrying TLB landed.
//!
//! Regenerate with `DSM_UPDATE_GOLDEN=1 cargo test -p dsm-core --test
//! model_golden` — only when a change to the model is the intent — and
//! inspect the diff before committing.

use std::path::PathBuf;

use dsm_core::workloads::{conv2d_source, lu_source, transpose_source, Policy};
use dsm_core::{compile_source, ExecOptions, MigrationPolicy, OptConfig, SamplingConfig};

const NPROCS: usize = 8;
const SCALE: usize = 64;

fn opts() -> ExecOptions {
    ExecOptions::new(NPROCS)
}

fn check(name: &str, file: &str, source: String, policy: Policy, opts: ExecOptions) {
    let program = compile_source(&[(file.to_string(), source)], &OptConfig::default())
        .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    let out = program
        .run(&policy.machine(NPROCS, SCALE), &opts)
        .unwrap_or_else(|e| panic!("{name}: run: {e}"));
    let actual = out.report.digest_json() + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/model")
        .join(format!("{name}.json"));
    if std::env::var_os("DSM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path:?}: {e}\nrun with DSM_UPDATE_GOLDEN=1 to create it")
    });
    assert!(
        expected == actual,
        "machine model drifted on {name}:\n  golden: {expected}  actual: {actual}\
         (regenerate with DSM_UPDATE_GOLDEN=1 only if the model change is intended)"
    );
}

#[test]
fn transpose_reshaped() {
    let src = transpose_source(128, 2, Policy::Reshaped);
    check(
        "transpose_reshaped",
        "transpose.f",
        src,
        Policy::Reshaped,
        opts(),
    );
}

#[test]
fn conv2d_one_level_reshaped() {
    let src = conv2d_source(96, 2, Policy::Reshaped, false);
    check("conv2d_one_level", "conv.f", src, Policy::Reshaped, opts());
}

#[test]
fn conv2d_two_level_reshaped() {
    let src = conv2d_source(96, 2, Policy::Reshaped, true);
    check("conv2d_two_level", "conv.f", src, Policy::Reshaped, opts());
}

#[test]
fn lu_reshaped() {
    let src = lu_source(12, 12, 12, 1, Policy::Reshaped);
    check("lu_reshaped", "lu.f", src, Policy::Reshaped, opts());
}

#[test]
fn transpose_first_touch_migrating() {
    let src = transpose_source(128, 2, Policy::FirstTouch);
    let opts = opts().migration(MigrationPolicy::parse("threshold:4").expect("policy parses"));
    check(
        "transpose_migrate",
        "transpose.f",
        src,
        Policy::FirstTouch,
        opts,
    );
}

#[test]
fn conv2d_sampled_half() {
    let src = conv2d_source(96, 2, Policy::Reshaped, false);
    let opts = opts().sampling(SamplingConfig::new(2));
    check("conv2d_sampled", "conv.f", src, Policy::Reshaped, opts);
}

#[test]
fn phases_redistribute_and_resize() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/fortran/phases.f");
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    check(
        "phases_resize",
        "phases.f",
        src,
        Policy::Regular,
        opts().resize_to(4),
    );
}
