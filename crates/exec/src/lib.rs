//! # dsm-exec
//!
//! The executor: an interpreter that runs compiled `dsm-ir` programs
//! against the `dsm-machine` CC-NUMA model, producing the measurements
//! every experiment in this reproduction reports.
//!
//! Every array-element access goes through the machine's memory
//! hierarchy (TLB, L1, L2, directory, NUMA home), and every arithmetic
//! operation charges its R10000 cost — including the per-reference
//! addressing overhead selected by the compiler's
//! [`dsm_ir::AddrMode`]s (integer or FP-emulated div/mod, indirect
//! portion-pointer loads).  `doacross` loops fork a simulated team:
//! each member runs its iteration chunks with its own caches and its own
//! clock, and the implicit end-of-loop barrier advances everyone to the
//! slowest member (plus barrier cost), exactly how wall-clock time forms
//! on the real machine.
//!
//! The runtime argument checker of Section 6 can be switched on with
//! [`ExecOptions::runtime_checks`]; a failed check aborts execution with
//! [`ExecError::Runtime`].

pub mod bind;
pub mod engine;
pub mod interp;
pub mod profile;
pub mod report;
mod team;
pub mod value;
pub mod wire;

pub use engine::{CodeCache, Engine};
pub use interp::{run_outcome, run_outcome_with, ExecError, ExecOptions, RedistMode};
pub use profile::{
    ArrayProfile, CellProfile, DimSuggestion, HintEvidence, HotPage, PlacementHint, Profile,
    RegionProfile,
};
pub use report::{RunOutcome, RunReport};

#[cfg(test)]
mod tests {
    use dsm_compile::{compile_strings, OptConfig};
    use dsm_machine::{Machine, MachineConfig};

    use crate::{run_outcome, ExecOptions};

    /// End-to-end smoke test: the crate compiles and runs a program.
    #[test]
    fn smoke() {
        let c = compile_strings(
            &[(
                "t.f",
                "      program main\n      integer i\n      real*8 a(16)\n      do i = 1, 16\n        a(i) = 2*i\n      enddo\n      end\n",
            )],
            &OptConfig::default(),
        )
        .expect("compiles");
        let mut m = Machine::new(MachineConfig::small_test(2));
        let r = run_outcome(&mut m, &c.program, &ExecOptions::new(2))
            .expect("runs")
            .report;
        assert!(r.total_cycles > 0);
    }
}
