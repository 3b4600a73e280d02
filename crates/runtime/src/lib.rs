//! # dsm-runtime
//!
//! The runtime system underneath the data-distribution directives
//! (Section 4 of Chandra et al., PLDI 1997): runtime descriptors for
//! distributed arrays, the two storage layouts (regular and reshaped), the
//! page-placement "system call", per-processor memory pools, dynamic
//! redistribution, iteration scheduling for `doacross` loops, and the
//! runtime argument-consistency checker (Section 6). One value —
//! [`DistDescriptor`] — answers who owns what for all of them.
//!
//! The runtime is deliberately machine-facing: everything here manipulates
//! a [`dsm_machine::Machine`] — allocating simulated memory, placing
//! simulated pages — so that the executor on top observes real NUMA,
//! cache and TLB behaviour.

pub mod argcheck;
pub mod descriptor;
pub mod epoch;
pub mod layout;
pub mod pool;
pub mod redist;
pub mod sched;

pub use argcheck::{ArgCheckError, ArgChecker, ArgInfo};
pub use descriptor::{DimDesc, DistDescriptor, IndexBox, MAX_RANK};
pub use epoch::{join_epoch, EpochClock};
pub use layout::{ArrayLayout, RtArray};
pub use pool::PoolSet;
pub use redist::{plan_schedule, RedistSchedule, PageMove, DEFAULT_FAN};
pub use sched::{partition, proctile_axis, Chunk};

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A runtime argument-consistency check failed (Section 6).
    ArgCheck(ArgCheckError),
    /// A `redistribute` was applied to a reshaped array.
    RedistributeReshaped {
        /// Offending array name.
        array: String,
    },
    /// A `resize_team` was attempted while a reshaped array is live —
    /// reshaped portions are bound to the old processor grid and cannot
    /// be re-chunked without dynamic reshaping, which the paper forbids.
    ResizeWithReshaped {
        /// Offending array name.
        array: String,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ArgCheck(e) => write!(f, "{e}"),
            RuntimeError::RedistributeReshaped { array } => {
                write!(f, "runtime error: redistribute of reshaped array `{array}`")
            }
            RuntimeError::ResizeWithReshaped { array } => {
                write!(
                    f,
                    "runtime error: resize_team while reshaped array `{array}` is live"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ArgCheckError> for RuntimeError {
    fn from(e: ArgCheckError) -> Self {
        RuntimeError::ArgCheck(e)
    }
}
