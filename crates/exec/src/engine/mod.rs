//! The compiled bytecode execution engine.
//!
//! The engine lowers the post-pipeline IR to a flat, register-based
//! opcode stream (`code`) — once per program and cost table when the
//! caller keeps a [`CodeCache`] beside the program
//! ([`crate::run_outcome_with`]), once per run otherwise — interns every
//! array's address polynomial in a per-run `plan::PlanCache`, and
//! executes the stream on a small virtual machine (`vm`) that feeds the
//! same simulated machine model as the tree-walking interpreter — access
//! for access, charge for charge.  The interpreter survives as
//! [`Engine::Interp`], the differential reference: both engines produce
//! bit-identical captures and identical hardware counters.
//!
//! Fork/join, call binding, redistribution, team resizing and the scalar
//! operators are not part of either engine: they live once in the
//! crate's `team.rs` and `value.rs`, and the VM plugs into them through
//! `team::Engine` (bounds, body, deferred charges, plan rebuilds).

mod code;
mod kernel;
mod plan;
mod vm;

use std::sync::OnceLock;

pub(crate) use vm::run_bytecode;

/// A program's lowered bytecode, kept beside the program for every later
/// run of it — the compile-once, run-many split of the paper's toolchain.
///
/// Lowering reads one machine input, the cost table. The first bytecode
/// run through the cache lowers under its machine's table and keeps the
/// code; every later run under the same table shares the op streams, side
/// tables and lazily built loop kernels, while address plans, tile hints
/// and kernel registers stay private to each run. A run under a different
/// table lowers privately and discards its code, as an uncached run does.
///
/// A cache belongs to one program: hand it only to runs of the
/// [`dsm_ir::Program`] it first ran with.
#[derive(Debug, Default)]
pub struct CodeCache(OnceLock<code::ProgramCode>);

/// Which executor runs the program (see [`crate::ExecOptions::engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The compiled bytecode engine (default): flat opcode stream,
    /// interned address plans, bulk access runs.
    #[default]
    Bytecode,
    /// The tree-walking interpreter, kept as the differential reference
    /// for conformance (`dsmfuzz --engine-diff`).
    Interp,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Bytecode => write!(f, "bytecode"),
            Engine::Interp => write!(f, "interp"),
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bytecode" => Ok(Engine::Bytecode),
            "interp" => Ok(Engine::Interp),
            other => Err(format!(
                "unknown engine `{other}` (expected `bytecode` or `interp`)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Engine;

    #[test]
    fn engine_default_is_bytecode() {
        assert_eq!(Engine::default(), Engine::Bytecode);
    }

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("interp".parse::<Engine>(), Ok(Engine::Interp));
        assert_eq!("bytecode".parse::<Engine>(), Ok(Engine::Bytecode));
        assert!("treewalk".parse::<Engine>().is_err());
        assert_eq!(Engine::Bytecode.to_string(), "bytecode");
        assert_eq!(Engine::Interp.to_string(), "interp");
    }
}
