//! The compiled bytecode execution engine.
//!
//! [`crate::run_outcome`] lowers the post-pipeline IR to a flat,
//! register-based opcode stream once per run (`code`), interns every
//! array's address polynomial in a `plan::PlanCache`, and executes the
//! stream on a small virtual machine (`vm`) that feeds the same
//! simulated machine model as the tree-walking interpreter — access for
//! access, charge for charge.  The interpreter survives as
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

pub(crate) use vm::run_bytecode;

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
