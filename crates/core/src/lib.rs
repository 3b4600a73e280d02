//! # dsm-core
//!
//! The end-to-end API of this reproduction of Chandra et al., *Data
//! Distribution Support on Distributed Shared Memory Multiprocessors*
//! (PLDI 1997): compile mini-Fortran programs carrying `c$distribute`,
//! `c$distribute_reshape` and `c$doacross` directives, and run them on a
//! simulated Origin-2000-class CC-NUMA machine.
//!
//! ```
//! use dsm_core::{DsmError, ExecOptions, MachineConfig, OptConfig, Session};
//!
//! # fn main() -> Result<(), DsmError> {
//! let src = "\
//!       program main
//!       integer i
//!       real*8 a(1024)
//! c$distribute_reshape a(block)
//! c$doacross local(i) affinity(i) = data(a(i))
//!       do i = 1, 1024
//!         a(i) = 2*i
//!       enddo
//!       end
//! ";
//! let program = Session::new()
//!     .source("demo.f", src)
//!     .optimize(OptConfig::default())
//!     .compile()?;
//! let out = program.run(
//!     &MachineConfig::small_test(4),
//!     &ExecOptions::new(4).profile(true).capture(&["a"]),
//! )?;
//! assert!(out.report.total_cycles > 0);
//! assert_eq!(out.captures[0][1023], 2048.0);
//! assert!(out.profile().is_some_and(|p| p.array("a").is_some()));
//! # Ok(())
//! # }
//! ```
//!
//! The [`workloads`] module generates the paper's three evaluation
//! programs (NAS-LU-style SSOR, matrix transpose, 2-D convolution)
//! parameterized by size and placement policy; the `dsm-bench` crate uses
//! them to regenerate every table and figure.

pub mod client;
pub mod workloads;

use std::sync::Arc;

use dsm_exec::CodeCache;

pub use client::{run_remote, Remote, RemoteError, RemoteRun};
pub use dsm_advisor::{advise, Advice, AdvisorConfig, AdvisorError};
pub use dsm_proto::MachineSpec;
pub use dsm_compile::{load_sources, OptConfig, PrelinkReport};
pub use dsm_exec::{Engine, ExecError, ExecOptions, Profile, RedistMode, RunOutcome, RunReport};
pub use dsm_frontend::{CompileError, ErrorKind};
pub use dsm_ir::Program;
pub use dsm_machine::{
    CounterSet, Machine, MachineConfig, MachineSnapshot, MigrationPolicy, PagePolicy,
    SamplingConfig, SamplingSummary,
};

/// Any failure the end-to-end API can produce: compile-time diagnostics,
/// a runtime execution error, or a source-loading failure. Both
/// [`Session::compile`] (via `?`) and [`CompiledProgram::run`] convert
/// into it, so a driver needs exactly one error type.
#[derive(Debug, Clone, PartialEq)]
pub enum DsmError {
    /// Every compile-time and link-time diagnostic.
    Compile(Vec<CompileError>),
    /// A runtime failure (out-of-bounds, failed argument check, illegal
    /// redistribution, step limit).
    Exec(ExecError),
    /// A source file could not be read (the message already names it).
    Io(String),
}

impl DsmError {
    /// The compile diagnostics, when this is a compile failure.
    pub fn compile_errors(&self) -> Option<&[CompileError]> {
        match self {
            DsmError::Compile(e) => Some(e),
            DsmError::Exec(_) | DsmError::Io(_) => None,
        }
    }

    /// Stable machine-readable error code: `"compile"`, `"io"`, or the
    /// failing [`ExecError::code`] (`"exec.runtime"`, `"exec.step-limit"`,
    /// …). CLI drivers print it alongside the message and the daemon wire
    /// protocol carries it in every error reply — codes are part of the
    /// protocol: add new ones, never repurpose existing ones.
    pub fn code(&self) -> &'static str {
        match self {
            DsmError::Compile(_) => "compile",
            DsmError::Exec(e) => e.code(),
            DsmError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for DsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsmError::Compile(errs) => {
                write!(f, "{} compile error(s)", errs.len())?;
                for e in errs {
                    write!(f, "\n  {}: {}", e.file_name, e.msg)?;
                }
                Ok(())
            }
            DsmError::Exec(e) => write!(f, "runtime error: {e}"),
            DsmError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for DsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsmError::Compile(_) | DsmError::Io(_) => None,
            DsmError::Exec(e) => Some(e),
        }
    }
}

impl From<Vec<CompileError>> for DsmError {
    fn from(e: Vec<CompileError>) -> Self {
        DsmError::Compile(e)
    }
}

impl From<ExecError> for DsmError {
    fn from(e: ExecError) -> Self {
        DsmError::Exec(e)
    }
}

/// A compilation session: sources plus optimization settings.
#[derive(Debug, Clone, Default)]
pub struct Session {
    sources: Vec<(String, String)>,
    opt: OptConfig,
}

impl Session {
    /// Empty session with default (full) optimization.
    pub fn new() -> Self {
        Session {
            sources: Vec::new(),
            opt: OptConfig::default(),
        }
    }

    /// Add a source file.
    pub fn source(mut self, name: &str, text: &str) -> Self {
        self.sources.push((name.to_string(), text.to_string()));
        self
    }

    /// Select optimization settings (see [`OptConfig`]).
    pub fn optimize(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Compile all sources: frontend, lowering, pre-link (directive
    /// propagation, cloning, common-block consistency) and the reshaped
    /// -array optimization pipeline.
    ///
    /// # Errors
    ///
    /// Returns every compile-time and link-time diagnostic.
    pub fn compile(self) -> Result<CompiledProgram, Vec<CompileError>> {
        let compiled = dsm_compile::compile_sources(&self.sources, &self.opt)?;
        Ok(CompiledProgram::new(compiled))
    }
}

/// Compile already-loaded `(name, text)` sources into a runnable
/// [`CompiledProgram`] — the one compile sequence `dsmfc`, `dsmtune`,
/// `dsmfuzz` and the `dsmd` daemon all share (each used to carry its own
/// slightly-divergent copy).
///
/// # Errors
///
/// Returns every compile-time and link-time diagnostic as
/// [`DsmError::Compile`].
pub fn compile_source(
    sources: &[(String, String)],
    opt: &OptConfig,
) -> Result<CompiledProgram, DsmError> {
    let compiled = dsm_compile::compile_sources(sources, opt)?;
    Ok(CompiledProgram::new(compiled))
}

/// [`compile_source`] over paths: load the files with
/// [`dsm_compile::load_sources`], then compile.
///
/// # Errors
///
/// An unreadable file surfaces as [`DsmError::Io`]; diagnostics as
/// [`DsmError::Compile`].
pub fn compile_files(paths: &[String], opt: &OptConfig) -> Result<CompiledProgram, DsmError> {
    let sources = dsm_compile::load_sources(paths).map_err(DsmError::Io)?;
    compile_source(&sources, opt)
}

/// A compiled, linked, optimized program ready to run.
///
/// Compiled once, run many times: the bytecode engine lowers the program
/// at its first run and keeps the code for every later run under the
/// same cost table (see [`dsm_exec::CodeCache`]); clones share it.
/// Compiling does not lower, so a program that never runs never pays for
/// it.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    compiled: dsm_compile::pipeline::Compiled,
    code: Arc<CodeCache>,
}

impl CompiledProgram {
    fn new(compiled: dsm_compile::pipeline::Compiled) -> Self {
        CompiledProgram {
            compiled,
            code: Arc::default(),
        }
    }

    /// The optimized IR.
    pub fn program(&self) -> &Program {
        &self.compiled.program
    }

    /// Pre-linker statistics (clones created, recompilations).
    pub fn prelink_report(&self) -> &PrelinkReport {
        &self.compiled.prelink
    }

    /// Human-readable IR dump (transformed loops, address modes).
    pub fn ir_dump(&self) -> String {
        dsm_ir::printer::print_program(&self.compiled.program)
    }

    /// Run on a fresh machine built from `cfg` under `opts`, returning the
    /// full [`RunOutcome`]: the report, any captured arrays
    /// ([`ExecOptions::capture`]) and the attribution profile
    /// ([`ExecOptions::profile`]).
    ///
    /// # Errors
    ///
    /// Returns runtime failures (out-of-bounds, failed argument checks,
    /// illegal redistribution) as [`DsmError::Exec`]; a `cfg` that fails
    /// [`MachineConfig::validate`] (more than `MAX_PROCS` processors, an
    /// illegal geometry) or an `opts.nprocs` the machine cannot host is
    /// [`ExecError::Options`], never a panic.
    pub fn run(&self, cfg: &MachineConfig, opts: &ExecOptions) -> Result<RunOutcome, DsmError> {
        cfg.validate()
            .map_err(|e| DsmError::Exec(ExecError::Options(format!("machine: {e}"))))?;
        let mut m = Machine::new(cfg.clone());
        self.run_on(&mut m, opts)
    }

    /// Run on an existing machine — the daemon's pooled-machine path.
    /// The machine must be in its post-construction (or
    /// [`Machine::restore`]d-to-pristine) state; the run mutates it, so
    /// a pooling caller restores on success and discards on error (an
    /// errored run may leave mailbox messages in flight, which a
    /// snapshot-restore cycle refuses to touch).
    ///
    /// # Errors
    ///
    /// Returns runtime failures as [`DsmError::Exec`].
    pub fn run_on(&self, machine: &mut Machine, opts: &ExecOptions) -> Result<RunOutcome, DsmError> {
        dsm_exec::run_outcome_with(machine, &self.compiled.program, opts, &self.code)
            .map_err(DsmError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_end_to_end() {
        let p = Session::new()
            .source(
                "t.f",
                "      program main\n      integer i\n      real*8 a(64)\nc$distribute_reshape a(block)\n      do i = 1, 64\n        a(i) = i\n      enddo\n      end\n",
            )
            .compile()
            .expect("compiles");
        let out = p
            .run(
                &MachineConfig::small_test(2),
                &ExecOptions::new(2).capture(&["a"]).profile(true),
            )
            .expect("runs");
        assert!(out.report.total_cycles > 0);
        assert_eq!(out.captures[0][63], 64.0);
        assert!(out.profile().is_some_and(|pr| pr.array("a").is_some()));
        assert!(p.ir_dump().contains("do"));
    }

    #[test]
    fn dsm_error_unifies_compile_and_exec() {
        fn end_to_end(src: &str) -> Result<RunOutcome, DsmError> {
            let p = Session::new().source("t.f", src).compile()?;
            p.run(&MachineConfig::small_test(2), &ExecOptions::new(2))
        }
        let e =
            end_to_end("      program main\n      x = 1\n      end\n").expect_err("undeclared x");
        assert!(e.compile_errors().is_some());
        assert!(e.to_string().contains("compile error"));
        let ok = end_to_end("      program main\n      real*8 a(8)\n      a(1) = 1\n      end\n")
            .expect("runs");
        assert!(ok.report.total_cycles > 0);
    }

    #[test]
    fn compile_errors_surface() {
        let e = Session::new()
            .source("t.f", "      program main\n      x = 1\n      end\n")
            .compile()
            .expect_err("undeclared x");
        assert!(e.iter().any(|d| d.msg.contains('x')));
    }

    #[test]
    fn opt_config_affects_ir() {
        let src = "      program main\n      integer i\n      real*8 a(64)\nc$distribute_reshape a(block)\nc$doacross local(i) affinity(i) = data(a(i))\n      do i = 1, 64\n        a(i) = i\n      enddo\n      end\n";
        let raw = Session::new()
            .source("t.f", src)
            .optimize(OptConfig::none())
            .compile()
            .unwrap();
        let full = Session::new().source("t.f", src).compile().unwrap();
        assert!(raw.ir_dump().contains("[raw]"));
        assert!(full.ir_dump().contains("[hoisted]"));
    }
}
