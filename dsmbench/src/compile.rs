//! One compile entry for every workload: `dsm_core::compile_source`
//! when tracing is off; when it is on, the same sequence called stage by
//! stage (`parse_source` → `analyze` → `lower_program` → `prelink` →
//! passes → `validate_program`) with a span around each, because the
//! product has no timer of its own to read.

use dsm_compile::pipeline::Compiled;
use dsm_compile::tile::TileConfig;
use dsm_compile::{divmod, hoist, skew, stmtcse, tile};
use dsm_core::{
    compile_source, CompiledProgram, DsmError, ExecOptions, Machine, OptConfig, RunOutcome,
};
use dsm_ir::Program;

use crate::gen::Sources;
use crate::trace::{Lap, Tracer};

/// A compiled program from either path.
pub enum Built {
    /// From `dsm_core::compile_source`.
    Whole(CompiledProgram),
    /// From the staged sequence; `ir_lines` is the printed IR's length
    /// when this compile was one of those that print it.
    Staged {
        compiled: Compiled,
        ir_lines: Option<usize>,
    },
}

impl Built {
    /// The optimized IR.
    pub fn program(&self) -> &Program {
        match self {
            Built::Whole(p) => p.program(),
            Built::Staged { compiled, .. } => &compiled.program,
        }
    }

    /// Clones the pre-linker created.
    pub fn clones(&self) -> usize {
        match self {
            Built::Whole(p) => p.prelink_report().clones_created,
            Built::Staged { compiled, .. } => compiled.prelink.clones_created,
        }
    }

    /// Lines of the printed IR, if this compile printed it.
    pub fn ir_lines(&self) -> Option<usize> {
        match self {
            Built::Whole(_) => None,
            Built::Staged { ir_lines, .. } => *ir_lines,
        }
    }

    /// `CompiledProgram::run_on`, or the call it wraps.
    pub fn run_on(&self, m: &mut Machine, opts: &ExecOptions) -> Result<RunOutcome, DsmError> {
        match self {
            Built::Whole(p) => p.run_on(m, opts),
            Built::Staged { compiled, .. } => {
                dsm_exec::run_outcome(m, &compiled.program, opts).map_err(DsmError::from)
            }
        }
    }
}

/// One staged compile in this many also times two calls the product's
/// compile does not make — the lexer on its own and the IR printer —
/// so that what they cost (a third of a compile) stays out of the rest.
pub const EXTRAS_ONE_IN: u64 = 16;

/// Compile `sources`, staged and spanned iff `tr` is recording.
pub fn compile(tr: &mut Tracer, sources: &Sources, opt: &OptConfig) -> Result<Built, DsmError> {
    if !tr.on() {
        return compile_source(sources, opt).map(Built::Whole);
    }
    tr.span("core.compile_source", |tr| staged(tr, sources, opt))
}

/// `dsm_frontend::compile_sources` + `dsm_compile::compile_analysis`,
/// stage by stage.
fn staged(tr: &mut Tracer, sources: &Sources, opt: &OptConfig) -> Result<Built, DsmError> {
    let extras = tr.op_id().is_multiple_of(EXTRAS_ONE_IN);
    let mut units = Vec::new();
    for (idx, (name, text)) in sources.iter().enumerate() {
        // `parse_source` lexes internally; lexing once more on its own
        // is what lets the parser's self time be told apart.
        if extras {
            tr.span("frontend.lex", |_| {
                dsm_frontend::lexer::lex(idx, name, text).map(drop)
            })?;
        }
        units.append(&mut tr.span("frontend.parse_source", |_| {
            dsm_frontend::parse_source(idx, name, text)
        })?);
    }
    let files = sources.iter().map(|(n, _)| n.clone()).collect();
    let analysis = tr.span("frontend.sema", |_| dsm_frontend::analyze(units, files))?;
    let mut program = tr.span("compile.lower", |_| dsm_compile::lower_program(&analysis))?;
    let prelink = tr.span("compile.prelink", |_| dsm_compile::prelink(&mut program))?;

    // The passes run subroutine by subroutine in `compile_analysis`
    // order; per-pass busy time is accumulated and laid out afterwards.
    let passes_start = tr.now_ns();
    let mut busy = [0u64; 5];
    let mut lap = Lap::start();
    for sub in &mut program.subs {
        stmtcse::run(sub);
        busy[0] += lap.ns();
        if opt.skew {
            skew::run(sub);
        }
        busy[1] += lap.ns();
        if opt.tile_peel {
            tile::run(
                sub,
                &TileConfig {
                    interchange: opt.interchange,
                },
            );
        }
        busy[2] += lap.ns();
        if opt.hoist_cse {
            hoist::run(sub);
        }
        busy[3] += lap.ns();
        if opt.fp_divmod {
            divmod::run(sub);
        }
        busy[4] += lap.ns();
    }
    tr.lay_out(
        passes_start,
        &[
            ("compile.stmtcse", busy[0]),
            ("compile.skew", busy[1]),
            ("compile.tile", busy[2]),
            ("compile.hoist", busy[3]),
            ("compile.divmod", busy[4]),
        ],
    );

    tr.span("ir.validate", |_| dsm_ir::validate_program(&program))
        .map_err(|e| DsmError::Io(format!("optimized IR invalid: {e}")))?;
    let ir_lines = extras.then(|| {
        tr.span("ir.print", |_| {
            dsm_ir::printer::print_program(&program).lines().count()
        })
    });
    Ok(Built::Staged {
        compiled: Compiled { program, prelink },
        ir_lines,
    })
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::gen::{cold_program, Rng};

    #[test]
    fn staged_compile_equals_compile_source() {
        let src = cold_program(&mut Rng::new(11, 1));
        let opt = OptConfig::default();
        let whole = compile(&mut Tracer::new(false, Instant::now()), &src, &opt).expect("compiles");
        let mut tr = Tracer::new(true, Instant::now());
        let staged = compile(&mut tr, &src, &opt).expect("compiles");
        assert!(matches!(whole, Built::Whole(_)) && matches!(staged, Built::Staged { .. }));
        assert_eq!(whole.program(), staged.program());
        assert_eq!(whole.clones(), staged.clones());
        assert!(whole.ir_lines().is_none() && staged.ir_lines().is_some_and(|n| n > 1000));
        // Every stage left a span under the one parent.
        for name in [
            "core.compile_source",
            "frontend.lex",
            "frontend.parse_source",
            "frontend.sema",
            "compile.lower",
            "compile.prelink",
            "compile.stmtcse",
            "compile.divmod",
            "ir.validate",
            "ir.print",
        ] {
            assert!(tr.spans().iter().any(|s| s.name == name), "no span {name}");
        }
        assert!(tr.spans().iter().skip(1).all(|s| s.parent == Some(0)));

        // Operations off the one-in-sixteen grid skip the two extras.
        let mut tr = Tracer::new(true, Instant::now());
        let plain = tr
            .op(1, "bench.compile", |tr| compile(tr, &src, &opt))
            .expect("compiles");
        assert!(plain.ir_lines().is_none());
        assert!(!tr
            .spans()
            .iter()
            .any(|s| s.name == "frontend.lex" || s.name == "ir.print"));
        assert_eq!(whole.program(), plain.program());
    }

    #[test]
    fn compile_errors_surface_on_both_paths() {
        let bad: Sources = vec![(
            "t.f".into(),
            "      program main\n      x = 1\n      end\n".into(),
        )];
        for on in [false, true] {
            let r = compile(
                &mut Tracer::new(on, Instant::now()),
                &bad,
                &OptConfig::default(),
            );
            assert!(matches!(r, Err(DsmError::Compile(_))), "tracing {on}");
        }
    }
}
