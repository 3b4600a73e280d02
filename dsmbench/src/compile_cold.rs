//! `compile_cold`: distinct seeded programs, each compiled once and
//! dropped. Front end, lowering, pre-linker and the reshape passes do
//! all the work; nothing is simulated and no daemon runs. This is what
//! a cold `dsmd` request and each advisor candidate pay.

use std::time::Instant;

use dsm_core::OptConfig;

use crate::compile::{compile, Built};
use crate::gen::{cold_program, line_count, Rng, COLD_CHAIN_DEPTH};
use crate::stats::tail;
use crate::trace::Tracer;
use crate::{Measured, Run, Scale};

/// Programs the set-up compiles both ways.
const SETUP_PROGRAMS: usize = 80;

/// A compile result is correct when the optimized IR validates and the
/// pre-linker cloned every level of the cross-file chain.
fn correct(built: &Built, expect_clones: usize) -> bool {
    dsm_ir::validate_program(built.program()).is_ok() && built.clones() == expect_clones
}

/// Set-up: the staged sequence the traced run times must build exactly
/// the program `compile_source` builds, on programs of this seed.
fn staged_path_is_faithful(seed: u64) {
    let mut rng = Rng::new(seed, 5);
    let opt = OptConfig::default();
    let epoch = Instant::now();
    for _ in 0..SETUP_PROGRAMS {
        let src = cold_program(&mut rng);
        let whole = compile(&mut Tracer::new(false, epoch), &src, &opt).expect("compiles");
        let staged = compile(&mut Tracer::new(true, epoch), &src, &opt).expect("compiles");
        assert!(
            whole.program() == staged.program() && correct(&whole, COLD_CHAIN_DEPTH),
            "staged compile diverged from compile_source"
        );
    }
}

/// See the module docs.
pub fn compile_cold(seed: u64, scale: &Scale) -> Run {
    staged_path_is_faithful(seed);
    let programs = scale.count(1500);
    Box::new(move |tr| measure(tr, seed, programs, COLD_CHAIN_DEPTH))
}

fn measure(tr: &mut Tracer, seed: u64, programs: usize, expect_clones: usize) -> Measured {
    let mut m = Measured::default();
    let mut rng = Rng::new(seed, 4);
    let opt = OptConfig::default();
    let (mut clones, mut ir_lines, mut printed) = (0, 0, 0);
    for k in 0..programs {
        // Generated here, not in set-up, so peak RSS is one program's
        // working set and not 1500 sources; outside the timed interval.
        let src = cold_program(&mut rng);
        let lines = line_count(&src);
        m.attempted += 1;
        let ok = tr.op(k as u64, "bench.compile", |tr| {
            let start = Instant::now();
            let built = compile(tr, &src, &opt);
            let wall_s = start.elapsed().as_secs_f64();
            m.units_per_s.push(lines as f64 / wall_s.max(1e-12));
            m.lat_ms.push(wall_s * 1e3);
            built.is_ok_and(|b| {
                clones += b.clones();
                ir_lines += b.ir_lines().unwrap_or(0);
                printed += usize::from(b.ir_lines().is_some());
                correct(&b, expect_clones)
            })
        });
        m.failed += u64::from(!ok);
        m.source_lines += lines as u64;
    }
    m.tail_ms = tail(&m.lat_ms);
    m.layer
        .insert("compile.clones", clones as f64 / programs as f64);
    m.layer
        .insert("compile.ir_lines", ir_lines as f64 / printed.max(1) as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_are_checked_and_counted() {
        let m = measure(
            &mut Tracer::new(false, Instant::now()),
            3,
            4,
            COLD_CHAIN_DEPTH,
        );
        assert_eq!((m.attempted, m.failed), (4, 0));
        assert_eq!(m.lat_ms.len(), 4);
        assert!(m.source_lines > 4 * 2700);
        assert_eq!(m.layer["compile.clones"], COLD_CHAIN_DEPTH as f64);
    }

    #[test]
    fn a_wrong_expected_clone_count_fails_every_compile() {
        let m = measure(
            &mut Tracer::new(false, Instant::now()),
            3,
            2,
            COLD_CHAIN_DEPTH + 1,
        );
        assert_eq!((m.attempted, m.failed), (2, 2));
    }

    #[test]
    fn traced_compiles_report_ir_lines() {
        let m = measure(
            &mut Tracer::new(true, Instant::now()),
            3,
            2,
            COLD_CHAIN_DEPTH,
        );
        assert_eq!(m.failed, 0);
        // Only operation 0 of the two printed; the mean is over it alone.
        assert!(m.layer["compile.ir_lines"] > 1000.0);
    }
}
