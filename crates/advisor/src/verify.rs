//! Winner verification: the search's best plan is only *advice* until
//! the differential conformance harness has checked the annotated
//! program bit-identically against the layout-oblivious oracle — across
//! processor counts and execution modes, not just the single
//! configuration the search measured.

use dsm_compile::OptConfig;
use dsm_conformance::{check_sources, Matrix};
use dsm_machine::MigrationPolicy;

/// The verification matrix: uniprocessor plus the search's processor
/// count, default optimization, the two quick modes, migration off
/// and threshold (plans must stay bit-identical when the daemon moves
/// their pages around underneath them).
fn matrix(nprocs: usize) -> Matrix {
    let mut procs = vec![1];
    let p = nprocs.clamp(2, 8);
    if !procs.contains(&p) {
        procs.push(p);
    }
    Matrix {
        procs,
        opt_variants: vec![("default", OptConfig::default())],
        modes: vec![(false, false), (true, true)],
        policies: vec![MigrationPolicy::Off, MigrationPolicy::threshold(4)],
        // Winner verification checks placement semantics, not cost
        // estimation; the sampling axis is covered by dsmfuzz.
        sampling: vec![],
    }
}

/// Check an annotated program against the oracle. `Ok(runs)` is the
/// number of executions that agreed; `Err` describes the divergence.
pub fn verify(
    annotated: &[(String, String)],
    captures: &[String],
    nprocs: usize,
) -> Result<usize, String> {
    match check_sources(annotated, captures, &matrix(nprocs)) {
        Ok(stats) => Ok(stats.runs),
        Err(d) => Err(d.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_always_includes_uniprocessor() {
        let m = matrix(8);
        assert_eq!(m.procs, vec![1, 8]);
        let m1 = matrix(1);
        assert_eq!(m1.procs, vec![1, 2]);
    }

    #[test]
    fn a_correct_annotated_program_verifies() {
        let src = "\
      program t
      integer i
      real*8 a(32)
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, 32
        a(i) = 2.0 * i
      enddo
      end
";
        let runs = verify(
            &[("t.f".to_string(), src.to_string())],
            &["a".to_string()],
            4,
        )
        .expect("verifies");
        assert!(runs > 0);
    }
}
