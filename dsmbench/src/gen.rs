//! Seeded input generators: every source variant, request order and
//! sampling seed the benchmark uses is drawn from `--seed` here. The
//! programs under test receive only the generated text.

/// SplitMix64 — small, seedable, and good enough to pick constants.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// sharing one `--seed` do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `(file name, text)` pairs, the form every compile entry point takes.
pub type Sources = Vec<(String, String)>;

/// Source lines over all files.
pub fn line_count(sources: &Sources) -> usize {
    sources.iter().map(|(_, t)| t.lines().count()).sum()
}

/// The tiny executed kernel of every daemon program: an `n × n`
/// reshaped fill. `n` and `c` vary per program, so two programs differ
/// in their report digest and not only in their source hash.
fn main_unit(n: u64, c: u64) -> String {
    format!(
        "      program main
      integer i, j
      real*8 a({n},{n})
c$distribute_reshape a(*,block)
c$doacross local(i,j) affinity(j) = data(a(1,j))
      do j = 1, {n}
        do i = 1, {n}
          a(i,j) = i + 2*j + {c}
        enddo
      enddo
      end
"
    )
}

/// A never-called subroutine with a reshaped array and an
/// affinity-scheduled nest: front end, lowering, pre-linker and the
/// reshape passes all work on it, the simulator never sees it.
fn work_unit(k: usize, n: u64, c: u64) -> String {
    format!(
        "      subroutine work{k}()
      integer i, j
      real*8 x({n},{n})
c$distribute_reshape x(*,block)
c$doacross local(i,j) affinity(j) = data(x(1,j))
      do j = 1, {n}
        do i = 1, {n}
          x(i,j) = x(i,j) * 2.0d0 + i + j + {c}
        enddo
      enddo
      end
"
    )
}

fn work_units(rng: &mut Rng, out: &mut String, first: usize, count: usize) {
    for k in first..first + count {
        let n = [32, 48, 64][rng.below(3) as usize];
        out.push_str(&work_unit(k, n, rng.below(1000)));
    }
}

/// Append never-called subroutines until `text` reaches `target_bytes`.
fn pad_to(rng: &mut Rng, text: &mut String, target_bytes: usize) {
    let mut k = 0;
    while text.len() < target_bytes {
        work_units(rng, text, k, 1);
        k += 1;
    }
}

/// A daemon cache-hit program: the 16 × 16 kernel plus never-called
/// subroutines until the body reaches `target_bytes`.
pub fn hot_program(rng: &mut Rng, target_bytes: usize) -> Sources {
    let mut text = main_unit(16, rng.below(1000));
    pad_to(rng, &mut text, target_bytes);
    vec![("hot.f".to_string(), text)]
}

/// A daemon first-seen program: 8 never-called routines and a seeded
/// kernel (extent 12..=20).
pub fn miss_program(rng: &mut Rng) -> Sources {
    let mut text = main_unit(12 + rng.below(9), rng.below(1_000_000));
    work_units(rng, &mut text, 0, 8);
    vec![("miss.f".to_string(), text)]
}

/// Depth of the cross-file call chain in [`cold_program`]; the
/// pre-linker must clone every level.
pub const COLD_CHAIN_DEPTH: usize = 8;

/// A compile-heavy program nothing ever runs: 256 never-called
/// reshaped/affinity subroutines in one file, and in another a main
/// program passing a reshaped array down a call chain of depth
/// [`COLD_CHAIN_DEPTH`] defined in the first file, so the pre-linker
/// propagates the distribution across files and clones each level.
pub fn cold_program(rng: &mut Rng) -> Sources {
    let main = "      program main
      real*8 a(512)
c$distribute_reshape a(block)
      call s1(a)
      end
"
    .to_string();
    let mut lib = String::new();
    for d in 1..=COLD_CHAIN_DEPTH {
        let next = if d < COLD_CHAIN_DEPTH {
            format!("      call s{}(x)\n", d + 1)
        } else {
            String::new()
        };
        let c = rng.below(1000);
        lib.push_str(&format!(
            "      subroutine s{d}(x)
      integer i
      real*8 x(512)
      do i = 1, 512
        x(i) = i + {c}
      enddo
{next}      end
"
        ));
    }
    work_units(rng, &mut lib, 0, 256);
    vec![("main.f".to_string(), main), ("lib.f".to_string(), lib)]
}

/// Redistribution points in [`phases_program`].
pub const PHASES: usize = 8;

/// A phases-style program: a regular `(*, block)` array swept
/// [`PHASES`] times, redistributed before each sweep alternately to
/// `(*, cyclic(4))` and back to `(*, block)`. Sweep constants are
/// seeded; results are checked against the reference interpreter.
pub fn phases_program(rng: &mut Rng, n: usize) -> Sources {
    let mut text = format!(
        "      program phases
      integer i, j
      real*8 a({n}, {n})
c$distribute a(*, block)
c$doacross local(i, j) affinity(j) = data(a(1, j))
      do j = 1, {n}
        do i = 1, {n}
          a(i, j) = i + {n}*j
        enddo
      enddo
"
    );
    for phase in 0..PHASES {
        let dist = if phase % 2 == 0 { "cyclic(4)" } else { "block" };
        let (mul, add) = (2 + rng.below(3), rng.below(100));
        text.push_str(&format!(
            "c$redistribute a(*, {dist})
c$doacross local(i, j) affinity(j) = data(a(1, j))
      do j = 1, {n}
        do i = 1, {n}
          a(i, j) = a(i, j) * 0.{mul}d0 + {add}
        enddo
      enddo
"
        ));
    }
    text.push_str("      end\n");
    vec![("phases.f".to_string(), text)]
}

/// A program whose main declares the daemon kernel's array and does
/// nothing, beside `target_bytes` of never-called subroutines: what a
/// run of a daemon-sized program costs before its first statement.
pub fn empty_program(rng: &mut Rng, target_bytes: usize) -> Sources {
    let mut text = "      program main
      real*8 a(16,16)
c$distribute_reshape a(*,block)
      end
"
    .to_string();
    pad_to(rng, &mut text, target_bytes);
    vec![("empty.f".to_string(), text)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(seed: u64) -> Vec<Sources> {
        let mut r = Rng::new(seed, 1);
        vec![
            hot_program(&mut r, 1 << 10),
            hot_program(&mut r, 60 << 10),
            miss_program(&mut r),
            cold_program(&mut r),
            phases_program(&mut r, 64),
        ]
    }

    #[test]
    fn equal_seeds_give_identical_bytes_and_different_seeds_differ() {
        assert_eq!(all(7), all(7));
        for (a, b) in all(7).iter().zip(all(8)) {
            assert_ne!(a, &b);
        }
    }

    #[test]
    fn streams_of_one_seed_are_decorrelated() {
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn successive_draws_are_distinct_programs() {
        let mut r = Rng::new(3, 1);
        let (a, b) = (miss_program(&mut r), miss_program(&mut r));
        assert_ne!(a, b);
    }

    #[test]
    fn hot_bodies_reach_their_target_size() {
        let mut r = Rng::new(1, 1);
        for target in [1 << 10, 8 << 10, 60 << 10] {
            let len = hot_program(&mut r, target)[0].1.len();
            assert!(len >= target && len < target + 400, "{len} for {target}");
        }
    }

    #[test]
    fn cold_program_is_about_2800_lines_and_clones_the_chain() {
        let src = cold_program(&mut Rng::new(5, 1));
        let lines = line_count(&src);
        assert!((2700..3000).contains(&lines), "{lines} lines");
        let p = dsm_core::compile_source(&src, &dsm_core::OptConfig::default()).expect("compiles");
        assert_eq!(p.prelink_report().clones_created, COLD_CHAIN_DEPTH);
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..16).collect();
        Rng::new(9, 1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
