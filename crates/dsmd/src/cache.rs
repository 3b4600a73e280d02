//! Content-addressed compiled-program cache, bounded by bytes.
//!
//! Programs are keyed on a word-at-a-time hash of their sources (names
//! and text, length-prefixed so concatenation cannot collide) plus the
//! optimization flags. The key is a guess validated on use, like the
//! TLB's and the tile hints' positions: a hit compares the entry's stored
//! sources and flags with the request's, so a hash collision — accidental,
//! or crafted by one tenant against another — is a miss, never someone
//! else's program. Two tenants submitting the same program with the same
//! flags share one [`CompiledProgram`], and with it the bytecode its
//! first run lowered — compiling and lowering are the dominant
//! per-request costs for short simulations, so this is where the
//! daemon's warm-path throughput comes from.
//!
//! The cache holds at most [`BUDGET_BYTES`] of accounted bytes
//! ([`entry_bytes`]) and evicts the least recently used entries to stay
//! inside it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dsm_core::{compile_source, CompiledProgram, DsmError, OptConfig};

/// Accounted bytes the cache may hold. At [`entry_bytes`]' 32 bytes per
/// source byte that is about 430 of `dsmbench`'s 2.4 KB first-seen
/// programs, or 17 copies of its 60 KB-body hot program.
pub const BUDGET_BYTES: usize = 32 << 20;

/// Heap bytes one cached program holds per byte of source: its stored
/// copy of the sources (1), the optimized IR (18) and the lowered
/// bytecode (13). Measured with a counting global allocator over
/// `dsmbench`'s generated daemon programs (1, 8 and 60 KB bodies and the
/// 2.4 KB first-seen programs): the IR is 17.5–18.0 bytes per source byte
/// and the code, kernels of the executed loops included, 12.2–12.8; the
/// hand-written `examples/fortran` programs stay below both (IR 7–16,
/// code 6–8). Lowering happens at a program's first run, after it is
/// cached; the entry is charged for its code from the start.
const BYTES_PER_SOURCE_BYTE: usize = 1 + 18 + 13;

/// Accounted size of the cache entry for `sources`.
fn entry_bytes(sources: &[(String, String)]) -> usize {
    let source: usize = sources.iter().map(|(name, text)| name.len() + text.len()).sum();
    source * BYTES_PER_SOURCE_BYTE
}

/// Cache key: source-content hash plus the optimization flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hash: u64,
    opt_bits: u8,
}

impl CacheKey {
    /// Compute the key for a compile/run request.
    pub fn new(sources: &[(String, String)], opt: &OptConfig) -> Self {
        let mut h = FoldHash::new();
        for (name, text) in sources {
            h.word(name.len() as u64);
            h.write(name.as_bytes());
            h.word(text.len() as u64);
            h.write(text.as_bytes());
        }
        CacheKey {
            hash: h.0,
            opt_bits: (opt.skew as u8)
                | (opt.tile_peel as u8) << 1
                | (opt.hoist_cse as u8) << 2
                | (opt.fp_divmod as u8) << 3
                | (opt.interchange as u8) << 4,
        }
    }

    /// Printable form carried in `compile` replies.
    pub fn render(&self) -> String {
        format!("{:016x}-{:02x}", self.hash, self.opt_bits)
    }

    /// A key with a chosen hash, to force two programs onto one key.
    #[cfg(test)]
    fn forced(hash: u64) -> Self {
        CacheKey { hash, opt_bits: 0 }
    }
}

/// Word-at-a-time multiply-fold hash: each 8-byte little-endian word is
/// xored into the state, which is multiplied by an odd constant to a
/// 128-bit product whose halves are xored together. Not cryptographic —
/// a collision costs a miss (see the module docs) — and eight bytes a
/// step where the FNV-1a it replaced took one: a 60 KB body keys in 15 µs
/// instead of 82 on a 2.1 GHz Xeon.
struct FoldHash(u64);

impl FoldHash {
    fn new() -> Self {
        FoldHash(0x243f_6a88_85a3_08d3)
    }

    fn word(&mut self, w: u64) {
        let p = u128::from(self.0 ^ w) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }

    /// The bytes as words, the last one zero-padded (the length prefix
    /// written before them tells the padding from data).
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(last));
        }
    }
}

/// Point-in-time cache statistics for the `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    /// Programs currently cached.
    pub entries: usize,
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Accounted bytes of the cached programs (at most [`BUDGET_BYTES`]).
    pub bytes: usize,
    /// Programs evicted to stay inside the budget.
    pub evictions: u64,
}

/// One cached program and what it was compiled from.
struct Entry {
    sources: Vec<(String, String)>,
    opt: OptConfig,
    program: Arc<CompiledProgram>,
    bytes: usize,
    /// Tick of the last request served, for least-recently-used eviction.
    used: u64,
}

/// The map and its accounting, under one lock.
#[derive(Default)]
struct Entries {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    /// Requests served and entries made so far: the recency clock.
    tick: u64,
}

/// The cache itself. Compilation runs *outside* the map lock, so a slow
/// compile does not stall cache hits on other connections; the cost is
/// that two tenants racing on the same cold key may both compile, with
/// the second insert winning (both results are identical by
/// construction).
pub struct ProgramCache {
    entries: Mutex<Entries>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// Empty cache holding at most [`BUDGET_BYTES`].
    pub fn new() -> Self {
        Self::with_budget(BUDGET_BYTES)
    }

    fn with_budget(budget: usize) -> Self {
        ProgramCache {
            entries: Mutex::new(Entries::default()),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch the program for `(sources, opt)`, compiling on a miss.
    /// Returns the program and whether it was already cached.
    ///
    /// # Errors
    ///
    /// Compile diagnostics surface as [`DsmError::Compile`]; failures
    /// are not cached (a tenant fixing their program should not hit a
    /// stale error).
    pub fn get_or_compile(
        &self,
        sources: &[(String, String)],
        opt: &OptConfig,
    ) -> Result<(Arc<CompiledProgram>, bool), DsmError> {
        self.get_or_compile_at(CacheKey::new(sources, opt), sources, opt)
    }

    fn get_or_compile_at(
        &self,
        key: CacheKey,
        sources: &[(String, String)],
        opt: &OptConfig,
    ) -> Result<(Arc<CompiledProgram>, bool), DsmError> {
        if let Some(program) = self.entries().hit(key, sources, opt) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((program, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(compile_source(sources, opt)?);
        let bytes = entry_bytes(sources);
        if bytes <= self.budget {
            let entry = Entry {
                sources: sources.to_vec(),
                opt: *opt,
                program: Arc::clone(&program),
                bytes,
                used: 0,
            };
            let evicted = self.entries().insert(key, entry, self.budget);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok((program, false))
    }

    fn entries(&self) -> MutexGuard<'_, Entries> {
        (self.entries.lock()).expect("a thread panicked while updating the program cache")
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = self.entries();
        CacheStats {
            entries: entries.map.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes: entries.bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl Entries {
    /// The program cached under `key` if it was compiled from exactly
    /// `(sources, opt)`, now the most recently used.
    fn hit(
        &mut self,
        key: CacheKey,
        sources: &[(String, String)],
        opt: &OptConfig,
    ) -> Option<Arc<CompiledProgram>> {
        let e = self.map.get_mut(&key)?;
        if e.opt != *opt || e.sources != sources {
            return None;
        }
        self.tick += 1;
        e.used = self.tick;
        Some(Arc::clone(&e.program))
    }

    /// Cache `entry` under `key`, replacing whatever holds the key and
    /// evicting least-recently-used entries until it fits in `budget`;
    /// returns how many were evicted.
    fn insert(&mut self, key: CacheKey, mut entry: Entry, budget: usize) -> u64 {
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        let mut evicted = 0;
        while self.bytes + entry.bytes > budget {
            let (&lru, _) = (self.map.iter())
                .min_by_key(|(_, e)| e.used)
                .expect("accounted bytes belong to entries");
            self.bytes -= self.map.remove(&lru).expect("just found").bytes;
            evicted += 1;
        }
        self.tick += 1;
        entry.used = self.tick;
        self.bytes += entry.bytes;
        self.map.insert(key, entry);
        evicted
    }
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{ExecOptions, MachineConfig};

    fn src(text: &str) -> Vec<(String, String)> {
        vec![("t.f".to_string(), text.to_string())]
    }

    /// A program whose report digest depends on `c`.
    fn program(c: u32) -> Vec<(String, String)> {
        src(&format!(
            "      program main\n      integer i\n      real*8 a(64)\n      do i = 1, {}\n        a(i) = i + {c}\n      enddo\n      end\n",
            8 + c
        ))
    }

    fn digest(p: &CompiledProgram) -> String {
        let out = p.run(&MachineConfig::small_test(2), &ExecOptions::new(2).serial_team(true));
        out.expect("runs").report.digest_json()
    }

    fn fresh_digest(sources: &[(String, String)]) -> String {
        digest(&compile_source(sources, &OptConfig::default()).expect("compiles"))
    }

    #[test]
    fn keys_separate_content_and_flags() {
        let a = src("      program main\n      end\n");
        let b = src("      program main\n      continue\n      end\n");
        let full = OptConfig::default();
        let none = OptConfig::none();
        assert_eq!(CacheKey::new(&a, &full), CacheKey::new(&a, &full));
        assert_ne!(CacheKey::new(&a, &full), CacheKey::new(&b, &full));
        assert_ne!(CacheKey::new(&a, &full), CacheKey::new(&a, &none));
        // Length prefixing: moving a byte across the name/text boundary
        // changes the key.
        let c = vec![("t.fx".to_string(), "y".to_string())];
        let d = vec![("t.f".to_string(), "xy".to_string())];
        assert_ne!(CacheKey::new(&c, &full), CacheKey::new(&d, &full));
        // A zero byte at the end is data, not the last word's padding.
        let e = src("      program main\n      end\n\0");
        assert_ne!(CacheKey::new(&a, &full), CacheKey::new(&e, &full));
    }

    #[test]
    fn second_fetch_hits() {
        let cache = ProgramCache::new();
        let sources = src("      program main\n      real*8 a(8)\n      a(1) = 1\n      end\n");
        let opt = OptConfig::default();
        let (p1, cached1) = cache.get_or_compile(&sources, &opt).unwrap();
        let (p2, cached2) = cache.get_or_compile(&sources, &opt).unwrap();
        assert!(!cached1);
        assert!(cached2);
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (1, 1, 1));
        assert_eq!((s.bytes, s.evictions), (entry_bytes(&sources), 0));
    }

    #[test]
    fn compile_failures_are_not_cached() {
        let cache = ProgramCache::new();
        let bad = src("      program main\n      x = 1\n      end\n");
        assert!(cache.get_or_compile(&bad, &OptConfig::default()).is_err());
        assert_eq!(cache.stats().entries, 0);
    }

    /// Two different programs on one key: each request runs its own
    /// program, the second as a miss that takes the key over.
    #[test]
    fn a_colliding_key_is_a_miss_not_the_other_program() {
        let cache = ProgramCache::new();
        let opt = OptConfig::default();
        let key = CacheKey::forced(7);
        let (a, b) = (program(1), program(2));
        let (pa, cached) = cache.get_or_compile_at(key, &a, &opt).unwrap();
        assert!(!cached);
        let (pb, cached) = cache.get_or_compile_at(key, &b, &opt).unwrap();
        assert!(!cached, "another tenant's program under the same key");
        assert_ne!(fresh_digest(&a), fresh_digest(&b));
        assert_eq!(digest(&pa), fresh_digest(&a));
        assert_eq!(digest(&pb), fresh_digest(&b));
        // The same flags bits with other flags are a different request too.
        let (_, cached) = cache.get_or_compile_at(key, &b, &OptConfig::none()).unwrap();
        assert!(!cached);
        assert_eq!(cache.stats().entries, 1);
    }

    /// Under a budget of three programs: accounted bytes never exceed it,
    /// a program used between insertions is never the one evicted, and
    /// an evicted program compiles again to the same digest.
    #[test]
    fn a_small_budget_evicts_the_least_recently_used() {
        let opt = OptConfig::default();
        let budget = 3 * entry_bytes(&program(10));
        let cache = ProgramCache::with_budget(budget);
        let hot = program(0);
        let (p, _) = cache.get_or_compile(&hot, &opt).unwrap();
        let hot_digest = digest(&p);
        for c in 10..20 {
            let (_, cached) = cache.get_or_compile(&program(c), &opt).unwrap();
            assert!(!cached);
            let (p, cached) = cache.get_or_compile(&hot, &opt).unwrap();
            assert!(cached, "the hot program was evicted");
            assert_eq!(digest(&p), hot_digest);
            let s = cache.stats();
            assert!(s.bytes <= budget, "{} > {budget}", s.bytes);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.misses), (3, 8, 11));
        // program(10) went first; asked for again, it compiles afresh.
        let (p, cached) = cache.get_or_compile(&program(10), &opt).unwrap();
        assert!(!cached);
        assert_eq!(digest(&p), fresh_digest(&program(10)));
        // A program larger than the whole budget runs but is not kept.
        let tiny = ProgramCache::with_budget(entry_bytes(&hot) - 1);
        let (p, _) = tiny.get_or_compile(&hot, &opt).unwrap();
        assert_eq!(digest(&p), hot_digest);
        assert_eq!((tiny.stats().entries, tiny.stats().bytes), (0, 0));
    }
}
