//! Set-associative cache model with LRU replacement.
//!
//! Both cache levels of the simulated R10000 (32 KB two-way L1 with 32-byte
//! lines, 1–4 MB two-way unified L2 with 128-byte lines) are instances of
//! [`Cache`].  The model is a *tag* simulation: it tracks which physical
//! line addresses are resident and dirty, not their contents (the machine
//! keeps data in a flat store).
//!
//! Lines are indexed by **physical** address, which is what makes OS page
//! colouring matter: two virtual pages that receive conflicting physical
//! frames will thrash a set even if their virtual addresses are far apart.
//!
//! All ways of all sets sit in one flat array, set after set, so a probe
//! is an index computation and a scan of `assoc` adjacent entries. A way
//! is empty while its LRU stamp is 0 (stamps start at 1): "first empty
//! way, else least recently used" is one `min` over the set, and a
//! whole-cache pass (`invalidate_page`, `resident`) is one linear walk.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line_size: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// Create a cache geometry.
    pub fn new(size: usize, line_size: usize, assoc: usize) -> Self {
        CacheConfig {
            size,
            line_size,
            assoc,
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.size / (self.line_size * self.assoc)
    }

    /// Validate the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: sizes must be
    /// powers of two, the capacity must hold at least one full set.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_size.is_power_of_two() || self.line_size == 0 {
            return Err(format!(
                "line size {} must be a power of two",
                self.line_size
            ));
        }
        if self.assoc == 0 {
            return Err("associativity must be at least 1".into());
        }
        if !self.size.is_multiple_of(self.line_size * self.assoc) || self.n_sets() == 0 {
            return Err(format!(
                "size {} not divisible into sets of {} ways of {}-byte lines",
                self.size, self.assoc, self.line_size
            ));
        }
        if !self.n_sets().is_power_of_two() {
            return Err(format!(
                "set count {} must be a power of two",
                self.n_sets()
            ));
        }
        Ok(())
    }
}

/// One way of a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    /// Physical line address (address >> line_bits).
    tag: u64,
    dirty: bool,
    /// LRU timestamp; larger = more recently used, 0 = the way is empty
    /// (ticks start at 1).
    lru: u64,
}

const EMPTY: Line = Line {
    tag: 0,
    dirty: false,
    lru: 0,
};

impl Line {
    fn holds(&self, line: u64) -> bool {
        self.lru != 0 && self.tag == line
    }
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Physical line address of the evicted line.
    pub tag: u64,
    /// Whether it was dirty (requires a write-back).
    pub dirty: bool,
}

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The line was resident. `was_dirty` reports whether it was already
    /// modified *before* this access — a writer that finds its line clean
    /// must still consult the coherence directory for ownership.
    Hit {
        /// Dirty state prior to this access.
        was_dirty: bool,
    },
    /// The line was not resident; it has been filled, possibly evicting a
    /// victim the caller must write back (if dirty) and deregister from the
    /// directory.
    Miss {
        /// The evicted line, if the set was full.
        victim: Option<Victim>,
    },
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way of every set in one allocation: set `s` is
    /// `ways[s * assoc..(s + 1) * assoc]`, so a probe is one indexed read,
    /// not a pointer chase per set.
    ways: Vec<Line>,
    line_bits: u32,
    set_mask: u64,
    tick: u64,
}

impl Cache {
    /// Build an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache geometry");
        let n_sets = cfg.n_sets();
        Cache {
            cfg,
            ways: vec![EMPTY; n_sets * cfg.assoc],
            line_bits: cfg.line_size.trailing_zeros(),
            set_mask: (n_sets - 1) as u64,
            tick: 0,
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Physical line address of a physical byte address.
    #[inline]
    pub fn line_of(&self, paddr: u64) -> u64 {
        paddr >> self.line_bits
    }

    /// The ways of the set `line` maps to.
    #[inline]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let first = (line & self.set_mask) as usize * self.cfg.assoc;
        first..first + self.cfg.assoc
    }

    /// Probe (and on miss, fill) the line containing `paddr`.
    /// `write` marks the line dirty on hit or after fill.
    #[inline]
    pub fn access(&mut self, paddr: u64, write: bool) -> Probe {
        let line = self.line_of(paddr);
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let set = &mut self.ways[set];
        if let Some(l) = set.iter_mut().find(|l| l.holds(line)) {
            l.lru = tick;
            let was_dirty = l.dirty;
            l.dirty |= write;
            return Probe::Hit { was_dirty };
        }
        // The first empty way (`lru == 0`), else the least recently used.
        let way = set.iter_mut().min_by_key(|l| l.lru).expect("non-empty set");
        let victim = (way.lru != 0).then_some(Victim {
            tag: way.tag,
            dirty: way.dirty,
        });
        *way = Line {
            tag: line,
            dirty: write,
            lru: tick,
        };
        Probe::Miss { victim }
    }

    /// [`Cache::access`] for a caller that remembers which way held the
    /// line: if way `way` (an index into the flat way array, see
    /// [`Cache::way_of`]) still holds `paddr`'s line, the access is the
    /// hit `access` would report — tick, recency, dirty bit — and its prior
    /// dirty state is returned; otherwise `None` and nothing is touched.
    /// Any `way` is a valid guess.
    #[inline]
    pub fn hit_at(&mut self, way: u32, paddr: u64, write: bool) -> Option<bool> {
        let line = self.line_of(paddr);
        let l = self.ways.get_mut(way as usize).filter(|l| l.holds(line))?;
        self.tick += 1;
        l.lru = self.tick;
        let was_dirty = l.dirty;
        l.dirty |= write;
        Some(was_dirty)
    }

    /// The way holding `paddr`'s line, for [`Cache::hit_at`] (no state
    /// change); `u32::MAX`, which no cache has, if it is not resident.
    #[inline]
    pub fn way_of(&self, paddr: u64) -> u32 {
        let line = self.line_of(paddr);
        let set = self.set_of(line);
        let first = set.start;
        self.ways[set]
            .iter()
            .position(|l| l.holds(line))
            .map_or(u32::MAX, |w| (first + w) as u32)
    }

    /// True if the line containing `paddr` is resident (no state change).
    pub fn contains(&self, paddr: u64) -> bool {
        let line = self.line_of(paddr);
        self.ways[self.set_of(line)].iter().any(|l| l.holds(line))
    }

    /// Remove the line containing physical line address `line` if resident
    /// (a coherence invalidation). Returns `true` if a line was dropped.
    pub fn invalidate_line(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        match self.ways[set].iter_mut().find(|l| l.holds(line)) {
            Some(l) => {
                *l = EMPTY;
                true
            }
            None => false,
        }
    }

    /// Drop every line belonging to the physical page `ppage`
    /// (`page_bits` = log2 of the page size). Used when a page migrates.
    ///
    /// A line can only sit in its own set, and a page's lines map to
    /// consecutive sets starting at a multiple of the page's line count,
    /// so only `min(lines per page, sets)` sets — one slice of the way
    /// array — are probed.
    pub fn invalidate_page(&mut self, ppage: u64, page_bits: u32) -> usize {
        let shift = page_bits - self.line_bits;
        let n_sets = self.set_mask + 1;
        let sets = (1u64 << shift).min(n_sets);
        let first = (ppage << shift) & self.set_mask;
        let assoc = self.cfg.assoc;
        let ways = &mut self.ways[first as usize * assoc..(first + sets) as usize * assoc];
        let mut dropped = 0;
        for l in ways {
            if l.lru != 0 && (l.tag >> shift) == ppage {
                *l = EMPTY;
                dropped += 1;
            }
        }
        dropped
    }

    /// Number of resident lines.
    pub fn resident(&self) -> usize {
        self.ways.iter().filter(|l| l.lru != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 32-byte lines = 256 bytes
        Cache::new(CacheConfig::new(256, 32, 2))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(matches!(c.access(0x100, false), Probe::Miss { .. }));
        assert!(matches!(c.access(0x100, false), Probe::Hit { .. }));
        assert!(
            matches!(c.access(0x11f, false), Probe::Hit { .. }),
            "same 32-byte line"
        );
        assert!(
            matches!(c.access(0x120, false), Probe::Miss { .. }),
            "next line"
        );
    }

    #[test]
    fn hit_reports_prior_dirty_state() {
        let mut c = tiny();
        c.access(0x100, false);
        assert_eq!(c.access(0x100, true), Probe::Hit { was_dirty: false });
        assert_eq!(c.access(0x100, true), Probe::Hit { was_dirty: true });
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = n_sets * line = 128).
        c.access(0x000, false);
        c.access(0x080, false);
        // touch 0x000 so 0x080 becomes LRU
        c.access(0x000, false);
        c.access(0x100, false); // evicts 0x080
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let probe = c.access(0x100, false); // evicts dirty 0x000
        match probe {
            Probe::Miss { victim: Some(v) } => {
                assert_eq!(v.tag, 0);
                assert!(v.dirty);
            }
            other => panic!("expected dirty victim, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0x040, true);
        let line = c.line_of(0x040);
        assert!(c.invalidate_line(line));
        assert!(!c.contains(0x040));
        assert!(!c.invalidate_line(line), "second invalidation is a no-op");
    }

    #[test]
    fn invalidate_page_drops_all_lines_of_page() {
        let mut c = Cache::new(CacheConfig::new(4096, 32, 2));
        // page size 1024 => page_bits 10
        for off in (0..1024).step_by(32) {
            c.access(0x400 + off, false); // page 1
        }
        c.access(0x000, false); // page 0
        let dropped = c.invalidate_page(1, 10);
        assert!(dropped > 0);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x400));
    }

    /// The reference for [`Cache::invalidate_page`]: scan every way of
    /// every set.
    fn invalidate_page_full_scan(c: &mut Cache, ppage: u64, page_bits: u32) -> usize {
        let shift = page_bits - c.line_bits;
        let mut dropped = 0;
        for l in &mut c.ways {
            if l.lru != 0 && (l.tag >> shift) == ppage {
                *l = EMPTY;
                dropped += 1;
            }
        }
        dropped
    }

    proptest::proptest! {
        /// Probing only the page's sets drops what the full scan drops and
        /// leaves every way as the full scan does — for pages smaller than,
        /// equal to and larger than the cache's set span.
        #[test]
        fn invalidate_page_matches_full_scan(
            set_bits in 0u32..6,
            assoc in 1usize..5,
            line_bits in 4u32..8,
            lines_per_page_bits in 0u32..9,
            addrs in proptest::collection::vec(0u64..1 << 16, 0..300),
            pages in proptest::collection::vec(0u64..64, 1..8),
        ) {
            let line = 1usize << line_bits;
            let mut c = Cache::new(CacheConfig::new((line * assoc) << set_bits, line, assoc));
            let page_bits = line_bits + lines_per_page_bits;
            for &a in &addrs {
                c.access(a, a & 1 == 1);
            }
            for ppage in pages {
                let mut reference = c.clone();
                let dropped = c.invalidate_page(ppage, page_bits);
                let expected = invalidate_page_full_scan(&mut reference, ppage, page_bits);
                proptest::prop_assert_eq!(dropped, expected, "page {}", ppage);
                proptest::prop_assert!(c.ways == reference.ways, "page {}", ppage);
            }
        }
    }

    #[test]
    fn capacity_bounded() {
        let mut c = tiny();
        for addr in (0..4096u64).step_by(32) {
            c.access(addr, false);
        }
        assert!(c.resident() <= 8, "256-byte cache holds at most 8 lines");
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheConfig::new(256, 32, 2).validate().is_ok());
        assert!(CacheConfig::new(0, 32, 2).validate().is_err());
        assert!(CacheConfig::new(256, 33, 2).validate().is_err());
        assert!(CacheConfig::new(256, 32, 0).validate().is_err());
        assert!(CacheConfig::new(300, 32, 2).validate().is_err());
        // 3 sets: not a power of two
        assert!(CacheConfig::new(192, 32, 2).validate().is_err());
    }
}
