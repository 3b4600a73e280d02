//! Property-based tests of the machine substrate's invariants.

use dsm_machine::cache::{Probe, Victim};
use dsm_machine::pagetable::Mapping;
use dsm_machine::{
    AccessKind, Cache, CacheConfig, LineCursor, Machine, MachineConfig, MigrationPolicy, NodeId,
    ProcId, Tlb,
};
use proptest::prelude::*;

/// A translation that names its page and which fill of that page it is.
fn mapping_of(vpage: u64, fill: u64) -> Mapping {
    Mapping {
        node: NodeId(vpage as usize % 4),
        frame: vpage * 1000 + fill,
    }
}

proptest! {
    /// A cache never holds more lines than its capacity, and an access
    /// immediately after itself always hits.
    #[test]
    fn cache_capacity_and_idempotence(
        addrs in prop::collection::vec(0u64..65536, 1..200),
    ) {
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2));
        for &a in &addrs {
            c.access(a, a % 3 == 0);
            let hit = matches!(c.access(a, false), Probe::Hit { .. });
            prop_assert!(hit);
            prop_assert!(c.resident() <= 32);
        }
    }

    /// The most-recently-used line of a set survives one conflicting fill.
    #[test]
    fn cache_mru_survives_one_conflict(base in 0u64..1024) {
        let mut c = Cache::new(CacheConfig::new(256, 32, 2)); // 4 sets
        let stride = 128; // same set
        let a = base * 32;
        c.access(a, false);
        c.access(a + stride, false);
        c.access(a, false); // a is MRU
        c.access(a + 2 * stride, false); // evicts a+stride
        prop_assert!(c.contains(a));
    }

    /// TLB entries never exceed capacity and repeated pages hit, with the
    /// translation they were filled with.
    #[test]
    fn tlb_bounded_and_hits(pages in prop::collection::vec(0u64..128, 1..300)) {
        let mut t = Tlb::new(16);
        for &p in &pages {
            if t.lookup(p).is_none() {
                t.fill(p, mapping_of(p, 0));
            }
            prop_assert_eq!(t.lookup(p), Some(mapping_of(p, 0)), "immediate re-access must hit");
            prop_assert!(t.len() <= 16);
        }
    }

    /// Data written through the machine is read back exactly, regardless
    /// of the processor performing the access.
    #[test]
    fn memory_round_trip(
        values in prop::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 1..64),
        readers in prop::collection::vec(0usize..4, 1..64),
    ) {
        let mut m = Machine::new(MachineConfig::small_test(4));
        let base = m.alloc_pages(values.len() * 8);
        for (i, &v) in values.iter().enumerate() {
            m.write_f64(ProcId(i % 4), base + i as u64 * 8, v);
        }
        for (&r, (i, &v)) in readers.iter().zip(values.iter().enumerate().cycle()) {
            let (got, _) = m.read_f64(ProcId(r), base + i as u64 * 8);
            prop_assert_eq!(got, v);
        }
    }

    /// Access cost is always positive and bounded by a sane constant.
    #[test]
    fn access_cost_bounded(
        offsets in prop::collection::vec(0u64..32768, 1..200),
        procs in prop::collection::vec(0usize..8, 1..200),
    ) {
        let mut m = Machine::new(MachineConfig::small_test(8));
        let base = m.alloc_pages(32768 + 8);
        let lat = m.config().lat.clone();
        let bound = lat.tlb_miss + lat.page_fault + lat.l1_hit + lat.l2_hit
            + lat.remote_base + lat.remote_per_hop * 8 + lat.writeback
            + lat.invalidation * 8;
        for (&off, &p) in offsets.iter().zip(&procs) {
            let c = m.access(ProcId(p), base + off, AccessKind::Read);
            prop_assert!(c >= lat.l1_hit);
            prop_assert!(c <= bound, "cost {} above bound {}", c, bound);
        }
    }

    /// Explicit placement is always respected by later faults.
    #[test]
    fn placement_sticks(pages in prop::collection::vec(0usize..16, 1..40)) {
        let mut m = Machine::new(MachineConfig::small_test(8)); // 4 nodes
        let base = m.alloc_pages(16 * 1024);
        for (i, &pg) in pages.iter().enumerate() {
            let node = NodeId(i % 4);
            m.place_range(base + pg as u64 * 1024, 1024, node);
            m.access(ProcId((i + 1) % 8), base + pg as u64 * 1024, AccessKind::Read);
            prop_assert_eq!(m.home_of(base + pg as u64 * 1024), Some(node));
        }
    }

    /// Counters are consistent: l2 misses = local + remote + interventions
    /// never exceeds l1 misses, loads+stores equals issued accesses.
    #[test]
    fn counter_consistency(
        ops in prop::collection::vec((0u64..8192, any::<bool>(), 0usize..4), 1..300),
    ) {
        let mut m = Machine::new(MachineConfig::small_test(4));
        let base = m.alloc_pages(8192 + 8);
        for &(off, w, p) in &ops {
            let kind = if w { AccessKind::Write } else { AccessKind::Read };
            m.access(ProcId(p), base + off, kind);
        }
        let t = m.total_counters();
        prop_assert_eq!(t.accesses(), ops.len() as u64);
        prop_assert_eq!(t.l2_misses, t.local_misses + t.remote_misses);
        prop_assert!(t.l2_misses <= t.l1_misses);
        prop_assert_eq!(t.invalidations_sent, t.invalidations_received);
    }

    /// Concurrent first-touch placement: a team of host threads faults the
    /// same set of pages simultaneously (every member walks the page list in
    /// a different rotation, maximizing same-page races). Every touched
    /// vpage must end up with exactly one home node — no duplicate or ghost
    /// mappings — and an explicit `place_page` between rounds must stick
    /// even while other pages keep faulting around it.
    #[test]
    fn concurrent_first_touch_unique_home(
        pages in prop::collection::vec(0u64..64, 8..64),
        nthreads in 2usize..8,
    ) {
        let mut m = Machine::new(MachineConfig::small_test(8)); // 4 nodes
        let page = m.config().page_size as u64; // 1 KiB
        let base = m.alloc_pages(64 * page as usize);
        let ids: Vec<ProcId> = (0..nthreads).map(ProcId).collect();

        let shards = m.team_shards(&ids);
        std::thread::scope(|s| {
            for (t, mut shard) in shards.into_iter().enumerate() {
                let pages = &pages;
                s.spawn(move || {
                    for i in 0..pages.len() {
                        let pg = pages[(i + t * 7) % pages.len()];
                        shard.access(base + pg * page, AccessKind::Read);
                    }
                });
            }
        });
        m.drain_mail();

        let distinct: std::collections::BTreeSet<u64> = pages.iter().copied().collect();
        // Exactly one mapping per touched page, and none invented.
        prop_assert_eq!(
            m.pages_per_node().iter().sum::<usize>(),
            distinct.len(),
            "mapped page count != distinct touched pages"
        );
        let homes: Vec<NodeId> = distinct
            .iter()
            .map(|&pg| m.home_of(base + pg * page).expect("touched page unmapped"))
            .collect();

        // Explicitly re-place the first touched page, then race another
        // round of faults/accesses over everything.
        let target = *distinct.iter().next().unwrap();
        let moved_to = NodeId((m.home_of(base + target * page).unwrap().0 + 1) % 4);
        prop_assert!(m.place_page((base + target * page) >> page.trailing_zeros(), moved_to));

        let shards = m.team_shards(&ids);
        std::thread::scope(|s| {
            for (t, mut shard) in shards.into_iter().enumerate() {
                let pages = &pages;
                s.spawn(move || {
                    for i in 0..pages.len() {
                        let pg = pages[(i + t * 3) % pages.len()];
                        shard.access(base + pg * page, AccessKind::Write);
                    }
                });
            }
        });
        m.drain_mail();

        // Homes are sticky: unchanged except the explicit move.
        prop_assert_eq!(m.pages_per_node().iter().sum::<usize>(), distinct.len());
        for (&pg, &home0) in distinct.iter().zip(&homes) {
            let now = m.home_of(base + pg * page).unwrap();
            if pg == target {
                prop_assert_eq!(now, moved_to, "explicit placement lost");
            } else {
                prop_assert_eq!(now, home0, "page {} changed home without place_page", pg);
            }
        }
    }

    /// The migration daemon's lock-free reference counters, sampled by
    /// team shards racing on host threads, never lose or invent a fill:
    /// with no epoch run, the counts sum exactly to the machine's
    /// memory-fill counters (`local + remote` misses), and no single
    /// page's count exceeds that total (no underflow wrap, no
    /// double-count).
    #[test]
    fn migration_counters_balance_under_concurrent_sampling(
        pages in prop::collection::vec(0u64..32, 8..48),
        nthreads in 2usize..8,
    ) {
        let mut cfg = MachineConfig::small_test(8);
        cfg.migration = MigrationPolicy::threshold(4);
        cfg.migration_epoch = u64::MAX; // sample only — no resets/decay
        let mut m = Machine::new(cfg);
        let page = m.config().page_size as u64;
        let base = m.alloc_pages(32 * page as usize);
        let ids: Vec<ProcId> = (0..nthreads).map(ProcId).collect();

        let shards = m.team_shards(&ids);
        std::thread::scope(|s| {
            for (t, mut shard) in shards.into_iter().enumerate() {
                let pages = &pages;
                s.spawn(move || {
                    for i in 0..pages.len() {
                        let pg = pages[(i + t * 5) % pages.len()];
                        shard.access(base + pg * page + t as u64 * 8, AccessKind::Read);
                    }
                });
            }
        });
        m.drain_mail();

        let t = m.total_counters();
        let fills = t.local_misses + t.remote_misses;
        let refs = m.ref_counters();
        prop_assert_eq!(refs.total(), fills, "sampled counts != memory fills");
        for vp in 0..refs.pages() {
            let per: u64 = refs.counts(vp).iter().map(|&c| u64::from(c)).sum();
            prop_assert!(per <= fills, "page {} counts {} exceed fills {}", vp, per, fills);
        }
    }

    /// After a migration epoch, every migrated page still maps, holds its
    /// data bit-exactly, and the directory carries no sharers for its
    /// frame (the shootdown invalidated every cached copy).
    #[test]
    fn migration_clears_sharers_and_preserves_data(
        values in prop::collection::vec(
            any::<f64>().prop_filter("finite", |v| v.is_finite()), 64..128),
        reader in 2usize..8,
        rounds in 2u32..6,
    ) {
        let mut cfg = MachineConfig::small_test(8); // 4 nodes, 2 procs/node
        cfg.migration = MigrationPolicy::threshold(2);
        cfg.migration_epoch = u64::MAX; // epochs fired by hand below
        // Tiny caches so every sweep misses to memory.
        cfg.l2 = CacheConfig::new(256, 64, 2);
        cfg.l1 = CacheConfig::new(128, 32, 2);
        let mut m = Machine::new(cfg);
        let base = m.alloc_pages(values.len() * 8);
        for (i, &v) in values.iter().enumerate() {
            m.write_f64(ProcId(0), base + i as u64 * 8, v); // first-touch node 0
        }
        for _ in 0..rounds {
            for i in 0..values.len() {
                m.read_f64(ProcId(reader), base + i as u64 * 8);
            }
        }
        m.migration_epoch();

        let migrated = m.migration_pages();
        prop_assert!(!migrated.is_empty(), "remote sweeps must trigger migration");
        let page_bits = m.config().page_size.trailing_zeros();
        let line = m.config().l2.line_size as u64;
        for &(vp, _) in &migrated {
            let frame = m.frame_of(vp).expect("migrated page unmapped");
            let home = m.home_of(vp << page_bits).expect("migrated page homeless");
            prop_assert_eq!(home, NodeId(reader / 2), "page must follow its accessor");
            for off in (0..m.config().page_size as u64).step_by(line as usize) {
                let sharers = m.line_sharers((frame << page_bits) + off);
                prop_assert!(sharers.is_empty(), "stale sharers {:?} after migration", sharers);
            }
        }
        for (i, &v) in values.iter().enumerate() {
            let (got, _) = m.read_f64(ProcId(1), base + i as u64 * 8);
            prop_assert_eq!(got, v, "value {} corrupted by migration", i);
        }
    }
}

use dsm_machine::SamplingConfig;

proptest! {
    /// Snapshot → mutate → restore → re-run is bit-identical to a fresh
    /// machine driven through the same history — cycles, per-processor
    /// counters, page placement, migration work and stored data —
    /// including under reactive migration and statistical sampling.
    /// This is the property the daemon's machine pool stands on.
    #[test]
    fn snapshot_mutate_restore_replays_like_fresh(
        ops in prop::collection::vec((0u64..512, any::<bool>(), 0usize..4), 20..120),
        cut_pct in 0usize..101,
        migrate in any::<bool>(),
        sample in any::<bool>(),
    ) {
        fn prepare(migrate: bool, sample: bool) -> (Machine, u64) {
            let mut m = Machine::new(MachineConfig::small_test(4));
            if migrate {
                m.set_migration(MigrationPolicy::threshold(2));
            }
            if sample {
                m.set_sampling(SamplingConfig { rate: 4, seed: 1 })
                    .expect("small_test geometry supports 1/4 sampling");
            }
            let base = m.alloc_pages(4 * 1024);
            m.place_range(base, 1024, NodeId(1));
            (m, base)
        }
        fn apply(m: &mut Machine, base: u64, ops: &[(u64, bool, usize)]) -> u64 {
            let mut cycles = 0;
            for &(slot, is_write, proc) in ops {
                let addr = base + 8 * (slot % 512);
                let p = ProcId(proc);
                cycles += if is_write {
                    m.write_f64(p, addr, slot as f64 * 0.25 + proc as f64)
                } else {
                    m.access(p, addr, AccessKind::Read)
                };
            }
            cycles
        }

        let cut = ops.len() * cut_pct / 100;
        let (mut m, base) = prepare(migrate, sample);
        let head = apply(&mut m, base, &ops[..cut]);
        let snap = m.snapshot();
        // Divergent history the restore must fully erase.
        apply(&mut m, base, &ops[cut..]);
        m.restore(&snap);
        let tail_restored = apply(&mut m, base, &ops[cut..]);

        let (mut fresh, fbase) = prepare(migrate, sample);
        prop_assert_eq!(fbase, base);
        let head_fresh = apply(&mut fresh, fbase, &ops[..cut]);
        prop_assert_eq!(head_fresh, head, "histories diverged before the snapshot");
        let tail_fresh = apply(&mut fresh, fbase, &ops[cut..]);

        prop_assert_eq!(tail_restored, tail_fresh, "replayed cycles diverged");
        for p in 0..4 {
            let (a, b) = (*m.counters(ProcId(p)), *fresh.counters(ProcId(p)));
            prop_assert_eq!(a, b, "P{} counters diverged", p);
        }
        prop_assert_eq!(m.pages_per_node(), fresh.pages_per_node());
        prop_assert_eq!(m.pages_migrated(), fresh.pages_migrated());
        for slot in 0..512u64 {
            let (a, _) = m.read_f64(ProcId(0), base + 8 * slot);
            let (b, _) = fresh.read_f64(ProcId(0), fbase + 8 * slot);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "word {} diverged", slot);
        }
    }
}

use dsm_machine::AccessRun;

/// Words in the region the serial-contract proptest shares: four pages.
const WORDS: u64 = 512;

proptest! {
    /// The contract `Machine::serial` states: a per-processor operation on
    /// the whole machine is the same operation on that processor's shard
    /// followed by delivering every mailbox. Three machines take one
    /// random history over processors that share lines — through the
    /// `Machine` API, through one-member `team_shards` views followed by
    /// `drain_mail`, and through `Machine` with every fill run unrolled
    /// into single stores (bulk runs that invalidate other processors'
    /// lines must stay element-for-element exact) — and must agree on
    /// every cost, counter, page home and memory word, exact and at 1/2
    /// sampling.
    #[test]
    fn whole_machine_ops_are_shard_ops_plus_delivery(
        ops in prop::collection::vec(
            (0usize..8, 0u8..3, 0u64..WORDS, -3i64..6, 1u64..48), 1..150),
        nprocs in 4usize..9,
        sampled in any::<bool>(),
    ) {
        let mut cfg = MachineConfig::small_test(nprocs);
        if sampled {
            cfg.sampling = SamplingConfig::new(2).with_seed(1);
        }
        let mut machines: Vec<Machine> = (0..3).map(|_| Machine::new(cfg.clone())).collect();
        let base = machines
            .iter_mut()
            .map(|m| m.alloc_pages(WORDS as usize * 8))
            .max()
            .expect("three machines");
        let nprocs = machines[0].nprocs();
        for &(proc, op, word, stride, count) in &ops {
            let p = ProcId(proc % nprocs);
            let addr = base + 8 * word;
            // Clip fill runs to the region.
            let room = match stride {
                0 => count,
                s if s > 0 => (WORDS - 1 - word) / s as u64 + 1,
                s => word / s.unsigned_abs() + 1,
            };
            let run = AccessRun {
                base: addr,
                stride: stride * 8,
                count: count.min(room),
                kind: AccessKind::Write,
            };
            let costs: Vec<u64> = machines
                .iter_mut()
                .enumerate()
                .map(|(which, m)| match (which, op) {
                    (0, 0) => m.read_i64(p, addr).1,
                    (0, 1) => m.write_i64(p, addr, word as i64),
                    (0, _) => m.fill_run_u64(p, &run, word),
                    (1, _) => {
                        let mut sh = m.team_shards(&[p]).pop().expect("one member");
                        let cost = match op {
                            0 => sh.read_i64(addr).1,
                            1 => sh.write_i64(addr, word as i64),
                            _ => sh.fill_run_u64(&run, word),
                        };
                        m.drain_mail();
                        cost
                    }
                    (_, 0) => m.read_i64(p, addr).1,
                    (_, 1) => m.write_i64(p, addr, word as i64),
                    (_, _) => (0..run.count)
                        .map(|i| m.write_i64(p, run.addr(i), word as i64))
                        .sum(),
                })
                .collect();
            prop_assert_eq!(costs[0], costs[1], "shard view diverged on {:?}", (p, op, run));
            prop_assert_eq!(costs[0], costs[2], "unrolled run diverged on {:?}", (p, op, run));
        }
        let (whole, rest) = machines.split_first().expect("three machines");
        for other in rest {
            for p in (0..nprocs).map(ProcId) {
                prop_assert_eq!(whole.counters(p), other.counters(p), "{} counters", p);
            }
            prop_assert_eq!(whole.pages_per_node(), other.pages_per_node());
            prop_assert_eq!(whole.total_invalidations(), other.total_invalidations());
            prop_assert_eq!(whole.sampling_summary(), other.sampling_summary());
            for w in 0..WORDS {
                prop_assert_eq!(whole.peek_i64(base + 8 * w), other.peek_i64(base + 8 * w));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reference models. `Cache` was a `Vec` of resident lines per set and
// `Tlb` a list of page tags found by scanning; the flat way array and the
// chained, translation-carrying TLB replaced them for speed only. The old
// structures live on here, as the oracles the new ones must match move
// for move.
// ---------------------------------------------------------------------

/// `(tag, dirty, lru)` per resident line, one growable `Vec` per set.
struct RefCache {
    sets: Vec<Vec<(u64, bool, u64)>>,
    assoc: usize,
    line_bits: u32,
    tick: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![Vec::new(); cfg.n_sets()],
            assoc: cfg.assoc,
            line_bits: cfg.line_size.trailing_zeros(),
            tick: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        line as usize & (self.sets.len() - 1)
    }

    fn access(&mut self, paddr: u64, write: bool) -> Probe {
        let line = paddr >> self.line_bits;
        self.tick += 1;
        let (tick, assoc, set) = (self.tick, self.assoc, self.set_of(line));
        let set = &mut self.sets[set];
        if let Some(l) = set.iter_mut().find(|l| l.0 == line) {
            let was_dirty = l.1;
            *l = (line, was_dirty | write, tick);
            return Probe::Hit { was_dirty };
        }
        let mut victim = None;
        if set.len() == assoc {
            let lru = (0..assoc).min_by_key(|&i| set[i].2).expect("non-empty set");
            let (tag, dirty, _) = set.swap_remove(lru);
            victim = Some(Victim { tag, dirty });
        }
        set.push((line, write, tick));
        Probe::Miss { victim }
    }

    fn contains(&self, paddr: u64) -> bool {
        let line = paddr >> self.line_bits;
        self.sets[self.set_of(line)].iter().any(|l| l.0 == line)
    }

    fn invalidate_line(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let before = self.sets[set].len();
        self.sets[set].retain(|l| l.0 != line);
        self.sets[set].len() < before
    }

    fn invalidate_page(&mut self, ppage: u64, page_bits: u32) -> usize {
        let shift = page_bits - self.line_bits;
        let before = self.resident();
        for set in &mut self.sets {
            set.retain(|l| l.0 >> shift != ppage);
        }
        before - self.resident()
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// `(vpage, lru)` tags, found by scanning; no translations, no hints.
struct RefTlb {
    entries: Vec<(u64, u64)>,
    capacity: usize,
    tick: u64,
}

impl RefTlb {
    fn access(&mut self, vpage: u64) -> bool {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpage) {
            e.1 = self.tick;
            return true;
        }
        if self.entries.len() == self.capacity {
            let lru = (0..self.capacity)
                .min_by_key(|&i| self.entries[i].1)
                .expect("non-empty TLB");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpage, self.tick));
        false
    }
}

/// Pages of the remap proptest's arena.
const PAGES: u64 = 12;

proptest! {
    /// Random histories of probes and invalidations leave the flat cache
    /// and the per-set reference in the same state after every step: same
    /// `Probe` (hit and prior dirty bit, or miss and the victim's tag and
    /// dirty bit), same drop counts, same residency — over direct-mapped,
    /// two- and four-way geometries.
    #[test]
    fn flat_cache_matches_per_set_reference(
        geometry in 0usize..4,
        ops in prop::collection::vec((0u8..8, 0u64..4096, any::<bool>()), 1..400),
    ) {
        const PAGE_BITS: u32 = 8;
        let cfg = [
            CacheConfig::new(128, 32, 1),
            CacheConfig::new(256, 32, 2),
            CacheConfig::new(512, 32, 4),
            CacheConfig::new(1024, 64, 2),
        ][geometry];
        let (mut flat, mut reference) = (Cache::new(cfg), RefCache::new(cfg));
        for &(op, addr, write) in &ops {
            match op {
                0..=5 => prop_assert_eq!(
                    flat.access(addr, write), reference.access(addr, write), "access {:#x}", addr),
                6 => {
                    let line = flat.line_of(addr);
                    prop_assert_eq!(
                        flat.invalidate_line(line), reference.invalidate_line(line), "line {}", line);
                }
                _ => {
                    let ppage = addr >> PAGE_BITS;
                    prop_assert_eq!(
                        flat.invalidate_page(ppage, PAGE_BITS),
                        reference.invalidate_page(ppage, PAGE_BITS),
                        "page {}", ppage);
                }
            }
            prop_assert_eq!(flat.contains(addr), reference.contains(addr));
            prop_assert_eq!(flat.resident(), reference.resident());
        }
        for addr in (0..4096).step_by(32) {
            prop_assert_eq!(flat.contains(addr), reference.contains(addr), "line at {:#x}", addr);
        }
    }

    /// Random histories of probes, shootdowns and flushes hit and miss on
    /// the chained TLB exactly as on the scan-only reference (so the same
    /// entry was evicted every time), a hit returns the translation of the
    /// page's latest fill, and the two stay the same size — over pages that
    /// share hash buckets, a one-entry TLB and sizes that are not powers of
    /// two. A third of the probes go through `hit_at` first, at the
    /// position the page was last seen at or at an arbitrary one: a
    /// remembered position may only ever shortcut the lookup, and a refused
    /// one must leave the recency order alone.
    #[test]
    fn hinted_tlb_matches_scan_reference(
        capacity in prop_oneof![Just(1usize), Just(2), Just(3), Just(7), Just(8), Just(64)],
        ops in prop::collection::vec((0u8..16, 0u64..6, 0u64..24, any::<u16>()), 1..600),
    ) {
        let mut tlb = Tlb::new(capacity);
        let mut reference = RefTlb { entries: Vec::new(), capacity, tick: 0 };
        let mut fills = std::collections::HashMap::new();
        let mut seen_at = std::collections::HashMap::new();
        for (step, &(op, low, high, garbage)) in ops.iter().enumerate() {
            let vpage = low + 256 * high;
            match op {
                0..=12 => {
                    let hit = reference.access(vpage);
                    let guess = match op {
                        0..=8 => None,
                        9 | 10 => seen_at.get(&vpage).copied(),
                        _ => Some(garbage % 80),
                    };
                    let found = guess
                        .and_then(|pos| tlb.hit_at(pos, vpage))
                        .or_else(|| tlb.lookup(vpage));
                    match found {
                        Some(m) => {
                            prop_assert!(hit, "step {}: page {} hit, reference missed", step, vpage);
                            prop_assert_eq!(Some(&m), fills.get(&vpage));
                        }
                        None => {
                            prop_assert!(!hit, "step {}: page {} missed, reference hit", step, vpage);
                            let m = mapping_of(vpage, step as u64);
                            tlb.fill(vpage, m);
                            fills.insert(vpage, m);
                        }
                    }
                    seen_at.insert(vpage, tlb.last_pos());
                }
                13 | 14 => {
                    tlb.invalidate(vpage);
                    reference.entries.retain(|e| e.0 != vpage);
                }
                _ => {
                    tlb.flush();
                    reference.entries.clear();
                }
            }
            prop_assert_eq!(tlb.len(), reference.entries.len());
            prop_assert_eq!(tlb.is_empty(), reference.entries.is_empty());
        }
    }

    /// A TLB hit never consults the page table, so every path that changes
    /// a page's mapping must shoot it out of every TLB. Accesses from 4–8
    /// processors interleave with explicit placement, range remaps and
    /// migration-daemon epochs; after each of those, the next access of
    /// every page whose mapping changed, from every processor, must miss
    /// the TLB and fill from memory classified local or remote by the
    /// *new* home. (In a debug build every TLB hit along the way is also
    /// checked against the page table by `MachineShard`'s own assertion.)
    #[test]
    fn remapped_pages_miss_every_tlb_and_fill_from_the_new_home(
        ops in prop::collection::vec(
            (0u8..10, 0usize..8, 0u64..PAGES, 0u64..128, any::<bool>(), 0usize..4), 1..160),
        nprocs in 4usize..9,
    ) {
        let mut cfg = MachineConfig::small_test(nprocs);
        cfg.migration = MigrationPolicy::threshold(2);
        // Epochs fire only where the history says, never under the checks.
        cfg.migration_epoch = u64::MAX;
        let page = cfg.page_size as u64;
        let mut m = Machine::new(cfg);
        let base = m.alloc_pages((PAGES * page) as usize);
        let (nprocs, n_nodes) = (m.nprocs(), m.config().n_nodes);
        let mappings = |m: &Machine| -> Vec<(Option<u64>, Option<NodeId>)> {
            (0..PAGES)
                .map(|pg| (m.frame_of(base / page + pg), m.home_of(base + pg * page)))
                .collect()
        };
        for &(op, proc, pg, word, write, node) in &ops {
            let proc = ProcId(proc % nprocs);
            let before = mappings(&m);
            match op {
                0..=6 => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    m.access(proc, base + pg * page + 8 * word, kind);
                    continue;
                }
                7 => {
                    m.place_page(base / page + pg, NodeId(node % n_nodes));
                }
                8 => {
                    let len = (1 + word % 3).min(PAGES - pg) * page;
                    m.remap_range(proc, base + pg * page, len as usize, |i| {
                        NodeId((node + i as usize) % n_nodes)
                    });
                }
                _ => m.migration_epoch(),
            }
            let after = mappings(&m);
            for pg in (0..PAGES).filter(|&pg| before[pg as usize] != after[pg as usize]) {
                let home = after[pg as usize].1.expect("a changed mapping is a mapping");
                for q in (0..nprocs).map(ProcId) {
                    let c0 = *m.counters(q);
                    m.access(q, base + pg * page + 8 * word, AccessKind::Read);
                    let c1 = m.counters(q);
                    prop_assert_eq!(c1.tlb_misses, c0.tlb_misses + 1, "{} kept page {}", q, pg);
                    prop_assert_eq!(c1.page_faults, c0.page_faults);
                    let local = u64::from(m.node_of(q) == home);
                    prop_assert_eq!(
                        (c1.local_misses - c0.local_misses, c1.remote_misses - c0.remote_misses),
                        (local, 1 - local),
                        "{} filled page {} (home {:?}) from the wrong place", q, pg, home);
                }
            }
        }
    }
}

/// Words in the region the cursor proptest shares.
const STREAM_WORDS: u64 = 2048;

proptest! {
    /// `access_at` is `access` whatever the cursor holds. Twin machines
    /// take one random history from 4–8 processors sharing sixteen pages (twice the TLB, twice the L2) —
    /// loads and stores (stores by other processors invalidate lines a
    /// cursor remembers), `remap_range` of a touched page (shooting down
    /// the TLB entry and the lines a cursor remembers) — one through
    /// `access_at` with a cursor drawn per access from a small pool shared
    /// by every processor and address, or made of arbitrary bits, the
    /// other through `access`. They must agree on every access's cost and,
    /// at the end, on every counter and clock, every line's sharers, and —
    /// through the snapshots, which hold every TLB entry and cache way with
    /// its recency — on all remaining state, exact and at 1/2 sampling.
    #[test]
    fn cursor_accesses_are_plain_accesses(
        ops in prop::collection::vec(
            (0usize..8, 0u8..12, 0u64..STREAM_WORDS, 0usize..6, any::<u16>(), any::<u32>()), 1..300),
        nprocs in 4usize..9,
        sampled in any::<bool>(),
    ) {
        let mut cfg = MachineConfig::small_test(nprocs);
        if sampled {
            cfg.sampling = SamplingConfig::new(2).with_seed(1);
        }
        let page = cfg.page_size as u64;
        let line = cfg.l2.line_size as u64;
        let (mut with_cursors, mut plain) = (Machine::new(cfg.clone()), Machine::new(cfg));
        let base = with_cursors.alloc_pages(STREAM_WORDS as usize * 8);
        prop_assert_eq!(base, plain.alloc_pages(STREAM_WORDS as usize * 8));
        let (nprocs, n_nodes) = (plain.nprocs(), plain.config().n_nodes);
        let mut pool = [LineCursor::default(); 4];
        for &(proc, op, word, which, tlb_pos, l1_way) in &ops {
            let p = ProcId(proc % nprocs);
            let addr = base + 8 * word;
            if op == 11 {
                for m in [&mut with_cursors, &mut plain] {
                    m.remap_range(p, addr, 8, |_| NodeId(which % n_nodes));
                }
                continue;
            }
            let kind = if op < 6 { AccessKind::Read } else { AccessKind::Write };
            let mut garbage = LineCursor::from_raw(tlb_pos % 16, l1_way % 64);
            let cur = pool.get_mut(which).unwrap_or(&mut garbage);
            let cost = with_cursors.serial(p, |s| s.access_at(cur, addr, kind));
            prop_assert_eq!(cost, plain.access(p, addr, kind), "{} {:?} word {}", p, kind, word);
        }
        for p in (0..nprocs).map(ProcId) {
            prop_assert_eq!(with_cursors.counters(p), plain.counters(p), "{} counters", p);
        }
        for w in (0..STREAM_WORDS).step_by((line / 8) as usize) {
            let vpage = (base + 8 * w) / page;
            let frame = plain.frame_of(vpage);
            prop_assert_eq!(with_cursors.frame_of(vpage), frame);
            if let Some(frame) = frame {
                let paddr = frame * page + (base + 8 * w) % page;
                prop_assert_eq!(with_cursors.line_sharers(paddr), plain.line_sharers(paddr));
            }
        }
        prop_assert_eq!(with_cursors.total_invalidations(), plain.total_invalidations());
        prop_assert_eq!(with_cursors.sampling_summary(), plain.sampling_summary());
        prop_assert_eq!(
            format!("{:?}", with_cursors.snapshot()),
            format!("{:?}", plain.snapshot())
        );
    }
}
