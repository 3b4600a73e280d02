//! The machine proper: processors, memory, coherence, and the cost model.
//!
//! [`Machine`] ties the components together and exposes the two interfaces
//! the rest of the system uses:
//!
//! * the **runtime** interface — [`Machine::alloc`], [`Machine::place_page`],
//!   [`Machine::place_range`] (the page-placement "system call" of
//!   Section 4.2 of the paper) and [`Machine::remap_range`] (dynamic
//!   redistribution, Section 3.3);
//! * the **execution** interface — [`Machine::read_f64`] /
//!   [`Machine::write_f64`] and friends, which move real data *and* charge
//!   the full memory-hierarchy cost of the access to the issuing processor,
//!   plus [`Machine::charge`] for ALU/FPU op costs.
//!
//! All time lives in the per-processor cycle counters; a parallel-region
//! scheduler reads them with [`Machine::cycles`] and levels them with
//! [`Machine::set_cycles`] at barriers.
//!
//! The machine is split into per-processor state (caches, TLB, counters,
//! clock) and shared state ([`crate::shared::SharedState`]: page table,
//! directory, data store), all plain owned data. A [`MachineShard`] — the
//! whole machine, borrowed to act as one processor — *is* the access
//! pipeline: the five timed steps, the typed loads and stores and the
//! bulk-run walker are its methods and exist nowhere else. A writer's
//! coherence action purges the other sharers' caches at once, so
//! invalidations are synchronous. `Machine`'s own per-processor methods
//! are each the shard operation of the same name wrapped in
//! [`Machine::serial`], which counts its accesses toward the migration
//! epoch. Bulk runs batch only with migration off; with it on they fall
//! back to one `serial` step per element, so epochs fire on the same
//! access they would in the plain loop.

use std::cmp::Ordering;

use crate::cache::{Cache, Probe};
use crate::config::MachineConfig;
use crate::counters::CounterSet;
use crate::migrate::MigrationStats;
use crate::pagetable::{Mapping, PageTable, Translate};
use crate::profile::{AccessTag, AttributionTable, FillLevel, UNTAGGED_SYM};
use crate::sample::{SampleStats, SamplingConfig, SamplingSummary};
use crate::shared::{SharedState, WordMem};
use crate::tlb::Tlb;
use crate::topology::{hops, NodeId};
use crate::ProcId;

/// A virtual byte address in the simulated process.
pub type VAddr = u64;

/// Kind of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A run of uniformly-strided element accesses, handed to the machine in
/// one call so the per-access dispatch and lookup overhead amortizes.
/// Element `i` touches `base + i*stride`; every access keeps full
/// per-access semantics (coherence, migration counting),
/// so a run is observationally identical to the equivalent access loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRun {
    /// Address of the first element.
    pub base: VAddr,
    /// Byte distance between consecutive elements (may be negative).
    pub stride: i64,
    /// Number of elements in the run.
    pub count: u64,
    /// Whether the run loads or stores.
    pub kind: AccessKind,
}

impl AccessRun {
    /// Address of the `i`-th element of the run.
    #[inline]
    pub fn addr(&self, i: u64) -> VAddr {
        (self.base as i64).wrapping_add(self.stride.wrapping_mul(i as i64)) as u64
    }
}

/// Where a reference stream found its page and its line last: the TLB
/// position and the L1 way, remembered by the caller of
/// [`MachineShard::access_at`] from one access of the stream to the next.
///
/// Both are guesses validated on use — like the executor's tile hints —
/// so any value is a correct cursor for any access: a fresh
/// (`Default`) one, a stale one, one shared between streams. A wrong
/// guess costs the lookup it would have saved, never a different
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCursor {
    tlb_pos: u16,
    l1_way: u32,
}

impl Default for LineCursor {
    /// A cursor that remembers nothing.
    fn default() -> Self {
        LineCursor {
            tlb_pos: u16::MAX,
            l1_way: u32::MAX,
        }
    }
}

impl LineCursor {
    /// A cursor with arbitrary contents (tests: every value must be
    /// harmless).
    pub fn from_raw(tlb_pos: u16, l1_way: u32) -> Self {
        LineCursor { tlb_pos, l1_way }
    }
}

/// One simulated processor: private caches, TLB and counters.
#[derive(Debug, Clone)]
struct Processor {
    node: NodeId,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    counters: CounterSet,
    /// Tag the executor stamped on subsequent accesses (profiling).
    cur_tag: AccessTag,
    /// Private attribution table; `Some` iff profiling is enabled. Boxed so
    /// the disabled case costs one pointer of state and one branch per
    /// pipeline exit.
    attr: Option<Box<AttributionTable>>,
    /// Sampling state; `Some` iff set sampling is active (rate > 1). Boxed
    /// for the same reason as `attr`: the exact path pays one branch.
    sample: Option<Box<SampleStats>>,
}

impl Processor {
    /// Credit a finished access to the current tag (no-op when profiling
    /// is off).
    #[inline]
    fn note(&mut self, kind: AccessKind, tlb_miss: bool, level: FillLevel) {
        if let Some(attr) = self.attr.as_deref_mut() {
            attr.note_access(self.cur_tag, kind, tlb_miss, level);
        }
    }

    /// Inclusion: drop the L1 lines inside L2 line `dir_line`.
    fn purge_l1(&mut self, cfg: &MachineConfig, dir_line: u64) {
        let (l1, l2) = (cfg.l1.line_size as u64, cfg.l2.line_size as u64);
        for byte in (dir_line * l2..(dir_line + 1) * l2).step_by(l1 as usize) {
            self.l1.invalidate_line(byte >> l1.trailing_zeros());
        }
    }
}

/// Running totals of explicit redistribution work (`c$redistribute`,
/// `c$resize_team`): pages remapped and the cycles charged for them,
/// regardless of whether the naive mover or the round scheduler did the
/// moving. Distinct from [`MigrationStats`], which counts only what the
/// reactive OS daemon moves on its own.
#[derive(Debug, Clone, Default)]
pub struct RedistStats {
    /// Pages remapped by redistribution operations.
    pub pages: u64,
    /// Cycles charged for redistribution copies and TLB shootdowns.
    pub cycles: u64,
    /// Scheduled rounds executed (0 under the naive mover).
    pub rounds: u64,
}

/// The simulated CC-NUMA multiprocessor.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    procs: Vec<Processor>,
    shared: SharedState,
    brk: u64,
    page_bits: u32,
    /// Migration-engine totals (empty unless migration is on).
    mig: MigrationStats,
    /// Redistribution totals (naive and scheduled movers both record).
    redist: RedistStats,
    /// Serial accesses since the last migration epoch.
    epoch_accesses: u64,
    /// Suspend access-count epochs (the executor pauses them while it
    /// simulates team members one at a time: mid-region counters are
    /// dominated by whichever member is currently running, and migrating
    /// on them would chase each member in turn — the daemon must wait
    /// for the join).
    epochs_paused: bool,
    /// Interned array names for access tagging; index = `AccessTag::sym`.
    symbols: Vec<String>,
}

/// A deep copy of a [`Machine`]'s complete state, captured by
/// [`Machine::snapshot`] and written back by [`Machine::restore`].
///
/// Snapshots are plain owned data, so they are `Send`/`Sync`/`Clone` and
/// can sit in a pool shared across daemon worker threads.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    cfg: MachineConfig,
    procs: Vec<Processor>,
    shared: SharedState,
    brk: u64,
    mig: MigrationStats,
    redist: RedistStats,
    epoch_accesses: u64,
    epochs_paused: bool,
    symbols: Vec<String>,
}

impl MachineSnapshot {
    /// The configuration of the machine this snapshot was taken from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }
}

impl Machine {
    /// Build a machine from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let page_bits = cfg.page_size.trailing_zeros();
        let n_colors = (cfg.l2.size / cfg.l2.assoc / cfg.page_size).max(1);
        let sample = (!cfg.sampling.is_exact())
            .then(|| Box::new(SampleStats::new(&cfg.sampling, &cfg.l2)));
        let procs: Vec<Processor> = (0..cfg.nprocs())
            .map(|p| Processor {
                node: NodeId(p / cfg.procs_per_node),
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
                tlb: Tlb::new(cfg.tlb_entries),
                counters: CounterSet::new(),
                cur_tag: AccessTag::default(),
                attr: None,
                sample: sample.clone(),
            })
            .collect();
        let pt = PageTable::new(
            cfg.n_nodes,
            cfg.frames_per_node,
            n_colors,
            cfg.page_coloring,
            page_bits,
        );
        let shared = SharedState::new(pt, cfg.page_size / cfg.l2.line_size, cfg.n_nodes);
        Machine {
            cfg,
            procs,
            shared,
            brk: 64, // keep address 0 unmapped
            page_bits,
            mig: MigrationStats::default(),
            redist: RedistStats::default(),
            epoch_accesses: 0,
            epochs_paused: false,
            symbols: Vec::new(),
        }
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Total number of processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Node a processor lives on.
    pub fn node_of(&self, proc: ProcId) -> NodeId {
        self.procs[proc.0].node
    }

    /// Bump-allocate `bytes` of virtual address space with the given
    /// alignment (rounded up to at least 8). The region is *not* mapped;
    /// pages fault on first access, or are placed explicitly.
    pub fn alloc(&mut self, bytes: usize, align: usize) -> VAddr {
        let align = align.max(8) as u64;
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + bytes as u64;
        self.shared.mem.grow_to(self.brk);
        self.shared.refs.grow_to((self.brk >> self.page_bits) + 1);
        base
    }

    /// Allocate a page-aligned region (arrays that will be distributed).
    pub fn alloc_pages(&mut self, bytes: usize) -> VAddr {
        self.alloc(bytes, self.cfg.page_size)
    }

    // ---------------------------------------------------------------
    // Page placement (the runtime "system calls").
    // ---------------------------------------------------------------

    /// Place virtual page `vpage` on `node`, remapping if already mapped
    /// elsewhere (with full TLB/cache shoot-down). Returns `true` if a
    /// remap occurred.
    ///
    /// Explicit placement also *pins* the page: the reactive-migration
    /// daemon skips it from then on (IRIX semantics — the OS never
    /// second-guesses placement the program asked for, so directive-placed
    /// arrays cannot be dragged around by reference-counter noise).
    pub fn place_page(&mut self, vpage: u64, node: NodeId) -> bool {
        self.shared.pt.pin(vpage);
        self.remap_page(vpage, node)
    }

    /// Remap `vpage` to `node` without pinning it (the migration daemon's
    /// path; explicit placement wraps this in [`Machine::place_page`]).
    fn remap_page(&mut self, vpage: u64, node: NodeId) -> bool {
        let old = self.shared.pt.lookup(vpage);
        let (_m, remapped) = self.shared.pt.place(vpage, node);
        if remapped {
            let old = old.expect("remap implies prior mapping");
            self.retire_frame(vpage, old.frame);
        }
        remapped
    }

    /// Shoot down every trace of a page's released frame: TLB entries for
    /// the page, cached lines of the old frame in each processor, and the
    /// frame's directory state. The *only* remap cleanup path — explicit
    /// placement, redistribution and the migration engine all funnel
    /// through it, so a page that later reuses the frame can never
    /// inherit stale sharers (or phantom invalidations).
    fn retire_frame(&mut self, vpage: u64, old_frame: u64) {
        for p in &mut self.procs {
            p.tlb.invalidate(vpage);
            p.l1.invalidate_page(old_frame, self.page_bits);
            p.l2.invalidate_page(old_frame, self.page_bits);
        }
        let line_bytes = self.cfg.l2.line_size as u64;
        let first_line = (old_frame << self.page_bits) / line_bytes;
        let lines_per_page = (1u64 << self.page_bits) / line_bytes;
        for line in first_line..first_line + lines_per_page.max(1) {
            self.shared.dir.clear_line(line);
        }
    }

    /// Place every page overlapping `[base, base+len)` on `node`.
    /// Returns the number of pages that were *re*mapped.
    pub fn place_range(&mut self, base: VAddr, len: usize, node: NodeId) -> usize {
        if len == 0 {
            return 0;
        }
        let first = base >> self.page_bits;
        let last = (base + len as u64 - 1) >> self.page_bits;
        let mut remapped = 0;
        for vpage in first..=last {
            if self.place_page(vpage, node) {
                remapped += 1;
            }
        }
        remapped
    }

    /// Remap a range under a caller-supplied page→node map (dynamic
    /// redistribution). `node_for` receives the page index *within the
    /// range* (0-based). Charges `pages × remap_cost` cycles to `proc` and
    /// returns the page count.
    pub fn remap_range(
        &mut self,
        proc: ProcId,
        base: VAddr,
        len: usize,
        mut node_for: impl FnMut(u64) -> NodeId,
    ) -> usize {
        if len == 0 {
            return 0;
        }
        let first = base >> self.page_bits;
        let last = (base + len as u64 - 1) >> self.page_bits;
        let mut n = 0;
        for vpage in first..=last {
            self.place_page(vpage, node_for(vpage - first));
            n += 1;
        }
        // Remap cost: a TLB shootdown + copy per page.
        let cost = n as u64 * (self.cfg.lat.page_fault + 2 * self.cfg.lat.tlb_miss);
        self.charge(proc, cost);
        self.redist.pages += n as u64;
        self.redist.cycles += cost;
        n
    }

    /// Apply one round of a redistribution schedule: remap (and pin) each
    /// page of `moves` (`(vpage, from, to)`), then charge the round's
    /// cost to **every** processor — redistribution is a global pause
    /// point, like a migration epoch, so the team's clocks stay level.
    ///
    /// The round is priced for node-disjoint concurrency: the planner
    /// guarantees no node sources or sinks more than its fan bound per
    /// round, so the bulk copies overlap and the round costs its
    /// *longest* hop-aware page transfer ([`crate::CostModel::page_move`]) plus
    /// a single coalesced TLB shootdown across the team, instead of the
    /// naive mover's per-page fault + shootdown. Returns the cycles
    /// charged.
    pub fn apply_redist_round(&mut self, moves: &[(u64, NodeId, NodeId)]) -> u64 {
        if moves.is_empty() {
            return 0;
        }
        let cm = self.cfg.cost_model();
        let mut longest = 0u64;
        for &(vpage, from, to) in moves {
            self.place_page(vpage, to);
            longest = longest.max(cm.page_move(from, to));
        }
        // Coalesced shootdown: every processor flushes its stale
        // translations in parallel during the pause, so the round's
        // duration grows by one broadcast + acknowledge, not by a
        // per-processor sum.
        let cost = longest + 2 * self.cfg.lat.tlb_miss;
        for p in &mut self.procs {
            p.counters.cycles += cost;
        }
        self.redist.pages += moves.len() as u64;
        self.redist.cycles += cost;
        self.redist.rounds += 1;
        cost
    }

    /// Home node of the page containing `addr`, if mapped.
    pub fn home_of(&self, addr: VAddr) -> Option<NodeId> {
        let vpage = addr >> self.page_bits;
        self.shared.pt.lookup(vpage).map(|m| m.node)
    }

    /// Pages currently resident on each node (placement histogram).
    pub fn pages_per_node(&self) -> Vec<usize> {
        self.shared.pt.pages_per_node()
    }

    // ---------------------------------------------------------------
    // Timed data access: shard operations, one at a time.
    // ---------------------------------------------------------------

    /// `proc`'s shard of the machine.
    #[inline]
    fn shard(&mut self, proc: ProcId) -> MachineShard<'_> {
        let (before, rest) = self.procs.split_at_mut(proc.0);
        let (p, after) = rest
            .split_first_mut()
            .unwrap_or_else(|| panic!("no processor {proc}"));
        MachineShard {
            cfg: &self.cfg,
            shared: &mut self.shared,
            page_bits: self.page_bits,
            proc,
            p,
            before,
            after,
        }
    }

    /// Run one [`MachineShard`] operation as `proc` — every
    /// per-processor method below is this around the shard method of the
    /// same name. The accesses `op` performed count toward the migration
    /// epoch ([`MachineConfig::migration_epoch`]) unless epochs are
    /// paused. The epoch fires after `op`, so an `op` is one epoch step
    /// however many accesses it makes.
    #[inline(always)]
    pub fn serial<R>(&mut self, proc: ProcId, op: impl FnOnce(&mut MachineShard<'_>) -> R) -> R {
        let before = self.procs[proc.0].counters.accesses();
        let r = op(&mut self.shard(proc));
        if !self.cfg.migration.is_off() && !self.epochs_paused {
            let n = self.procs[proc.0].counters.accesses() - before;
            self.epoch_accesses += n;
            if n > 0 && self.epoch_accesses >= self.cfg.migration_epoch {
                self.migration_epoch();
            }
        }
        r
    }

    /// A bulk [`AccessRun`] from serial code: `count` timed accesses of
    /// uniform byte stride, each followed by `data(mem, addr, index)`,
    /// observationally identical to the equivalent loop of
    /// [`Machine::access`] calls. With migration off the run is one shard
    /// operation through the page-segmented batch walker; with migration
    /// on it falls back to that loop.
    fn serial_run(
        &mut self,
        proc: ProcId,
        run: &AccessRun,
        mut data: impl FnMut(&mut WordMem, VAddr, u64),
    ) -> u64 {
        if self.cfg.migration.is_off() {
            return self.serial(proc, |s| s.run_batched(run, data));
        }
        // Migration epochs fire on individual access counts; batching
        // would move the epoch boundaries. Keep the per-element loop.
        let mut total = 0;
        for i in 0..run.count {
            let addr = run.addr(i);
            total += self.access(proc, addr, run.kind);
            data(&mut self.shared.mem, addr, i);
        }
        total
    }

    /// Perform a timed access of the hierarchy; returns the cycle cost
    /// (already charged to `proc`).
    pub fn access(&mut self, proc: ProcId, addr: VAddr, kind: AccessKind) -> u64 {
        self.serial(proc, |s| s.access(addr, kind))
    }

    /// Timed load of an `f64`. Returns `(value, cycles)`.
    ///
    /// # Panics
    ///
    /// This and the other typed loads/stores panic if `addr` is outside
    /// any allocated region.
    pub fn read_f64(&mut self, proc: ProcId, addr: VAddr) -> (f64, u64) {
        self.serial(proc, |s| s.read_f64(addr))
    }

    /// Timed store of an `f64`. Returns the cycle cost.
    pub fn write_f64(&mut self, proc: ProcId, addr: VAddr, v: f64) -> u64 {
        self.serial(proc, |s| s.write_f64(addr, v))
    }

    /// Timed load of an `i64`.
    pub fn read_i64(&mut self, proc: ProcId, addr: VAddr) -> (i64, u64) {
        self.serial(proc, |s| s.read_i64(addr))
    }

    /// Timed store of an `i64`.
    pub fn write_i64(&mut self, proc: ProcId, addr: VAddr, v: i64) -> u64 {
        self.serial(proc, |s| s.write_i64(addr, v))
    }

    /// Perform a bulk [`AccessRun`] without moving data. Returns the
    /// summed cycle cost.
    pub fn access_run(&mut self, proc: ProcId, run: &AccessRun) -> u64 {
        self.serial_run(proc, run, |_, _, _| ())
    }

    /// Bulk timed store of `f64` values along an [`AccessRun`]; element
    /// `i` of `vals` goes to the run's `i`-th address, in order.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the run or any address is outside
    /// an allocated region.
    pub fn write_run_f64(&mut self, proc: ProcId, run: &AccessRun, vals: &[f64]) -> u64 {
        debug_assert_eq!(run.kind, AccessKind::Write);
        self.serial_run(proc, run, |mem, a, i| {
            mem.store_u64(a, vals[i as usize].to_bits());
        })
    }

    /// Bulk timed store of one raw 8-byte word to every element of an
    /// [`AccessRun`]; see [`MachineShard::fill_run_u64`].
    pub fn fill_run_u64(&mut self, proc: ProcId, run: &AccessRun, word: u64) -> u64 {
        debug_assert_eq!(run.kind, AccessKind::Write);
        self.serial_run(proc, run, |mem, a, _| mem.store_u64(a, word))
    }

    /// Suspend (or resume) access-count migration epochs. The executor
    /// pauses them while it simulates a parallel team one member at a
    /// time and fires the daemon itself at the join, where the counters
    /// reflect the whole team's epoch rather than one member's replay.
    pub fn pause_epochs(&mut self, on: bool) {
        self.epochs_paused = on;
    }

    /// Switch the reactive migration policy (e.g. from
    /// `ExecOptions::migration`). Takes effect from the next access.
    pub fn set_migration(&mut self, policy: crate::MigrationPolicy) {
        self.cfg.migration = policy;
    }

    /// Switch systematic cache-set sampling (e.g. from
    /// `ExecOptions::sampling`). Call before the run: it resets the
    /// per-processor sampling state, so counters accrued earlier would
    /// skew the extrapolation.
    ///
    /// # Errors
    ///
    /// Returns a description of the geometry condition the rate violates
    /// (see [`SamplingConfig::validate_geometry`]).
    pub fn set_sampling(&mut self, s: SamplingConfig) -> Result<(), String> {
        s.validate_geometry(&self.cfg.l1, &self.cfg.l2)?;
        self.cfg.sampling = s;
        let sample = (!s.is_exact()).then(|| Box::new(SampleStats::new(&s, &self.cfg.l2)));
        for p in &mut self.procs {
            p.sample = sample.clone();
        }
        Ok(())
    }

    /// Summarise the run's sampling: coverage, extrapolated miss counts
    /// and approximate 95% confidence intervals. Meaningful after the run
    /// finishes; for an exact machine it restates the measured counters
    /// with zero-width intervals.
    pub fn sampling_summary(&self) -> SamplingSummary {
        let totals = self.total_counters();
        let merged = self.procs.iter().filter_map(|p| p.sample.as_deref()).fold(
            None::<SampleStats>,
            |acc, s| match acc {
                None => Some(s.clone()),
                Some(mut m) => {
                    m.merge(s);
                    Some(m)
                }
            },
        );
        SamplingSummary::build(&self.cfg, &totals, merged.as_ref())
    }

    /// Deep-copy the entire machine state — configuration, every
    /// processor's caches/TLB/counters, page table, directory, word
    /// store, reference counters, allocator brk and migration totals —
    /// into a [`MachineSnapshot`].
    ///
    /// A later [`Machine::restore`] returns the machine to exactly this
    /// state: a run replayed from the restored machine is bit-identical
    /// (counters, cycles, captures) to one replayed from a fresh clone.
    /// The daemon's machine pool snapshots each pristine machine once
    /// and restores it after every run instead of re-allocating.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            cfg: self.cfg.clone(),
            procs: self.procs.clone(),
            shared: self.shared.clone(),
            brk: self.brk,
            mig: self.mig.clone(),
            redist: self.redist.clone(),
            epoch_accesses: self.epoch_accesses,
            epochs_paused: self.epochs_paused,
            symbols: self.symbols.clone(),
        }
    }

    /// Overwrite this machine's state from a snapshot taken on a machine
    /// with the same geometry (node and processor count). Reuses existing
    /// allocations where shapes match, so
    /// restoring a pooled machine is much cheaper than `Machine::new`.
    ///
    /// The configuration is restored too: `run` applies per-request
    /// migration/sampling options by mutating the config, and a pooled
    /// machine must not leak one request's options into the next.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's geometry differs from this machine's.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        assert_eq!(
            snap.procs.len(),
            self.procs.len(),
            "processor count mismatch between snapshot and machine"
        );
        self.cfg.clone_from(&snap.cfg);
        self.page_bits = self.cfg.page_size.trailing_zeros();
        for (p, s) in self.procs.iter_mut().zip(&snap.procs) {
            p.clone_from(s);
        }
        self.shared.restore(&snap.shared);
        self.brk = snap.brk;
        self.mig.clone_from(&snap.mig);
        self.redist.clone_from(&snap.redist);
        self.epoch_accesses = snap.epoch_accesses;
        self.epochs_paused = snap.epochs_paused;
        self.symbols.clone_from(&snap.symbols);
    }

    /// Run one migration epoch *now*: scan the per-page reference
    /// counters, migrate every page the policy says should move, charge
    /// the copy + TLB-shootdown cycles, then decay the counters.
    ///
    /// The serial access path calls this every
    /// [`MachineConfig::migration_epoch`] accesses; the executor calls it
    /// at parallel-team join points, where the counters hold the whole
    /// team's references. A no-op when migration is off.
    pub fn migration_epoch(&mut self) {
        self.epoch_accesses = 0;
        let policy = self.cfg.migration;
        if policy.is_off() {
            return;
        }
        // Deterministic scan: ascending virtual page over the pages the
        // counter table covers (== every page ever allocated).
        let pages = self.shared.refs.pages();
        let mut moves: Vec<(u64, NodeId, NodeId)> = Vec::new();
        {
            let pt = &self.shared.pt;
            for vpage in 0..pages {
                let Some(mapping) = pt.lookup(vpage) else {
                    continue;
                };
                // Explicitly placed pages are off limits (see
                // [`Machine::place_page`]).
                if pt.is_pinned(vpage) {
                    continue;
                }
                let counts = self.shared.refs.counts(vpage);
                if let Some(target) = policy.decide(&counts, mapping.node) {
                    moves.push((vpage, mapping.node, target));
                }
            }
        }
        let cm = self.cfg.cost_model();
        let nprocs = self.procs.len();
        for &(vpage, from, to) in &moves {
            self.remap_page(vpage, to);
            // The whole machine observes the move: every processor eats
            // the page copy + shootdown latency (the daemon runs at a
            // global pause point), which keeps team clocks level and the
            // charge deterministic.
            let cost = cm.page_migration(from, to, nprocs);
            for p in &mut self.procs {
                p.counters.cycles += cost;
            }
            self.mig.pages_migrated += 1;
            self.mig.migration_cycles += cost;
            *self.mig.per_page.entry(vpage).or_insert(0) += 1;
            self.shared.refs.reset_page(vpage);
        }
        // Aging: halve what remains so decisions track recent behaviour.
        let mut moved = moves.iter().map(|m| m.0).peekable();
        for vpage in 0..pages {
            if moved.peek() == Some(&vpage) {
                moved.next();
                continue;
            }
            self.shared.refs.decay_page(vpage);
        }
    }

    /// Pages migrated by the OS daemon (0 unless migration is enabled).
    pub fn migrations(&self) -> u64 {
        self.mig.pages_migrated
    }

    /// Pages migrated by the OS daemon (alias of [`Machine::migrations`]
    /// matching the report/profile field name).
    pub fn pages_migrated(&self) -> u64 {
        self.mig.pages_migrated
    }

    /// Cycles charged for page copies and TLB shootdowns so far.
    pub fn migration_cycles(&self) -> u64 {
        self.mig.migration_cycles
    }

    /// Pages remapped by redistribution operations (naive or scheduled).
    pub fn redist_pages(&self) -> u64 {
        self.redist.pages
    }

    /// Cycles charged for redistribution copies and shootdowns so far.
    pub fn redist_cycles(&self) -> u64 {
        self.redist.cycles
    }

    /// Scheduled redistribution rounds executed so far.
    pub fn redist_rounds(&self) -> u64 {
        self.redist.rounds
    }

    /// Whether `vpage` is pinned against reactive migration (explicit
    /// placement and redistribution both pin).
    pub fn page_pinned(&self, vpage: u64) -> bool {
        self.shared.pt.is_pinned(vpage)
    }

    /// Migration count per virtual page, ascending by page (feeds the
    /// profiler's per-array attribution).
    pub fn migration_pages(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.mig.per_page.iter().map(|(&p, &n)| (p, n)).collect();
        v.sort_unstable();
        v
    }

    /// The migration daemon's reference-counter table (for invariant
    /// checks and tests).
    pub fn ref_counters(&self) -> &crate::RefCounters {
        &self.shared.refs
    }

    /// Directory sharer set of the L2 line holding physical byte
    /// address `paddr` (for stale-sharer invariant checks).
    pub fn line_sharers(&self, paddr: u64) -> Vec<ProcId> {
        self.shared
            .dir
            .sharers(paddr >> self.cfg.l2.line_size.trailing_zeros())
    }

    /// Current physical frame of a virtual page, if mapped.
    pub fn frame_of(&self, vpage: u64) -> Option<u64> {
        self.shared.pt.lookup(vpage).map(|m| m.frame)
    }

    /// Misses serviced by each node's memory since construction. A
    /// parallel-region scheduler uses deltas of this to bound region time
    /// by the bottleneck node's service demand
    /// (`misses × lat.mem_occupancy`).
    pub fn node_served(&self) -> Vec<u64> {
        self.shared.node_served.clone()
    }

    /// Untimed read of the backing store (verification / debugging).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside any allocated region.
    pub fn peek_f64(&self, addr: VAddr) -> f64 {
        f64::from_bits(self.shared.mem.load_u64(addr))
    }

    /// Untimed write of the backing store (test setup).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside any allocated region.
    pub fn poke_f64(&mut self, addr: VAddr, v: f64) {
        self.shared.mem.store_u64(addr, v.to_bits());
    }

    /// Untimed read of an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside any allocated region.
    pub fn peek_i64(&self, addr: VAddr) -> i64 {
        self.shared.mem.load_u64(addr) as i64
    }

    /// Untimed write of an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside any allocated region.
    pub fn poke_i64(&mut self, addr: VAddr, v: i64) {
        self.shared.mem.store_u64(addr, v as u64);
    }

    // ---------------------------------------------------------------
    // Time.
    // ---------------------------------------------------------------

    /// Charge `cycles` of computation to `proc`.
    pub fn charge(&mut self, proc: ProcId, cycles: u64) {
        self.shard(proc).charge(cycles);
    }

    /// Current cycle count of `proc`.
    pub fn cycles(&self, proc: ProcId) -> u64 {
        self.procs[proc.0].counters.cycles
    }

    /// Force `proc`'s clock to `cycles` (barrier levelling; must not move
    /// time backwards).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is earlier than the processor's current time.
    pub fn set_cycles(&mut self, proc: ProcId, cycles: u64) {
        let c = &mut self.procs[proc.0].counters;
        assert!(cycles >= c.cycles, "cannot move {proc} backwards in time");
        c.cycles = cycles;
    }

    /// Counters of one processor.
    pub fn counters(&self, proc: ProcId) -> &CounterSet {
        &self.procs[proc.0].counters
    }

    /// Aggregate counters over all processors.
    pub fn total_counters(&self) -> CounterSet {
        self.procs
            .iter()
            .map(|p| p.counters)
            .fold(CounterSet::new(), |acc, c| acc.merged(&c))
    }

    /// Total coherence invalidations machine-wide.
    pub fn total_invalidations(&self) -> u64 {
        self.shared.dir.total_invalidations()
    }

    // ---------------------------------------------------------------
    // Attribution profiling.
    // ---------------------------------------------------------------

    /// Turn on per-tag attribution: every processor gets a private
    /// [`AttributionTable`] and subsequent accesses are credited to the tag
    /// last set with [`Machine::set_tag`] / [`MachineShard::set_tag`].
    /// Idempotent; existing tables are kept.
    pub fn enable_profiling(&mut self) {
        let n_nodes = self.cfg.n_nodes;
        for p in &mut self.procs {
            if p.attr.is_none() {
                p.attr = Some(Box::new(AttributionTable::new(n_nodes)));
            }
        }
    }

    /// Whether attribution profiling is enabled.
    pub fn profiling_enabled(&self) -> bool {
        self.procs.first().is_some_and(|p| p.attr.is_some())
    }

    /// Stamp the tag applied to `proc`'s subsequent accesses.
    #[inline]
    pub fn set_tag(&mut self, proc: ProcId, tag: AccessTag) {
        self.shard(proc).set_tag(tag);
    }

    /// Intern an array name, returning its stable symbol id for
    /// [`AccessTag::sym`]. Linear scan: programs have tens of arrays and
    /// interning happens once per binding, not per access.
    pub fn intern_symbol(&mut self, name: &str) -> u32 {
        if let Some(i) = self.symbols.iter().position(|s| s == name) {
            return i as u32;
        }
        assert!(
            self.symbols.len() < UNTAGGED_SYM as usize,
            "symbol table overflow"
        );
        self.symbols.push(name.to_string());
        (self.symbols.len() - 1) as u32
    }

    /// Interned array names; index with `AccessTag::sym`.
    pub fn symbol_names(&self) -> &[String] {
        &self.symbols
    }

    /// Merge every processor's attribution table into one (the join-time
    /// reduction). `None` when profiling was never enabled.
    pub fn merged_attribution(&self) -> Option<AttributionTable> {
        if !self.profiling_enabled() {
            return None;
        }
        let mut merged = AttributionTable::new(self.cfg.n_nodes);
        for p in &self.procs {
            if let Some(t) = p.attr.as_deref() {
                merged.merge(t);
            }
        }
        Some(merged)
    }
}

/// One processor's view of the machine — and the access pipeline itself:
/// the whole machine, borrowed through [`Machine::serial`] to act as the
/// processor it was made for. Its own state (caches, TLB, counters,
/// clock) is `p`; memory, the page table and the directory are `shared`;
/// the other processors are reached only to apply the invalidations this
/// one's writes send them.
#[derive(Debug)]
pub struct MachineShard<'m> {
    cfg: &'m MachineConfig,
    shared: &'m mut SharedState,
    page_bits: u32,
    proc: ProcId,
    p: &'m mut Processor,
    /// Processors numbered below `proc`.
    before: &'m mut [Processor],
    /// Processors numbered above `proc`.
    after: &'m mut [Processor],
}

impl MachineShard<'_> {
    /// Node this shard's processor lives on.
    pub fn node(&self) -> NodeId {
        self.p.node
    }

    /// Apply the invalidations this processor's write sends: purge L2
    /// line `dir_line` (and the L1 lines inside it) from each target's
    /// caches and count it as received. Exact at once, because no other
    /// processor runs during this one's operation.
    fn invalidate_others(&mut self, targets: &[ProcId], dir_line: u64) {
        for &t in targets {
            let q = match t.0.cmp(&self.proc.0) {
                Ordering::Less => &mut self.before[t.0],
                Ordering::Greater => &mut self.after[t.0 - self.proc.0 - 1],
                Ordering::Equal => unreachable!("{t} invalidated by its own write"),
            };
            q.l2.invalidate_line(dir_line);
            q.purge_l1(self.cfg, dir_line);
            q.counters.invalidations_received += 1;
        }
    }

    /// Timed access through the five-step pipeline (TLB → translation →
    /// L1 → L2 → memory + coherence); returns the cycle cost, already
    /// charged to this processor.
    pub fn access(&mut self, addr: VAddr, kind: AccessKind) -> u64 {
        let vpage = addr >> self.page_bits;
        let offset = addr & ((1 << self.page_bits) - 1);
        let (mapping, tlb_miss, cost) = self.translate(vpage, kind);
        let paddr = (mapping.frame << self.page_bits) | offset;
        self.cache_stage(paddr, vpage, mapping.node, kind, tlb_miss, cost)
    }

    /// [`MachineShard::access`] for one access of a reference stream: the
    /// same pipeline with the two lookups a stream repeats — which TLB
    /// entry holds the page, which L1 way holds the line — tried first at
    /// the positions `cur` remembers from the stream's previous access.
    ///
    /// A remembered position is used only if the entry there still holds
    /// this page (this line), and then performs exactly the state changes
    /// the lookup's hit performs: access count, both recency updates, the
    /// dirty bit, the ownership request of a store that finds its line
    /// clean, attribution, cycles. Anything else — a new page, an evicted
    /// or invalidated line, sampling (whose stage keeps books per access),
    /// a cursor full of garbage — takes the lookup it would have taken in
    /// `access`, and `cur` is left remembering where that ended. Every
    /// counter, cycle, cache, TLB and directory state is therefore that of
    /// `access(addr, kind)`.
    pub fn access_at(&mut self, cur: &mut LineCursor, addr: VAddr, kind: AccessKind) -> u64 {
        let vpage = addr >> self.page_bits;
        let offset = addr & ((1 << self.page_bits) - 1);
        let (mapping, tlb_miss, mut cost) = match self.p.tlb.hit_at(cur.tlb_pos, vpage) {
            Some(m) => {
                match kind {
                    AccessKind::Read => self.p.counters.loads += 1,
                    AccessKind::Write => self.p.counters.stores += 1,
                }
                (m, false, 0)
            }
            None => {
                let tr = self.translate(vpage, kind);
                cur.tlb_pos = self.p.tlb.last_pos();
                tr
            }
        };
        let paddr = (mapping.frame << self.page_bits) | offset;
        if self.p.sample.is_none() {
            let write = kind == AccessKind::Write;
            if let Some(was_dirty) = self.p.l1.hit_at(cur.l1_way, paddr, write) {
                cost += self.cfg.lat.l1_hit;
                if write && !was_dirty {
                    cost += self.coherence_write(paddr);
                }
                self.p.note(kind, tlb_miss, FillLevel::L1);
                self.p.counters.cycles += cost;
                return cost;
            }
        }
        let total = self.cache_stage(paddr, vpage, mapping.node, kind, tlb_miss, cost);
        cur.l1_way = self.p.l1.way_of(paddr);
        total
    }

    /// Steps 1–2 of the pipeline: count the access, probe the TLB and — on
    /// a miss only; a hit carries the translation and touches no shared
    /// state — walk the page table (faulting the page in under the
    /// placement policy) and refill. Returns the mapping, whether the TLB
    /// missed, and the cycles accrued so far (not yet charged).
    #[inline]
    fn translate(&mut self, vpage: u64, kind: AccessKind) -> (Mapping, bool, u64) {
        let p = &mut *self.p;
        match kind {
            AccessKind::Read => p.counters.loads += 1,
            AccessKind::Write => p.counters.stores += 1,
        }
        if let Some(m) = p.tlb.lookup(vpage) {
            debug_assert_eq!(
                Some(m),
                self.shared.pt.lookup(vpage),
                "stale translation for page {vpage} in {}'s TLB",
                self.proc
            );
            return (m, false, 0);
        }
        p.counters.tlb_misses += 1;
        let mut cost = self.cfg.lat.tlb_miss;
        let tr = self.shared.pt.translate(vpage, p.node, self.cfg.policy);
        if let Translate::Faulted(_) = tr {
            p.counters.page_faults += 1;
            cost += self.cfg.lat.page_fault;
        }
        p.tlb.fill(vpage, tr.mapping());
        (tr.mapping(), true, cost)
    }

    /// Steps 3–5 for an already-translated access, starting from `cost`
    /// cycles accrued by translation: the exact pipeline, or the sampled
    /// stage when set sampling is active. Charges the final total and
    /// returns it.
    fn cache_stage(
        &mut self,
        paddr: u64,
        vpage: u64,
        home: NodeId,
        kind: AccessKind,
        tlb_miss: bool,
        cost: u64,
    ) -> u64 {
        if self.p.sample.is_some() {
            self.sampled_cache_stage(paddr, vpage, home, kind, tlb_miss, cost)
        } else {
            self.cache_core(paddr, vpage, home, kind, tlb_miss, cost)
        }
    }

    /// Cache-stage dispatch when set sampling is active. Selected lines
    /// take the exact pipeline ([`Self::cache_core`]) with transition
    /// bookkeeping for the estimator; unselected lines skip the
    /// cache/directory/memory stages and are charged translation + the
    /// guaranteed L1-hit latency, plus — on line transitions — the running
    /// extra-cycles-per-transition estimate derived from the sampled
    /// stream (see the [`crate::sample`] module docs). Data is never
    /// touched here, so captures stay bit-identical to exact mode.
    fn sampled_cache_stage(
        &mut self,
        paddr: u64,
        vpage: u64,
        home: NodeId,
        kind: AccessKind,
        tlb_miss: bool,
        cost: u64,
    ) -> u64 {
        let l1_hit = self.cfg.lat.l1_hit;
        let line = paddr >> self.cfg.l1.line_size.trailing_zeros();
        let sam = self.p.sample.as_deref_mut().expect("sampling state");
        let selected = sam.sel.sampled(paddr);
        let same_line = sam.last_line == Some(line);
        sam.last_line = Some(line);
        if selected {
            let total = self.cache_core(paddr, vpage, home, kind, tlb_miss, cost);
            // Everything beyond translation and the L1-hit latency feeds the
            // estimator's numerator; a same-line repeat normally contributes 0
            // but a coherence upgrade or invalidation-induced miss folds its
            // extra cost in too, so no sampled coherence cycles are lost.
            let sam = self.p.sample.as_deref_mut().expect("sampling state");
            sam.sampled_extra_cycles += (total - cost).saturating_sub(l1_hit);
            if !same_line {
                sam.sampled_transitions += 1;
            }
            return total;
        }
        let mut total = cost + l1_hit;
        if same_line {
            sam.skipped_hits += 1;
        } else {
            sam.skipped_transitions += 1;
            let est = sam.due();
            sam.est_cycles += est;
            total += est;
        }
        self.p.note(kind, tlb_miss, FillLevel::L1);
        self.p.counters.cycles += total;
        total
    }

    /// Writer found its line clean: consult the directory for ownership
    /// and invalidate the other sharers. Returns the extra cycles.
    fn coherence_write(&mut self, paddr: u64) -> u64 {
        let dir_line = paddr >> self.cfg.l2.line_size.trailing_zeros();
        let coh = self.shared.dir.write(dir_line, self.proc);
        let n = coh.invalidate.len() as u64;
        if n == 0 {
            return 0;
        }
        self.invalidate_others(&coh.invalidate, dir_line);
        self.p.counters.invalidations_sent += n;
        if let Some(attr) = self.p.attr.as_deref_mut() {
            attr.note_invalidations(self.p.cur_tag, n);
        }
        n * self.cfg.lat.invalidation
    }

    /// Steps 3–5 of the exact pipeline (L1 → L2 → memory + coherence).
    fn cache_core(
        &mut self,
        paddr: u64,
        vpage: u64,
        home: NodeId,
        kind: AccessKind,
        tlb_miss: bool,
        mut cost: u64,
    ) -> u64 {
        let write = kind == AccessKind::Write;
        let (cfg, proc) = (self.cfg, self.proc);
        let lat = &cfg.lat;
        let local = self.p.node;

        // 3. L1.
        cost += lat.l1_hit;
        match self.p.l1.access(paddr, write) {
            Probe::Hit { was_dirty } => {
                if write && !was_dirty {
                    // Upgrade: may need to invalidate other sharers.
                    cost += self.coherence_write(paddr);
                }
                self.p.note(kind, tlb_miss, FillLevel::L1);
                self.p.counters.cycles += cost;
                return cost;
            }
            Probe::Miss { victim } => {
                // L1 victims write back into L2; that transfer is part of
                // the L2-hit path and is not charged separately. We must
                // mark the line dirty in L2 so its eventual eviction is
                // written back.
                if let Some(v) = victim {
                    if v.dirty {
                        let byte = v.tag << cfg.l1.line_size.trailing_zeros();
                        self.p.l2.access(byte, true);
                    }
                }
                self.p.counters.l1_misses += 1;
            }
        }

        // 4. L2.
        cost += lat.l2_hit;
        match self.p.l2.access(paddr, write) {
            Probe::Hit { was_dirty } => {
                if write && !was_dirty {
                    cost += self.coherence_write(paddr);
                }
                self.p.note(kind, tlb_miss, FillLevel::L2);
                self.p.counters.cycles += cost;
                return cost;
            }
            Probe::Miss { victim } => {
                self.p.counters.l2_misses += 1;
                if let Some(v) = victim {
                    self.p.purge_l1(cfg, v.tag);
                    self.shared.dir.evict(v.tag, proc);
                    if v.dirty {
                        self.p.counters.writebacks += 1;
                        cost += lat.writeback;
                    }
                }
            }
        }

        // 5. Memory + coherence.
        let dir_line = paddr >> cfg.l2.line_size.trailing_zeros();
        let coh = if write {
            self.shared.dir.write(dir_line, proc)
        } else {
            self.shared.dir.read(dir_line, proc)
        };
        let n_inval = coh.invalidate.len() as u64;
        if n_inval > 0 {
            self.invalidate_others(&coh.invalidate, dir_line);
            self.p.counters.invalidations_sent += n_inval;
            cost += n_inval * lat.invalidation;
        }
        let p = &mut *self.p;
        if coh.intervention {
            p.counters.interventions += 1;
        }
        if let Some(sam) = p.sample.as_deref_mut() {
            // Sampling routes only selected lines here, so this counts fills
            // per *sampled* set — the between-set variance behind the
            // confidence interval.
            sam.count_fill(dir_line);
        }
        let distance = hops(local, home);
        if distance == 0 {
            p.counters.local_misses += 1;
            cost += lat.local_mem;
        } else {
            p.counters.remote_misses += 1;
            cost += lat.remote_base + lat.remote_per_hop * distance as u64;
        }
        if let Some(attr) = p.attr.as_deref_mut() {
            let tag = p.cur_tag;
            attr.note_access(
                tag,
                kind,
                tlb_miss,
                FillLevel::Mem {
                    local: distance == 0,
                    hops: distance,
                },
            );
            attr.note_page_fill(tag, vpage, local, distance == 0);
            // Write misses send invalidations too (a clean-hit writer goes
            // through `coherence_write`, which attributes its own); without
            // this the attributed invalidation total undercounts the machine's.
            if n_inval > 0 {
                attr.note_invalidations(tag, n_inval);
            }
        }
        self.shared.node_served[home.0] += 1;
        if !cfg.migration.is_off() {
            // Per-page reference counter for the migration daemon.
            self.shared.refs.record(vpage, local);
        }
        p.counters.cycles += cost;
        cost
    }

    /// One page segment of a bulk [`AccessRun`], starting at element
    /// `start`.
    ///
    /// The first element takes the full five-step pipeline. After it,
    /// while the run stays on the same page, two exact shortcuts apply:
    ///
    /// * **same L1 line as the previous element** — the previous access
    ///   left the line resident and MRU (and, for writes, dirty), so the
    ///   probe is a guaranteed hit with no coherence action: charge
    ///   `l1_hit`, count the access, skip the probes;
    /// * **new line on the same page** — the page is still the MRU TLB
    ///   entry and its mapping cannot have changed (remap and migration
    ///   only run from `&mut Machine`, never concurrently with a run), so
    ///   the TLB probe is a guaranteed hit and the cached translation is
    ///   reused; only the cache/memory steps ([`Self::cache_stage`])
    ///   execute.
    ///
    /// Re-probing would merely re-touch already-MRU recency state, so
    /// every observable outcome — counters, cycles, cache/directory/TLB
    /// contents — is element-for-element identical to the plain access
    /// loop. No other processor runs during the run, so nothing can
    /// invalidate the line a shortcut relies on. The segment ends at a
    /// page boundary. `data` runs after each element's accounting with
    /// `(mem, addr, index)` — the data movement of the run.
    ///
    /// Returns `(next_element, cycles)`.
    fn run_segment(
        &mut self,
        run: &AccessRun,
        start: u64,
        mut data: impl FnMut(&mut WordMem, VAddr, u64),
    ) -> (u64, u64) {
        let page_bits = self.page_bits;
        let line_bits = self.cfg.l1.line_size.trailing_zeros();
        let l1_hit = self.cfg.lat.l1_hit;
        let mask = (1u64 << page_bits) - 1;
        let kind = run.kind;
        // Sampling: transitions dispatch through `sampled_cache_stage`
        // (whose per-element bookkeeping matches the scalar path exactly);
        // same-line repeats on an unselected line count as coalesced
        // estimator hits.
        let sel = self.p.sample.as_deref().map(|s| s.sel);
        let mut i = start;
        let addr = run.addr(i);
        let vpage = addr >> page_bits;
        let (mapping, tlb_miss, cost) = self.translate(vpage, kind);
        let frame_base = mapping.frame << page_bits;
        let paddr = frame_base | (addr & mask);
        let mut cur_selected = sel.is_none_or(|s| s.sampled(paddr));
        let mut total = self.cache_stage(paddr, vpage, mapping.node, kind, tlb_miss, cost);
        data(&mut self.shared.mem, addr, i);
        let mut line = addr >> line_bits;
        i += 1;
        while i < run.count {
            let a = run.addr(i);
            if a >> page_bits != vpage {
                break;
            }
            match kind {
                AccessKind::Read => self.p.counters.loads += 1,
                AccessKind::Write => self.p.counters.stores += 1,
            }
            if a >> line_bits == line {
                self.p.counters.cycles += l1_hit;
                self.p.note(kind, false, FillLevel::L1);
                total += l1_hit;
                if !cur_selected {
                    self.p
                        .sample
                        .as_deref_mut()
                        .expect("sampling state")
                        .skipped_hits += 1;
                }
            } else {
                line = a >> line_bits;
                let paddr = frame_base | (a & mask);
                cur_selected = sel.is_none_or(|s| s.sampled(paddr));
                total += self.cache_stage(paddr, vpage, mapping.node, kind, false, 0);
            }
            data(&mut self.shared.mem, a, i);
            i += 1;
        }
        (i, total)
    }

    /// Page-segmented bulk walk of an [`AccessRun`]: run one
    /// [`Self::run_segment`] per page —
    /// observationally identical to the equivalent loop of
    /// [`MachineShard::access`] calls, with the TLB probe and page-table
    /// lookup hoisted to once per page and same-line repeats skipping the
    /// cache probes, which is where the bytecode engine's bulk throughput
    /// comes from. Returns the summed cycle cost.
    fn run_batched(
        &mut self,
        run: &AccessRun,
        mut data: impl FnMut(&mut WordMem, VAddr, u64),
    ) -> u64 {
        let mut total = 0;
        let mut i = 0;
        while i < run.count {
            let (next, cost) = self.run_segment(run, i, &mut data);
            total += cost;
            i = next;
        }
        total
    }

    /// Bulk timed store of one raw 8-byte word to every element of an
    /// [`AccessRun`] (a loop-invariant fill).
    ///
    /// # Panics
    ///
    /// Panics if any address is outside an allocated region.
    pub fn fill_run_u64(&mut self, run: &AccessRun, word: u64) -> u64 {
        debug_assert_eq!(run.kind, AccessKind::Write);
        self.run_batched(run, |mem, a, _| mem.store_u64(a, word))
    }

    /// Timed load of an `f64`. Returns `(value, cycles)`.
    ///
    /// # Panics
    ///
    /// This and the other typed loads/stores panic if `addr` is outside
    /// any allocated region.
    pub fn read_f64(&mut self, addr: VAddr) -> (f64, u64) {
        let c = self.access(addr, AccessKind::Read);
        (f64::from_bits(self.shared.mem.load_u64(addr)), c)
    }

    /// Timed store of an `f64`. Returns the cycle cost.
    pub fn write_f64(&mut self, addr: VAddr, v: f64) -> u64 {
        let c = self.access(addr, AccessKind::Write);
        self.shared.mem.store_u64(addr, v.to_bits());
        c
    }

    /// Timed load of an `i64`.
    pub fn read_i64(&mut self, addr: VAddr) -> (i64, u64) {
        let c = self.access(addr, AccessKind::Read);
        (self.shared.mem.load_u64(addr) as i64, c)
    }

    /// Timed store of an `i64`.
    pub fn write_i64(&mut self, addr: VAddr, v: i64) -> u64 {
        let c = self.access(addr, AccessKind::Write);
        self.shared.mem.store_u64(addr, v as u64);
        c
    }

    /// Timed load of a raw 8-byte word through a stream cursor
    /// ([`MachineShard::access_at`]).
    ///
    /// # Panics
    ///
    /// Panics, like the typed loads and stores, if `addr` is outside any
    /// allocated region.
    #[inline]
    pub fn load_at(&mut self, cur: &mut LineCursor, addr: VAddr) -> u64 {
        self.access_at(cur, addr, AccessKind::Read);
        self.shared.mem.load_u64(addr)
    }

    /// Timed store of a raw 8-byte word through a stream cursor.
    #[inline]
    pub fn store_at(&mut self, cur: &mut LineCursor, addr: VAddr, word: u64) {
        self.access_at(cur, addr, AccessKind::Write);
        self.shared.mem.store_u64(addr, word);
    }

    /// Stamp the tag applied to this processor's subsequent accesses.
    /// Cheap (two word stores); callers typically guard it on their own
    /// profiling flag anyway.
    #[inline]
    pub fn set_tag(&mut self, tag: AccessTag) {
        self.p.cur_tag = tag;
    }

    /// Charge `cycles` of computation to this processor.
    pub fn charge(&mut self, cycles: u64) {
        self.p.counters.cycles += cycles;
    }

    /// Current cycle count of this processor.
    pub fn cycles(&self) -> u64 {
        self.p.counters.cycles
    }

    /// Counters of this processor.
    pub fn counters(&self) -> &CounterSet {
        &self.p.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine(nprocs: usize) -> Machine {
        Machine::new(MachineConfig::small_test(nprocs))
    }

    #[test]
    fn data_round_trips() {
        let mut m = machine(2);
        let a = m.alloc(64, 8);
        m.write_f64(ProcId(0), a, 1.25);
        m.write_i64(ProcId(1), a + 8, -7);
        assert_eq!(m.read_f64(ProcId(0), a).0, 1.25);
        assert_eq!(m.read_i64(ProcId(0), a + 8).0, -7);
    }

    #[test]
    fn access_run_matches_access_loop() {
        // The bulk entry must be observationally identical to the loop of
        // single accesses it replaces: same summed cost, same counters.
        let mut a = machine(2);
        let mut b = machine(2);
        let base_a = a.alloc_pages(8192);
        let base_b = b.alloc_pages(8192);
        assert_eq!(base_a, base_b);
        let run = AccessRun {
            base: base_a,
            stride: 16,
            count: 300,
            kind: AccessKind::Write,
        };
        let bulk = a.access_run(ProcId(0), &run);
        let mut looped = 0;
        for i in 0..run.count {
            looped += b.access(ProcId(0), run.addr(i), AccessKind::Write);
        }
        assert_eq!(bulk, looped);
        assert_eq!(a.counters(ProcId(0)), b.counters(ProcId(0)));
    }

    #[test]
    fn batched_runs_match_access_loops_across_strides() {
        // The page-segmented walker must be observationally identical to
        // the per-element loop for every stride shape: within-line
        // repeats, line-crossing, page-crossing, and backwards runs.
        for kind in [AccessKind::Read, AccessKind::Write] {
            for stride in [0i64, 8, 16, 40, 1024, 1032, -8] {
                let mut a = machine(2);
                let mut b = machine(2);
                let size = 512 * 1024;
                let base_a = a.alloc_pages(size);
                let base_b = b.alloc_pages(size);
                assert_eq!(base_a, base_b);
                let count = 300;
                let base = if stride < 0 {
                    base_a + (count - 1) * stride.unsigned_abs()
                } else {
                    base_a
                };
                let run = AccessRun {
                    base,
                    stride,
                    count,
                    kind,
                };
                let bulk = match kind {
                    AccessKind::Read => a.access_run(ProcId(0), &run),
                    AccessKind::Write => a.fill_run_u64(ProcId(0), &run, 42),
                };
                let mut looped = 0;
                for i in 0..run.count {
                    looped += b.access(ProcId(0), run.addr(i), kind);
                    if kind == AccessKind::Write {
                        b.poke_i64(run.addr(i), 42);
                    }
                }
                assert_eq!(bulk, looped, "cost diverged: {kind:?} stride {stride}");
                assert_eq!(
                    a.counters(ProcId(0)),
                    b.counters(ProcId(0)),
                    "counters diverged: {kind:?} stride {stride}"
                );
            }
        }
    }

    #[test]
    fn write_run_stores_values_in_order() {
        let mut m = machine(1);
        let base = m.alloc_pages(4096);
        let vals: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        let run = AccessRun {
            base,
            stride: 8,
            count: 64,
            kind: AccessKind::Write,
        };
        m.write_run_f64(ProcId(0), &run, &vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(m.peek_f64(base + 8 * i as u64), *v);
        }
    }

    #[test]
    fn first_access_faults_then_hits() {
        let mut m = machine(2);
        let a = m.alloc_pages(4096);
        let c1 = m.access(ProcId(0), a, AccessKind::Read);
        let c2 = m.access(ProcId(0), a, AccessKind::Read);
        assert!(
            c1 > c2,
            "fault+miss ({c1}) should cost more than a hit ({c2})"
        );
        assert_eq!(c2, m.config().lat.l1_hit);
        assert_eq!(m.counters(ProcId(0)).page_faults, 1);
    }

    #[test]
    fn attribution_matches_counters() {
        use crate::profile::{AccessTag, TagStats};
        let mut m = machine(4);
        m.enable_profiling();
        let sym_a = m.intern_symbol("a");
        let sym_b = m.intern_symbol("b");
        assert_eq!(m.intern_symbol("a"), sym_a);
        let a = m.alloc_pages(4096);
        let b = m.alloc_pages(4096);
        m.place_range(a, 4096, NodeId(0));
        m.place_range(b, 4096, NodeId(1));
        for i in 0..64 {
            m.set_tag(
                ProcId(0),
                AccessTag {
                    sym: sym_a,
                    region: 0,
                },
            );
            m.access(ProcId(0), a + i * 8, AccessKind::Read);
            m.set_tag(
                ProcId(0),
                AccessTag {
                    sym: sym_b,
                    region: 0,
                },
            );
            m.access(ProcId(0), b + i * 8, AccessKind::Write);
        }
        let attr = m.merged_attribution().expect("profiling on");
        let t = attr.grand_total();
        let c = m.total_counters();
        assert_eq!(t.loads, c.loads);
        assert_eq!(t.stores, c.stores);
        assert_eq!(t.local_misses, c.local_misses);
        assert_eq!(t.remote_misses, c.remote_misses);
        assert_eq!(t.tlb_misses, c.tlb_misses);
        assert_eq!(t.l1_misses(), c.l1_misses);
        // Everything under `b`'s tag went to a remote node; `a` stayed local.
        let b_stats: TagStats = attr.tags().filter(|(tag, _)| tag.sym == sym_b).fold(
            TagStats::default(),
            |mut acc, (_, s)| {
                acc.add(s);
                acc
            },
        );
        assert_eq!(b_stats.local_misses, 0);
        assert!(b_stats.remote_misses > 0);
        // The page-level view agrees: `b`'s page is remote-dominated and
        // its dominant accessor (node 0) differs from its home (node 1).
        let (_, pa) = attr
            .pages()
            .find(|(vp, _)| **vp == b >> m.config().page_size.trailing_zeros())
            .expect("b's page attributed");
        assert_eq!(pa.sym, sym_b);
        assert!(pa.remote > 0 && pa.local == 0);
        assert_eq!(pa.dominant_node(), NodeId(0));
    }

    #[test]
    fn first_touch_places_on_touching_node() {
        let mut m = machine(4); // 2 nodes
        let a = m.alloc_pages(8192);
        // Proc 2 is on node 1.
        m.access(ProcId(2), a, AccessKind::Read);
        assert_eq!(m.home_of(a), Some(NodeId(1)));
    }

    #[test]
    fn explicit_placement_wins() {
        let mut m = machine(4);
        let a = m.alloc_pages(4096);
        m.place_range(a, 4096, NodeId(1));
        m.access(ProcId(0), a, AccessKind::Read); // proc 0 is node 0
        assert_eq!(m.home_of(a), Some(NodeId(1)));
    }

    #[test]
    fn remote_miss_costs_more_than_local() {
        let mut m = machine(4);
        let a = m.alloc_pages(8192);
        let page2 = a + 1024; // second page (page size 1024)
        m.place_range(a, 1024, NodeId(0));
        m.place_range(page2, 1024, NodeId(1));
        let local = m.access(ProcId(0), a, AccessKind::Read);
        let remote = m.access(ProcId(0), page2, AccessKind::Read);
        assert!(remote > local, "remote {remote} <= local {local}");
    }

    #[test]
    fn write_invalidates_remote_reader() {
        let mut m = machine(4);
        let a = m.alloc_pages(1024);
        m.access(ProcId(0), a, AccessKind::Read);
        m.access(ProcId(2), a, AccessKind::Read);
        // Proc 2 now hits.
        let hit = m.access(ProcId(2), a, AccessKind::Read);
        assert_eq!(hit, m.config().lat.l1_hit);
        // Proc 0 writes: proc 2's copy must die.
        m.access(ProcId(0), a, AccessKind::Write);
        assert_eq!(m.counters(ProcId(0)).invalidations_sent, 1);
        assert_eq!(m.counters(ProcId(2)).invalidations_received, 1);
        let after = m.access(ProcId(2), a, AccessKind::Read);
        assert!(after > m.config().lat.l1_hit, "invalidated line must miss");
    }

    #[test]
    fn false_sharing_ping_pong_counts_invalidations() {
        let mut m = machine(2);
        let a = m.alloc_pages(1024);
        // Two procs write adjacent words in the same 64-byte L2 line.
        for _ in 0..10 {
            m.access(ProcId(0), a, AccessKind::Write);
            m.access(ProcId(1), a + 8, AccessKind::Write);
        }
        assert!(
            m.total_invalidations() >= 18,
            "got {}",
            m.total_invalidations()
        );
    }

    #[test]
    fn tlb_misses_counted() {
        let mut m = machine(1);
        // Touch more pages than the 8-entry TLB holds, twice.
        let a = m.alloc_pages(1024 * 32);
        for round in 0..2 {
            for p in 0..32u64 {
                m.access(ProcId(0), a + p * 1024, AccessKind::Read);
            }
            let _ = round;
        }
        assert!(m.counters(ProcId(0)).tlb_misses >= 40);
    }

    #[test]
    fn charge_and_levelling() {
        let mut m = machine(2);
        m.charge(ProcId(0), 100);
        m.charge(ProcId(1), 40);
        assert_eq!(m.cycles(ProcId(0)), 100);
        m.set_cycles(ProcId(1), 100);
        assert_eq!(m.cycles(ProcId(1)), 100);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn levelling_cannot_rewind() {
        let mut m = machine(1);
        m.charge(ProcId(0), 10);
        m.set_cycles(ProcId(0), 5);
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = machine(1);
        let a = m.alloc(100, 64);
        let b = m.alloc(100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        let c = m.alloc_pages(10);
        assert_eq!(c % m.config().page_size as u64, 0);
    }

    #[test]
    fn total_counters_aggregate() {
        let mut m = machine(2);
        let a = m.alloc_pages(1024);
        m.access(ProcId(0), a, AccessKind::Read);
        m.access(ProcId(1), a + 8, AccessKind::Read);
        let t = m.total_counters();
        assert_eq!(t.loads, 2);
        assert_eq!(t.page_faults, 1);
    }

    #[test]
    fn remap_shoots_down_caches_and_tlb() {
        let mut m = machine(4);
        let a = m.alloc_pages(1024);
        m.place_range(a, 1024, NodeId(0));
        m.access(ProcId(0), a, AccessKind::Read);
        assert_eq!(
            m.access(ProcId(0), a, AccessKind::Read),
            m.config().lat.l1_hit
        );
        // Remap to node 1: cached copy must be purged.
        let remapped = m.place_range(a, 1024, NodeId(1));
        assert_eq!(remapped, 1);
        let cost = m.access(ProcId(0), a, AccessKind::Read);
        assert!(cost > m.config().lat.l1_hit + m.config().lat.l2_hit);
        assert_eq!(m.home_of(a), Some(NodeId(1)));
    }

    #[test]
    fn remap_range_charges_caller() {
        let mut m = machine(2);
        let a = m.alloc_pages(4096);
        m.place_range(a, 4096, NodeId(0));
        let before = m.cycles(ProcId(0));
        let n = m.remap_range(ProcId(0), a, 4096, |_| NodeId(0));
        assert_eq!(n, 4);
        assert!(m.cycles(ProcId(0)) > before);
    }

    #[test]
    fn migration_moves_hot_pages() {
        let mut cfg = MachineConfig::small_test(4);
        cfg.migration = crate::MigrationPolicy::competitive(8);
        cfg.migration_epoch = 64;
        // Shrink caches so repeated accesses keep missing (migration is
        // triggered by L2 misses).
        cfg.l2 = crate::cache::CacheConfig::new(256, 64, 2);
        cfg.l1 = crate::cache::CacheConfig::new(128, 32, 2);
        let mut m = Machine::new(cfg);
        let a = m.alloc_pages(1024);
        // First touch by proc 0 homes the page on node 0 (an explicit
        // placement would pin it against the daemon).
        for off in (0..1024).step_by(64) {
            m.access(ProcId(0), a + off, AccessKind::Read);
        }
        // Proc 2 (node 1) hammers the page with a thrashing stride.
        for rep in 0..40u64 {
            for off in (0..1024).step_by(64) {
                m.access(ProcId(2), a + off, AccessKind::Read);
            }
            let _ = rep;
        }
        assert!(m.migrations() >= 1, "hot page should migrate");
        assert_eq!(m.home_of(a), Some(NodeId(1)));
        assert_eq!(m.pages_migrated(), m.migrations());
        assert!(m.migration_cycles() > 0, "copy + shootdown must be priced");
        assert_eq!(
            m.migration_pages()[0].0,
            a >> m.config().page_size.trailing_zeros()
        );
    }

    #[test]
    fn migration_keeps_values_and_clears_sharers() {
        let mut cfg = MachineConfig::small_test(4);
        cfg.migration = crate::MigrationPolicy::threshold(4);
        cfg.migration_epoch = 32;
        cfg.l2 = crate::cache::CacheConfig::new(256, 64, 2);
        cfg.l1 = crate::cache::CacheConfig::new(128, 32, 2);
        let mut m = Machine::new(cfg);
        let a = m.alloc_pages(1024);
        for k in 0..128u64 {
            m.write_f64(ProcId(0), a + k * 8, k as f64);
        }
        let old_frame = m.frame_of(a >> 10).expect("mapped");
        for _ in 0..200u64 {
            for off in (0..1024).step_by(64) {
                m.access(ProcId(2), a + off, AccessKind::Read);
            }
        }
        assert!(m.migrations() >= 1);
        assert_ne!(m.frame_of(a >> 10), Some(old_frame), "frame must move");
        // The released frame's directory lines hold no stale sharers.
        for line in 0..(1024 / 64) {
            let paddr = (old_frame << 10) + line * 64;
            assert!(
                m.line_sharers(paddr).is_empty(),
                "stale sharer at line {line}"
            );
        }
        // The data followed the page.
        for k in 0..128u64 {
            assert_eq!(m.read_f64(ProcId(2), a + k * 8).0, k as f64);
        }
    }

    #[test]
    fn double_remap_preserves_word_values() {
        // Regression: the remap shoot-down (shared by explicit placement
        // and migration) must never lose data, even when the second remap
        // reuses the page's original frame.
        let mut m = machine(4);
        let a = m.alloc_pages(1024);
        for k in 0..128u64 {
            m.write_f64(ProcId(0), a + k * 8, (k * 3) as f64);
        }
        assert_eq!(m.place_range(a, 1024, NodeId(1)), 1);
        m.access(ProcId(1), a, AccessKind::Read); // cache it remotely
        assert_eq!(m.place_range(a, 1024, NodeId(0)), 1);
        for k in 0..128u64 {
            assert_eq!(m.read_f64(ProcId(3), a + k * 8).0, (k * 3) as f64);
        }
    }

    #[test]
    fn explicit_placement_pins_against_migration() {
        // A directive-placed page never migrates, no matter how lopsided
        // its reference counts get — the OS honours explicit placement.
        let mut cfg = MachineConfig::small_test(4);
        cfg.migration = crate::MigrationPolicy::threshold(2);
        cfg.migration_epoch = 32;
        cfg.l2 = crate::cache::CacheConfig::new(256, 64, 2);
        cfg.l1 = crate::cache::CacheConfig::new(128, 32, 2);
        let mut m = Machine::new(cfg);
        let a = m.alloc_pages(1024);
        m.place_range(a, 1024, NodeId(0));
        for _ in 0..100u64 {
            for off in (0..1024).step_by(64) {
                m.access(ProcId(2), a + off, AccessKind::Read);
            }
        }
        m.migration_epoch();
        assert_eq!(m.migrations(), 0, "pinned page must not migrate");
        assert_eq!(m.home_of(a), Some(NodeId(0)));
    }

    #[test]
    fn migration_off_by_default() {
        let mut m = machine(4);
        let a = m.alloc_pages(1024);
        m.place_range(a, 1024, NodeId(0));
        for _ in 0..100 {
            m.access(ProcId(2), a, AccessKind::Write);
        }
        assert_eq!(m.migrations(), 0);
        assert_eq!(m.home_of(a), Some(NodeId(0)));
    }

    #[test]
    fn sequential_stream_mostly_hits() {
        let mut m = machine(1);
        let a = m.alloc_pages(1024);
        let mut misses_after_first = 0;
        for i in 0..128u64 {
            let c = m.access(ProcId(0), a + i * 8, AccessKind::Read);
            if i > 0 && c > m.config().lat.l1_hit {
                misses_after_first += 1;
            }
        }
        // 32-byte L1 lines -> one miss every 4 doubles.
        assert!(misses_after_first <= 33, "got {misses_after_first}");
    }

    #[test]
    fn shard_sees_invalidations_from_other_member() {
        let mut m = machine(2);
        let a = m.alloc_pages(1024);
        // Both read the same line.
        m.serial(ProcId(0), |s| s.access(a, AccessKind::Read));
        m.serial(ProcId(1), |s| s.access(a, AccessKind::Read));
        // P0 writes the shared line: P1's copy dies with the write, and
        // nothing runs in between.
        m.serial(ProcId(0), |s| s.access(a, AccessKind::Write));
        assert_eq!(m.counters(ProcId(1)).invalidations_received, 1);
        let cost = m.serial(ProcId(1), |s| s.access(a, AccessKind::Read));
        assert!(cost > m.config().lat.l1_hit, "stale hit after remote write");
        assert_eq!(m.counters(ProcId(1)).invalidations_received, 1);
    }

    #[test]
    fn sampling_rate_one_is_the_exact_machine() {
        // Explicitly requesting 1/1 sampling must leave every observable
        // identical to a machine that never heard of sampling.
        let mut a = machine(2);
        let mut b = machine(2);
        b.set_sampling(SamplingConfig::EXACT).unwrap();
        let base = a.alloc_pages(16 * 1024);
        assert_eq!(base, b.alloc_pages(16 * 1024));
        for m in [&mut a, &mut b] {
            for i in 0..600u64 {
                m.access(ProcId(0), base + (i * 40) % 8192, AccessKind::Write);
                m.access(ProcId(1), base + (i * 24) % 8192, AccessKind::Read);
            }
        }
        assert_eq!(a.counters(ProcId(0)), b.counters(ProcId(0)));
        assert_eq!(a.counters(ProcId(1)), b.counters(ProcId(1)));
        let s = b.sampling_summary();
        assert!(s.exact);
        assert_eq!(s.est_l2_misses, b.total_counters().l2_misses);
        assert_eq!(s.ci95_miss_pct, 0.0);
    }

    #[test]
    fn sampled_bulk_walker_matches_sampled_access_loop() {
        // The sampled mode itself must be deterministic across entry
        // points: the page-segmented walker and the per-element loop see
        // the same selector, the same estimator state, the same counters.
        for rate in [2u32, 4, 8] {
            let mut cfg = MachineConfig::small_test(2);
            cfg.sampling = SamplingConfig::new(rate).with_seed(3);
            let mut a = Machine::new(cfg.clone());
            let mut b = Machine::new(cfg);
            let base_a = a.alloc_pages(64 * 1024);
            let base_b = b.alloc_pages(64 * 1024);
            assert_eq!(base_a, base_b);
            for (stride, count) in [(8i64, 500), (40, 400), (1032, 60)] {
                let run = AccessRun {
                    base: base_a,
                    stride,
                    count,
                    kind: AccessKind::Write,
                };
                let bulk = a.access_run(ProcId(0), &run);
                let mut looped = 0;
                for i in 0..run.count {
                    looped += b.access(ProcId(0), run.addr(i), AccessKind::Write);
                }
                assert_eq!(bulk, looped, "rate 1/{rate} stride {stride}");
                assert_eq!(a.counters(ProcId(0)), b.counters(ProcId(0)));
            }
            let (sa, sb) = (a.sampling_summary(), b.sampling_summary());
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn sampled_counters_stay_balanced_and_extrapolate() {
        let mut cfg = MachineConfig::small_test(4);
        cfg.sampling = SamplingConfig::new(4);
        let mut m = Machine::new(cfg);
        let base = m.alloc_pages(256 * 1024);
        // A working set far beyond the 8 KB L2 so real capacity misses
        // land in the sampled sets.
        for i in 0..20_000u64 {
            let p = ProcId((i % 4) as usize);
            m.access(p, base + (i * 72) % (256 * 1024 - 8), AccessKind::Write);
        }
        let t = m.total_counters();
        // Raw counters hold the sampled subset's misses and must satisfy
        // the same internal balance as an exact run.
        assert_eq!(t.local_misses + t.remote_misses, t.l2_misses);
        assert!(t.l2_misses <= t.l1_misses);
        assert!(t.l1_misses <= t.accesses());
        let s = m.sampling_summary();
        assert!(!s.exact);
        assert_eq!(s.accesses, t.accesses());
        assert_eq!(s.exact_accesses + s.estimated_accesses, s.accesses);
        // Extrapolation scales the sampled misses up, never down, and
        // keeps the estimated counters balanced too.
        assert!(s.est_l2_misses >= t.l2_misses);
        assert_eq!(s.est_local_misses + s.est_remote_misses, s.est_l2_misses);
        assert!(s.est_l1_misses >= s.est_l2_misses);
        assert!(s.est_l1_misses <= s.accesses);
        assert!(s.ci95_miss_pct >= 0.0);
    }

    #[test]
    fn sampling_rejects_incompatible_geometry() {
        // small_test caches support at most 1/8 (see sample.rs docs).
        let mut m = machine(2);
        assert!(m.set_sampling(SamplingConfig::new(8)).is_ok());
        assert!(m.set_sampling(SamplingConfig::new(16)).is_err());
        let mut cfg = MachineConfig::small_test(2);
        cfg.sampling = SamplingConfig::new(16);
        assert!(cfg.validate().is_err());
    }

    /// Drive a little workload that touches every snapshotted table:
    /// allocation (brk, word store), placement (page table pins),
    /// cross-processor sharing (directory, invalidation
    /// counters), and per-page reference counters.
    fn scribble(m: &mut Machine) -> u64 {
        let a = m.alloc_pages(4 * 4096);
        m.place_range(a, 4096, NodeId(1));
        let mut cycles = 0;
        for i in 0..256u64 {
            m.write_f64(ProcId(0), a + 8 * i, i as f64 * 0.5);
            cycles += m.access(ProcId(2), a + 8 * i, AccessKind::Read);
            cycles += m.access(ProcId(0), a + 8 * i, AccessKind::Write);
        }
        cycles + m.cycles(ProcId(0)) + m.cycles(ProcId(2))
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let mut m = machine(4);
        let pristine = m.snapshot();
        let first = scribble(&mut m);
        let dirty = m.snapshot();

        // Restore-to-pristine replays exactly like a fresh machine.
        m.restore(&pristine);
        assert_eq!(m.cycles(ProcId(0)), 0);
        assert_eq!(scribble(&mut m), first);
        let (c0, c2) = machine_after_scribble();
        assert_eq!(*m.counters(ProcId(0)), c0);
        assert_eq!(*m.counters(ProcId(2)), c2);

        // Restore-to-dirty reproduces mid-history state: continuing from
        // it matches continuing from the point the snapshot was taken.
        let mut twin = machine(4);
        twin.restore(&dirty);
        let cont_restored = scribble(&mut twin);
        let cont_original = scribble(&mut m);
        assert_eq!(cont_restored, cont_original);
        assert_eq!(twin.counters(ProcId(0)), m.counters(ProcId(0)));
        assert_eq!(twin.counters(ProcId(2)), m.counters(ProcId(2)));
    }

    fn machine_after_scribble() -> (CounterSet, CounterSet) {
        let mut m = machine(4);
        scribble(&mut m);
        (*m.counters(ProcId(0)), *m.counters(ProcId(2)))
    }

    #[test]
    fn restore_resets_per_run_config_options() {
        // `run` applies migration/sampling by mutating the machine's
        // config; a pooled machine restored between requests must come
        // back with the snapshot's options, not the last request's.
        let mut m = machine(4);
        let pristine = m.snapshot();
        m.set_migration(crate::MigrationPolicy::threshold(2));
        m.set_sampling(SamplingConfig::new(8)).unwrap();
        scribble(&mut m);
        m.restore(&pristine);
        assert!(m.config().migration.is_off());
        assert!(m.config().sampling.is_exact());
        assert_eq!(m.pages_migrated(), 0);
        let mut fresh = machine(4);
        assert_eq!(scribble(&mut m), scribble(&mut fresh));
    }
}
