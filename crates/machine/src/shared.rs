//! State shared by every simulated processor, behind thread-safe cells.
//!
//! The machine splits into two halves so that a `doacross` team can be
//! simulated on real host threads (one per member):
//!
//! * **per-processor** state — L1/L2 caches, TLB, counters, cycle clock —
//!   lives in `Processor` and is handed to exactly one thread at a time
//!   (`Machine::team_shards` splits `&mut` access without copying);
//! * **shared** state — the page table, the coherence directory, the flat
//!   data store, per-node service counts, and the invalidation mailboxes —
//!   lives here, reachable through `&SharedState` from any member.
//!
//! Locking discipline (also documented in `docs/SIMULATOR.md`):
//!
//! * [`PageTable`] is consulted on a TLB miss only: a TLB entry carries the
//!   page's translation, which cannot go stale — remaps need `&mut Machine`
//!   (no team is running) and all go through `Machine::retire_frame`,
//!   which drops the page from every TLB. The miss path takes the read
//!   lock; only a first-touch fault or an explicit placement takes the
//!   write lock (with a double-check under the lock, so concurrent faults
//!   of one page agree on its home).
//! * The [`Directory`] is sharded by line address across
//!   [`DIR_SHARDS`] mutexes; two members only contend when they touch
//!   lines that hash to the same shard.
//! * The data store is word-grained atomics with relaxed ordering: legal
//!   `doacross` iterations write disjoint elements, so relaxed atomic
//!   loads/stores are exact. A simulated program that races is a bug in
//!   *that program* (exactly as on the real Origin-2000); the simulator
//!   stays memory-safe and merely reports some interleaving.
//! * Cross-processor cache invalidations are *posted* to per-processor
//!   mailboxes (a member may not touch another member's caches); each
//!   member drains its own mailbox before every access, and the machine
//!   drains all mailboxes at serial points.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use crate::directory::{CoherenceResult, Directory};
use crate::migrate::RefCounters;
use crate::pagetable::{PagePolicy, PageTable, Translate};
use crate::topology::NodeId;
use crate::ProcId;

/// Number of directory shards (power of two).
pub const DIR_SHARDS: usize = 64;

/// The flat simulated data store, with word-grained atomic access.
///
/// Growth (`grow_to`) needs `&mut self` and therefore only happens from
/// serial code holding the whole [`crate::Machine`]; parallel members only
/// load and store within the already-allocated extent.
#[derive(Debug, Default)]
pub struct WordMem {
    words: Vec<AtomicU64>,
}

impl WordMem {
    /// Ensure at least `bytes` bytes are addressable.
    pub fn grow_to(&mut self, bytes: u64) {
        let need = (bytes as usize).div_ceil(8);
        if self.words.len() < need {
            self.words.resize_with(need, AtomicU64::default);
        }
    }

    /// Copy the whole store out as plain words (snapshot support).
    pub(crate) fn snapshot_words(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Overwrite the store with `words`, shrinking or growing the extent
    /// to match. Reuses the existing allocation where possible.
    pub(crate) fn restore_words(&mut self, words: &[u64]) {
        self.words.resize_with(words.len(), AtomicU64::default);
        for (w, v) in self.words.iter_mut().zip(words) {
            *w.get_mut() = *v;
        }
    }

    #[inline]
    fn word(&self, idx: usize, addr: u64) -> &AtomicU64 {
        self.words
            .get(idx)
            .unwrap_or_else(|| panic!("address {addr:#x} outside any allocated region"))
    }

    /// Load 8 bytes at `addr` (little-endian byte order, like the previous
    /// `Vec<u8>` store).
    #[inline]
    pub fn load_u64(&self, addr: u64) -> u64 {
        let idx = (addr / 8) as usize;
        let sh = (addr % 8) * 8;
        if sh == 0 {
            self.word(idx, addr).load(Ordering::Relaxed)
        } else {
            // Straddling load: splice two words. Not atomic as a pair, but
            // element accesses from the interpreter are 8-aligned; an
            // unaligned racing access could only come from a simulated
            // program bug.
            let lo = self.word(idx, addr).load(Ordering::Relaxed);
            let hi = self.word(idx + 1, addr).load(Ordering::Relaxed);
            (lo >> sh) | (hi << (64 - sh))
        }
    }

    /// Store 8 bytes at `addr`.
    #[inline]
    pub fn store_u64(&self, addr: u64, v: u64) {
        let idx = (addr / 8) as usize;
        let sh = (addr % 8) * 8;
        if sh == 0 {
            self.word(idx, addr).store(v, Ordering::Relaxed);
        } else {
            let lo = self.word(idx, addr);
            lo.store(
                (lo.load(Ordering::Relaxed) & !(u64::MAX << sh)) | (v << sh),
                Ordering::Relaxed,
            );
            let hi = self.word(idx + 1, addr);
            hi.store(
                (hi.load(Ordering::Relaxed) & (u64::MAX << sh)) | (v >> (64 - sh)),
                Ordering::Relaxed,
            );
        }
    }
}

/// The coherence directory, sharded by line address.
#[derive(Debug)]
pub struct ShardedDirectory {
    shards: Vec<Mutex<Directory>>,
}

impl Default for ShardedDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedDirectory {
    /// An empty directory of [`DIR_SHARDS`] shards.
    pub fn new() -> Self {
        ShardedDirectory {
            shards: (0..DIR_SHARDS)
                .map(|_| Mutex::new(Directory::new()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, line: u64) -> std::sync::MutexGuard<'_, Directory> {
        self.shards[(line as usize) & (DIR_SHARDS - 1)]
            .lock()
            .expect("directory shard poisoned")
    }

    /// Record a read of `line` by `proc`.
    pub fn read(&self, line: u64, proc: ProcId) -> CoherenceResult {
        self.shard(line).read(line, proc)
    }

    /// Record a write of `line` by `proc`.
    pub fn write(&self, line: u64, proc: ProcId) -> CoherenceResult {
        self.shard(line).write(line, proc)
    }

    /// Note that `proc` silently dropped `line`.
    pub fn evict(&self, line: u64, proc: ProcId) {
        self.shard(line).evict(line, proc);
    }

    /// Forget a line entirely (its physical frame was released).
    pub fn clear_line(&self, line: u64) {
        self.shard(line).clear_line(line);
    }

    /// Current sharer set of a line (empty if uncached). Used by the
    /// migration engine's stale-sharer invariant checks.
    pub fn sharers(&self, line: u64) -> Vec<ProcId> {
        self.shard(line).sharers(line)
    }

    /// Total invalidation messages sent since construction.
    pub fn total_invalidations(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("directory shard poisoned")
                    .total_invalidations()
            })
            .sum()
    }

    /// Number of tracked (cached-somewhere) lines.
    pub fn tracked_lines(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("directory shard poisoned").tracked_lines())
            .sum()
    }

    /// Copy every shard's directory out (snapshot support).
    pub(crate) fn snapshot(&self) -> Vec<Directory> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("directory shard poisoned").clone())
            .collect()
    }

    /// Overwrite every shard from a snapshot taken on an identically
    /// sharded directory.
    pub(crate) fn restore(&mut self, shards: &[Directory]) {
        assert_eq!(shards.len(), self.shards.len(), "directory shard count");
        for (s, d) in self.shards.iter_mut().zip(shards) {
            s.get_mut().expect("directory shard poisoned").clone_from(d);
        }
    }
}

/// Machine state reachable from every processor shard.
#[derive(Debug)]
pub struct SharedState {
    pub(crate) pt: RwLock<PageTable>,
    pub(crate) dir: ShardedDirectory,
    pub(crate) mem: WordMem,
    pub(crate) node_served: Vec<AtomicU64>,
    /// Per-page per-node reference counters feeding the migration
    /// daemon; grown (like `mem`) only from serial allocation code.
    pub(crate) refs: RefCounters,
    /// Per-processor invalidation mailboxes.
    mail: Vec<Mailbox>,
    /// Total undelivered mailbox entries (fast all-empty check).
    mail_count: AtomicUsize,
}

/// One processor's pending line invalidations (directory-line numbers).
/// `pending` mirrors `lines.len()` — written only under the lock — so the
/// owner polls for mail without taking it.
#[derive(Debug, Default)]
struct Mailbox {
    lines: Mutex<Vec<u64>>,
    pending: AtomicUsize,
}

impl SharedState {
    pub(crate) fn new(pt: PageTable, nprocs: usize, n_nodes: usize) -> Self {
        SharedState {
            pt: RwLock::new(pt),
            dir: ShardedDirectory::new(),
            mem: WordMem::default(),
            node_served: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            refs: RefCounters::new(n_nodes),
            mail: (0..nprocs).map(|_| Mailbox::default()).collect(),
            mail_count: AtomicUsize::new(0),
        }
    }

    /// The page table, read-locked.
    pub(crate) fn page_table(&self) -> RwLockReadGuard<'_, PageTable> {
        self.pt.read().expect("page table poisoned")
    }

    /// Translate `vpage` after a TLB miss, faulting it in under `policy` if
    /// unmapped.
    ///
    /// Read-mostly: the common case takes only the read lock. A fault takes
    /// the write lock; `PageTable::translate` re-checks the mapping under
    /// it, so two processors racing to first-touch one page agree on a
    /// single home node and only one of them observes the fault.
    pub(crate) fn translate(&self, vpage: u64, local: NodeId, policy: PagePolicy) -> Translate {
        if let Some(m) = self.page_table().lookup(vpage) {
            return Translate::Mapped(m);
        }
        self.pt
            .write()
            .expect("page table poisoned")
            .translate(vpage, local, policy)
    }

    /// Post a line invalidation to each target's mailbox. The issuing
    /// processor is charged for the messages by its own access pipeline;
    /// targets apply them when they next drain.
    pub(crate) fn post_invalidations(&self, targets: &[ProcId], dir_line: u64) {
        for &t in targets {
            let mb = &self.mail[t.0];
            let mut lines = mb.lines.lock().expect("mailbox poisoned");
            lines.push(dir_line);
            mb.pending.store(lines.len(), Ordering::Relaxed);
        }
        self.mail_count.fetch_add(targets.len(), Ordering::Relaxed);
    }

    /// Number of undelivered mailbox entries across all processors.
    #[inline]
    pub(crate) fn mail_pending(&self) -> usize {
        self.mail_count.load(Ordering::Relaxed)
    }

    /// Whether `proc`'s own mailbox holds undelivered entries.
    #[inline]
    pub(crate) fn has_mail(&self, proc: ProcId) -> bool {
        self.mail[proc.0].pending.load(Ordering::Relaxed) != 0
    }

    /// Deep-copy every piece of shared machine state into a
    /// [`SharedSnapshot`].
    ///
    /// Snapshots are only meaningful at quiescent points (no parallel team
    /// live, all invalidation mail delivered) — exactly the points where
    /// the serial [`crate::Machine`] API can be called at all.
    ///
    /// # Panics
    ///
    /// Panics if any mailbox still holds undelivered invalidations.
    pub(crate) fn snapshot(&self) -> SharedSnapshot {
        assert_eq!(self.mail_pending(), 0, "snapshot with undelivered mail");
        SharedSnapshot {
            pt: self.page_table().clone(),
            dir: self.dir.snapshot(),
            mem: self.mem.snapshot_words(),
            node_served: self
                .node_served
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            refs: self.refs.snapshot(),
        }
    }

    /// Overwrite all shared state from a snapshot taken on a machine of
    /// identical geometry, bit-for-bit. The inverse of
    /// [`SharedState::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if any mailbox still holds undelivered invalidations or the
    /// snapshot's geometry (node count, directory sharding) differs.
    pub(crate) fn restore(&mut self, snap: &SharedSnapshot) {
        assert_eq!(self.mail_pending(), 0, "restore with undelivered mail");
        assert_eq!(
            snap.node_served.len(),
            self.node_served.len(),
            "node count mismatch between snapshot and machine"
        );
        self.pt
            .get_mut()
            .expect("page table poisoned")
            .clone_from(&snap.pt);
        self.dir.restore(&snap.dir);
        self.mem.restore_words(&snap.mem);
        for (c, v) in self.node_served.iter_mut().zip(&snap.node_served) {
            *c.get_mut() = *v;
        }
        self.refs.restore(&snap.refs);
    }

    /// Take all pending invalidations for `proc` (empty when none).
    #[inline]
    pub(crate) fn take_mail(&self, proc: ProcId) -> Vec<u64> {
        if !self.has_mail(proc) {
            return Vec::new();
        }
        let mb = &self.mail[proc.0];
        let mut lines = mb.lines.lock().expect("mailbox poisoned");
        let taken = std::mem::take(&mut *lines);
        mb.pending.store(0, Ordering::Relaxed);
        self.mail_count.fetch_sub(taken.len(), Ordering::Relaxed);
        taken
    }
}

/// A bit-exact deep copy of every piece of [`SharedState`]: page table
/// (including frame free lists and pin bits), coherence directory, word
/// store, per-node service counts and migration reference counters.
///
/// Produced by [`crate::Machine::snapshot`] and consumed by
/// [`crate::Machine::restore`]; the daemon's machine pool uses it to return
/// a warm machine to its pristine state between runs without re-allocating
/// any of the large tables.
#[derive(Debug, Clone)]
pub struct SharedSnapshot {
    pub(crate) pt: PageTable,
    pub(crate) dir: Vec<Directory>,
    pub(crate) mem: Vec<u64>,
    pub(crate) node_served: Vec<u64>,
    pub(crate) refs: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wordmem_round_trips_aligned_and_straddling() {
        let mut m = WordMem::default();
        m.grow_to(64);
        m.store_u64(8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.load_u64(8), 0x0123_4567_89ab_cdef);
        // Straddling store/load across a word boundary.
        m.store_u64(13, 0xfeed_face_dead_beef);
        assert_eq!(m.load_u64(13), 0xfeed_face_dead_beef);
        // Bytes 8..13 were not touched by the store at 13.
        assert_eq!(
            m.load_u64(8) & 0xff_ffff_ffff,
            0x0123_4567_89ab_cdef & 0xff_ffff_ffff
        );
    }

    #[test]
    #[should_panic(expected = "outside any allocated region")]
    fn wordmem_bounds_checked() {
        let m = WordMem::default();
        m.load_u64(0);
    }

    #[test]
    fn sharded_directory_sums_invalidations() {
        let d = ShardedDirectory::new();
        d.read(1, ProcId(0));
        d.read(1, ProcId(1));
        let res = d.write(1, ProcId(0));
        assert_eq!(res.invalidate, vec![ProcId(1)]);
        // A second line in a different shard.
        d.read(2, ProcId(2));
        d.write(2, ProcId(3));
        assert_eq!(d.total_invalidations(), 2);
        assert_eq!(d.tracked_lines(), 2);
    }

    #[test]
    fn mailboxes_count_and_drain() {
        let pt = PageTable::new(2, 16, 1, true, 10);
        let s = SharedState::new(pt, 4, 2);
        s.post_invalidations(&[ProcId(1), ProcId(2)], 77);
        assert!(s.take_mail(ProcId(0)).is_empty());
        assert_eq!(s.take_mail(ProcId(1)), vec![77]);
        assert_eq!(s.take_mail(ProcId(2)), vec![77]);
        assert!(s.take_mail(ProcId(2)).is_empty());
    }

    #[test]
    fn concurrent_first_touch_single_home() {
        let pt = PageTable::new(4, 64, 1, true, 10);
        let s = SharedState::new(pt, 8, 4);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let s = &s;
                scope.spawn(move || {
                    for vpage in 0..32u64 {
                        s.translate(vpage, NodeId(t % 4), PagePolicy::FirstTouch);
                    }
                });
            }
        });
        let pt = s.pt.read().unwrap();
        assert_eq!(pt.mapped_pages(), 32);
    }
}
