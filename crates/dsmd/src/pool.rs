//! Pooled simulated machines.
//!
//! Building a `Machine` allocates the word store, directory shards and
//! page tables for the whole simulated memory — far too much work to
//! repeat per request. The pool keeps fully-constructed machines per
//! [`MachineSpec`] together with their pristine [`MachineSnapshot`];
//! after a successful run the machine is restored bit-identically to
//! that snapshot (page table, directory, word store, counters — see
//! `Machine::restore`) and parked for the next tenant.
//!
//! A machine whose run *errored* is discarded instead: a run can stop
//! anywhere, and a fresh machine is the one state that cannot depend on
//! where.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dsm_core::{Machine, MachineSnapshot};
use dsm_proto::MachineSpec;

/// How many idle machines to keep per spec. Above this, released
/// machines are dropped — tenants with unusual geometries should not
/// pin memory forever.
const PER_SPEC_CAP: usize = 8;

/// A machine checked out of the pool, carrying the pristine snapshot it
/// must be restored to before going back.
pub struct PooledMachine {
    /// The machine; run on it freely.
    pub machine: Machine,
    pristine: MachineSnapshot,
    spec: MachineSpec,
}

/// Point-in-time pool statistics for the `stats` op.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Idle machines currently parked.
    pub pooled: usize,
    /// Machines ever constructed.
    pub created: u64,
    /// Checkouts served by an already-built machine.
    pub reused: u64,
    /// Machines dropped after an errored run.
    pub discarded: u64,
}

/// The pool: idle machines per spec.
pub struct MachinePool {
    idle: Mutex<HashMap<MachineSpec, Vec<PooledMachine>>>,
    created: AtomicU64,
    reused: AtomicU64,
    discarded: AtomicU64,
}

impl MachinePool {
    /// Empty pool.
    pub fn new() -> Self {
        MachinePool {
            idle: Mutex::new(HashMap::new()),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// Check a machine out for `spec`, constructing one (and its
    /// pristine snapshot) if none is parked. Construction happens
    /// outside the pool lock.
    pub fn acquire(&self, spec: &MachineSpec) -> PooledMachine {
        if let Some(pm) = self
            .idle
            .lock()
            .unwrap()
            .get_mut(spec)
            .and_then(Vec::pop)
        {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return pm;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        let machine = Machine::new(spec.to_config());
        let pristine = machine.snapshot();
        PooledMachine {
            machine,
            pristine,
            spec: spec.clone(),
        }
    }

    /// Return a machine after a *successful* run: restore it to its
    /// pristine snapshot and park it (unless the spec's shelf is full).
    pub fn release(&self, mut pm: PooledMachine) {
        pm.machine.restore(&pm.pristine);
        let mut idle = self.idle.lock().unwrap();
        let shelf = idle.entry(pm.spec.clone()).or_default();
        if shelf.len() < PER_SPEC_CAP {
            shelf.push(pm);
        }
    }

    /// Drop a machine whose run errored instead of restoring it.
    pub fn discard(&self, pm: PooledMachine) {
        self.discarded.fetch_add(1, Ordering::Relaxed);
        drop(pm);
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            pooled: self.idle.lock().unwrap().values().map(Vec::len).sum(),
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

impl Default for MachinePool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MachineSpec {
        MachineSpec {
            procs: 4,
            scale: 64,
            round_robin: false,
            small_test: true,
        }
    }

    #[test]
    fn release_then_acquire_reuses() {
        let pool = MachinePool::new();
        let pm = pool.acquire(&spec());
        pool.release(pm);
        let _pm2 = pool.acquire(&spec());
        let s = pool.stats();
        assert_eq!((s.created, s.reused, s.pooled), (1, 1, 0));
    }

    #[test]
    fn specs_do_not_share_machines() {
        let pool = MachinePool::new();
        let a = spec();
        let b = MachineSpec { procs: 2, ..spec() };
        pool.release(pool.acquire(&a));
        let _other = pool.acquire(&b);
        assert_eq!(pool.stats().created, 2);
        assert_eq!(pool.stats().reused, 0);
    }

    #[test]
    fn discard_counts_and_drops() {
        let pool = MachinePool::new();
        let pm = pool.acquire(&spec());
        pool.discard(pm);
        let s = pool.stats();
        assert_eq!((s.pooled, s.discarded), (0, 1));
    }
}
