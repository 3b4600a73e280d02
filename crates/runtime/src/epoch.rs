//! Scheduler-side epoch boundaries for the reactive page-migration
//! daemon.
//!
//! The machine's migration engine ([`Machine::migration_epoch`]) does
//! not run inside a parallel region — team members merely bump the
//! reference counters while they execute.  The natural whole-team
//! moments during a parallel program are the `doacross` join points, so
//! the scheduler owns the cadence: an [`EpochClock`] decides which joins
//! are epoch boundaries, and [`join_epoch`] fires the daemon there.
//!
//! Serial stretches between regions are covered independently by the
//! machine's own access-count epochs
//! (`MachineConfig::migration_epoch`).

use dsm_machine::Machine;

/// Counts team joins and marks every `every`-th one as a migration
/// epoch boundary.
#[derive(Debug, Clone)]
pub struct EpochClock {
    every: u32,
    joins: u32,
}

impl EpochClock {
    /// An epoch boundary every `every` joins (`0` is treated as `1`:
    /// every join is a boundary — the default cadence).
    pub fn new(every: u32) -> Self {
        EpochClock {
            every: every.max(1),
            joins: 0,
        }
    }

    /// Record one join; `true` when it closes an epoch.
    pub fn tick(&mut self) -> bool {
        self.joins += 1;
        if self.joins >= self.every {
            self.joins = 0;
            true
        } else {
            false
        }
    }
}

impl Default for EpochClock {
    fn default() -> Self {
        EpochClock::new(1)
    }
}

/// Team-join hook: advance `clock` and run a migration epoch on the
/// boundary. Call after the join barrier, so the daemon sees the whole
/// team's references. A no-op machine-side when migration is off.
pub fn join_epoch(m: &mut Machine, clock: &mut EpochClock) {
    if clock.tick() {
        m.migration_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_machine::{AccessKind, MachineConfig, MigrationPolicy, ProcId};

    #[test]
    fn clock_ticks_every_nth_join() {
        let mut c = EpochClock::new(3);
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick());
        assert!(!c.tick());
        let mut every = EpochClock::default();
        assert!(every.tick());
        assert!(every.tick());
    }

    #[test]
    fn join_epoch_drives_the_daemon() {
        let mut cfg = MachineConfig::small_test(4);
        cfg.migration = MigrationPolicy::threshold(4);
        // Keep the serial access-count epoch out of the way: this test
        // exercises the join-driven path only.
        cfg.migration_epoch = u64::MAX;
        cfg.l2 = dsm_machine::CacheConfig::new(256, 64, 2);
        cfg.l1 = dsm_machine::CacheConfig::new(128, 32, 2);
        let mut m = Machine::new(cfg);
        let a = m.alloc_pages(1024);
        // First touch on node 0 (explicit placement would pin the page
        // against the daemon).
        for off in (0..1024).step_by(64) {
            m.access(ProcId(0), a + off, AccessKind::Read);
        }
        for _ in 0..8 {
            for off in (0..1024).step_by(64) {
                m.access(ProcId(2), a + off, AccessKind::Read);
            }
        }
        assert_eq!(m.migrations(), 0, "no epoch boundary yet");
        let mut clock = EpochClock::default();
        join_epoch(&mut m, &mut clock);
        assert!(m.migrations() >= 1, "join boundary must run the daemon");
    }
}
