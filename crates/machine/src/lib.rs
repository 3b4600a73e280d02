//! # dsm-machine
//!
//! A cycle-cost simulator of a cache-coherent NUMA multiprocessor modelled on
//! the SGI Origin-2000, the evaluation platform of Chandra et al.,
//! *Data Distribution Support on Distributed Shared Memory Multiprocessors*
//! (PLDI 1997).
//!
//! The simulator is the substrate every experiment in this repository runs
//! on.  It models exactly the machine features the paper's results depend
//! on:
//!
//! * per-processor two-level set-associative caches (on-chip L1, off-chip
//!   unified L2) with LRU replacement and write-back/write-allocate policy,
//! * a per-processor TLB with a software-refill miss penalty,
//! * an OS page table with **first-touch**, **round-robin** and **explicit
//!   placement** policies at page granularity (16 KB on the real machine),
//! * a directory-based invalidation protocol that charges writers for
//!   invalidating remote sharers,
//! * a hypercube interconnect where remote-miss latency grows with hop
//!   count (local ≈ 70 cycles, remote ≈ 110–180 cycles on the Origin-2000),
//! * physical page colouring so that contiguous virtual pages map to
//!   non-conflicting cache bins,
//! * finite per-node memory capacity with spill to the nearest node —
//!   the effect behind the paper's superlinear uniprocessor anomaly,
//! * hardware-counter style statistics (cache misses, TLB misses,
//!   local/remote splits, invalidations) mirroring the R10000 counters the
//!   authors used for their analysis.
//!
//! The machine also owns a flat data store, so callers can *execute* real
//! programs against it: [`Machine::read_f64`] and friends return the value
//! *and* charge the access cost.
//!
//! # Example
//!
//! ```
//! use dsm_machine::{Machine, MachineConfig, AccessKind, ProcId};
//!
//! let mut m = Machine::new(MachineConfig::small_test(4));
//! let base = m.alloc(4096, 8);
//! let p0 = ProcId(0);
//! m.write_f64(p0, base, 3.5);
//! let (v, _cycles) = m.read_f64(p0, base);
//! assert_eq!(v, 3.5);
//! ```

pub mod cache;
pub mod config;
pub mod cost;
pub mod counters;
pub mod directory;
pub mod machine;
pub mod migrate;
pub mod pagetable;
pub mod profile;
pub mod sample;
pub mod shared;
pub mod tlb;
pub mod topology;

pub use cache::{Cache, CacheConfig};
pub use config::{LatencyConfig, MachineConfig, OpCosts};
pub use cost::CostModel;
pub use counters::CounterSet;
pub use directory::{Directory, MAX_PROCS};
pub use machine::{
    AccessKind, AccessRun, LineCursor, Machine, MachineShard, MachineSnapshot, RedistStats, VAddr,
};
pub use migrate::{MigrationPolicy, MigrationStats, RefCounters};
pub use pagetable::{PagePolicy, PageTable};
pub use sample::{SamplingConfig, SamplingSummary};
pub use profile::{
    AccessTag, AttributionTable, FillLevel, PageAttr, TagStats, SERIAL_REGION, UNTAGGED_SYM,
};
pub use shared::{ShardedDirectory, SharedSnapshot, SharedState, WordMem, DIR_SHARDS};
pub use tlb::Tlb;
pub use topology::{hops, NodeId};

/// Identifier of a simulated processor.
///
/// Processors are numbered `0..nprocs` across the whole machine; the node a
/// processor belongs to is `ProcId / procs_per_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}
