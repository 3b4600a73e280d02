//! Machine configuration: geometry, latencies and operation costs.
//!
//! The default numbers come straight from the paper (Section 2) and the
//! Origin-2000 literature \[LL97\]: 195 MHz R10000, 32 KB / 32 B-line L1,
//! 1–4 MB / 128 B-line unified L2 (two-way), 16 KB pages, ~70-cycle local
//! miss, 110–180-cycle remote miss, 35-cycle integer divide, 11-cycle
//! floating-point divide.

use crate::cache::CacheConfig;
use crate::directory::MAX_PROCS;
use crate::migrate::MigrationPolicy;
use crate::pagetable::PagePolicy;
use crate::sample::SamplingConfig;

/// Latency parameters, in processor cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyConfig {
    /// Cost of an L1 hit (load-to-use).
    pub l1_hit: u64,
    /// Additional cost of an L2 hit after an L1 miss.
    pub l2_hit: u64,
    /// Cost of an L2 miss satisfied by the local node's memory.
    pub local_mem: u64,
    /// Base cost of an L2 miss satisfied by a remote node's memory.
    pub remote_base: u64,
    /// Extra cost per network hop on the hypercube for a remote miss.
    pub remote_per_hop: u64,
    /// TLB refill penalty (software refill on the R10000).
    pub tlb_miss: u64,
    /// First-touch page-fault service cost (zeroing + table update).
    pub page_fault: u64,
    /// Cost charged to a writer per remote sharer invalidated.
    pub invalidation: u64,
    /// Cost of writing back a dirty victim line to its home memory.
    pub writeback: u64,
    /// Memory/hub occupancy per serviced miss: the home node's memory
    /// system is busy this many cycles per line it supplies.  A node
    /// whose memory all processors hit becomes a throughput bottleneck —
    /// the effect behind the paper's hot-node first-touch collapse in
    /// Figure 5 (the Origin hub sustains roughly one 128-byte line per
    /// ~20 processor cycles).
    pub mem_occupancy: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 10,
            local_mem: 70,
            remote_base: 110,
            remote_per_hop: 12,
            tlb_miss: 50,
            page_fault: 400,
            invalidation: 30,
            writeback: 12,
            mem_occupancy: 20,
        }
    }
}

/// Per-operation execution costs used by the interpreter, in cycles.
///
/// These drive the Table-2 ablation: un-optimized reshaped addressing does an
/// integer `div` and `mod` per reference (35 cycles each on the R10000,
/// not pipelined), the software floating-point emulation costs 11 cycles,
/// and the tiled/peeled code does neither.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCosts {
    /// Simple integer ALU operation (add/sub/logical/compare).
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide or remainder (hardware).
    pub int_div: u64,
    /// Integer divide or remainder emulated through the FP unit
    /// (Section 7.3 of the paper).
    pub fp_emulated_div: u64,
    /// Floating point add/sub/mul (pipelined).
    pub fp_alu: u64,
    /// Floating point divide.
    pub fp_div: u64,
    /// Per-iteration loop bookkeeping (increment + branch).
    pub loop_overhead: u64,
    /// Cost of entering a parallel region (fork on the Origin is ~ a few
    /// microseconds; we charge it once per doacross).
    pub parallel_fork: u64,
    /// Cost of a barrier participant (charged to each processor at the
    /// implicit end-of-doacross barrier).
    pub barrier: u64,
}

impl Default for OpCosts {
    fn default() -> Self {
        OpCosts {
            int_alu: 1,
            int_mul: 6,
            int_div: 35,
            fp_emulated_div: 11,
            fp_alu: 2,
            fp_div: 11,
            loop_overhead: 2,
            parallel_fork: 2000,
            barrier: 300,
        }
    }
}

/// Full machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of NUMA nodes (each holds `procs_per_node` processors and a
    /// slice of main memory). Must be a power of two for the hypercube.
    pub n_nodes: usize,
    /// Processors per node (2 on the Origin-2000).
    pub procs_per_node: usize,
    /// Page size in bytes (16 KB on the Origin-2000).
    pub page_size: usize,
    /// Number of physical page frames available on each node.
    pub frames_per_node: usize,
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// Unified L2 cache geometry.
    pub l2: CacheConfig,
    /// TLB entries (fully associative).
    pub tlb_entries: usize,
    /// Default page-placement policy for unmapped pages.
    pub policy: PagePolicy,
    /// Whether the OS applies page colouring when choosing frames
    /// (the Origin's IRIX does; see Section 8.2 of the paper).
    pub page_coloring: bool,
    /// Reactive OS page migration (the Verghese et al. \[VDG+96\]
    /// baseline the paper's related work compares against). Per-page
    /// per-node reference counters accumulate on every memory fill; at
    /// epoch boundaries the policy decides which pages move to their
    /// dominant node. [`MigrationPolicy::Off`] by default — it is an
    /// extension, not part of the paper's system.
    pub migration: MigrationPolicy,
    /// Serial accesses between migration-daemon epochs. Parallel-team
    /// joins are additional epoch boundaries regardless of this count.
    pub migration_epoch: u64,
    /// Systematic cache-set sampling ([`SamplingConfig::EXACT`] by
    /// default). At rates > 1 only `1/rate` of the L2 sets are simulated
    /// and the rest are extrapolated; data results stay bit-identical
    /// (see the [`crate::sample`] module docs).
    pub sampling: SamplingConfig,
    /// Latency parameters.
    pub lat: LatencyConfig,
    /// Operation costs.
    pub ops: OpCosts,
}

impl MachineConfig {
    /// The full-scale Origin-2000 of the paper: up to 64 nodes / 128
    /// processors, 16 KB pages, 4 MB two-way L2 with 128 B lines,
    /// 32 KB two-way L1 with 32 B lines, 64-entry TLB.
    ///
    /// `nprocs` is rounded up to a full node (2 processors per node).
    pub fn origin2000(nprocs: usize) -> Self {
        let n_nodes = (nprocs.max(1)).div_ceil(2).next_power_of_two();
        MachineConfig {
            n_nodes,
            procs_per_node: 2,
            page_size: 16 * 1024,
            // 16 GB machine / 128 procs ~ 250 MB per node (paper Section 8.1)
            frames_per_node: (250 * 1024 * 1024) / (16 * 1024),
            l1: CacheConfig::new(32 * 1024, 32, 2),
            l2: CacheConfig::new(4 * 1024 * 1024, 128, 2),
            tlb_entries: 64,
            policy: PagePolicy::FirstTouch,
            page_coloring: true,
            migration: MigrationPolicy::Off,
            migration_epoch: 4096,
            sampling: SamplingConfig::EXACT,
            lat: LatencyConfig::default(),
            ops: OpCosts::default(),
        }
    }

    /// An Origin-2000 scaled down linearly by `divisor` in every capacity
    /// dimension (page size, cache sizes, TLB reach, per-node memory), so
    /// that experiments over arrays scaled by the same factor preserve the
    /// paper's governing ratios:
    ///
    /// * contiguous-portion bytes : page bytes (drives page-granularity
    ///   false sharing and hence regular-vs-reshaped),
    /// * working-set bytes : aggregate cache bytes (drives the superlinear
    ///   knees in Figures 4, 5 and 7).
    ///
    /// Latencies and op costs are *not* scaled — they are properties of the
    /// processor, not of capacity.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is 0 or does not divide the capacities down to
    /// legal geometries (page ≥ L2 line, caches ≥ one set).
    pub fn scaled_origin2000(nprocs: usize, divisor: usize) -> Self {
        assert!(divisor > 0, "scale divisor must be positive");
        let base = Self::origin2000(nprocs);
        // Scaling recipe (see DESIGN.md §5): array *lengths* scale by the
        // linear factor L = divisor/4, so array *data* scales by ~L².
        //   - the page size scales by L, preserving the paper's
        //     portion-run : page ratios (what separates regular from
        //     reshaped in Figures 5-7);
        //   - caches scale by `divisor` (between L and L² — line sizes
        //     cannot shrink below an element, so exact area scaling is
        //     impossible; this keeps the working-set : aggregate-cache
        //     knee in range);
        //   - per-node memory scales by L², preserving the class-C
        //     "exceeds one node" overflow of Figure 4.
        let linear = (divisor / 4).max(1);
        let page_size = (base.page_size / linear).max(256);
        let l1_line = 32usize;
        let l2_line = 128usize.min(page_size);
        let l1_size = (base.l1.size / divisor).max(l1_line * 2 * 4);
        let l2_size = (base.l2.size / divisor).max(l2_line * 2 * 4);
        let node_bytes = (base.frames_per_node * base.page_size) / (linear * linear);
        MachineConfig {
            page_size,
            frames_per_node: (node_bytes / page_size).max(64),
            l1: CacheConfig::new(l1_size, l1_line, 2),
            l2: CacheConfig::new(l2_size, l2_line, 2),
            tlb_entries: base.tlb_entries,
            ..base
        }
    }

    /// A tiny configuration for unit tests: small caches and pages so that
    /// capacity effects are observable with little data.
    pub fn small_test(nprocs: usize) -> Self {
        let n_nodes = (nprocs.max(1)).div_ceil(2).next_power_of_two();
        MachineConfig {
            n_nodes,
            procs_per_node: 2,
            page_size: 1024,
            frames_per_node: 4096,
            l1: CacheConfig::new(1024, 32, 2),
            l2: CacheConfig::new(8 * 1024, 64, 2),
            tlb_entries: 8,
            policy: PagePolicy::FirstTouch,
            page_coloring: true,
            migration: MigrationPolicy::Off,
            migration_epoch: 1024,
            sampling: SamplingConfig::EXACT,
            lat: LatencyConfig::default(),
            ops: OpCosts::default(),
        }
    }

    /// Total number of processors on the machine.
    pub fn nprocs(&self) -> usize {
        self.n_nodes * self.procs_per_node
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint (non-power-of-two node count, more than [`MAX_PROCS`]
    /// processors, page smaller than an L2 line, zero frames, …).
    pub fn validate(&self) -> Result<(), String> {
        if !self.n_nodes.is_power_of_two() {
            return Err(format!(
                "n_nodes = {} must be a power of two for a hypercube",
                self.n_nodes
            ));
        }
        if self.procs_per_node == 0 {
            return Err("procs_per_node must be at least 1".into());
        }
        if self.nprocs() > MAX_PROCS {
            return Err(format!(
                "{} processors exceed the {MAX_PROCS} a directory entry tracks",
                self.nprocs()
            ));
        }
        if !self.page_size.is_power_of_two() {
            return Err(format!(
                "page_size = {} must be a power of two",
                self.page_size
            ));
        }
        if self.page_size < self.l2.line_size {
            return Err(format!(
                "page_size = {} smaller than L2 line = {}",
                self.page_size, self.l2.line_size
            ));
        }
        if self.frames_per_node == 0 {
            return Err("frames_per_node must be positive".into());
        }
        self.l1.validate().map_err(|e| format!("L1: {e}"))?;
        self.l2.validate().map_err(|e| format!("L2: {e}"))?;
        if self.tlb_entries == 0 {
            return Err("tlb_entries must be positive".into());
        }
        self.sampling
            .validate_geometry(&self.l1, &self.l2)
            .map_err(|e| format!("sampling: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_defaults_match_paper() {
        let c = MachineConfig::origin2000(64);
        assert_eq!(c.page_size, 16 * 1024);
        assert_eq!(c.l2.size, 4 * 1024 * 1024);
        assert_eq!(c.l2.line_size, 128);
        assert_eq!(c.l1.line_size, 32);
        assert_eq!(c.ops.int_div, 35);
        assert_eq!(c.ops.fp_emulated_div, 11);
        assert_eq!(c.lat.local_mem, 70);
        assert!(c.lat.remote_base >= 110);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn nodes_round_up_to_power_of_two() {
        assert_eq!(MachineConfig::origin2000(1).n_nodes, 1);
        assert_eq!(MachineConfig::origin2000(2).n_nodes, 1);
        assert_eq!(MachineConfig::origin2000(3).n_nodes, 2);
        assert_eq!(MachineConfig::origin2000(24).n_nodes, 16);
        assert_eq!(MachineConfig::origin2000(128).n_nodes, 64);
    }

    #[test]
    fn scaled_geometry_follows_the_recipe() {
        let full = MachineConfig::origin2000(8);
        let scaled = MachineConfig::scaled_origin2000(8, 64);
        // Pages scale by the linear factor (divisor/4 = 16).
        assert_eq!(scaled.page_size, full.page_size / 16);
        // Caches scale by the divisor.
        assert_eq!(scaled.l2.size, full.l2.size / 64);
        // Per-node memory scales by linear² (256).
        let full_mem = full.frames_per_node * full.page_size;
        let scaled_mem = scaled.frames_per_node * scaled.page_size;
        assert_eq!(scaled_mem, full_mem / 256);
        assert!(scaled.validate().is_ok());
    }

    #[test]
    fn scaled_extreme_clamps_to_legal_geometry() {
        let c = MachineConfig::scaled_origin2000(4, 1 << 20);
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert!(c.page_size >= c.l2.line_size);
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = MachineConfig::small_test(4);
        c.n_nodes = 3;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::small_test(4);
        c.page_size = 32; // smaller than L2 line (64)
        assert!(c.validate().is_err());
        let mut c = MachineConfig::small_test(4);
        c.frames_per_node = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_bounds_the_processor_count() {
        assert!(MachineConfig::origin2000(MAX_PROCS).validate().is_ok());
        // 129 rounds up to 128 nodes of 2.
        let err = MachineConfig::origin2000(MAX_PROCS + 1).validate();
        assert!(err.unwrap_err().contains("256 processors"));
        assert!(MachineConfig::small_test(200).validate().is_err());
    }

    #[test]
    fn small_test_is_valid() {
        assert!(MachineConfig::small_test(1).validate().is_ok());
        assert!(MachineConfig::small_test(16).validate().is_ok());
    }
}
