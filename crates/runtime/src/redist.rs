//! Scheduled redistribution: plan page moves as contention-bounded
//! rounds instead of walking pages home-by-home.
//!
//! The naive mover ([`RtArray::redistribute`]) visits every page of the
//! array and remaps it on the spot, home or not, charging a flat fault +
//! shootdown price per page to the calling processor. This module replaces that loop with a three-step engine in
//! the spirit of Sudarsan & Ribbens' scheduled redistribution for
//! resizable computations:
//!
//! 1. **Plan** — compute each page's new home directly from the target
//!    descriptor ([`DistDescriptor::last_owner_in`]), stepping by *chunk
//!    runs* (the contiguous same-owner runs of the fastest-varying
//!    dimension) rather than per element, so a block-cyclic(k) →
//!    block-cyclic(k′) conversion costs O(chunks) per page, with no
//!    materialized intermediate copy. Only pages whose home actually
//!    changes become moves (delta-only — the heart of cheap team resize).
//! 2. **Schedule** — pack the moves into rounds such that within a round
//!    no node sources more than `fan` pages (fan-out) or sinks more than
//!    `fan` pages (fan-in). Transfers inside a round are node-disjoint
//!    up to the bound, so they can overlap on the interconnect.
//! 3. **Execute** — apply each round through
//!    [`Machine::apply_redist_round`], which prices the round at its
//!    longest hop-aware bulk transfer plus one coalesced TLB shootdown
//!    and records the work in the machine's redistribution counters.
//!
//! The naive mover stays available as the differential oracle: both
//! engines must produce identical final homes (they share the
//! "last requester wins" owner rule), and since neither touches array
//! *data*, captures are bit-identical by construction — the conformance
//! matrix asserts both.

use std::sync::Arc;

use dsm_ir::{DistKind, Distribution};
use dsm_machine::{Machine, NodeId, ProcId, VAddr};

use crate::descriptor::DistDescriptor;
use crate::layout::{ArrayLayout, RtArray};
use crate::RuntimeError;

/// Default per-round per-node fan-in/fan-out bound.
pub const DEFAULT_FAN: usize = 1;

/// One planned page transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMove {
    /// Virtual page number being moved.
    pub vpage: u64,
    /// Current home node.
    pub from: NodeId,
    /// New home node.
    pub to: NodeId,
}

/// A complete redistribution schedule: rounds of contention-bounded
/// moves.
#[derive(Debug, Clone, Default)]
pub struct RedistSchedule {
    /// Rounds in execution order; every move within a round respects the
    /// fan bound.
    pub rounds: Vec<Vec<PageMove>>,
    /// The per-round per-node fan-in/fan-out bound the rounds satisfy.
    pub fan: usize,
    /// Pages examined by the planner (the array's full page span).
    pub pages_scanned: u64,
}

impl RedistSchedule {
    /// Total pages the schedule moves (Σ rounds).
    pub fn pages_moved(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Iterate every move in execution order.
    pub fn moves(&self) -> impl Iterator<Item = &PageMove> {
        self.rounds.iter().flatten()
    }
}

/// Plan the delta moves for remapping the contiguous range
/// `[base, base + total_bytes)` to the owners described by `desc`, then
/// pack them into fan-bounded rounds.
///
/// Unmapped pages (never touched or placed) are planned as `from == to`
/// self-moves so they get mapped and pinned like the naive mover would.
pub fn plan_schedule(
    m: &Machine,
    base: VAddr,
    total_bytes: u64,
    desc: &DistDescriptor,
    elem_bytes: u64,
    fan: usize,
) -> RedistSchedule {
    let fan = fan.max(1);
    let page = m.config().page_size as u64;
    let procs_per_node = m.config().procs_per_node;
    let n_nodes = m.config().n_nodes;
    let mut moves: Vec<PageMove> = Vec::new();
    let mut pages_scanned = 0u64;
    let mut off = 0u64;
    while off < total_bytes {
        pages_scanned += 1;
        let owner = desc.last_owner_in(off / elem_bytes, (off + page - 1) / elem_bytes);
        let to = NodeId(owner / procs_per_node);
        let vpage = (base + off) / page;
        match m.home_of(base + off) {
            Some(from) if from == to => {} // already home: no move
            Some(from) => moves.push(PageMove { vpage, from, to }),
            // Never mapped: a self-move maps and pins it like the naive
            // mover would, at local-transfer cost.
            None => moves.push(PageMove { vpage, from: to, to }),
        }
        off += page;
    }
    // Greedy round packing in ascending page order (deterministic): a
    // move lands in the earliest round where both endpoints still have
    // fan budget. Per-node cursors remember the first round with budget
    // left, so each placement scans O(1) rounds in the common uniform
    // case instead of restarting from round zero.
    let mut rounds: Vec<Vec<PageMove>> = Vec::new();
    let mut fan_out: Vec<Vec<usize>> = Vec::new(); // per round, per node
    let mut fan_in: Vec<Vec<usize>> = Vec::new();
    let mut first_out = vec![0usize; n_nodes]; // first round with fan-out budget
    let mut first_in = vec![0usize; n_nodes];
    for mv in moves {
        // Rounds below either cursor are full for that endpoint, so the
        // earliest feasible round is at or after their max.
        let mut r = first_out[mv.from.0].max(first_in[mv.to.0]);
        while r < rounds.len() && (fan_out[r][mv.from.0] >= fan || fan_in[r][mv.to.0] >= fan) {
            r += 1;
        }
        if r == rounds.len() {
            rounds.push(Vec::new());
            fan_out.push(vec![0; n_nodes]);
            fan_in.push(vec![0; n_nodes]);
        }
        fan_out[r][mv.from.0] += 1;
        fan_in[r][mv.to.0] += 1;
        rounds[r].push(mv);
        while first_out[mv.from.0] < rounds.len() && fan_out[first_out[mv.from.0]][mv.from.0] >= fan
        {
            first_out[mv.from.0] += 1;
        }
        while first_in[mv.to.0] < rounds.len() && fan_in[first_in[mv.to.0]][mv.to.0] >= fan {
            first_in[mv.to.0] += 1;
        }
    }
    RedistSchedule {
        rounds,
        fan,
        pages_scanned,
    }
}

/// Execute a schedule: apply each round through the machine, which
/// remaps + re-pins the pages, charges the round's cost to the whole
/// team and accumulates the `redist_{pages,cycles}` counters. Returns
/// the pages moved.
pub fn execute_schedule(m: &mut Machine, sched: &RedistSchedule) -> usize {
    let mut moved = 0;
    for round in &sched.rounds {
        let tuples: Vec<(u64, NodeId, NodeId)> =
            round.iter().map(|mv| (mv.vpage, mv.from, mv.to)).collect();
        m.apply_redist_round(&tuples);
        moved += round.len();
    }
    moved
}

impl RtArray {
    /// Dynamically redistribute a regular array with the scheduled
    /// engine: rebind the descriptor, plan the delta page moves, pack
    /// them into fan-bounded rounds and execute them. Data-identical to
    /// the naive [`RtArray::redistribute`] (same final homes, array
    /// contents untouched); only the cycle accounting differs.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RedistributeReshaped`] when invoked on a
    /// reshaped array — the paper forbids dynamic reshaping, and the
    /// scheduler enforces it independently of the naive path.
    pub fn redistribute_scheduled(
        &mut self,
        m: &mut Machine,
        _caller: ProcId,
        new_dist: &Distribution,
        nprocs: usize,
    ) -> Result<usize, RuntimeError> {
        if self.kind == DistKind::Reshaped {
            return Err(RuntimeError::RedistributeReshaped {
                array: self.name.clone(),
            });
        }
        self.desc = Arc::new(DistDescriptor::new(&self.desc.extents(), new_dist, nprocs));
        let ArrayLayout::Contiguous { base } = self.layout else {
            unreachable!("non-reshaped arrays are contiguous")
        };
        let total_bytes = self.desc.total_len() * self.elem_bytes;
        let sched = plan_schedule(m, base, total_bytes, &self.desc, self.elem_bytes, DEFAULT_FAN);
        Ok(execute_schedule(m, &sched))
    }

    /// Re-chunk this array for a new team size (`c$resize_team`),
    /// moving only the delta pages: the descriptor is re-resolved with
    /// the same per-dimension formats against `new_nprocs` (clamped to
    /// the machine's processor count — page homes are node addresses, so
    /// a team cannot outgrow the machine), and the scheduler plans moves
    /// only for pages whose home changes under the new chunking.
    ///
    /// Undistributed arrays are untouched. `scheduled` selects the
    /// scheduled or naive mover (the naive leg is the differential
    /// oracle).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ResizeWithReshaped`] for reshaped arrays:
    /// their portions are bound to the old processor grid and cannot be
    /// re-chunked without reshaping, which the paper forbids at runtime.
    pub fn resize_team(
        &mut self,
        m: &mut Machine,
        caller: ProcId,
        new_nprocs: usize,
        scheduled: bool,
    ) -> Result<usize, RuntimeError> {
        match self.kind {
            DistKind::None => Ok(0),
            DistKind::Reshaped => Err(RuntimeError::ResizeWithReshaped {
                array: self.name.clone(),
            }),
            DistKind::Regular => {
                let new_nprocs = new_nprocs.clamp(1, m.nprocs());
                let dist = Distribution::new(self.desc.dims.iter().map(|d| d.dist).collect());
                if scheduled {
                    self.redistribute_scheduled(m, caller, &dist, new_nprocs)
                } else {
                    self.redistribute(m, caller, &dist, new_nprocs)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolSet;
    use dsm_ir::Dist;
    use dsm_machine::MachineConfig;

    fn setup(nprocs: usize) -> (Machine, PoolSet) {
        let m = Machine::new(MachineConfig::small_test(nprocs));
        let pools = PoolSet::new(nprocs, 4096);
        (m, pools)
    }

    fn regular(m: &mut Machine, pools: &mut PoolSet, extents: &[u64], dists: Vec<Dist>, p: usize) -> RtArray {
        RtArray::instantiate(
            m,
            pools,
            "a",
            extents,
            Some(&Distribution::new(dists)),
            DistKind::Regular,
            p,
        )
    }

    #[test]
    fn schedule_respects_fan_bounds_and_uniqueness() {
        let (mut m, mut pools) = setup(8);
        let mut a = regular(&mut m, &mut pools, &[4096], vec![Dist::Block], 8);
        let cyclic = Distribution::new(vec![Dist::Cyclic(64)]);
        a.desc = Arc::new(DistDescriptor::new(&[4096], &cyclic, 8));
        let ArrayLayout::Contiguous { base } = a.layout else {
            unreachable!()
        };
        let sched = plan_schedule(&m, base, 4096 * 8, &a.desc, 8, DEFAULT_FAN);
        let n_nodes = m.config().n_nodes;
        let mut seen = std::collections::HashSet::new();
        for round in &sched.rounds {
            let mut out = vec![0usize; n_nodes];
            let mut inn = vec![0usize; n_nodes];
            for mv in round {
                assert!(seen.insert(mv.vpage), "page {} moved twice", mv.vpage);
                out[mv.from.0] += 1;
                inn[mv.to.0] += 1;
            }
            assert!(out.iter().all(|&c| c <= sched.fan), "fan-out exceeded");
            assert!(inn.iter().all(|&c| c <= sched.fan), "fan-in exceeded");
        }
    }

    #[test]
    fn scheduled_and_naive_agree_on_homes() {
        for (new_dists, p) in [
            (vec![Dist::Cyclic(64)], 4usize),
            (vec![Dist::Cyclic(13)], 8),
            (vec![Dist::Block], 8),
        ] {
            let (mut m_s, mut pools_s) = setup(p);
            let (mut m_n, mut pools_n) = setup(p);
            let mut a_s = regular(&mut m_s, &mut pools_s, &[2048], vec![Dist::Block], p);
            let mut a_n = regular(&mut m_n, &mut pools_n, &[2048], vec![Dist::Block], p);
            let dist = Distribution::new(new_dists);
            a_s.redistribute_scheduled(&mut m_s, ProcId(0), &dist, p)
                .unwrap();
            a_n.redistribute(&mut m_n, ProcId(0), &dist, p).unwrap();
            for i in (0..2048u64).step_by(64) {
                assert_eq!(
                    m_s.home_of(a_s.addr_of(&[i])),
                    m_n.home_of(a_n.addr_of(&[i])),
                    "element {i} home diverges"
                );
            }
            assert_eq!(m_s.pages_per_node(), m_n.pages_per_node());
        }
    }

    #[test]
    fn scheduled_moves_only_the_delta() {
        let (mut m, mut pools) = setup(4);
        let mut a = regular(&mut m, &mut pools, &[512], vec![Dist::Block], 4);
        // Identity redistribution: no page changes home, no moves, no
        // cycles — while the naive mover would remap all 4 pages.
        let before = m.redist_pages();
        let moved = a
            .redistribute_scheduled(&mut m, ProcId(0), &Distribution::new(vec![Dist::Block]), 4)
            .unwrap();
        assert_eq!(moved, 0, "identity redistribution must move nothing");
        assert_eq!(m.redist_pages(), before);
        assert_eq!(m.redist_cycles(), 0);
    }

    #[test]
    fn scheduled_counters_accumulate() {
        let (mut m, mut pools) = setup(4);
        let mut a = regular(&mut m, &mut pools, &[512], vec![Dist::Block], 4);
        let moved = a
            .redistribute_scheduled(
                &mut m,
                ProcId(0),
                &Distribution::new(vec![Dist::Cyclic(64)]),
                4,
            )
            .unwrap();
        assert!(moved > 0);
        assert_eq!(m.redist_pages(), moved as u64);
        assert!(m.redist_cycles() > 0, "rounds must be priced");
        assert!(m.redist_rounds() > 0);
    }

    #[test]
    fn redistribute_scheduled_reshaped_is_rejected() {
        let (mut m, mut pools) = setup(2);
        let dist = Distribution::new(vec![Dist::Block]);
        let mut a = RtArray::instantiate(
            &mut m,
            &mut pools,
            "a",
            &[64],
            Some(&dist),
            DistKind::Reshaped,
            2,
        );
        let err = a
            .redistribute_scheduled(&mut m, ProcId(0), &Distribution::new(vec![Dist::Cyclic(1)]), 2)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::RedistributeReshaped { .. }));
    }

    #[test]
    fn resize_rejects_reshaped_and_ignores_undistributed() {
        let (mut m, mut pools) = setup(4);
        let dist = Distribution::new(vec![Dist::Block]);
        let mut r = RtArray::instantiate(
            &mut m,
            &mut pools,
            "r",
            &[64],
            Some(&dist),
            DistKind::Reshaped,
            4,
        );
        assert!(matches!(
            r.resize_team(&mut m, ProcId(0), 2, true).unwrap_err(),
            RuntimeError::ResizeWithReshaped { .. }
        ));
        let mut u = RtArray::instantiate(&mut m, &mut pools, "u", &[64], None, DistKind::None, 4);
        assert_eq!(u.resize_team(&mut m, ProcId(0), 2, true).unwrap(), 0);
    }

    #[test]
    fn resize_moves_only_delta_pages() {
        // 8 pages block over 4 procs (2 nodes): pages 0-3 node 0, 4-7
        // node 1. Shrinking to 2 procs (both on node 0) must move only
        // the 4 pages that change home.
        let (mut m, mut pools) = setup(4);
        let mut a = regular(&mut m, &mut pools, &[1024], vec![Dist::Block], 4);
        let moved = a.resize_team(&mut m, ProcId(0), 2, true).unwrap();
        assert_eq!(moved, 4, "only the upper half changes home");
        assert_eq!(a.desc.dims[0].nprocs, 2);
        for i in 0..1024u64 {
            assert_eq!(m.home_of(a.addr_of(&[i])), Some(NodeId(0)));
        }
    }

    #[test]
    fn redistributed_pages_stay_pinned_against_migration() {
        // Pinned-page interaction: pages move under redistribution and
        // are pinned again afterwards, so the reactive daemon still
        // leaves them alone.
        let (mut m, mut pools) = setup(4);
        let mut a = regular(&mut m, &mut pools, &[512], vec![Dist::Block], 4);
        let ArrayLayout::Contiguous { base } = a.layout else {
            unreachable!()
        };
        let page = m.config().page_size as u64;
        for i in 0..4u64 {
            assert!(m.page_pinned((base + i * page) / page), "pre-pin missing");
        }
        a.redistribute_scheduled(
            &mut m,
            ProcId(0),
            &Distribution::new(vec![Dist::Cyclic(64)]),
            4,
        )
        .unwrap();
        for i in 0..4u64 {
            assert!(
                m.page_pinned((base + i * page) / page),
                "page {i} lost its pin across scheduled redistribution"
            );
        }
    }
}
