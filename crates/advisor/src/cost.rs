//! Static plan pruning: a closed-form memory-fill estimate over the
//! machine's [`CostModel`]. The estimate is deliberately coarse — it only
//! has to *rank* candidates well enough that obviously-bad plans never
//! reach the simulator, not predict cycles.

use dsm_exec::profile::block_covers_page;
use dsm_machine::CostModel;

use crate::analyze::Analysis;
use crate::plan::{Di, Plan, PlanDist};

const ELEM_BYTES: u64 = 8;

/// Estimated memory-system cost of running the program under `plan`, in
/// arbitrary comparable units (cycles-ish).
pub fn estimate(plan: &Plan, an: &Analysis, cm: &CostModel, nprocs: usize) -> u64 {
    let line_elems = (cm.line_size as u64 / ELEM_BYTES).max(1);
    let mut total = 0u64;
    for (i, site) in an.sites.iter().enumerate() {
        let parallel = plan.loops.iter().any(|l| l.site == i);
        // The team width in effect at this site: the latest resize point
        // at or before its line, else the full machine.
        let width = plan
            .resizes
            .iter()
            .filter(|r| r.before_line <= site.line)
            .max_by_key(|r| r.before_line)
            .map_or(nprocs, |r| r.team.min(nprocs));
        let mut site_cost = 0u64;
        let accessed = site
            .writes
            .iter()
            .map(|(n, s)| (n.as_str(), Some(*s)))
            .chain(site.reads.iter().map(|(n, s)| (n.as_str(), *s)));
        for (name, slot) in accessed {
            let Some(info) = an.array(name) else { continue };
            let fills = (info.elems().max(1) as u64).div_ceil(line_elems);
            let per_fill = match plan.dist_of(name) {
                Some(d) if parallel => match slot {
                    Some(s) if blocked_on(d, s) && expressible(d, s, &info.dims, cm) => {
                        cm.local_fill
                    }
                    _ => cm.scattered_fill(),
                },
                // A distributed array accessed serially: one processor
                // walks blocks homed all over the machine.
                Some(_) => cm.scattered_fill(),
                // Undistributed + parallel: first touch homed the pages
                // wherever the (likely serial) initializer ran, so every
                // fill hammers one hot node.
                None if parallel => cm.hot_node_fill(),
                None => cm.local_fill,
            };
            site_cost += fills * per_fill;
        }
        if parallel {
            site_cost /= width.max(1) as u64;
        }
        total += site_cost;
    }
    for r in &plan.redists {
        if let Some(info) = an.array(&r.array) {
            let fills = (info.elems().max(1) as u64).div_ceil(line_elems);
            total += fills * cm.mean_remote_fill();
        }
    }
    // A resize re-homes only the delta pages of each distributed array
    // (the scheduled mover), so charge a fraction of a full move.
    for _ in &plan.resizes {
        for d in &plan.dists {
            if let Some(info) = an.array(&d.array) {
                let fills = (info.elems().max(1) as u64).div_ceil(line_elems);
                total += fills * cm.mean_remote_fill() / 2;
            }
        }
    }
    total
}

fn blocked_on(d: &PlanDist, slot: usize) -> bool {
    matches!(d.items.get(slot), Some(Di::Block | Di::Cyclic(_)))
}

/// Can this distribution be honored at page granularity? Reshape always
/// can; a regular distribution only when each node's run of elements
/// along the blocked dimension covers at least a page.
fn expressible(d: &PlanDist, slot: usize, dims: &[i64], cm: &CostModel) -> bool {
    if d.reshape {
        return true;
    }
    if matches!(d.items.get(slot), Some(Di::Cyclic(_))) {
        // Regular cyclic is never page-expressible for the small strides
        // the planner tries.
        return false;
    }
    let stride: u64 = dims[..slot].iter().map(|&d| d.max(1) as u64).product();
    let extent = dims[slot].max(1) as u64;
    block_covers_page(extent, stride, cm.n_nodes, cm.page_size as u64 / ELEM_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::plan::{block_at, PlanLoop};
    use dsm_machine::MachineConfig;

    const PHASES: &str = "\
      program phases
      integer i, j
      real*8 a(256, 256)
      do j = 1, 256
        do i = 1, 256
          a(i, j) = i + j
        enddo
      enddo
      do i = 1, 256
        do j = 1, 256
          a(i, j) = a(i, j) * 0.5
        enddo
      enddo
      end
";

    fn setup() -> (Analysis, CostModel) {
        let an = analyze(&[("p.f".to_string(), PHASES.to_string())]).unwrap();
        (an, MachineConfig::small_test(8).cost_model())
    }

    fn both_parallel(p: Plan) -> Plan {
        p.with_loop(
            0,
            Some(PlanLoop {
                site: 0,
                affinity: None,
                nest: false,
                sched: None,
            }),
        )
        .with_loop(
            1,
            Some(PlanLoop {
                site: 1,
                affinity: None,
                nest: false,
                sched: None,
            }),
        )
    }

    #[test]
    fn matching_distribution_beats_baseline_and_mismatch() {
        let (an, cm) = setup();
        let baseline = estimate(&Plan::default(), &an, &cm, 8);
        // Parallel but undistributed: hot-node per-fill, divided by P.
        let parallel = estimate(&both_parallel(Plan::default()), &an, &cm, 8);
        // Site 0 iterates j (slot 1): (*, block) matches it.
        let good = both_parallel(Plan::default()).with_dist(
            "a",
            Some(PlanDist {
                array: "a".into(),
                items: block_at(1, 2),
                reshape: false,
                onto: vec![],
            }),
        );
        // (block, *) serves neither site well without a reshape: slot-0
        // runs are one column, far below a page.
        let bad = both_parallel(Plan::default()).with_dist(
            "a",
            Some(PlanDist {
                array: "a".into(),
                items: block_at(0, 2),
                reshape: false,
                onto: vec![],
            }),
        );
        let good_est = estimate(&good, &an, &cm, 8);
        let bad_est = estimate(&bad, &an, &cm, 8);
        assert!(good_est < bad_est, "{good_est} !< {bad_est}");
        assert!(good_est < parallel, "{good_est} !< {parallel}");
        assert!(parallel < baseline, "{parallel} !< {baseline}");
    }

    #[test]
    fn reshape_rescues_the_unaligned_slot() {
        let (an, cm) = setup();
        let regular = both_parallel(Plan::default()).with_dist(
            "a",
            Some(PlanDist {
                array: "a".into(),
                items: block_at(0, 2),
                reshape: false,
                onto: vec![],
            }),
        );
        let reshaped = both_parallel(Plan::default()).with_dist(
            "a",
            Some(PlanDist {
                array: "a".into(),
                items: block_at(0, 2),
                reshape: true,
                onto: vec![],
            }),
        );
        // Reshape makes the slot-0 distribution expressible, so site 1
        // (which iterates i) turns local.
        assert!(estimate(&reshaped, &an, &cm, 8) < estimate(&regular, &an, &cm, 8));
    }

    #[test]
    fn redistribute_charges_a_move() {
        let (an, cm) = setup();
        let base = both_parallel(Plan::default()).with_dist(
            "a",
            Some(PlanDist {
                array: "a".into(),
                items: block_at(1, 2),
                reshape: false,
                onto: vec![],
            }),
        );
        let with_move = base.with_redist(crate::plan::PlanRedist {
            array: "a".into(),
            before_line: an.sites[1].line,
            items: block_at(0, 2),
        });
        assert!(estimate(&with_move, &an, &cm, 8) > estimate(&base, &an, &cm, 8));
    }
}
