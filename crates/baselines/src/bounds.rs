//! Lower bounds on static-schedule length (the `LB` columns of
//! Tables 2–3).
//!
//! Two bound families are implemented:
//!
//! * the **iteration bound** — no pipeline beats the worst cycle's
//!   time-to-delay ratio (Renfors & Neuvo, computed exactly in
//!   [`rotsched_dfg::analysis::iteration_bound()`]);
//! * the **resource bound** — each unit class must fit its total
//!   occupancy into the kernel: `⌈Σ_v occupancy(v) / units⌉`.
//!
//! The paper's LB column uses tighter bounds derived in the first
//! author's thesis for a few configurations (e.g. elliptic 2A 2M = 17
//! vs. our 16); `EXPERIMENTS.md` flags those rows.

use rotsched_dfg::analysis::iteration_bound;
use rotsched_dfg::{Dfg, DfgError};
use rotsched_sched::ResourceSet;

/// The resource lower bound: the busiest unit class's total occupancy
/// divided by its unit count, rounded up.
///
/// Pipelined classes count one busy step per operation (issue slot);
/// non-pipelined classes count the full duration.
#[must_use]
pub fn resource_bound(dfg: &Dfg, resources: &ResourceSet) -> u64 {
    let mut per_class = vec![0_u64; resources.classes().len()];
    for (_, node) in dfg.nodes() {
        if let Some(class_id) = resources.class_for(node.op()) {
            let class = resources.class(class_id);
            let occupancy = if class.is_pipelined() {
                1
            } else {
                u64::from(node.steps())
            };
            per_class[class_id.index()] += occupancy;
        }
    }
    per_class
        .iter()
        .zip(resources.classes())
        .map(|(&occ, class)| {
            if class.count() == 0 {
                0
            } else {
                occ.div_ceil(u64::from(class.count()))
            }
        })
        .max()
        .unwrap_or(0)
}

/// The combined lower bound on the initiation interval:
/// `max(iteration bound, resource bound, 1)`.
///
/// Note that the longest single operation is **not** a bound on the
/// initiation interval: with pipelined units (or enough non-pipelined
/// copies), consecutive kernel instances overlap an operation's
/// execution, so the kernel can be shorter than any one operation's
/// latency.
///
/// # Errors
///
/// Returns [`DfgError::ZeroDelayCycle`] for invalid graphs.
pub fn lower_bound(dfg: &Dfg, resources: &ResourceSet) -> Result<u64, DfgError> {
    let ib = iteration_bound(dfg)?.unwrap_or(0);
    let rb = resource_bound(dfg, resources);
    Ok(ib.max(rb).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn six_adds_ring() -> Dfg {
        DfgBuilder::new("ring")
            .nodes("v", 6, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3", "v4", "v5"])
            .edge("v5", "v0", 3)
            .build()
            .unwrap()
    }

    #[test]
    fn resource_bound_counts_occupancy() {
        let g = six_adds_ring();
        assert_eq!(
            resource_bound(&g, &ResourceSet::adders_multipliers(2, 0, false)),
            3
        );
        assert_eq!(
            resource_bound(&g, &ResourceSet::adders_multipliers(6, 0, false)),
            1
        );
    }

    #[test]
    fn pipelined_units_count_issue_slots() {
        let g = DfgBuilder::new("mults")
            .nodes("m", 4, OpKind::Mul, 2)
            .build()
            .unwrap();
        // Non-pipelined: 4 ops * 2 steps / 2 units = 4.
        assert_eq!(
            resource_bound(&g, &ResourceSet::adders_multipliers(0, 2, false)),
            4
        );
        // Pipelined: 4 issue slots / 2 units = 2.
        assert_eq!(
            resource_bound(&g, &ResourceSet::adders_multipliers(0, 2, true)),
            2
        );
    }

    #[test]
    fn combined_bound_takes_the_maximum() {
        let g = six_adds_ring();
        // IB = 6/3 = 2; resources bound at 3 with 2 adders.
        let res = ResourceSet::adders_multipliers(2, 0, false);
        assert_eq!(lower_bound(&g, &res).unwrap(), 3);
        // With 6 adders the IB binds.
        let res = ResourceSet::adders_multipliers(6, 0, false);
        assert_eq!(lower_bound(&g, &res).unwrap(), 2);
    }

    #[test]
    fn long_operations_do_not_bound_the_initiation_interval() {
        // One 2-step multiplication on 4 units: consecutive kernel
        // instances can overlap the multiply on different units, so
        // II = 1 is feasible and the bound must not claim otherwise.
        let g = DfgBuilder::new("one")
            .node("m", OpKind::Mul, 2)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(1, 4, false);
        assert_eq!(lower_bound(&g, &res).unwrap(), 1);
        // With a single non-pipelined unit the occupancy bound applies.
        let res = ResourceSet::adders_multipliers(1, 1, false);
        assert_eq!(lower_bound(&g, &res).unwrap(), 2);
    }

    #[test]
    fn paper_benchmark_bounds() {
        use rotsched_benchmarks::{diffeq, elliptic, TimingModel};
        let t = TimingModel::paper();
        // Elliptic 3A 3M: LB 16 (the iteration bound binds).
        assert_eq!(
            lower_bound(&elliptic(&t), &ResourceSet::adders_multipliers(3, 3, false)).unwrap(),
            16
        );
        // Diffeq 1A 1M: 6 mults * 2 steps / 1 unit = 12.
        assert_eq!(
            lower_bound(&diffeq(&t), &ResourceSet::adders_multipliers(1, 1, false)).unwrap(),
            12
        );
        // Diffeq 1A 1Mp: 6 issue slots -> 6.
        assert_eq!(
            lower_bound(&diffeq(&t), &ResourceSet::adders_multipliers(1, 1, true)).unwrap(),
            6
        );
    }
}
