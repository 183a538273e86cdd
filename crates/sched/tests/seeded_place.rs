//! Placement oracle: `ListScheduler::reschedule` against a test-local
//! naive list scheduler that re-derives every ready node's earliest
//! start from its zero-delay predecessors at every control step and on
//! every pass. The library computes each earliest start once, when the
//! node becomes ready; both must make the same decision at every step.
//!
//! Inputs are seeded random DFGs with 1- to 3-step multiplies under
//! pipelined and non-pipelined multipliers, all four priority policies,
//! and three kinds of free set: the whole graph (`FullSchedule`), a
//! rotated prefix under the accumulated retiming (the rotation step),
//! and a random subset of a complete schedule, whose free nodes are
//! boxed in by fixed zero-delay successors (the `latest` deadline path
//! and its `NoFeasibleSlot` error).

mod common;

use common::{naive_reschedule, random_dfg, rotate_prefix, POLICIES};
use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{ListScheduler, ResourceSet, SchedError, Schedule};

const GRAPHS: u64 = 48;
/// Rotations per (graph, policy, resources) case.
const ROTATIONS: usize = 24;
/// Random-subset frees per (graph, policy, resources) case.
const SUBSETS: usize = 12;

/// Outcome tallies, so the suite proves it reached every path.
#[derive(Default)]
struct Coverage {
    placed: usize,
    boxed_placed: usize,
    no_slot: usize,
    pipelined: usize,
}

/// The fixed part of one comparison: graph, scheduler and resources.
struct Case<'a> {
    dfg: &'a Dfg,
    scheduler: &'a ListScheduler,
    resources: &'a ResourceSet,
}

/// Runs both schedulers on the same input and asserts the same schedule
/// or the same error; returns the library's result.
fn compare(
    case: &Case<'_>,
    ctx: &str,
    retiming: Option<&Retiming>,
    schedule: &mut Schedule,
    free: &[NodeId],
    coverage: &mut Coverage,
) -> Result<(), SchedError> {
    let Case {
        dfg,
        scheduler,
        resources,
    } = *case;
    let boxed = free.iter().any(|&v| {
        dfg.out_edges(v).iter().any(|&e| {
            let w = dfg.edge(e).to();
            is_zero_delay_under(dfg, retiming, e)
                && !free.contains(&w)
                && schedule.start(w).is_some()
        })
    });
    let mut expected = schedule.clone();
    let want = naive_reschedule(
        dfg,
        scheduler.policy(),
        retiming,
        resources,
        &mut expected,
        free,
    );
    let got = scheduler.reschedule(dfg, retiming, resources, schedule, free);
    assert_eq!(got, want, "{ctx}: verdicts differ");
    if got.is_ok() {
        assert_eq!(*schedule, expected, "{ctx}: placements differ");
        coverage.placed += 1;
        coverage.boxed_placed += usize::from(boxed);
    } else {
        assert!(
            matches!(got, Err(SchedError::NoFeasibleSlot { .. })),
            "{ctx}: {got:?}"
        );
        coverage.no_slot += 1;
    }
    got
}

#[test]
fn placement_matches_the_naive_list_scheduler() {
    let mut coverage = Coverage::default();
    for seed in 0..GRAPHS {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_u32(4, 22) as usize;
        let mul_time = rng.range_u32(1, 3);
        let density = [0.08, 0.15, 0.3][rng.index(3)];
        let g = random_dfg(&mut rng, n, mul_time, density);
        for policy in POLICIES {
            for pipelined in [false, true] {
                let res = ResourceSet::adders_multipliers(
                    rng.range_u32(1, 3),
                    rng.range_u32(1, 2),
                    pipelined,
                );
                let scheduler = ListScheduler::new(policy);
                let ctx = format!("seed {seed}, {policy:?}, pipelined {pipelined}");

                // FullSchedule: every node free.
                let mut full = Schedule::empty(&g);
                let all: Vec<NodeId> = g.node_ids().collect();
                let case = Case {
                    dfg: &g,
                    scheduler: &scheduler,
                    resources: &res,
                };
                compare(&case, &ctx, None, &mut full, &all, &mut coverage)
                    .expect("a zero-delay DAG always schedules");
                coverage.pipelined += usize::from(pipelined);

                // Rotation steps: the freed prefix under the new retiming.
                let mut schedule = full.clone();
                let mut retiming = Retiming::zero(&g);
                for step in 0..ROTATIONS {
                    let length = schedule.length(&g);
                    if length <= 1 {
                        break;
                    }
                    let size = rng.range_u32(1, length - 1);
                    let prefix = rotate_prefix(&g, &mut schedule, &mut retiming, size);
                    let ctx = format!("{ctx}, rotation {step} (size {size})");
                    if compare(
                        &case,
                        &ctx,
                        Some(&retiming),
                        &mut schedule,
                        &prefix,
                        &mut coverage,
                    )
                    .is_err()
                    {
                        break;
                    }
                }

                // Random subsets of a complete schedule: free nodes keep
                // fixed zero-delay successors, which set their deadlines.
                let base = scheduler
                    .schedule(&g, Some(&retiming), &res)
                    .expect("legal retimings schedule");
                for k in 0..SUBSETS {
                    let mut schedule = base.clone();
                    let free: Vec<NodeId> = g.node_ids().filter(|_| rng.chance(0.4)).collect();
                    let ctx = format!("{ctx}, subset {k}");
                    let _ = compare(
                        &case,
                        &ctx,
                        Some(&retiming),
                        &mut schedule,
                        &free,
                        &mut coverage,
                    );
                }
            }
        }
    }
    assert!(coverage.placed > 1_000, "placed {}", coverage.placed);
    assert!(
        coverage.boxed_placed > 100,
        "boxed-in placements {}",
        coverage.boxed_placed
    );
    assert!(
        coverage.no_slot > 10,
        "NoFeasibleSlot errors {}",
        coverage.no_slot
    );
    assert!(coverage.pipelined > 0);
}
