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

use std::cmp::Reverse;

use common::{random_dfg, reference_weights, rotate_prefix, POLICIES};
use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{
    ListScheduler, PriorityPolicy, ReservationTable, ResourceSet, SchedError, Schedule,
};

const GRAPHS: u64 = 48;
/// Rotations per (graph, policy, resources) case.
const ROTATIONS: usize = 24;
/// Random-subset frees per (graph, policy, resources) case.
const SUBSETS: usize = 12;

/// The naive `PartialSchedule`: every free node goes to its earliest
/// feasible step, ready nodes ranked by (deadline, weight, id), with the
/// earliest start recomputed on every look.
fn naive_reschedule(
    dfg: &Dfg,
    policy: PriorityPolicy,
    retiming: Option<&Retiming>,
    resources: &ResourceSet,
    schedule: &mut Schedule,
    free: &[NodeId],
) -> Result<(), SchedError> {
    let weights = reference_weights(policy, dfg, retiming);
    for &v in free {
        schedule.clear(v);
    }
    let class_of = |v: NodeId| {
        resources
            .class_for(dfg.node(v).op())
            .expect("every op binds")
    };
    let mut table = ReservationTable::new(resources);
    for (v, cs) in schedule.iter() {
        let class = resources.class(class_of(v));
        let slots = || class.occupancy(dfg.node(v).time()).map(|off| cs + off);
        assert!(
            table.can_place(class_of(v), slots()),
            "the generated fixed part is feasible"
        );
        table.place(class_of(v), slots());
    }
    let zero = |e| is_zero_delay_under(dfg, retiming, e);
    let is_free = |v: NodeId| free.contains(&v);
    let time = |v: NodeId| dfg.node(v).time().max(1);

    let mut blocking = dfg.node_map(0_u32);
    let mut latest: Vec<Option<u32>> = vec![None; dfg.node_count()];
    for &v in free {
        for &e in dfg.in_edges(v) {
            if zero(e) && is_free(dfg.edge(e).from()) {
                blocking[v] += 1;
            }
        }
        for &e in dfg.out_edges(v) {
            let w = dfg.edge(e).to();
            if zero(e) && !is_free(w) {
                if let Some(sw) = schedule.start(w) {
                    let bound = sw.saturating_sub(time(v));
                    latest[v.index()] = Some(latest[v.index()].map_or(bound, |a| a.min(bound)));
                }
            }
        }
    }
    let earliest_start = |v: NodeId, schedule: &Schedule| {
        dfg.in_edges(v)
            .iter()
            .filter(|&&e| zero(e))
            .filter_map(|&e| {
                let u = dfg.edge(e).from();
                schedule.start(u).map(|su| su + time(u))
            })
            .fold(1, u32::max)
    };
    let key = |v: &NodeId| {
        (
            latest[v.index()].unwrap_or(u32::MAX),
            Reverse(weights[*v]),
            *v,
        )
    };

    let mut ready: Vec<NodeId> = free.iter().copied().filter(|&v| blocking[v] == 0).collect();
    let mut remaining = free.len();
    let horizon = table.horizon() + u32::try_from(dfg.total_time()).unwrap_or(u32::MAX) + 1;
    let mut cs = 1;
    while remaining > 0 {
        if let Some(min) = ready.iter().map(|&v| earliest_start(v, schedule)).min() {
            cs = cs.max(min);
        }
        if cs > horizon {
            let stuck = free
                .iter()
                .copied()
                .find(|&v| schedule.start(v).is_none())
                .expect("an unscheduled free node remains");
            return Err(SchedError::NoFeasibleSlot { node: stuck });
        }
        ready.sort_by_key(key);
        let mut placed_any = true;
        while placed_any {
            placed_any = false;
            let mut i = 0;
            while i < ready.len() {
                let v = ready[i];
                if earliest_start(v, schedule) > cs {
                    i += 1;
                    continue;
                }
                if latest[v.index()].is_some_and(|bound| cs > bound) {
                    return Err(SchedError::NoFeasibleSlot { node: v });
                }
                let class_id = class_of(v);
                let slots = || {
                    resources
                        .class(class_id)
                        .occupancy(dfg.node(v).time())
                        .map(|off| cs + off)
                };
                if !table.can_place(class_id, slots()) {
                    i += 1;
                    continue;
                }
                table.place(class_id, slots());
                schedule.set(v, cs);
                remaining -= 1;
                ready.swap_remove(i);
                placed_any = true;
                for &e in dfg.out_edges(v) {
                    let w = dfg.edge(e).to();
                    if zero(e) && is_free(w) && schedule.start(w).is_none() {
                        blocking[w] -= 1;
                        if blocking[w] == 0 {
                            ready.push(w);
                        }
                    }
                }
            }
            if placed_any {
                ready.sort_by_key(key);
            }
        }
        cs += 1;
    }
    Ok(())
}

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
