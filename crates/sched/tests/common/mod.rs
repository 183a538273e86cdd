//! Shared generators and test-local reference implementations for the
//! seeded differential suites (`seeded_place`, `seeded_wrap`,
//! `seeded_weights`, `seeded_zero_set`). Every reference here is
//! written from the definitions, independently of the library's
//! incremental machinery.

#![allow(dead_code)] // each suite uses a different subset

use std::cmp::Reverse;

use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, NodeMap, OpKind, Retiming};
use rotsched_sched::{
    timing_bounds, PriorityPolicy, ReservationTable, ResourceSet, SchedError, Schedule,
};

/// Every priority policy.
pub const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

/// A random loop DFG of `n` nodes: adds take one step, multiplies
/// `mul_time` steps; zero-delay edges only point forward (so the
/// unretimed zero-delay subgraph is a DAG), delayed edges of one or two
/// delays point anywhere, self-loops included. `density` is the chance
/// of each ordered node pair getting an edge.
pub fn random_dfg(rng: &mut SplitMix64, n: usize, mul_time: u32, density: f64) -> Dfg {
    let mut g = Dfg::new("seeded");
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            if rng.chance(0.4) {
                g.add_node(format!("m{i}"), OpKind::Mul, mul_time)
            } else {
                g.add_node(format!("a{i}"), OpKind::Add, 1)
            }
        })
        .collect();
    for i in 0..n {
        for j in 0..n {
            if !rng.chance(density) {
                continue;
            }
            let delays = if i < j && rng.chance(0.6) {
                0
            } else {
                rng.range_u32(1, 2)
            };
            g.add_edge(ids[i], ids[j], delays).expect("valid edge");
        }
    }
    g
}

/// One down-rotation of the first `size` control steps, as the rotation
/// operator performs it: free the prefix, retime it by one, renumber
/// the remainder from step 1. Returns the freed prefix, which the
/// caller reschedules.
pub fn rotate_prefix(
    dfg: &Dfg,
    schedule: &mut Schedule,
    retiming: &mut Retiming,
    size: u32,
) -> Vec<NodeId> {
    let prefix = schedule.prefix_nodes(size);
    for &v in &prefix {
        schedule.clear(v);
    }
    retiming.apply_set(&prefix, 1);
    if let Some(first) = schedule.first_step() {
        schedule.shift(1 - i64::from(first));
    }
    debug_assert!(retiming.is_legal(dfg), "prefixes are down-rotatable");
    prefix
}

/// Weights straight from the definitions: descendant counts by a
/// depth-first search per node, path heights by recursion over the
/// zero-delay successors, inverse mobility from the ASAP/ALAP bounds of
/// `timing_bounds`, input order from the node index. Node times count
/// as `max(t, 1)` steps throughout.
pub fn reference_weights(
    policy: PriorityPolicy,
    dfg: &Dfg,
    retiming: Option<&Retiming>,
) -> NodeMap<u64> {
    let succ: Vec<Vec<NodeId>> = dfg
        .node_ids()
        .map(|v| {
            dfg.out_edges(v)
                .iter()
                .filter(|&&e| is_zero_delay_under(dfg, retiming, e))
                .map(|&e| dfg.edge(e).to())
                .collect()
        })
        .collect();
    let mut weights = dfg.node_map(0_u64);
    match policy {
        PriorityPolicy::DescendantCount => {
            for v in dfg.node_ids() {
                let mut seen = vec![false; dfg.node_count()];
                let mut stack = succ[v.index()].clone();
                let mut count = 0;
                while let Some(w) = stack.pop() {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        count += 1;
                        stack.extend(&succ[w.index()]);
                    }
                }
                weights[v] = count;
            }
        }
        PriorityPolicy::PathHeight => {
            fn height(v: NodeId, dfg: &Dfg, succ: &[Vec<NodeId>], memo: &mut [Option<u64>]) -> u64 {
                if let Some(h) = memo[v.index()] {
                    return h;
                }
                let below = succ[v.index()]
                    .iter()
                    .map(|&w| height(w, dfg, succ, memo))
                    .max()
                    .unwrap_or(0);
                let h = below + u64::from(dfg.node(v).time().max(1));
                memo[v.index()] = Some(h);
                h
            }
            let mut memo = vec![None; dfg.node_count()];
            for v in dfg.node_ids() {
                weights[v] = height(v, dfg, &succ, &mut memo);
            }
        }
        PriorityPolicy::Mobility => {
            let bounds = timing_bounds(dfg, retiming, None)
                .expect("legal retimings keep the zero-delay subgraph acyclic");
            let most = dfg.node_ids().map(|v| bounds.mobility(v)).max();
            for v in dfg.node_ids() {
                weights[v] = u64::from(most.unwrap_or(0) - bounds.mobility(v));
            }
        }
        PriorityPolicy::InputOrder => {
            for v in dfg.node_ids() {
                weights[v] = (dfg.node_count() - v.index()) as u64;
            }
        }
        other => panic!("no reference for {other:?}"),
    }
    weights
}

/// The naive `PartialSchedule`: every free node goes to its earliest
/// feasible step, ready nodes ranked by (deadline, weight, id), with the
/// earliest start recomputed on every look.
pub fn naive_reschedule(
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
