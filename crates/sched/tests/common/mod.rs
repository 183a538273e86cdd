//! Shared generators and test-local reference implementations for the
//! seeded differential suites (`seeded_place`, `seeded_wrap`,
//! `seeded_weights`). Every reference here is written from the
//! definitions, independently of the library's incremental machinery.

#![allow(dead_code)] // each suite uses a different subset

use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, NodeMap, OpKind, Retiming};
use rotsched_sched::{timing_bounds, PriorityPolicy, Schedule};

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
