//! Priority (weight) functions for list scheduling.
//!
//! The paper's experiments use "a simple list scheduling … with the number
//! of descendants as the weight function"; that is
//! [`PriorityPolicy::DescendantCount`] and the default. Alternative
//! policies are provided for the ablation benchmarks.

use rotsched_dfg::analysis::topo::zero_delay_topological_order;
use rotsched_dfg::{Dfg, DfgError, NodeId, NodeMap, Retiming};

use crate::asap_alap::timing_bounds;
use crate::list::ZeroSet;

/// How list scheduling ranks ready nodes (higher weight schedules first).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PriorityPolicy {
    /// Number of (transitive) descendants in the zero-delay DAG — the
    /// paper's weight function.
    #[default]
    DescendantCount,
    /// Height: the longest zero-delay path from the node to any sink
    /// (critical-path list scheduling).
    PathHeight,
    /// Inverse mobility: nodes with less ALAP−ASAP slack first.
    Mobility,
    /// Node index order (a deliberately weak policy, for ablations).
    InputOrder,
}

impl PriorityPolicy {
    /// Computes the weight of every node for the zero-delay DAG of `G_r`.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::ZeroDelayCycle`] if the zero-delay subgraph is
    /// not a DAG.
    pub fn weights(self, dfg: &Dfg, retiming: Option<&Retiming>) -> Result<NodeMap<u64>, DfgError> {
        self.weights_under(dfg, retiming, &ZeroSet::compute(dfg, retiming))
    }

    /// [`Self::weights`] with the caller's zero-delay set of `G_r`.
    pub(crate) fn weights_under(
        self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        zero: &ZeroSet,
    ) -> Result<NodeMap<u64>, DfgError> {
        match self {
            PriorityPolicy::DescendantCount | PriorityPolicy::PathHeight => {
                let mut weights = dfg.node_map(0_u64);
                if WeightKernel::default().run(self, dfg, zero, &mut weights) {
                    Ok(weights)
                } else {
                    // The topological sort names the offending cycle.
                    Err(zero_delay_topological_order(dfg, retiming)
                        .expect_err("the weight kernel found a zero-delay cycle"))
                }
            }
            PriorityPolicy::Mobility => {
                let tb = timing_bounds(dfg, retiming, None)?;
                let max_mob = dfg
                    .node_ids()
                    .map(|v| u64::from(tb.mobility(v)))
                    .max()
                    .unwrap_or(0);
                let mut w = dfg.node_map(0_u64);
                for v in dfg.node_ids() {
                    w[v] = max_mob - u64::from(tb.mobility(v));
                }
                Ok(w)
            }
            PriorityPolicy::InputOrder => {
                let n = dfg.node_count() as u64;
                let mut w = dfg.node_map(0_u64);
                for (i, v) in dfg.node_ids().enumerate() {
                    w[v] = n - i as u64;
                }
                Ok(w)
            }
        }
    }

    /// Whether the weights are a pure function of the zero-delay DAG,
    /// computed by [`WeightKernel`] (descendant counts, path heights).
    pub(crate) fn has_kernel(self) -> bool {
        matches!(
            self,
            PriorityPolicy::DescendantCount | PriorityPolicy::PathHeight
        )
    }
}

/// The structural weight computation over the flat CSR: Kahn's algorithm
/// on zero-delay out-degrees visits every node after all its zero-delay
/// successors, and each node's weight is accumulated from theirs —
/// descendant bitsets for [`PriorityPolicy::DescendantCount`], longest
/// paths for [`PriorityPolicy::PathHeight`]. The buffers are reused
/// across calls, so a warm kernel allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct WeightKernel {
    /// Zero-delay successors not yet visited, per node.
    pending: Vec<u32>,
    /// Nodes whose zero-delay successors have all been visited.
    stack: Vec<u32>,
    /// Descendant bitsets, `node_count.div_ceil(64)` words per node.
    rows: Vec<u64>,
}

impl WeightKernel {
    /// Writes `policy`'s weight of every node of the zero-delay DAG
    /// `zero` into `weights`. Returns `false`, with `weights` partly
    /// written, when the zero-delay subgraph is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `policy` has no kernel (see
    /// [`PriorityPolicy::has_kernel`]).
    pub(crate) fn run(
        &mut self,
        policy: PriorityPolicy,
        dfg: &Dfg,
        zero: &ZeroSet,
        weights: &mut NodeMap<u64>,
    ) -> bool {
        assert!(policy.has_kernel(), "{policy:?} has no weight kernel");
        let descendants = policy == PriorityPolicy::DescendantCount;
        let n = dfg.node_count();
        let words = n.div_ceil(64);
        let csr = dfg.csr();
        let (out_ids, out_heads) = (csr.out_edge_ids(), csr.out_heads());
        let (in_ids, in_tails) = (csr.in_edge_ids(), csr.in_tails());
        let times = csr.times();

        self.pending.clear();
        self.stack.clear();
        for v in 0..n {
            let degree = csr
                .out_range(v)
                .filter(|&j| zero.contains(out_ids[j]))
                .count();
            self.pending
                .push(u32::try_from(degree).expect("degree fits u32"));
            if degree == 0 {
                self.stack
                    .push(u32::try_from(v).expect("node index fits u32"));
            }
        }
        if descendants {
            self.rows.clear();
            self.rows.resize(n * words, 0);
        }

        let mut visited = 0_usize;
        while let Some(v) = self.stack.pop() {
            let v = v as usize;
            let weight = if descendants {
                for j in csr.out_range(v) {
                    if zero.contains(out_ids[j]) {
                        let w = out_heads[j] as usize;
                        self.rows[v * words + w / 64] |= 1 << (w % 64);
                        for k in 0..words {
                            let bits = self.rows[w * words + k];
                            self.rows[v * words + k] |= bits;
                        }
                    }
                }
                self.rows[v * words..(v + 1) * words]
                    .iter()
                    .map(|bits| u64::from(bits.count_ones()))
                    .sum()
            } else {
                let mut below = 0_u64;
                for j in csr.out_range(v) {
                    if zero.contains(out_ids[j]) {
                        below = below.max(weights[NodeId::from_index(out_heads[j] as usize)]);
                    }
                }
                below + u64::from(times[v])
            };
            weights[NodeId::from_index(v)] = weight;
            visited += 1;
            for j in csr.in_range(v) {
                if zero.contains(in_ids[j]) {
                    let u = in_tails[j] as usize;
                    self.pending[u] -= 1;
                    if self.pending[u] == 0 {
                        self.stack.push(in_tails[j]);
                    }
                }
            }
        }
        visited == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{NodeId, OpKind};

    fn tree() -> (Dfg, Vec<NodeId>) {
        // v0 -> v1 -> v3, v0 -> v2 (all zero delay); v3 -> v0 with delay.
        let mut g = Dfg::new("tree");
        let v: Vec<_> = (0..4)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, 1))
            .collect();
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[0], v[2], 0).unwrap();
        g.add_edge(v[1], v[3], 0).unwrap();
        g.add_edge(v[3], v[0], 1).unwrap();
        (g, v)
    }

    #[test]
    fn descendant_counts_are_transitive() {
        let (g, v) = tree();
        let w = PriorityPolicy::DescendantCount.weights(&g, None).unwrap();
        assert_eq!(w[v[0]], 3);
        assert_eq!(w[v[1]], 1);
        assert_eq!(w[v[2]], 0);
        assert_eq!(w[v[3]], 0);
    }

    #[test]
    fn descendants_respect_retiming() {
        let (g, v) = tree();
        // Rotating v0 down removes its zero-delay out-edges from the DAG
        // and turns the delayed edge v3 -> v0 into a zero-delay one.
        let r = Retiming::from_set(&g, [v[0]]);
        let w = PriorityPolicy::DescendantCount
            .weights(&g, Some(&r))
            .unwrap();
        assert_eq!(w[v[0]], 0);
        assert_eq!(w[v[3]], 1); // v3 now precedes v0
        assert_eq!(w[v[1]], 2); // v1 -> v3 -> v0
    }

    #[test]
    fn path_heights_count_time() {
        let mut g = Dfg::new("chain");
        let a = g.add_node("a", OpKind::Mul, 2);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        let w = PriorityPolicy::PathHeight.weights(&g, None).unwrap();
        assert_eq!(w[a], 3);
        assert_eq!(w[b], 1);
    }

    #[test]
    fn mobility_prioritizes_critical_nodes() {
        let (g, v) = tree();
        let w = PriorityPolicy::Mobility.weights(&g, None).unwrap();
        // v2 is off the critical chain; it must rank strictly below v0.
        assert!(w[v[0]] > w[v[2]]);
    }

    #[test]
    fn input_order_is_monotone() {
        let (g, v) = tree();
        let w = PriorityPolicy::InputOrder.weights(&g, None).unwrap();
        assert!(w[v[0]] > w[v[1]]);
        assert!(w[v[1]] > w[v[2]]);
    }

    #[test]
    fn descendant_counts_with_shared_grandchild_do_not_double_count() {
        let mut g = Dfg::new("dag");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Add, 1);
        let d = g.add_node("d", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, c, 0).unwrap();
        g.add_edge(b, d, 0).unwrap();
        g.add_edge(c, d, 0).unwrap();
        let w = PriorityPolicy::DescendantCount.weights(&g, None).unwrap();
        assert_eq!(w[a], 3, "d is shared, counted once");
    }
}
