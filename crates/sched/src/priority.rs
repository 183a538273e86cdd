//! Priority (weight) functions for list scheduling.
//!
//! The paper's experiments use "a simple list scheduling … with the number
//! of descendants as the weight function"; that is
//! [`PriorityPolicy::DescendantCount`] and the default. Alternative
//! policies are provided for the ablation benchmarks.

use rotsched_dfg::analysis::topo::zero_delay_topological_order;
use rotsched_dfg::{Dfg, DfgError, NodeId, NodeMap, Retiming};

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
        let mut weights = dfg.node_map(0_u64);
        let zero = ZeroSet::compute(dfg, retiming);
        if WeightKernel::default().run(self, dfg, &zero, &mut weights) {
            Ok(weights)
        } else {
            // The topological sort names the offending cycle.
            Err(zero_delay_topological_order(dfg, retiming)
                .expect_err("the weight kernel found a zero-delay cycle"))
        }
    }
}

/// The weight computation over the flat CSR. Kahn's algorithm on
/// zero-delay out-degrees orders the nodes sinks first; each policy is
/// then one or two passes over that order — descendant bitsets for
/// [`PriorityPolicy::DescendantCount`], longest paths for
/// [`PriorityPolicy::PathHeight`], and for [`PriorityPolicy::Mobility`]
/// an ASAP pass from the sources and an ALAP pass from the sinks, as
/// [`timing_bounds`](crate::timing_bounds) computes them. Every policy
/// reads a node's time as its step count, `max(t, 1)`.
/// [`PriorityPolicy::InputOrder`] needs no order. The weights do not
/// depend on which sinks-first order a pass reads, so a caller that
/// keeps the order valid across zero-set changes
/// ([`WeightKernel::rotate_down`]) skips the sort. The buffers are
/// reused across calls, so a warm kernel allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct WeightKernel {
    /// Zero-delay successors not yet ordered, per node.
    pending: Vec<u32>,
    /// The nodes, each after all its zero-delay successors.
    order: Vec<u32>,
    /// Descendant bitsets, `node_count.div_ceil(64)` words per node.
    rows: Vec<u64>,
    /// ASAP and ALAP start steps, per node.
    asap: Vec<u32>,
    alap: Vec<u32>,
}

impl WeightKernel {
    /// Writes `policy`'s weight of every node of the zero-delay DAG
    /// `zero` into `weights`: [`WeightKernel::sort`], then
    /// [`WeightKernel::weigh`]. Returns `false`, with `weights`
    /// unwritten, when the zero-delay subgraph is cyclic (input order
    /// never looks at it, so it always succeeds).
    pub(crate) fn run(
        &mut self,
        policy: PriorityPolicy,
        dfg: &Dfg,
        zero: &ZeroSet,
        weights: &mut NodeMap<u64>,
    ) -> bool {
        if !self.sort(policy, dfg, zero) {
            return false;
        }
        self.weigh(policy, dfg, zero, weights);
        true
    }

    /// Orders the nodes sinks first for `zero` when `policy` reads the
    /// order (input order does not, and leaves it as it was). Returns
    /// `false` when a zero-delay cycle leaves nodes out.
    pub(crate) fn sort(&mut self, policy: PriorityPolicy, dfg: &Dfg, zero: &ZeroSet) -> bool {
        policy == PriorityPolicy::InputOrder || self.order_sinks_first(dfg, zero)
    }

    /// Moves the nodes marked in `rotated` to the front of the order,
    /// each part keeping its relative order. After a down-rotation of a
    /// set closed under zero-delay predecessors no zero-delay edge
    /// leaves the set, and edges into it only point at the front, so a
    /// sinks-first order stays sinks first. The new order is built in
    /// `pending`, whose capacity the sort grew, so nothing allocates.
    pub(crate) fn rotate_down(&mut self, rotated: &[bool]) {
        self.pending.clear();
        let (front, back) = (&mut self.pending, &self.order);
        front.extend(back.iter().filter(|&&v| rotated[v as usize]));
        front.extend(back.iter().filter(|&&v| !rotated[v as usize]));
        std::mem::swap(&mut self.pending, &mut self.order);
    }

    /// Whether the order holds every node once, each after all its
    /// zero-delay successors in `zero`: the kept order's invariant.
    pub(crate) fn orders_sinks_first(&self, dfg: &Dfg, zero: &ZeroSet) -> bool {
        let n = dfg.node_count();
        let mut position = vec![usize::MAX; n];
        for (at, &v) in self.order.iter().enumerate() {
            match position.get_mut(v as usize) {
                Some(p) if *p == usize::MAX => *p = at,
                _ => return false,
            }
        }
        let csr = dfg.csr();
        let heads = csr.out_heads();
        self.order.len() == n
            && (0..n).all(|v| {
                zero.outs(csr.out_range(v))
                    .all(|j| position[heads[j] as usize] < position[v])
            })
    }

    /// Writes `policy`'s weight of every node into `weights`, reading
    /// the current order, which must be sinks first for `zero` unless
    /// the policy is input order.
    pub(crate) fn weigh(
        &mut self,
        policy: PriorityPolicy,
        dfg: &Dfg,
        zero: &ZeroSet,
        weights: &mut NodeMap<u64>,
    ) {
        let n = dfg.node_count();
        let csr = dfg.csr();
        let out_heads = csr.out_heads();
        let times = csr.times();
        match policy {
            PriorityPolicy::DescendantCount => {
                let words = n.div_ceil(64);
                self.rows.clear();
                self.rows.resize(n * words, 0);
                for &v in &self.order {
                    let v = v as usize;
                    for j in zero.outs(csr.out_range(v)) {
                        let w = out_heads[j] as usize;
                        self.rows[v * words + w / 64] |= 1 << (w % 64);
                        for k in 0..words {
                            let bits = self.rows[w * words + k];
                            self.rows[v * words + k] |= bits;
                        }
                    }
                    weights[NodeId::from_index(v)] = self.rows[v * words..(v + 1) * words]
                        .iter()
                        .map(|bits| u64::from(bits.count_ones()))
                        .sum();
                }
            }
            PriorityPolicy::PathHeight => {
                for &v in &self.order {
                    let v = v as usize;
                    let mut below = 0_u64;
                    for j in zero.outs(csr.out_range(v)) {
                        below = below.max(weights[NodeId::from_index(out_heads[j] as usize)]);
                    }
                    weights[NodeId::from_index(v)] = below + u64::from(times[v]);
                }
            }
            PriorityPolicy::Mobility => self.mobility(dfg, zero, weights),
            PriorityPolicy::InputOrder => {
                for v in 0..n {
                    weights[NodeId::from_index(v)] = (n - v) as u64;
                }
            }
        }
    }

    /// Kahn's algorithm on zero-delay out-degrees: fills `order` with
    /// every node after all its zero-delay successors, or returns
    /// `false` when a zero-delay cycle leaves nodes out.
    pub(crate) fn order_sinks_first(&mut self, dfg: &Dfg, zero: &ZeroSet) -> bool {
        let n = dfg.node_count();
        let csr = dfg.csr();
        let in_tails = csr.in_tails();
        self.pending.clear();
        self.order.clear();
        for v in 0..n {
            let degree = zero.outs(csr.out_range(v)).count();
            self.pending
                .push(u32::try_from(degree).expect("degree fits u32"));
            if degree == 0 {
                self.order
                    .push(u32::try_from(v).expect("node index fits u32"));
            }
        }
        let mut next = 0;
        while let Some(&v) = self.order.get(next) {
            next += 1;
            for j in zero.ins(csr.in_range(v as usize)) {
                let u = in_tails[j] as usize;
                self.pending[u] -= 1;
                if self.pending[u] == 0 {
                    self.order.push(in_tails[j]);
                }
            }
        }
        self.order.len() == n
    }

    /// Inverse mobility over `order`: the largest ALAP − ASAP slack
    /// minus each node's own, with the ALAP horizon at the critical-path
    /// length — [`timing_bounds`](crate::timing_bounds) without a
    /// horizon, step for step.
    fn mobility(&mut self, dfg: &Dfg, zero: &ZeroSet, weights: &mut NodeMap<u64>) {
        let n = dfg.node_count();
        let csr = dfg.csr();
        let (out_heads, in_tails) = (csr.out_heads(), csr.in_tails());
        let steps = csr.times();
        self.asap.clear();
        self.asap.resize(n, 1);
        self.alap.clear();
        self.alap.resize(n, 0);
        let mut horizon = 0;
        for &v in self.order.iter().rev() {
            let v = v as usize;
            let mut earliest = 1;
            for j in zero.ins(csr.in_range(v)) {
                let u = in_tails[j] as usize;
                earliest = earliest.max(self.asap[u] + steps[u]);
            }
            self.asap[v] = earliest;
            horizon = horizon.max(earliest + steps[v] - 1);
        }
        let mut max_mobility = 0;
        for &v in &self.order {
            let v = v as usize;
            // Latest start so that v finishes by the horizon.
            let mut latest = horizon - steps[v] + 1;
            for j in zero.outs(csr.out_range(v)) {
                latest = latest.min(self.alap[out_heads[j] as usize] - steps[v]);
            }
            self.alap[v] = latest;
            max_mobility = max_mobility.max(latest - self.asap[v]);
        }
        for v in 0..n {
            let mobility = self.alap[v] - self.asap[v];
            weights[NodeId::from_index(v)] = u64::from(max_mobility - mobility);
        }
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
    fn mobility_kernel_matches_timing_bounds_with_zero_time_ops() {
        // A zero-time op still takes a step: asap/alap use max(t, 1).
        // The branch s -> z -> b has slack 1 in steps, 2 in raw time.
        let mut g = Dfg::new("zero-time");
        let s = g.add_node("s", OpKind::Add, 1);
        let z = g.add_node("z", OpKind::Add, 0);
        let b = g.add_node("b", OpKind::Add, 1);
        let p = g.add_node("p", OpKind::Mul, 2);
        let q = g.add_node("q", OpKind::Add, 1);
        g.add_edge(s, z, 0).unwrap();
        g.add_edge(z, b, 0).unwrap();
        g.add_edge(s, p, 0).unwrap();
        g.add_edge(p, q, 0).unwrap();
        g.add_edge(b, s, 1).unwrap();
        g.add_edge(q, s, 2).unwrap();
        let rotated = Retiming::from_set(&g, [s]);
        for retiming in [None, Some(&rotated)] {
            let tb = crate::timing_bounds(&g, retiming, None).unwrap();
            let max = g.node_ids().map(|v| tb.mobility(v)).max().unwrap();
            let w = PriorityPolicy::Mobility.weights(&g, retiming).unwrap();
            for v in g.node_ids() {
                assert_eq!(w[v], u64::from(max - tb.mobility(v)), "{v:?}");
            }
        }
    }

    #[test]
    fn cyclic_zero_delay_graphs_fail_except_for_input_order() {
        let mut g = Dfg::new("cycle");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        for policy in [
            PriorityPolicy::DescendantCount,
            PriorityPolicy::PathHeight,
            PriorityPolicy::Mobility,
        ] {
            assert!(matches!(
                policy.weights(&g, None),
                Err(DfgError::ZeroDelayCycle { .. })
            ));
        }
        let w = PriorityPolicy::InputOrder.weights(&g, None).unwrap();
        assert_eq!((w[a], w[b]), (2, 1));
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
