//! ASAP / ALAP start times over the zero-delay DAG (no resources).
//!
//! These resource-free bounds drive priority functions (mobility) and
//! sanity checks: any resource-constrained schedule starts each node no
//! earlier than its ASAP step.

use rotsched_dfg::analysis::topo::{is_zero_delay_under, zero_delay_topological_order};
use rotsched_dfg::{Dfg, DfgError, NodeId, NodeMap, Retiming};

/// Resource-free timing bounds for each node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingBounds {
    asap: NodeMap<u32>,
    alap: NodeMap<u32>,
    horizon: u32,
}

impl TimingBounds {
    /// Earliest possible start step of `v` (1-based).
    #[must_use]
    pub fn asap(&self, v: NodeId) -> u32 {
        self.asap[v]
    }

    /// Latest start step of `v` that still meets the horizon.
    #[must_use]
    pub fn alap(&self, v: NodeId) -> u32 {
        self.alap[v]
    }

    /// Scheduling freedom of `v`: `alap − asap`.
    #[must_use]
    pub fn mobility(&self, v: NodeId) -> u32 {
        self.alap[v] - self.asap[v]
    }

    /// The horizon (schedule length) the ALAP times are relative to.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }
}

/// Computes ASAP and ALAP start steps for the zero-delay DAG of `G_r`.
///
/// The ALAP horizon defaults to the critical-path length (so critical
/// nodes get mobility 0); pass `horizon` to relax it.
///
/// # Errors
///
/// Returns [`DfgError::ZeroDelayCycle`] if the zero-delay subgraph is not
/// a DAG.
pub fn timing_bounds(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    horizon: Option<u32>,
) -> Result<TimingBounds, DfgError> {
    let order = zero_delay_topological_order(dfg, retiming)?;

    let mut asap = dfg.node_map(1_u32);
    for &v in &order {
        let mut earliest = 1;
        for &e in dfg.in_edges(v) {
            if is_zero_delay_under(dfg, retiming, e) {
                let u = dfg.edge(e).from();
                earliest = earliest.max(asap[u] + dfg.node(u).steps());
            }
        }
        asap[v] = earliest;
    }

    let cp = order
        .iter()
        .map(|&v| asap[v] + dfg.node(v).steps() - 1)
        .max()
        .unwrap_or(0);
    let horizon = horizon.unwrap_or(cp).max(cp);

    let mut alap = dfg.node_map(0_u32);
    for &v in order.iter().rev() {
        // Latest start so that v finishes by the horizon:
        // s + t - 1 <= horizon  =>  s <= horizon - t + 1.
        let mut latest = horizon - dfg.node(v).steps() + 1;
        for &e in dfg.out_edges(v) {
            if is_zero_delay_under(dfg, retiming, e) {
                let w = dfg.edge(e).to();
                latest = latest.min(alap[w] - dfg.node(v).steps());
            }
        }
        alap[v] = latest;
    }

    Ok(TimingBounds {
        asap,
        alap,
        horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    fn diamond() -> (Dfg, Vec<NodeId>) {
        let mut g = Dfg::new("diamond");
        let a = g.add_node("a", OpKind::Mul, 2);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Mul, 2);
        let d = g.add_node("d", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, c, 0).unwrap();
        g.add_edge(b, d, 0).unwrap();
        g.add_edge(c, d, 0).unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn asap_follows_longest_predecessor_chain() {
        let (g, v) = diamond();
        let tb = timing_bounds(&g, None, None).unwrap();
        assert_eq!(tb.asap(v[0]), 1);
        assert_eq!(tb.asap(v[1]), 3);
        assert_eq!(tb.asap(v[2]), 3);
        assert_eq!(tb.asap(v[3]), 5);
        assert_eq!(tb.horizon(), 5);
    }

    #[test]
    fn critical_nodes_have_zero_mobility() {
        let (g, v) = diamond();
        let tb = timing_bounds(&g, None, None).unwrap();
        // a, c, d form the critical path a(2) c(2) d(1).
        assert_eq!(tb.mobility(v[0]), 0);
        assert_eq!(tb.mobility(v[2]), 0);
        assert_eq!(tb.mobility(v[3]), 0);
        // b has one step of slack: asap 3, alap 4.
        assert_eq!(tb.mobility(v[1]), 1);
    }

    #[test]
    fn larger_horizon_adds_mobility_everywhere() {
        let (g, v) = diamond();
        let tb = timing_bounds(&g, None, Some(7)).unwrap();
        assert_eq!(tb.horizon(), 7);
        assert_eq!(tb.mobility(v[0]), 2);
    }

    #[test]
    fn horizon_below_critical_path_is_clamped() {
        let (g, _) = diamond();
        let tb = timing_bounds(&g, None, Some(1)).unwrap();
        assert_eq!(tb.horizon(), 5);
    }

    #[test]
    fn alap_respects_multicycle_finish() {
        let (g, v) = diamond();
        let tb = timing_bounds(&g, None, None).unwrap();
        // c (2 cycles) must finish by d's start (5): alap = 3.
        assert_eq!(tb.alap(v[2]), 3);
        // d itself starts at 5 to finish by the horizon.
        assert_eq!(tb.alap(v[3]), 5);
    }
}
