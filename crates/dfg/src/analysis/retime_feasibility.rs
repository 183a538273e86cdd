//! Retiming for a target iteration period (the FEAS algorithm of
//! Leiserson & Saxe, adapted to this crate's sign convention).
//!
//! Cathedral II (Section 7) retimes a DFG to meet an estimated schedule
//! length *without* resource constraints before scheduling; this module
//! provides that capability both as a baseline ingredient and as a check
//! on how much of the gap rotation closes under resources.
//!
//! With the paper's sign convention (`d_r(e) = d(e) + r(u) − r(v)`),
//! *decrementing* `r(v)` pushes a delay onto each incoming edge of `v`,
//! which is what FEAS does to nodes whose arrival time exceeds the target
//! period.

use crate::error::DfgError;
use crate::graph::Dfg;
use crate::retiming::Retiming;

use super::critical_path::arrival_times;

/// Searches for a legal retiming `r` with `CP(G_r) ≤ period`.
///
/// Returns `Ok(Some(r))` (normalized) on success and `Ok(None)` when no
/// retiming achieves the period — by the retiming theory this is exactly
/// when `period` is below the graph's maximum cycle ratio.
///
/// # Errors
///
/// Returns [`DfgError::ZeroDelayCycle`] if the input graph itself has no
/// static schedule.
pub fn retime_to_period(dfg: &Dfg, period: u64) -> Result<Option<Retiming>, DfgError> {
    // The input must at least be schedulable.
    dfg.validate()?;

    let mut r = Retiming::zero(dfg);
    // FEAS: |V| - 1 correction sweeps suffice; if the period is still
    // violated afterwards it is infeasible.
    for _ in 0..dfg.node_count().saturating_sub(1) {
        let at = arrival_times(dfg, Some(&r))?;
        if at.critical_path_length() <= period {
            return Ok(Some(r.to_normalized()));
        }
        for v in dfg.node_ids() {
            if at.finish(v) > period {
                // Push a delay onto v's incoming edges.
                r.add(v, -1);
            }
        }
        if !r.is_legal(dfg) {
            // A node with an over-long *combinational* (delay-free) input
            // chain from itself can make intermediate retimings illegal;
            // in that case the period is infeasible.
            return Ok(None);
        }
    }
    let at = arrival_times(dfg, Some(&r))?;
    if at.critical_path_length() <= period {
        Ok(Some(r.to_normalized()))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::critical_path::critical_path_length;
    use crate::op::OpKind;

    /// A recurrence with a long combinational chain that retiming can cut:
    /// a ring of four unit-time adders with two delays bunched together.
    fn ring() -> Dfg {
        let mut g = Dfg::new("ring");
        let v: Vec<_> = (0..4)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, 1))
            .collect();
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[2], 0).unwrap();
        g.add_edge(v[2], v[3], 0).unwrap();
        g.add_edge(v[3], v[0], 2).unwrap();
        g
    }

    #[test]
    fn unretimed_period_is_the_critical_path() {
        let g = ring();
        assert_eq!(critical_path_length(&g, None).unwrap(), 4);
    }

    #[test]
    fn retiming_reaches_the_cycle_ratio() {
        let g = ring();
        // Max cycle ratio = 4/2 = 2; retiming can spread the two delays to
        // cut the chain into two halves of length 2.
        let r = retime_to_period(&g, 2).unwrap().expect("2 = ratio");
        assert!(r.is_legal(&g));
        assert_eq!(critical_path_length(&g, Some(&r)).unwrap(), 2);
    }

    #[test]
    fn infeasible_period_is_rejected() {
        let g = ring();
        assert!(retime_to_period(&g, 1).unwrap().is_none());
    }

    #[test]
    fn feasible_period_keeps_retiming_legal_and_normalized() {
        let g = ring();
        let r = retime_to_period(&g, 3).unwrap().expect("3 >= ratio 2");
        assert!(r.is_legal(&g));
        assert!(r.is_normalized());
        assert!(critical_path_length(&g, Some(&r)).unwrap() <= 3);
    }

    #[test]
    fn acyclic_graph_retimes_to_max_node_time() {
        let mut g = Dfg::new("dag");
        let a = g.add_node("a", OpKind::Mul, 2);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 0).unwrap();
        // Pipelining an acyclic chain can always reach the largest node
        // time by inserting registers between every pair of stages, and
        // no further.
        let r = retime_to_period(&g, 2).unwrap().expect("2 = max node time");
        assert!(r.is_legal(&g));
        assert_eq!(critical_path_length(&g, Some(&r)).unwrap(), 2);
        assert!(retime_to_period(&g, 1).unwrap().is_none());
    }
}
