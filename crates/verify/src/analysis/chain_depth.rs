//! Zero-delay chain depth histogram: the retimed graph's combinational
//! profile.
//!
//! A node's depth is the total computation time of the longest chain
//! of zero-(retimed-)delay edges ending at it — the earliest control
//! step it could finish in with unlimited resources. The maximum depth
//! is the critical path of the retimed graph and a lower bound on the
//! flat-schedule length; the histogram shows how much of the graph
//! sits at each depth, i.e. how much slack rotation has left to
//! exploit.
//!
//! Depths are a longest-path fact, computed by Bellman–Ford rounds over
//! the edges in index order with a budget of `n + 1` rounds: depths
//! along acyclic chains settle within `n`, so a round that still
//! changes one means a zero-delay cycle (`E001` territory — depth would
//! be infinite), and the section degrades to absent instead of
//! reporting nonsense.

use crate::analysis::report::{AnalysisReport, ChainSection};
use crate::analysis::AnalysisContext;
use crate::diag::{Code, Diagnostic, Locus};
use rotsched_dfg::NodeId;
use std::collections::BTreeMap;

pub(crate) fn run(ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
    let csr = ctx.cache.csr();
    let retimed = ctx.cache.retimed_delays();
    let n = csr.node_count();

    // Every node starts at its own (clamped) time; zero-delay edges
    // propagate the producer's finish time to the consumer.
    let times = csr.times();
    let mut depths: Vec<u64> = times.iter().map(|&t| u64::from(t)).collect();
    let settled = (0..=n).any(|_| {
        let mut changed = false;
        for (e, &delays) in retimed.iter().enumerate() {
            if delays != 0 {
                continue;
            }
            let (from, to) = (csr.edge_from()[e] as usize, csr.edge_to()[e] as usize);
            let cand = depths[from].saturating_add(u64::from(times[to]));
            if cand > depths[to] {
                depths[to] = cand;
                changed = true;
            }
        }
        !changed
    });
    if !settled {
        return; // zero-delay cycle: infinite depth, E001 reports it
    }

    let mut histogram: BTreeMap<u64, u32> = BTreeMap::new();
    for &d in &depths {
        *histogram.entry(d).or_insert(0) += 1;
    }
    let max_depth = depths.iter().copied().max().unwrap_or(0);
    let tail = depths
        .iter()
        .position(|&d| d == max_depth)
        .map(|v| v as u32);

    if let Some(tail) = tail {
        report.findings.push(
            Diagnostic::new(
                Code::DeepestChain,
                Locus::Node(NodeId::from_index(tail as usize)),
                format!(
                    "deepest zero-delay chain ends here: {max_depth} control step(s) of combinational depth"
                ),
            )
            .with_hint("a rotation placing a delay on this chain shortens the flat schedule"),
        );
    }

    report.chains = Some(ChainSection {
        max_depth,
        tail,
        histogram: histogram.into_iter().collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, ScheduleView};
    use crate::certify::StartTimes;
    use crate::spec::ResourceSpec;
    use rotsched_dfg::{Dfg, OpKind, Retiming};

    #[test]
    fn depths_accumulate_along_zero_delay_chains() {
        let mut g = Dfg::new("chain");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 2);
        let c = g.add_node("c", OpKind::Add, 3);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 0).unwrap();
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let chains = report.chains.expect("acyclic");
        assert_eq!(chains.max_depth, 6);
        assert_eq!(chains.tail, Some(2));
        assert_eq!(chains.histogram, vec![(1, 1), (3, 1), (6, 1)]);
        assert!(report.findings.iter().any(|d| d.code == Code::DeepestChain));
    }

    #[test]
    fn delayed_edges_break_chains() {
        let mut g = Dfg::new("cut");
        let a = g.add_node("a", OpKind::Add, 2);
        let b = g.add_node("b", OpKind::Add, 2);
        g.add_edge(a, b, 1).unwrap();
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let chains = report.chains.expect("acyclic");
        assert_eq!(chains.max_depth, 2);
        assert_eq!(chains.tail, Some(0), "smallest index wins the tie");
        assert_eq!(chains.histogram, vec![(2, 2)]);
    }

    #[test]
    fn retiming_moves_the_chain_cut() {
        // a -> b -> c -> a with both delays on c -> a: the zero-delay
        // chain a -> b -> c has depth 3. Rotating a spreads the delays
        // (a -> b and c -> a get one each), cutting the chain to b -> c.
        let mut g = Dfg::new("ring");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, c, 0).unwrap();
        g.add_edge(c, a, 2).unwrap();
        let before = analyze(&g, &ResourceSpec::unlimited(), None);
        assert_eq!(before.chains.as_ref().unwrap().max_depth, 3);

        let r = Retiming::from_set(&g, [a]);
        let starts = StartTimes::from_fn(&g, |_| Some(1));
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 2,
        };
        let after = analyze(&g, &ResourceSpec::unlimited(), Some(&view));
        assert_eq!(after.chains.as_ref().unwrap().max_depth, 2);
        assert_eq!(after.chains.as_ref().unwrap().tail, Some(c.index() as u32));
    }

    #[test]
    fn empty_graph_has_an_empty_section() {
        let g = Dfg::new("empty");
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let chains = report.chains.expect("trivially converges");
        assert_eq!(chains.max_depth, 0);
        assert_eq!(chains.tail, None);
        assert!(chains.histogram.is_empty());
    }
}
