//! Critical-cycle extraction: the cycle achieving the maximum
//! time-to-delay ratio `max_C T(C)/D(C)` — the recurrence bottleneck.
//!
//! The search is the verifier's one exact routine,
//! `bound::max_ratio_cycle`, which also backs
//! [`recurrence_bound`](crate::bound::recurrence_bound) and is
//! independent of `rotsched-dfg`'s own `iteration_bound` (the two must
//! agree, and the property suite checks that they do). Of several
//! cycles at the maximum ratio the witness is the first the search
//! reaches; within one probe round, the first found walking the
//! predecessor graph's roots in node-index order.
//!
//! The pass works on **retimed** delays; cycle delay sums are
//! retiming-invariant (`Σ_C d_r = Σ_C d`), so the ratio — and the
//! iteration bound — agree with the unretimed graph, while the witness
//! is expressed in the graph the schedule actually sees. A certificate
//! searches the same retimed delays, so when one just certified this
//! kernel on this thread the pass takes its answer instead of searching
//! again (`bound::take_or_search`).

use crate::analysis::report::{AnalysisReport, CriticalCycleSection, RatioU64};
use crate::analysis::AnalysisContext;
use crate::bound::{length_bound, take_or_search};
use crate::diag::{Code, Diagnostic, Locus};
use rotsched_dfg::NodeId;

pub(crate) fn run(ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
    let csr = ctx.cache.csr();
    // An illegal retiming leaves no delays to search: whether the graph
    // has a cycle at all is the full-graph sweep's answer.
    if ctx.cache.has_negative_retimed_delay() {
        report.acyclic = !ctx.facts.has_cycle();
        return;
    }
    // A zero-delay cycle has no finite ratio and excludes every kernel
    // length (E001 territory). The search meets one only if its ops
    // take time, so rule them all out up front: a zero-time one would
    // otherwise hide behind a finite ratio.
    if ctx.facts.zero_delay().is_cyclic() {
        ctx.facts.set_cyclic(true);
        report.acyclic = false;
        return;
    }
    // Every retimed delay is non-negative here (checked above).
    let delays: Vec<u64> = ctx
        .cache
        .retimed_delays()
        .iter()
        .map(|&d| d.unsigned_abs())
        .collect();
    let cycle = take_or_search(ctx.dfg, &delays);
    // With zero-delay cycles ruled out, every cycle weighs
    // `T(C) + D(C) ≥ 1` at the search's first probe (`λ = −1`), so the
    // search finds a cycle exactly when the graph has one: its answer
    // is the cycle bit, and the full-graph sweep never runs. The bound
    // it states IS the recurrence bound (`Σ_C d_r = Σ_C d`; the property
    // suite proves the agreement): seed the shared cell so no other pass
    // re-runs the search.
    report.acyclic = cycle.is_none();
    ctx.facts.set_cyclic(cycle.is_some());
    ctx.seed_recurrence(length_bound(cycle.as_ref()));
    let Some(cycle) = cycle else {
        return;
    };
    let Some(ceil) = cycle.ceil() else {
        return; // unreachable without a zero-delay cycle; stay total
    };

    let (best_t, best_d) = (cycle.time, cycle.delays);
    let ratio = RatioU64::new(best_t, best_d);
    let nodes: Vec<u32> = cycle.edges.iter().map(|&e| csr.edge_from()[e]).collect();
    let edges: Vec<(u32, u32)> = cycle
        .edges
        .iter()
        .map(|&e| (csr.edge_from()[e], csr.edge_to()[e]))
        .collect();
    // A kernel-length bound is max(1, ⌈ratio⌉): every kernel has at
    // least one step, even when the critical cycle is all zero-time ops
    // (ratio 0).
    let bound = ceil.max(1);
    let head = nodes.first().copied().unwrap_or(0);
    report.findings.push(
        Diagnostic::new(
            Code::CriticalCycle,
            Locus::Node(NodeId::from_index(head as usize)),
            format!(
                "critical cycle of {} node(s): T(C) = {best_t}, D(C) = {best_d}, ratio {}/{} forces every kernel to at least {bound} step(s)",
                nodes.len(),
                ratio.num,
                ratio.den,
            ),
        )
        .with_hint("rotations that do not touch this cycle cannot shorten the kernel"),
    );
    report.critical_cycle = Some(CriticalCycleSection {
        nodes,
        edges,
        total_time: best_t,
        total_delays: best_d,
        ratio,
        iteration_bound: bound,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::spec::ResourceSpec;
    use rotsched_dfg::{analysis, Dfg, OpKind};

    fn spec() -> ResourceSpec {
        ResourceSpec::unlimited()
    }

    #[test]
    fn simple_loop_ratio_is_exact() {
        // 5 time units over 2 delays: ratio 5/2, bound 3.
        let mut g = Dfg::new("frac");
        let a = g.add_node("a", OpKind::Add, 2);
        let b = g.add_node("b", OpKind::Add, 3);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        let report = analyze(&g, &spec(), None);
        let cc = report.critical_cycle.expect("cyclic graph");
        assert_eq!((cc.ratio.num, cc.ratio.den), (5, 2));
        assert_eq!(cc.iteration_bound, 3);
        assert_eq!(cc.total_time, 5);
        assert_eq!(cc.total_delays, 2);
        assert_eq!(cc.nodes, vec![0, 1]);
    }

    #[test]
    fn picks_the_worse_of_two_cycles() {
        let mut g = Dfg::new("two");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Mul, 6);
        // Cycle 1: a <-> b, ratio 2/2 = 1. Cycle 2: c self-loop, 6/1.
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        g.add_edge(b, c, 0).unwrap();
        g.add_edge(c, c, 1).unwrap();
        let report = analyze(&g, &spec(), None);
        let cc = report.critical_cycle.expect("cyclic graph");
        assert_eq!((cc.ratio.num, cc.ratio.den), (6, 1));
        assert_eq!(cc.nodes, vec![c.index() as u32]);
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|d| d.code == Code::CriticalCycle)
                .count(),
            1
        );
    }

    #[test]
    fn ties_go_to_the_cycle_with_the_lower_node_index() {
        // Two disjoint 4/1 cycles, the higher-indexed one listed first
        // in edge order. Both close in the same probe round; the walk
        // over roots in index order meets a <-> b first and a later tie
        // does not displace it. The biquad goldens rest on this rule.
        let mut g = Dfg::new("tie");
        let v: Vec<_> = (0..4)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, 2))
            .collect();
        g.add_edge(v[2], v[3], 0).unwrap();
        g.add_edge(v[3], v[2], 1).unwrap();
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[0], 1).unwrap();
        let report = analyze(&g, &spec(), None);
        let cc = report.critical_cycle.expect("cyclic graph");
        assert_eq!((cc.ratio.num, cc.ratio.den), (4, 1));
        assert_eq!(cc.nodes, vec![0, 1]);
    }

    #[test]
    fn agrees_with_dfg_iteration_bound_on_benchmarks() {
        for (name, g) in [
            ("frac", {
                let mut g = Dfg::new("frac");
                let a = g.add_node("a", OpKind::Add, 2);
                let b = g.add_node("b", OpKind::Mul, 3);
                g.add_edge(a, b, 1).unwrap();
                g.add_edge(b, a, 1).unwrap();
                g.add_edge(a, a, 2).unwrap();
                g
            }),
            ("iir", {
                let mut g = Dfg::new("iir");
                let m = g.add_node("m", OpKind::Mul, 2);
                let a = g.add_node("a", OpKind::Add, 1);
                g.add_edge(m, a, 0).unwrap();
                g.add_edge(a, m, 1).unwrap();
                g
            }),
        ] {
            let expected = analysis::iteration_bound(&g).unwrap().unwrap();
            let report = analyze(&g, &spec(), None);
            let cc = report
                .critical_cycle
                .unwrap_or_else(|| panic!("{name}: no cycle"));
            assert_eq!(cc.iteration_bound, expected, "{name}");
        }
    }

    #[test]
    fn acyclic_graph_reports_no_cycle() {
        let mut g = Dfg::new("dag");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        let report = analyze(&g, &spec(), None);
        assert!(report.acyclic);
        assert!(report.critical_cycle.is_none());
        assert!(!report
            .findings
            .iter()
            .any(|d| d.code == Code::CriticalCycle));
    }

    #[test]
    fn witness_edges_form_a_closed_walk() {
        let mut g = Dfg::new("ring");
        let v: Vec<_> = (0..4)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, i + 1))
            .collect();
        for i in 0..4 {
            g.add_edge(v[i], v[(i + 1) % 4], u32::from(i == 3)).unwrap();
        }
        let report = analyze(&g, &spec(), None);
        let cc = report.critical_cycle.expect("ring is a cycle");
        assert_eq!(cc.nodes.len(), cc.edges.len());
        for (i, &(from, to)) in cc.edges.iter().enumerate() {
            assert_eq!(from, cc.nodes[i]);
            assert_eq!(to, cc.nodes[(i + 1) % cc.nodes.len()]);
        }
        assert_eq!(cc.total_time, 1 + 2 + 3 + 4);
        assert_eq!(cc.total_delays, 1);
    }

    #[test]
    fn cache_and_pass_tolerate_zero_delay_cycles() {
        let mut g = Dfg::new("bad");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        let report = analyze(&g, &spec(), None);
        assert!(report.critical_cycle.is_none(), "no finite ratio exists");
        assert!(!report.acyclic);
    }
}
