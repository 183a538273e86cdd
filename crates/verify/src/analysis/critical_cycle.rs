//! Critical-cycle extraction: the cycle achieving the maximum
//! time-to-delay ratio `max_C T(C)/D(C)` — the recurrence bottleneck.
//!
//! Howard/Karp-style iterated parametric search, re-derived here
//! independently of `rotsched-dfg`'s own `iteration_bound` (the two
//! must agree, and the property suite checks that they do):
//!
//! 1. find *any* delay-carrying cycle by DFS and take its exact ratio
//!    as the candidate `λ = num/den`;
//! 2. probe for a cycle with a higher ratio: under the integer weights
//!    `w(e) = den·t(u) − num·d_r(e)` a cycle has positive total weight
//!    exactly when its ratio exceeds `λ`. The probe is a longest-path
//!    run of the shared fixed-point [`engine`](super::engine) with a
//!    Bellman–Ford round budget; non-convergence means such a cycle
//!    exists, and the best-ratio cycle of the whole predecessor graph
//!    is extracted (a policy-improvement step, so few probes suffice);
//! 3. replace `λ` with the extracted cycle's exact ratio and repeat
//!    until the probe converges. Ratios strictly increase, so the loop
//!    terminates; the last witness is a critical cycle.
//!
//! The pass works on **retimed** delays; cycle delay sums are
//! retiming-invariant (`Σ_C d_r = Σ_C d`), so the ratio — and the
//! iteration bound — agree with the unretimed graph, while the witness
//! is expressed in the graph the schedule actually sees. Probes only
//! visit edges inside cyclic strongly connected components (from the
//! shared traversal cache); everything else cannot lie on a cycle.

use rotsched_dfg::CsrGraph;

use crate::analysis::engine::{fixed_point, Direction};
use crate::analysis::report::{AnalysisReport, CriticalCycleSection, RatioU64};
use crate::analysis::AnalysisContext;
use crate::diag::{Code, Diagnostic, Locus};
use rotsched_dfg::NodeId;

/// A cycle as flat CSR edge indices, in traversal order.
#[derive(Clone, Debug)]
struct Cycle {
    edges: Vec<usize>,
}

impl Cycle {
    /// Total raw computation time and total (retimed) delay count.
    fn totals(&self, csr: &CsrGraph, retimed: &[i64]) -> (u64, u64) {
        let mut t = 0_u64;
        let mut d = 0_u64;
        for &e in &self.edges {
            let u = csr.edge_from()[e] as usize;
            t = t.saturating_add(u64::from(csr.raw_times()[u]));
            d = d.saturating_add(retimed[e].max(0) as u64);
        }
        (t, d)
    }

    /// Rotates the edge list so the cycle starts at its smallest node
    /// index — the canonical form every run reports identically.
    fn normalize(&mut self, csr: &CsrGraph) {
        let Some(start) = (0..self.edges.len()).min_by_key(|&i| csr.edge_from()[self.edges[i]])
        else {
            return;
        };
        self.edges.rotate_left(start);
    }
}

/// `a/b > c/d` on exact u64 ratios.
fn ratio_gt(a: u64, b: u64, c: u64, d: u64) -> bool {
    u128::from(a) * u128::from(d) > u128::from(c) * u128::from(b)
}

pub(crate) fn run(ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
    let csr = ctx.cache.csr();
    let scc = ctx.cache.scc();
    report.acyclic = !scc.has_cycle(csr);
    if report.acyclic || ctx.cache.has_negative_retimed_delay() {
        return;
    }
    let retimed = ctx.cache.retimed_delays();

    // Edges that can lie on a cycle: inside one cyclic component.
    let cyclic: Vec<bool> = {
        let idx = scc.cyclic_component_indices(csr);
        let mut is_cyclic_comp = vec![false; scc.components().len()];
        for i in idx {
            is_cyclic_comp[i] = true;
        }
        (0..csr.edge_count())
            .map(|e| {
                let u = NodeId::from_index(csr.edge_from()[e] as usize);
                let v = NodeId::from_index(csr.edge_to()[e] as usize);
                scc.same_component(u, v) && is_cyclic_comp[scc.component_of(u)]
            })
            .collect()
    };

    let Some(mut witness) = find_any_cycle(csr, &cyclic) else {
        return; // unreachable for a cyclic graph; stay total
    };
    let (mut best_t, mut best_d) = witness.totals(csr, retimed);
    if best_d == 0 {
        return; // zero-delay cycle: E001 territory, no finite ratio
    }

    // Iterate: probe for a better cycle until none exists.
    let n = csr.node_count();
    loop {
        let num = i128::from(best_t);
        let den = i128::from(best_d);
        // Weights once per probe, not once per relaxation: the probe
        // sweeps every edge up to n+1 times and the two wide
        // multiplications would otherwise dominate it.
        let weights: Vec<i128> = (0..csr.edge_count())
            .map(|e| {
                let u = csr.edge_from()[e] as usize;
                den.saturating_mul(i128::from(csr.raw_times()[u]))
                    .saturating_sub(num.saturating_mul(i128::from(retimed[e].max(0))))
            })
            .collect();
        // No positive-weight edge on a cycle means no positive cycle:
        // the probe is already answered without a single relaxation.
        let max_w = (0..csr.edge_count())
            .filter(|&e| cyclic[e])
            .map(|e| weights[e])
            .max()
            .unwrap_or(0);
        if max_w <= 0 {
            break;
        }
        // Distances start at 0 and every simple path carries at most
        // (n−1)·max_w, so any distance beyond that proves a positive
        // cycle sits on the predecessor chain — the probe can stop
        // relaxing right there instead of finishing its round budget.
        let threshold = (i128::from(n as u64).saturating_sub(1)).saturating_mul(max_w);
        let mut pred_edge = vec![usize::MAX; n];
        let mut last_updated = usize::MAX;
        let mut over_threshold = false;
        let fp = fixed_point(
            csr,
            Direction::Forward,
            vec![0_i128; n],
            n as u32 + 1,
            |e, src, dst| {
                if over_threshold || !cyclic[e] {
                    return None;
                }
                let cand = src.saturating_add(weights[e]);
                if cand > *dst {
                    let to = csr.edge_to()[e] as usize;
                    pred_edge[to] = e;
                    last_updated = to;
                    over_threshold |= cand > threshold;
                    Some(cand)
                } else {
                    None
                }
            },
        );
        if !over_threshold && (fp.converged || last_updated == usize::MAX) {
            break; // no cycle beats the current ratio
        }
        // The predecessor graph usually holds many positive cycles,
        // not just the one under `last_updated`; taking the best of
        // them per probe makes each round a policy-improvement step,
        // and the loop converges in a handful of probes instead of one
        // probe per distinct cycle ratio in the graph.
        let Some(mut better) = best_pred_cycle(csr, retimed, &pred_edge) else {
            break; // cannot happen per the Bellman–Ford argument; stay total
        };
        better.normalize(csr);
        let (t, d) = better.totals(csr, retimed);
        if d == 0 {
            return; // a zero-delay cycle outranks every ratio: bail
        }
        if !ratio_gt(t, d, best_t, best_d) {
            break; // guard against a non-improving extraction looping
        }
        witness = better;
        best_t = t;
        best_d = d;
    }

    witness.normalize(csr);
    let ratio = RatioU64::new(best_t, best_d);
    let nodes: Vec<u32> = witness.edges.iter().map(|&e| csr.edge_from()[e]).collect();
    let edges: Vec<(u32, u32)> = witness
        .edges
        .iter()
        .map(|&e| (csr.edge_from()[e], csr.edge_to()[e]))
        .collect();
    // A kernel-length bound is max(1, ⌈ratio⌉): every kernel has at
    // least one step, even when the critical cycle is all zero-time ops
    // (ratio 0). So stated, it IS the recurrence bound (the property
    // suite proves the agreement); seed the shared cell so no other
    // pass re-runs the Bellman–Ford binary search. `recurrence_bound`
    // reports bounds past u32::MAX − 1 as None — mirror that here.
    let bound = ratio.ceil().max(1);
    ctx.seed_recurrence(u32::try_from(bound).ok().filter(|&b| b < u32::MAX));
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

/// Any cycle among the `active` edges, by iterative DFS (first back
/// edge closes one), or `None` when the active subgraph is acyclic.
fn find_any_cycle(csr: &CsrGraph, active: &[bool]) -> Option<Cycle> {
    let n = csr.node_count();
    let mut state = vec![0_u8; n]; // 0 white, 1 on path, 2 done
    let mut frames: Vec<(usize, usize)> = Vec::new(); // (node, out offset)
    let mut path: Vec<(usize, usize)> = Vec::new(); // (node, entry edge)

    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        frames.push((root, 0));
        state[root] = 1;
        path.push((root, usize::MAX));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            let range = csr.out_range(v);
            let mut descend = None;
            while range.start + frame.1 < range.end {
                let pos = range.start + frame.1;
                frame.1 += 1;
                // Adjacency position -> flat edge index: `active` and
                // the returned cycle speak EdgeId order.
                let e = csr.out_edge_ids()[pos].index();
                if !active[e] {
                    continue;
                }
                let w = csr.out_heads()[pos] as usize;
                if state[w] == 0 {
                    descend = Some((w, e));
                    break;
                }
                if state[w] == 1 {
                    // Back edge: the cycle is w ... v plus e.
                    let start = path
                        .iter()
                        .position(|&(x, _)| x == w)
                        .expect("on-path node is on the path");
                    let mut edges: Vec<usize> =
                        path[start + 1..].iter().map(|&(_, entry)| entry).collect();
                    edges.push(e);
                    return Some(Cycle { edges });
                }
            }
            match descend {
                Some((w, e)) => {
                    state[w] = 1;
                    frames.push((w, 0));
                    path.push((w, e));
                }
                None => {
                    // Out-edges exhausted without descending: retreat.
                    state[v] = 2;
                    frames.pop();
                    path.pop();
                }
            }
        }
    }
    None
}

/// The best-ratio cycle in the Bellman–Ford predecessor graph.
///
/// Every node holds at most one predecessor edge, so the graph is
/// functional: one colored backward walk per root finds every cycle in
/// O(n) total. The probe's positive cycle is among them, and picking
/// the best ratio of the lot (a zero-delay cycle counts as infinite)
/// turns each probe into a policy-improvement step — the outer loop
/// converges in a handful of probes instead of one probe per distinct
/// cycle ratio in the graph.
fn best_pred_cycle(csr: &CsrGraph, retimed: &[i64], pred_edge: &[usize]) -> Option<Cycle> {
    let n = csr.node_count();
    let mut color = vec![0_u8; n]; // 0 new, 1 on current walk, 2 done
    let mut best: Option<(Cycle, u64, u64)> = None;
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        let mut v = root;
        while color[v] == 0 {
            color[v] = 1;
            let e = pred_edge[v];
            if e == usize::MAX {
                break;
            }
            v = csr.edge_from()[e] as usize;
        }
        // Re-entering the current walk closes a cycle through `v`
        // (a node with no predecessor ends the walk instead).
        if color[v] == 1 && pred_edge[v] != usize::MAX {
            let anchor = v;
            let mut edges = Vec::new();
            let mut u = anchor;
            loop {
                let e = pred_edge[u];
                edges.push(e);
                u = csr.edge_from()[e] as usize;
                if u == anchor || edges.len() > n {
                    break;
                }
            }
            if edges.len() <= n {
                edges.reverse();
                let cycle = Cycle { edges };
                let (t, d) = cycle.totals(csr, retimed);
                let improves = match &best {
                    None => true,
                    Some((_, bt, bd)) => {
                        if d == 0 {
                            *bd != 0
                        } else if *bd == 0 {
                            false
                        } else {
                            ratio_gt(t, d, *bt, *bd)
                        }
                    }
                };
                if improves {
                    best = Some((cycle, t, d));
                }
            }
        }
        // Retire the whole walk so later roots stop at it.
        let mut u = root;
        while color[u] == 1 {
            color[u] = 2;
            let e = pred_edge[u];
            if e == usize::MAX {
                break;
            }
            u = csr.edge_from()[e] as usize;
        }
    }
    best.map(|(c, _, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, TraversalCache};
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
        let cache = TraversalCache::build(&g, None);
        assert!(cache.scc().has_cycle(cache.csr()));
        let report = analyze(&g, &spec(), None);
        assert!(report.critical_cycle.is_none(), "no finite ratio exists");
        assert!(!report.acyclic);
    }
}
