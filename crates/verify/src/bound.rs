//! Independent lower bounds on the kernel length.
//!
//! The certificate checker must be able to *confirm* an optimality
//! verdict without trusting the solver's bound computation, so this
//! module re-derives both bounds from scratch with a different
//! algorithm than the scheduler side uses (a binary search over plain
//! Bellman–Ford positive-cycle probes instead of iterated parametric
//! maximum cycle ratio):
//!
//! * **recurrence**: a cycle `C` forces `L · Σ_{e∈C} d(e) ≥ Σ_{v∈C}
//!   t(v)` on every initiation interval `L` (sum the per-edge
//!   precedence constraints `s(v) + d_r·L ≥ s(u) + t(u)` around the
//!   cycle: starts cancel and `Σ d_r = Σ d`). So length `L − 1` is
//!   impossible exactly when some cycle has `Σt > (L−1)·Σd`.
//! * **resource**: [`crate::ResourceSpec::resource_bound`].

use std::ops::ControlFlow;

use rotsched_dfg::Dfg;

use crate::lint::has_zero_delay_cycle;

/// Whether some cycle proves every legal kernel is at least `min_length`
/// steps long — i.e. there is a cycle with `Σt > (min_length − 1)·Σd`.
///
/// `recurrence_forces(g, 1)` is trivially true for a non-empty graph
/// and `recurrence_forces(g, 0)` is false; a graph with a zero-delay
/// cycle forces every length `≥ 1`, even when the cycle's ops take no
/// time (no legal kernel exists at all, which the lint engine reports
/// separately as `E001`).
#[must_use]
pub fn recurrence_forces(dfg: &Dfg, min_length: u32) -> bool {
    match min_length {
        0 => false,
        1 => dfg.node_count() > 0,
        _ => {
            has_zero_delay_cycle(dfg)
                || PositiveCycleProbe::new(dfg).exists(i128::from(min_length) - 1)
        }
    }
}

/// The recurrence lower bound: the smallest `L ≥ 1` not excluded by any
/// cycle, or `None` when no length up to `u32::MAX − 1` survives —
/// either a zero-delay cycle excludes every length, or the critical
/// ratio itself exceeds what `u32` can carry (possible only with
/// near-`u32::MAX` computation times).
///
/// On a graph without cycles this is 1. Binary search over
/// [`recurrence_forces`], which is monotone in its threshold.
#[must_use]
pub fn recurrence_bound(dfg: &Dfg) -> Option<u32> {
    if dfg.node_count() == 0 {
        return Some(1);
    }
    if has_zero_delay_cycle(dfg) {
        return None;
    }
    // Every remaining cycle carries a delay, so its ratio Σt/Σd is at
    // most Σ_V t(v): the bound, if it fits in u32, is at most that.
    let hi = u32::try_from(dfg.total_time().min(u64::from(u32::MAX) - 1)).unwrap_or(u32::MAX - 1);
    let (mut lo, mut hi) = (1_u32, hi.max(1));
    let mut probe = PositiveCycleProbe::new(dfg);
    if probe.exists(i128::from(hi)) {
        return None; // the ratio exceeds u32::MAX − 1
    }
    // Invariant: length hi + 1 is not forced, length lo is.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if probe.exists(i128::from(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Bellman–Ford probes for a positive cycle over one graph, reusing
/// their buffers from probe to probe.
struct PositiveCycleProbe<'a> {
    dfg: &'a Dfg,
    /// `(from, to, w)` per edge, for the current probe's `k`.
    weights: Vec<(usize, usize, i128)>,
    dist: Vec<i128>,
    pred: Vec<usize>,
    walk_of: Vec<usize>,
}

impl<'a> PositiveCycleProbe<'a> {
    fn new(dfg: &'a Dfg) -> Self {
        let n = dfg.node_count();
        PositiveCycleProbe {
            dfg,
            weights: Vec::with_capacity(dfg.edge_count()),
            dist: vec![0; n],
            pred: vec![usize::MAX; n],
            walk_of: vec![0; n],
        }
    }

    /// Is there a cycle with positive total weight under
    /// `w(e) = t(from(e)) − k·d(e)`?
    ///
    /// Longest-path relaxation from an implicit super-source (all
    /// distances start at 0). Every round ends with one walk of the
    /// predecessor graph ([`pred_graph_cycles`]); the probe answers "yes"
    /// at the first cycle found there, because a predecessor-graph cycle
    /// always has positive weight (Cherkassky & Goldberg, "Negative-cycle
    /// detection algorithms", 1999), and "no" at the first round that
    /// relaxes nothing. Round `n` always ends one way or the other: a
    /// node improved in round `r` took its predecessor from a node
    /// improved in round `r` or `r − 1`, so the predecessor walk back
    /// from a node improved in round `n` passes `n + 1` nodes and must
    /// repeat one. Sums saturate rather than trust a size argument;
    /// saturation keeps every predecessor edge's `dist(to) ≤ dist(from) +
    /// w`, which is all the cycle argument needs.
    fn exists(&mut self, k: i128) -> bool {
        let dfg = self.dfg;
        // Weights once per probe, not once per round.
        self.weights.clear();
        self.weights.extend(dfg.edges().map(|(_, edge)| {
            let w = i128::from(dfg.node(edge.from()).time())
                .saturating_sub(k.saturating_mul(i128::from(edge.delays())));
            (edge.from().index(), edge.to().index(), w)
        }));
        self.dist.fill(0);
        self.pred.fill(usize::MAX);
        for _round in 0..self.dist.len() {
            let mut relaxed = false;
            for &(from, to, w) in &self.weights {
                let candidate = self.dist[from].saturating_add(w);
                if candidate > self.dist[to] {
                    self.dist[to] = candidate;
                    self.pred[to] = from;
                    relaxed = true;
                }
            }
            if !relaxed {
                return false;
            }
            let pred = &self.pred;
            let cycle = pred_graph_cycles(
                &mut self.walk_of,
                |v| (pred[v] != usize::MAX).then_some(pred[v]),
                |_| ControlFlow::Break(()),
            );
            if cycle.is_break() {
                return true;
            }
        }
        false
    }
}

/// Calls `on_cycle(v)` once for every cycle of a functional graph on
/// the nodes `0..walk_of.len()`, with `v` a node on that cycle, until
/// `on_cycle` breaks; returns whether it did.
///
/// `pred(v)` is `v`'s one predecessor, if any — the shape of a
/// Bellman–Ford predecessor graph. One backward walk per unvisited root,
/// each stopped at the first node already seen, visits every node once,
/// so the whole sweep is `O(n)`: a walk that reaches a node of its own
/// closes a cycle, one that reaches an earlier walk does not.
/// `walk_of` is scratch space: it ends up holding the root whose walk
/// saw each node.
pub(crate) fn pred_graph_cycles(
    walk_of: &mut [usize],
    pred: impl Fn(usize) -> Option<usize>,
    mut on_cycle: impl FnMut(usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    walk_of.fill(usize::MAX);
    for root in 0..walk_of.len() {
        if walk_of[root] != usize::MAX {
            continue;
        }
        let mut v = root;
        let closed = loop {
            walk_of[v] = root;
            let Some(u) = pred(v) else {
                break false;
            };
            v = u;
            if walk_of[v] != usize::MAX {
                break walk_of[v] == root;
            }
        };
        if closed {
            on_cycle(v)?;
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    /// A recurrence of total time 3 through one delay: bound 3.
    fn iir() -> Dfg {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        g
    }

    #[test]
    fn bound_matches_cycle_ratio() {
        let g = iir();
        assert_eq!(recurrence_bound(&g), Some(3));
        assert!(recurrence_forces(&g, 3));
        assert!(!recurrence_forces(&g, 4));
    }

    #[test]
    fn acyclic_graph_has_bound_one() {
        let mut g = Dfg::new("chain");
        let a = g.add_node("a", OpKind::Add, 5);
        let b = g.add_node("b", OpKind::Add, 5);
        g.add_edge(a, b, 0).unwrap();
        assert_eq!(recurrence_bound(&g), Some(1));
        assert!(recurrence_forces(&g, 1));
        assert!(!recurrence_forces(&g, 2));
    }

    #[test]
    fn zero_delay_cycle_excludes_everything() {
        let mut g = Dfg::new("bad");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        assert_eq!(recurrence_bound(&g), None);
        assert!(recurrence_forces(&g, 1_000_000));
    }

    #[test]
    fn fractional_ratio_rounds_up() {
        // 5 time units through 2 delays: ratio 2.5, bound 3.
        let mut g = Dfg::new("frac");
        let a = g.add_node("a", OpKind::Add, 2);
        let b = g.add_node("b", OpKind::Add, 3);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert_eq!(recurrence_bound(&g), Some(3));
        assert!(recurrence_forces(&g, 3));
        assert!(!recurrence_forces(&g, 4));
    }

    #[test]
    fn empty_graph_is_harmless() {
        let g = Dfg::new("empty");
        assert_eq!(recurrence_bound(&g), Some(1));
        assert!(!recurrence_forces(&g, 1));
    }

    #[test]
    fn near_overflow_delays_do_not_panic() {
        let mut g = Dfg::new("big");
        let a = g.add_node("a", OpKind::Add, u32::MAX);
        g.add_edge(a, a, u32::MAX).unwrap();
        assert_eq!(recurrence_bound(&g), Some(1));
    }

    #[test]
    fn near_overflow_times_saturate_instead_of_wrapping() {
        // Two u32::MAX-time nodes around one delay: the true ratio
        // (2^33 − 2) no longer fits in u32, so the bound degrades to
        // None rather than a wrapped nonsense value.
        let mut g = Dfg::new("huge");
        let a = g.add_node("a", OpKind::Add, u32::MAX);
        let b = g.add_node("b", OpKind::Add, u32::MAX);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert_eq!(recurrence_bound(&g), None);
        // The probe itself stays exact at any representable threshold.
        assert!(recurrence_forces(&g, u32::MAX));
    }

    #[test]
    fn near_overflow_mixed_cycle_keeps_the_exact_bound() {
        // A u32::MAX-time node through u32::MAX delays alongside a
        // small recurrence: the huge cycle's ratio rounds up to 2 and
        // the small one forces 3, so the exact answer survives the
        // extreme weights.
        let mut g = Dfg::new("mixed");
        let big = g.add_node("big", OpKind::Mul, u32::MAX);
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(big, big, u32::MAX).unwrap();
        g.add_edge(big, m, 1).unwrap();
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        assert_eq!(recurrence_bound(&g), Some(3));
        assert!(!recurrence_forces(&g, 4));
    }
}
