//! Independent lower bounds on the kernel length.
//!
//! The certificate checker must be able to *confirm* an optimality
//! verdict without trusting the solver's bound computation, so this
//! module re-derives both bounds from scratch, in code of its own:
//!
//! * **recurrence**: a cycle `C` forces `L · D(C) ≥ T(C)` on every
//!   initiation interval `L` (sum the per-edge precedence constraints
//!   `s(v) + d_r·L ≥ s(u) + t(u)` around the cycle: starts cancel and
//!   `Σ d_r = Σ d`). So the shortest length no cycle excludes is
//!   `max(1, ⌈max_C T(C)/D(C)⌉)`, the ceiling of the maximum cycle
//!   ratio that `max_ratio_cycle` computes exactly, witness and all.
//! * **resource**: [`crate::ResourceSpec::resource_bound`].
//!
//! `max_ratio_cycle` is the verifier's one cycle-ratio search: the
//! recurrence bound, the forcing test behind it, and the analysis'
//! critical cycle all read its answer.

use rotsched_dfg::Dfg;

use crate::lint::has_zero_delay_cycle;

/// Whether some cycle proves every legal kernel is at least `min_length`
/// steps long — i.e. there is a cycle with `T(C) > (min_length − 1)·D(C)`.
///
/// `recurrence_forces(g, 1)` is trivially true for a non-empty graph
/// and `recurrence_forces(g, 0)` is false; a graph with a zero-delay
/// cycle forces every length `≥ 1`, even when the cycle's ops take no
/// time (no legal kernel exists at all, which the lint engine reports
/// separately as `E001`).
#[must_use]
pub fn recurrence_forces(dfg: &Dfg, min_length: u32) -> bool {
    min_length > 0
        && dfg.node_count() > 0
        && recurrence_bound(dfg).is_none_or(|bound| min_length <= bound)
}

/// The recurrence lower bound: the smallest `L ≥ 1` not excluded by any
/// cycle, or `None` when no length up to `u32::MAX − 1` survives —
/// either a zero-delay cycle excludes every length, or the critical
/// ratio itself exceeds what `u32` can carry (possible only with
/// near-`u32::MAX` computation times).
///
/// On a graph without cycles this is 1.
#[must_use]
pub fn recurrence_bound(dfg: &Dfg) -> Option<u32> {
    if has_zero_delay_cycle(dfg) {
        return None;
    }
    let delays: Vec<u64> = dfg
        .csr()
        .edge_delays()
        .iter()
        .map(|&d| u64::from(d))
        .collect();
    let ceil = match max_ratio_cycle(dfg, &delays) {
        Some(cycle) => cycle.ceil()?,
        None => 0,
    };
    u32::try_from(ceil.max(1)).ok().filter(|&b| b < u32::MAX)
}

/// A cycle of maximum ratio `T(C)/D(C)`.
#[derive(Debug)]
pub(crate) struct RatioCycle {
    /// Edge indices (`EdgeId` order) in traversal order, starting with
    /// the edge that leaves the cycle's smallest node index.
    pub edges: Vec<usize>,
    /// `T(C)`: the computation times exactly as stored on the nodes.
    pub time: u64,
    /// `D(C)` under the delays the search was given.
    pub delays: u64,
}

impl RatioCycle {
    /// `⌈T(C)/D(C)⌉`, or `None` for a cycle without delays.
    pub(crate) fn ceil(&self) -> Option<u64> {
        (self.delays > 0).then(|| self.time.div_ceil(self.delays))
    }

    /// `time/delays > T(C)/D(C)`, exactly; a ratio over zero delays
    /// counts as infinite when its time is positive.
    fn beaten_by(&self, time: u64, delays: u64) -> bool {
        u128::from(time) * u128::from(self.delays) > u128::from(self.time) * u128::from(delays)
    }
}

/// The cycle of maximum ratio `T(C)/D(C)` under the per-edge `delays`
/// (indexed by `EdgeId`), or `None` when the graph has no cycle.
///
/// Policy improvement over Bellman–Ford probes. A probe at `λ =
/// num/den` runs longest-path relaxation from an implicit super-source
/// (all distances start at 0) on the integer weights `w(e) = den·t(u) −
/// num·d(e)`, under which a cycle has positive weight exactly when its
/// ratio exceeds `λ`. Every round ends with one walk of the predecessor
/// graph ([`pred_graph_cycles`]); the probe stops at the first round
/// that leaves a cycle there, because a predecessor-graph cycle always
/// has positive weight (Cherkassky & Goldberg, "Negative-cycle
/// detection algorithms", 1999), and `λ` moves to the best such cycle.
/// A probe whose round relaxes nothing certifies that no cycle beats
/// `λ`, so the last cycle taken is a maximum. Round `n` always ends one
/// way or the other: a node improved in round `r` took its predecessor
/// from a node improved in round `r` or `r − 1`, so the predecessor
/// walk back from a node improved in round `n` passes `n + 1` nodes and
/// must repeat one.
///
/// The weights are exact `i128`s: `den` and `num` are a cycle's `u64`
/// sums (or `1` and `−1`), so both are below `2^64` in magnitude; `t(u)`
/// is below `2^32`; and both callers pass delays below `2^63` (the
/// recurrence bound's are `u32`, the critical cycle's non-negative
/// `i64`s). So `den·t(u) < 2^96` and `|num·d(e)| < 2^127`, and their
/// difference lies strictly inside the `i128` range. Distance sums
/// still saturate: a path adds up to `n` weights, and saturation keeps
/// every predecessor edge's `dist(to) ≤ dist(from) + w`, which is all
/// the cycle argument needs.
///
/// The first probe runs at `λ = −1` (weights `t(u) + d(e)`), just below
/// every ratio, so a cycle of zero-time ops still yields its ratio-0
/// witness. Ties go to the first cycle to reach the maximum; within a
/// round, to the first found walking roots in index order.
///
/// A zero-delay cycle of zero-time ops has weight 0 at every `λ` and is
/// never found: callers rule zero-delay cycles out first.
pub(crate) fn max_ratio_cycle(dfg: &Dfg, delays: &[u64]) -> Option<RatioCycle> {
    debug_assert!(
        delays.iter().all(|&d| d < 1 << 63),
        "delays below 2^63 keep the weights exact"
    );
    let csr = dfg.csr();
    let (edge_from, edge_to) = (csr.edge_from(), csr.edge_to());
    let times: Vec<u64> = dfg
        .nodes()
        .map(|(_, node)| u64::from(node.time()))
        .collect();
    let n = times.len();
    let mut weights = vec![0_i128; delays.len()];
    let mut dist = vec![0_i128; n];
    let mut pred = vec![usize::MAX; n];
    let mut walk_of = vec![0; n];
    let mut best: Option<RatioCycle> = None;
    loop {
        let (num, den) = best
            .as_ref()
            .map_or((-1, 1), |c| (i128::from(c.time), i128::from(c.delays)));
        for (e, w) in weights.iter_mut().enumerate() {
            *w = den * i128::from(times[edge_from[e] as usize]) - num * i128::from(delays[e]);
        }
        dist.fill(0);
        pred.fill(usize::MAX);
        let mut improved = false;
        for _round in 0..n {
            let mut relaxed = false;
            for (e, &w) in weights.iter().enumerate() {
                let (u, v) = (edge_from[e] as usize, edge_to[e] as usize);
                let candidate = dist[u].saturating_add(w);
                if candidate > dist[v] {
                    dist[v] = candidate;
                    pred[v] = e;
                    relaxed = true;
                }
            }
            if !relaxed {
                break;
            }
            let pred = &pred;
            pred_graph_cycles(
                &mut walk_of,
                |v| (pred[v] != usize::MAX).then(|| edge_from[pred[v]] as usize),
                |anchor| {
                    // The cycle's edges, walked backwards from `anchor`.
                    let back = || {
                        let mut v = Some(anchor);
                        std::iter::from_fn(move || {
                            let e = pred[v?];
                            let u = edge_from[e] as usize;
                            v = (u != anchor).then_some(u);
                            Some(e)
                        })
                    };
                    let (time, total) = back().fold((0_u64, 0_u64), |(t, d), e| {
                        (
                            t.saturating_add(times[edge_from[e] as usize]),
                            d.saturating_add(delays[e]),
                        )
                    });
                    if best.as_ref().is_none_or(|b| b.beaten_by(time, total)) {
                        let mut edges: Vec<usize> = back().collect();
                        edges.reverse();
                        let first = (0..edges.len())
                            .min_by_key(|&i| edge_from[edges[i]])
                            .unwrap_or(0);
                        edges.rotate_left(first);
                        best = Some(RatioCycle {
                            edges,
                            time,
                            delays: total,
                        });
                        improved = true;
                    }
                },
            );
            if improved {
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Calls `on_cycle(v)` once for every cycle of a functional graph on
/// the nodes `0..walk_of.len()`, with `v` a node on that cycle, walking
/// roots in index order.
///
/// `pred(v)` is `v`'s one predecessor, if any — the shape of a
/// Bellman–Ford predecessor graph. One backward walk per unvisited root,
/// each stopped at the first node already seen, visits every node once,
/// so the whole sweep is `O(n)`: a walk that reaches a node of its own
/// closes a cycle, one that reaches an earlier walk does not.
/// `walk_of` is scratch space: it ends up holding the root whose walk
/// saw each node.
fn pred_graph_cycles(
    walk_of: &mut [usize],
    pred: impl Fn(usize) -> Option<usize>,
    mut on_cycle: impl FnMut(usize),
) {
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
            on_cycle(v);
        }
    }
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
