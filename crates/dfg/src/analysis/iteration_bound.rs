//! The iteration bound: the theoretical lower bound on the schedule length
//! of a loop pipeline (Renfors & Neuvo).
//!
//! The iteration bound of a cyclic DFG is
//!
//! ```text
//! IB = ⌈ max over cycles C of  T(C) / D(C) ⌉
//! ```
//!
//! where `T(C)` is the total computation time on the cycle and `D(C)` its
//! total delay count. No pipelined static schedule can be shorter: the
//! computation of a cycle must fit into `D(C)` iterations' worth of
//! schedule.
//!
//! The maximum cycle ratio is computed **exactly** (as a rational number)
//! by iterated negative-cycle detection, one strongly connected component
//! at a time. Starting from `λ = 0`, a Bellman–Ford probe on the edge
//! weights `λ·d(e) − t(u)` either certifies that no cycle has a larger
//! ratio or finds one. The probe walks its predecessor graph after every
//! relaxation round and stops at the first round that leaves a cycle
//! there; every such cycle beats `λ` (Cherkassky & Goldberg,
//! "Negative-cycle detection algorithms", 1999), and the best ratio among
//! them becomes the new `λ`. Each step strictly increases `λ` over a
//! finite set of cycle ratios, so the loop terminates.
//!
//! **Cost.** A round costs `O(|E|)` for the relaxations plus `O(|V|)` for
//! the walk, and a probe runs at most `|V|` rounds, so a probe is
//! `O(|V|·|E|)` in the worst case. In practice a probe stops after one or
//! two rounds: over the twelve 80–256-node graphs of the `analyze-256`
//! benchmark shape, the whole search takes 84 probes and 120 rounds
//! (`tests/bound_agreement.rs` gates these counts through
//! [`max_cycle_ratio_counted`]), and the 256-node graph takes about
//! 0.35 ms on a shared 2-vCPU Xeon VM (`perf_report`'s `bounds` arm).

use crate::error::DfgError;
use crate::graph::Dfg;
use crate::ids::NodeId;

use super::scc::strongly_connected_components;

/// An exact non-negative rational `num / den`, kept in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// Creates `num / den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    #[must_use]
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "ratio denominator must be nonzero");
        let g = gcd(num, den).max(1);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator (lowest terms).
    #[must_use]
    pub fn num(self) -> u64 {
        self.num
    }

    /// Denominator (lowest terms).
    #[must_use]
    pub fn den(self) -> u64 {
        self.den
    }

    /// The ceiling `⌈num / den⌉`.
    #[must_use]
    pub fn ceil(self) -> u64 {
        self.num.div_ceil(self.den)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        let lhs = u128::from(self.num) * u128::from(other.den);
        let rhs = u128::from(other.num) * u128::from(self.den);
        lhs.cmp(&rhs)
    }
}

impl core::fmt::Display for Ratio {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Work counters of a maximum-cycle-ratio search. They are a pure
/// function of the graph, so tests and benchmarks can gate them exactly
/// where wall time is noisy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RatioWork {
    /// Parametric probes: one per candidate ratio `λ`, the last of each
    /// component certifying that no cycle beats its `λ`.
    pub probes: u64,
    /// Bellman–Ford relaxation rounds, summed over all probes.
    pub rounds: u64,
}

/// Computes the exact maximum cycle ratio `max_C T(C)/D(C)`.
///
/// Returns `Ok(None)` for an acyclic graph (no cycles constrain the
/// pipeline; the bound is then set by resources alone).
///
/// # Errors
///
/// Returns [`DfgError::ZeroDelayCycle`] if some cycle carries no delays at
/// all — such a graph has no static schedule.
pub fn max_cycle_ratio(dfg: &Dfg) -> Result<Option<Ratio>, DfgError> {
    max_cycle_ratio_counted(dfg, &mut RatioWork::default())
}

/// [`max_cycle_ratio`], adding the search's probes and rounds to `work`.
///
/// # Errors
///
/// Returns [`DfgError::ZeroDelayCycle`] if some cycle carries no delays.
pub fn max_cycle_ratio_counted(dfg: &Dfg, work: &mut RatioWork) -> Result<Option<Ratio>, DfgError> {
    // Zero-delay cycles make the ratio infinite; detect them first (this
    // also covers the validate() contract).
    super::topo::zero_delay_topological_order(dfg, None)?;

    let scc = strongly_connected_components(dfg);
    let mut best: Option<Ratio> = None;
    for comp in scc.cyclic_components(dfg) {
        best = best.max(Some(component_max_ratio(dfg, comp, work)?));
    }
    Ok(best)
}

/// The iteration bound `⌈max cycle ratio⌉`, or `None` for an acyclic DFG.
///
/// # Errors
///
/// Returns [`DfgError::ZeroDelayCycle`] if some cycle carries no delays.
///
/// # Examples
///
/// ```
/// use rotsched_dfg::{analysis, Dfg, OpKind};
///
/// # fn main() -> Result<(), rotsched_dfg::DfgError> {
/// // A recurrence of total time 3 through one delay: IB = 3.
/// let mut g = Dfg::new("iir");
/// let m = g.add_node("m", OpKind::Mul, 2);
/// let a = g.add_node("a", OpKind::Add, 1);
/// g.add_edge(m, a, 0)?;
/// g.add_edge(a, m, 1)?;
/// assert_eq!(analysis::iteration_bound(&g)?, Some(3));
/// # Ok(())
/// # }
/// ```
pub fn iteration_bound(dfg: &Dfg) -> Result<Option<u64>, DfgError> {
    Ok(max_cycle_ratio(dfg)?.map(Ratio::ceil))
}

/// A component-internal edge: `(from, to, t(from), d)` in local indices.
type LocalEdge = (usize, usize, u64, u64);

/// Exact max cycle ratio within one cyclic SCC, by iterated parametric
/// negative-cycle detection.
fn component_max_ratio(
    dfg: &Dfg,
    comp: &[NodeId],
    work: &mut RatioWork,
) -> Result<Ratio, DfgError> {
    // Dense re-indexing of the component.
    let mut local = vec![usize::MAX; dfg.node_count()];
    for (i, &v) in comp.iter().enumerate() {
        local[v.index()] = i;
    }
    let mut edges: Vec<LocalEdge> = Vec::new();
    for &v in comp {
        for &e in dfg.out_edges(v) {
            let edge = dfg.edge(e);
            if local[edge.to().index()] != usize::MAX {
                edges.push((
                    local[v.index()],
                    local[edge.to().index()],
                    u64::from(dfg.node(v).time()),
                    u64::from(edge.delays()),
                ));
            }
        }
    }

    // Every ratio is at least 0, so the search may start there: the first
    // probe lifts λ to the best cycle of its predecessor graph.
    let mut probe = Probe::new(comp.len(), edges.len());
    let mut lambda = Ratio::new(0, 1);
    loop {
        work.probes += 1;
        match probe.improving_cycle(&edges, lambda, work)? {
            // A predecessor-graph cycle always beats λ; the guard only
            // keeps the loop finite whatever happens.
            Some(better) if better > lambda => lambda = better,
            _ => return Ok(lambda),
        }
    }
}

/// Buffers of one component's probes, reused across them.
struct Probe {
    weights: Vec<i128>,
    dist: Vec<i128>,
    pred: Vec<usize>,
    /// Per node: the walk that reached it (0 = none yet) and that walk's
    /// time and delay sums from its root to the node.
    seen: Vec<(usize, u64, u64)>,
}

impl Probe {
    fn new(nodes: usize, edges: usize) -> Self {
        Probe {
            weights: Vec::with_capacity(edges),
            dist: vec![0; nodes],
            pred: vec![usize::MAX; nodes],
            seen: vec![(0, 0, 0); nodes],
        }
    }

    /// Bellman–Ford on the integer weights `w(e) = num·d(e) − den·t(e)`,
    /// under which a negative cycle is exactly a cycle of ratio above
    /// `λ = num/den`. Every round ends with one walk of the predecessor
    /// graph, and the probe stops at the first round that leaves a cycle
    /// there, returning the best ratio among that round's cycles — or
    /// `None` at the first round that relaxes nothing.
    ///
    /// Round `n` always ends one way or the other: a node improved in
    /// round `k` took its predecessor from a node improved in round `k` or
    /// `k − 1`, so the predecessor walk back from a node improved in round
    /// `n` passes `n + 1` nodes and must repeat one.
    fn improving_cycle(
        &mut self,
        edges: &[LocalEdge],
        lambda: Ratio,
        work: &mut RatioWork,
    ) -> Result<Option<Ratio>, DfgError> {
        let num = i128::from(lambda.num());
        let den = i128::from(lambda.den());
        self.weights.clear();
        self.weights.extend(
            edges
                .iter()
                .map(|&(_, _, t, d)| num * i128::from(d) - den * i128::from(t)),
        );
        self.dist.fill(0); // a virtual source reaches every node at 0
        self.pred.fill(usize::MAX);
        for _round in 0..self.dist.len() {
            work.rounds += 1;
            let mut relaxed = false;
            for (idx, (&(u, v, _, _), &w)) in edges.iter().zip(&self.weights).enumerate() {
                let cand = self.dist[u].saturating_add(w);
                if cand < self.dist[v] {
                    self.dist[v] = cand;
                    self.pred[v] = idx;
                    relaxed = true;
                }
            }
            if !relaxed {
                return Ok(None);
            }
            if let Some(best) = self.best_pred_cycle(edges)? {
                return Ok(Some(best));
            }
        }
        Ok(None)
    }

    /// The best ratio among the cycles of the predecessor graph, or
    /// `None` while it has none.
    ///
    /// Every node keeps at most one predecessor edge, so the graph is
    /// functional: one backward walk per unvisited root, each stopped at
    /// the first node already seen, visits every node once in `O(n)` and
    /// meets each cycle exactly once — when a walk reaches a node of its
    /// own. Each step records the walk's running time and delay sums, so a
    /// cycle's totals are the difference of two of them. A cycle of the
    /// predecessor graph has negative weight (Cherkassky & Goldberg,
    /// "Negative-cycle detection algorithms", 1999), so its ratio is
    /// strictly above the probe's `λ`.
    fn best_pred_cycle(&mut self, edges: &[LocalEdge]) -> Result<Option<Ratio>, DfgError> {
        self.seen.fill((0, 0, 0));
        let mut best: Option<Ratio> = None;
        for root in 0..self.seen.len() {
            if self.seen[root].0 != 0 {
                continue;
            }
            let walk = root + 1;
            let (mut v, mut t, mut d) = (root, 0_u64, 0_u64);
            let closed = loop {
                self.seen[v] = (walk, t, d);
                if self.pred[v] == usize::MAX {
                    break false;
                }
                let (u, _, tu, du) = edges[self.pred[v]];
                (v, t, d) = (u, t + tu, d + du);
                if self.seen[v].0 != 0 {
                    break self.seen[v].0 == walk;
                }
            };
            if closed {
                let (_, t0, d0) = self.seen[v];
                let (t, d) = (t - t0, d - d0);
                if d == 0 {
                    return Err(zero_delay_cycle_error());
                }
                best = best.max(Some(Ratio::new(t, d)));
            }
        }
        Ok(best)
    }
}

fn zero_delay_cycle_error() -> DfgError {
    // The public topological check reports zero-delay cycles with concrete
    // node ids before we ever get here; this arm guards against delay-free
    // cycles that slip through within component-local arithmetic.
    DfgError::ZeroDelayCycle { cycle: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::cycles::simple_cycles;
    use crate::op::OpKind;

    fn add_nodes(g: &mut Dfg, times: &[u32]) -> Vec<NodeId> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| g.add_node(format!("v{i}"), OpKind::Add, t))
            .collect()
    }

    /// Brute-force max cycle ratio via cycle enumeration, for cross-checks.
    fn brute_force_ratio(dfg: &Dfg) -> Option<Ratio> {
        let en = simple_cycles(dfg, 1_000_000);
        assert!(!en.truncated);
        en.cycles
            .iter()
            .map(|c| Ratio::new(c.total_time(dfg), c.min_total_delays(dfg)))
            .max()
    }

    #[test]
    fn ratio_arithmetic() {
        let r = Ratio::new(6, 4);
        assert_eq!((r.num(), r.den()), (3, 2));
        assert_eq!(r.ceil(), 2);
        assert_eq!(Ratio::new(4, 2).ceil(), 2);
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert_eq!(Ratio::new(3, 2).to_string(), "3/2");
        assert_eq!(Ratio::new(4, 2).to_string(), "2");
    }

    #[test]
    fn acyclic_graph_has_no_bound() {
        let mut g = Dfg::new("dag");
        let v = add_nodes(&mut g, &[1, 1]);
        g.add_edge(v[0], v[1], 0).unwrap();
        assert_eq!(iteration_bound(&g).unwrap(), None);
    }

    #[test]
    fn single_cycle_ratio() {
        let mut g = Dfg::new("one");
        let v = add_nodes(&mut g, &[2, 1, 1]);
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[2], 1).unwrap();
        g.add_edge(v[2], v[0], 1).unwrap();
        // T = 4, D = 2 -> ratio 2, IB = 2.
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Ratio::new(2, 1)));
        assert_eq!(iteration_bound(&g).unwrap(), Some(2));
    }

    #[test]
    fn takes_the_maximum_over_cycles() {
        let mut g = Dfg::new("two");
        let v = add_nodes(&mut g, &[1, 1, 3]);
        // Cycle A: v0 <-> v1 with 2 delays: ratio 2/2 = 1.
        g.add_edge(v[0], v[1], 1).unwrap();
        g.add_edge(v[1], v[0], 1).unwrap();
        // Cycle B: v2 self loop with 1 delay: ratio 3.
        g.add_edge(v[2], v[2], 1).unwrap();
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Ratio::new(3, 1)));
    }

    #[test]
    fn fractional_ratio_is_exact() {
        let mut g = Dfg::new("frac");
        let v = add_nodes(&mut g, &[1, 1, 1]);
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[2], 1).unwrap();
        g.add_edge(v[2], v[0], 1).unwrap();
        // T = 3, D = 2 -> 3/2, IB = 2.
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Ratio::new(3, 2)));
        assert_eq!(iteration_bound(&g).unwrap(), Some(2));
    }

    #[test]
    fn zero_delay_cycle_is_an_error() {
        let mut g = Dfg::new("bad");
        let v = add_nodes(&mut g, &[1, 1]);
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[0], 0).unwrap();
        assert!(matches!(
            iteration_bound(&g),
            Err(DfgError::ZeroDelayCycle { .. })
        ));
    }

    #[test]
    fn matches_brute_force_on_dense_graph() {
        // Deterministic pseudo-random dense graph, cross-checked against
        // full cycle enumeration.
        let mut g = Dfg::new("dense");
        let v = add_nodes(&mut g, &[3, 1, 4, 1, 5, 2]);
        let mut seed = 0x9E37_79B9_u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        for &a in &v {
            for &b in &v {
                if a != b && next() % 3 == 0 {
                    g.add_edge(a, b, 1 + (next() % 3) as u32).unwrap();
                }
            }
        }
        let fast = max_cycle_ratio(&g).unwrap();
        let brute = brute_force_ratio(&g);
        assert_eq!(fast, brute);
    }

    /// Near-`u32::MAX` times and delays: the exact rational arithmetic
    /// (u64 cycle sums, i128 Bellman–Ford weights) must neither wrap nor
    /// panic, and the ratio stays exact.
    #[test]
    fn huge_times_and_delays_keep_the_ratio_exact() {
        let mut g = Dfg::new("huge");
        let t = u32::MAX;
        let v = add_nodes(&mut g, &[t, t, t - 1]);
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[2], 1).unwrap();
        g.add_edge(v[2], v[0], 1).unwrap();
        // T = 3·(2^32 − 1) − 1, D = 2: exact and far outside u32.
        let total = 3 * u64::from(t) - 1;
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Ratio::new(total, 2)));
        assert_eq!(iteration_bound(&g).unwrap(), Some(total.div_ceil(2)));

        // Huge delays push the ratio below one; still exact.
        let mut g = Dfg::new("slow");
        let v = add_nodes(&mut g, &[1, 1]);
        g.add_edge(v[0], v[1], u32::MAX).unwrap();
        g.add_edge(v[1], v[0], u32::MAX).unwrap();
        assert_eq!(
            max_cycle_ratio(&g).unwrap(),
            Some(Ratio::new(2, 2 * u64::from(u32::MAX)))
        );
        assert_eq!(iteration_bound(&g).unwrap(), Some(1));
    }

    #[test]
    fn parallel_edges_take_min_delay_implicitly() {
        let mut g = Dfg::new("par");
        let v = add_nodes(&mut g, &[2, 2]);
        g.add_edge(v[0], v[1], 4).unwrap();
        g.add_edge(v[0], v[1], 1).unwrap();
        g.add_edge(v[1], v[0], 1).unwrap();
        // Binding cycle uses the 1-delay edge: T=4, D=2 -> ratio 2.
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Ratio::new(2, 1)));
    }
}
