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
//! recurrence bound, the forcing test behind it, the certificate's
//! bound and the analysis' critical cycle all read its answer. Its
//! probes run in machine words: `i64` whenever a range check on the
//! graph's size and largest time and delay proves that no probe value
//! can leave `i64` (every graph short of near-`u32::MAX` weights), the
//! same routine at `i128` otherwise.
//!
//! A certificate searches the kernel's retimed delays, the vector the
//! critical-cycle pass searches too, and hands its inputs and answer to
//! the next such pass on its thread (`certified_bound`,
//! `take_or_search`): a certified-then-analyzed kernel pays for one
//! search.

use std::cell::RefCell;
use std::ops::{Mul, Sub};

use rotsched_dfg::Dfg;

use crate::sweep::Sweep;

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
    recurrence_bound_after(dfg, &Sweep::zero_delay(dfg))
}

/// [`recurrence_bound`] given the graph's zero-delay sweep, for callers
/// that already ran it.
pub(crate) fn recurrence_bound_after(dfg: &Dfg, zero_delay: &Sweep) -> Option<u32> {
    if zero_delay.is_cyclic() {
        return None;
    }
    let delays: Vec<u64> = dfg
        .csr()
        .edge_delays()
        .iter()
        .map(|&d| u64::from(d))
        .collect();
    length_bound(max_ratio_cycle(dfg, &delays).as_ref())
}

/// The recurrence bound a maximum-ratio cycle states (`None` for a
/// graph without cycles): `max(1, ⌈T(C)/D(C)⌉)`, or `None` when no
/// length below `u32::MAX` survives.
pub(crate) fn length_bound(cycle: Option<&RatioCycle>) -> Option<u32> {
    let ceil = match cycle {
        Some(cycle) => cycle.ceil()?,
        None => 0,
    };
    u32::try_from(ceil.max(1)).ok().filter(|&b| b < u32::MAX)
}

/// The recurrence bound of a kernel that just certified, searched under
/// its retimed delays (`retimed`, by `EdgeId`), with the search's
/// inputs and answer left for the next [`take_or_search`] on this
/// thread.
///
/// This equals [`recurrence_bound`] without its zero-delay guard. A
/// certified schedule has no zero-delay cycle: summing its precedence
/// rule `s(v) + d_r(e)·L ≥ s(u) + steps(u)` around a cycle `C` gives
/// `L·D(C) ≥ |C| ≥ 1`. And every cycle's ratio is the same under `d_r`
/// as under `d`, because `Σ_C d_r = Σ_C d`.
pub(crate) fn certified_bound(dfg: &Dfg, retimed: Vec<u64>) -> Option<u32> {
    debug_assert_eq!(retimed.len(), dfg.edge_count(), "one delay per edge");
    let answer = max_ratio_cycle(dfg, &retimed);
    let bound = length_bound(answer.as_ref());
    let csr = dfg.csr();
    let handoff = Handoff {
        from: csr.edge_from().to_vec(),
        to: csr.edge_to().to_vec(),
        times: dfg.nodes().map(|(_, node)| node.time()).collect(),
        delays: retimed,
        answer,
    };
    HANDOFF.with(|slot| *slot.borrow_mut() = Some(handoff));
    bound
}

/// [`max_ratio_cycle`] of `dfg` under `delays`, taken from the handoff
/// [`certified_bound`] left on this thread when that search had exactly
/// these inputs — every edge's endpoints, every node's time and every
/// delay — and searched afresh otherwise.
///
/// Taking empties the slot, hit or miss, so each certificate serves at
/// most one pass and a repeated analysis searches again.
pub(crate) fn take_or_search(dfg: &Dfg, delays: &[u64]) -> Option<RatioCycle> {
    match HANDOFF.with(|slot| slot.borrow_mut().take()) {
        Some(handoff) if handoff.searched(dfg, delays) => handoff.answer,
        _ => max_ratio_cycle(dfg, delays),
    }
}

/// One search's inputs, copied, and its answer.
struct Handoff {
    from: Vec<u32>,
    to: Vec<u32>,
    times: Vec<u32>,
    delays: Vec<u64>,
    answer: Option<RatioCycle>,
}

impl Handoff {
    /// Whether [`max_ratio_cycle`]`(dfg, delays)` reads exactly the
    /// inputs this answer was searched on, and so returns it.
    fn searched(&self, dfg: &Dfg, delays: &[u64]) -> bool {
        let csr = dfg.csr();
        self.delays == delays
            && self.from == csr.edge_from()
            && self.to == csr.edge_to()
            && (self.times.iter().copied()).eq(dfg.nodes().map(|(_, node)| node.time()))
    }
}

thread_local! {
    /// The last certificate's search on this thread, until a
    /// critical-cycle pass takes it.
    static HANDOFF: RefCell<Option<Handoff>> = const { RefCell::new(None) };
}

/// Full searches [`max_ratio_cycle`] has run on this thread.
#[cfg(test)]
pub(crate) fn searches() -> u64 {
    SEARCHES.with(std::cell::Cell::get)
}

#[cfg(test)]
thread_local! {
    static SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A cycle of maximum ratio `T(C)/D(C)`.
#[derive(Debug, PartialEq, Eq)]
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

/// The signed word a cycle-ratio probe computes in.
pub(crate) trait Word: Copy + Ord + Mul<Output = Self> + Sub<Output = Self> {
    /// Zero, where every distance starts.
    const ZERO: Self;
    /// `x` as a word, exactly for every value a probe passes: any `u64`
    /// in `i128`, and below `2^63` in `i64` (see [`fits_i64`]).
    fn of(x: u64) -> Self;
    /// `dist + w`: a relaxation candidate.
    fn extend(self, w: Self) -> Self;
}

impl Word for i64 {
    const ZERO: Self = 0;
    fn of(x: u64) -> Self {
        i64::try_from(x).unwrap_or(i64::MAX)
    }
    /// Plain addition: [`fits_i64`] proves the sum exact, and a build
    /// with overflow checks would trap a flaw in that proof.
    fn extend(self, w: Self) -> Self {
        self + w
    }
}

impl Word for i128 {
    const ZERO: Self = 0;
    fn of(x: u64) -> Self {
        i128::from(x)
    }
    /// Saturating: a path adds up to `n·|E|` weights of up to `2^127`,
    /// and saturation still keeps every predecessor edge's
    /// `dist(to) ≤ dist(from) + w`, which is all the cycle argument
    /// needs.
    fn extend(self, w: Self) -> Self {
        self.saturating_add(w)
    }
}

/// Whether a probe over `n` nodes and `m` edges with times up to
/// `max_t` and delays up to `max_d` keeps every value inside `i64`.
///
/// A probe's `λ = num/den` is the ratio of a cycle the predecessor
/// graph closed, or `−1/1` at the start. Such a cycle is simple, so
/// `den = D(C) ≤ n·max_d` and `num = T(C) ≤ n·max_t`. Both products
/// `den·t(u)` and `num·d(e)` then lie in `[0, n·max_t·max_d]`, and so
/// does the magnitude of their difference, the weight; the `−1/1`
/// probe's weights are `t(u) + d(e)`. So every product and weight lies
/// within `W = max(max_t + max_d, n·max_t·max_d)` of zero. Distances
/// start at 0 and never fall, and each relaxation candidate adds one
/// weight to a distance, so after `k` edge scans every distance and
/// candidate lies in `[−W, k·W]`. A probe scans at most `n` rounds of
/// `m` edges, so `n·m·W ≤ i64::MAX` bounds every value it computes.
fn fits_i64(n: usize, m: usize, max_t: u64, max_d: u64) -> bool {
    let (n, m, t, d) = (n as u128, m as u128, u128::from(max_t), u128::from(max_d));
    let weight = n
        .checked_mul(t)
        .and_then(|nt| nt.checked_mul(d))
        .map(|ntd| ntd.max(t + d));
    weight
        .and_then(|w| w.checked_mul(n))
        .and_then(|w| w.checked_mul(m))
        .is_some_and(|bound| bound <= i64::MAX as u128)
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
/// The probes scan one packed arc array `(from, to, t(from), d)` and
/// compute each weight inline. They run in `i64` when [`fits_i64`]
/// proves every weight, distance and candidate fits, which holds for
/// any graph short of near-`u32::MAX` weights; otherwise in `i128`.
/// Both words run the same code and, inside the range check, return
/// the same cycle. The `i128` weights are exact: `den` and `num` are
/// a cycle's `u64` sums (or `1` and `−1`), so both are below `2^64` in
/// magnitude; `t(u)` is below `2^32`; and every caller passes delays
/// below `2^63` (the recurrence bound's are `u32`, the certificate's
/// and the critical cycle's non-negative retimed `i64`s). So `den·t(u) < 2^96` and `|num·d(e)| <
/// 2^127`, and their difference lies strictly inside the `i128` range;
/// distance sums saturate there ([`Word::extend`]).
///
/// The first probe runs at `λ = −1` (weights `t(u) + d(e)`), just below
/// every ratio, so a cycle of zero-time ops still yields its ratio-0
/// witness. Ties go to the first cycle to reach the maximum; within a
/// round, to the first found walking roots in index order.
///
/// A zero-delay cycle of zero-time ops has weight 0 at every `λ` and is
/// never found: callers rule zero-delay cycles out first.
pub(crate) fn max_ratio_cycle(dfg: &Dfg, delays: &[u64]) -> Option<RatioCycle> {
    #[cfg(test)]
    SEARCHES.with(|n| n.set(n.get() + 1));
    debug_assert!(
        delays.iter().all(|&d| d < 1 << 63),
        "delays below 2^63 keep the weights exact"
    );
    let max_t = dfg.nodes().map(|(_, node)| node.time()).max().unwrap_or(0);
    let max_d = delays.iter().copied().max().unwrap_or(0);
    if fits_i64(dfg.node_count(), delays.len(), max_t.into(), max_d) {
        max_ratio_cycle_in::<i64>(dfg, delays)
    } else {
        max_ratio_cycle_in::<i128>(dfg, delays)
    }
}

/// One edge as a probe reads it.
#[derive(Clone, Copy)]
struct ProbeArc<W> {
    from: u32,
    to: u32,
    /// `t(from)`.
    time: W,
    delays: W,
}

/// [`max_ratio_cycle`] in the word `W`.
pub(crate) fn max_ratio_cycle_in<W: Word>(dfg: &Dfg, delays: &[u64]) -> Option<RatioCycle> {
    let csr = dfg.csr();
    let times: Vec<u64> = dfg
        .nodes()
        .map(|(_, node)| u64::from(node.time()))
        .collect();
    let arcs: Vec<ProbeArc<W>> = (csr.edge_from().iter().zip(csr.edge_to()))
        .zip(delays)
        .map(|((&from, &to), &d)| ProbeArc {
            from,
            to,
            time: W::of(times[from as usize]),
            delays: W::of(d),
        })
        .collect();
    let n = times.len();
    let mut dist = vec![W::ZERO; n];
    let mut pred = vec![usize::MAX; n];
    let mut walk_of = vec![0; n];
    let mut best: Option<RatioCycle> = None;
    loop {
        let (num, den) = best.as_ref().map_or((W::ZERO - W::of(1), W::of(1)), |c| {
            (W::of(c.time), W::of(c.delays))
        });
        dist.fill(W::ZERO);
        pred.fill(usize::MAX);
        let mut improved = false;
        for _round in 0..n {
            let mut relaxed = false;
            for (e, arc) in arcs.iter().enumerate() {
                let (u, v) = (arc.from as usize, arc.to as usize);
                let candidate = dist[u].extend(den * arc.time - num * arc.delays);
                if candidate > dist[v] {
                    dist[v] = candidate;
                    pred[v] = e;
                    relaxed = true;
                }
            }
            if !relaxed {
                break;
            }
            let (pred, arcs) = (&pred, arcs.as_slice());
            pred_graph_cycles(
                &mut walk_of,
                |v| (pred[v] != usize::MAX).then(|| arcs[pred[v]].from as usize),
                |anchor| {
                    // The cycle's edges, walked backwards from `anchor`.
                    let back = || {
                        let mut v = Some(anchor);
                        std::iter::from_fn(move || {
                            let e = pred[v?];
                            let u = arcs[e].from as usize;
                            v = (u != anchor).then_some(u);
                            Some(e)
                        })
                    };
                    let (time, total) = back().fold((0_u64, 0_u64), |(t, d), e| {
                        (
                            t.saturating_add(times[arcs[e].from as usize]),
                            d.saturating_add(delays[e]),
                        )
                    });
                    if best.as_ref().is_none_or(|b| b.beaten_by(time, total)) {
                        let mut edges: Vec<usize> = back().collect();
                        edges.reverse();
                        let first = (0..edges.len())
                            .min_by_key(|&i| arcs[edges[i]].from)
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
    use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
    use rotsched_dfg::rng::{Fnv64, SplitMix64};
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

    /// A seeded graph of 1–8 nodes with zero-time ops, self-loops and
    /// parallel edges, plus per-edge delays drawn apart from the graph's
    /// own (the critical-cycle pass searches under retimed delays), zero
    /// included. Times and delays reach `2^20`, well inside the range
    /// check.
    fn small_case(seed: u64) -> (Dfg, Vec<u64>) {
        let mut rng = SplitMix64::new(seed);
        let weight = |rng: &mut SplitMix64| match rng.range_u32(0, 9) {
            0 | 1 => 0,
            9 => 1 << 20,
            _ => rng.range_u32(1, 4),
        };
        let n = rng.range_u32(1, 8) as usize;
        let mut g = Dfg::new("small");
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, weight(&mut rng)))
            .collect();
        let mut delays = Vec::new();
        for _ in 0..rng.range_u32(0, 3 * n as u32) {
            let (from, to) = (ids[rng.index(n)], ids[rng.index(n)]);
            g.add_edge(from, to, 1).expect("endpoints exist");
            delays.push(u64::from(weight(&mut rng)));
        }
        (g, delays)
    }

    /// A graph shaped like the `analyze-256` workload's: 80 to 256
    /// nodes at the per-node degree of a 64-node random graph, searched
    /// under its own delays.
    fn large_case(seed: u64) -> (Dfg, Vec<u64>) {
        let nodes = 80 + 16 * (seed as usize % 12);
        let defaults = RandomDfgConfig::default();
        let scale = 64.0 / nodes as f64;
        let g = random_dfg(
            &RandomDfgConfig {
                nodes,
                forward_density: defaults.forward_density * scale,
                feedback_density: defaults.feedback_density * scale,
                ..defaults
            },
            seed,
        );
        let delays = g.edges().map(|(_, e)| u64::from(e.delays())).collect();
        (g, delays)
    }

    /// Runs both words over `cases`, requiring identical answers inside
    /// the range check, and digests every witness: edges, `T(C)` and
    /// `D(C)`.
    fn both_words(cases: impl Iterator<Item = (Dfg, Vec<u64>)>) -> u64 {
        let mut digest = Fnv64::new();
        for (i, (g, delays)) in cases.enumerate() {
            let max_t = g.nodes().map(|(_, v)| v.time()).max().unwrap_or(0);
            let max_d = delays.iter().copied().max().unwrap_or(0);
            assert!(fits_i64(g.node_count(), delays.len(), max_t.into(), max_d));
            let narrow = max_ratio_cycle_in::<i64>(&g, &delays);
            let wide = max_ratio_cycle_in::<i128>(&g, &delays);
            assert_eq!(narrow, wide, "case {i}");
            assert_eq!(max_ratio_cycle(&g, &delays), narrow, "case {i}");
            digest.write_u64(i as u64);
            if let Some(c) = narrow {
                c.edges.iter().for_each(|&e| digest.write_u64(e as u64));
                digest.write_u64(c.time);
                digest.write_u64(c.delays);
            }
        }
        digest.finish()
    }

    // The digests pin the probe trajectory (relaxation order, the strict
    // `>`, the predecessor walk and its tie rule): tied cycles abound in
    // these graphs, and the witness among them is part of every report.
    #[test]
    fn word_widths_agree_on_small_degenerate_graphs() {
        assert_eq!(both_words((0..2000).map(small_case)), SMALL_DIGEST);
    }

    #[test]
    fn word_widths_agree_on_analyze_256_shaped_graphs() {
        assert_eq!(both_words((0..12).map(large_case)), LARGE_DIGEST);
    }

    /// The witnesses of the `i128`-only search these probes replaced,
    /// recorded on that search.
    const SMALL_DIGEST: u64 = 0xc72b_f65a_ea7a_7e1f;
    const LARGE_DIGEST: u64 = 0x1227_1a50_31f3_f412;

    #[test]
    fn range_check_is_exact_at_its_boundary() {
        // `n·m·max(t + d, n·t·d)` against `i64::MAX = 7²·73·p`, where
        // `p = 127·337·92737·649657`.
        let p = 127 * 337 * 92_737 * 649_657_u64;
        // The product term at the bound: `t·d = i64::MAX / 49`.
        assert!(fits_i64(1, 49, 73, p));
        assert!(!fits_i64(1, 49, 73, p + 1));
        assert!(!fits_i64(1, 50, 73, p));
        assert!(!fits_i64(2, 49, 73, p));
        // The sum term, with zero-time ops: `n·m·d`.
        assert!(fits_i64(7, 7, 0, 73 * p));
        assert!(!fits_i64(7, 7, 0, 73 * p + 1));
        assert!(!fits_i64(7, 8, 0, 73 * p));
        assert!(!fits_i64(8, 7, 0, 73 * p));
        // Products past `u128` do not wrap into range.
        assert!(!fits_i64(usize::MAX, usize::MAX, u64::MAX, u64::MAX));
        assert!(fits_i64(0, 0, u64::MAX, u64::MAX));
    }

    #[test]
    fn one_input_on_each_side_of_the_range_check() {
        // A self-loop of one time unit through `D` delays: the first
        // probe's weight `t + d = D + 1` is the largest value either word
        // meets. `D = i64::MAX − 1` runs in `i64` at exactly `i64::MAX`,
        // one more delay runs in `i128`; both find the loop.
        let mut g = Dfg::new("loop");
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(a, a, 1).unwrap();
        for (delays, narrow) in [
            (i64::MAX.unsigned_abs() - 1, true),
            (i64::MAX.unsigned_abs(), false),
        ] {
            assert_eq!(fits_i64(1, 1, 1, delays), narrow);
            let cycle = max_ratio_cycle(&g, &[delays]).expect("a self-loop");
            assert_eq!(
                (cycle.edges, cycle.time, cycle.delays),
                (vec![0], 1, delays)
            );
        }
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

    // ---- The certify → critical-cycle handoff ----

    use crate::analysis::{analyze, ScheduleView};
    use crate::certify::{certify, StartTimes};
    use crate::spec::ResourceSpec;
    use rotsched_dfg::{NodeId, Retiming};

    /// A kernel of `g` that certifies under unlimited resources: a
    /// seeded legal retiming (down-rotations of single nodes whose every
    /// in-edge still carries a delay), each node started as soon as its
    /// retimed zero-delay predecessors finish, `L` the last finish. On a
    /// graph with a zero-delay cycle, every node at step 1 of a
    /// one-step kernel, which never certifies.
    fn kernel(g: &Dfg, seed: u64) -> (Retiming, StartTimes, u32) {
        let mut rng = SplitMix64::new(seed);
        let mut r = Retiming::zero(g);
        if g.node_count() > 0 {
            for _ in 0..2 * g.node_count() {
                let v = NodeId::from_index(rng.index(g.node_count()));
                if g.in_edges(v).iter().all(|&e| r.retimed_delay(g, e) >= 1) {
                    r.add(v, 1);
                }
            }
        }
        let mut start = vec![1_u64; g.node_count()];
        if !Sweep::zero_delay(g).is_cyclic() {
            for _ in 0..g.node_count() {
                for (e, edge) in g.edges() {
                    let (u, v) = (edge.from().index(), edge.to().index());
                    if r.retimed_delay(g, e) == 0 {
                        let ready = start[u] + u64::from(g.node(edge.from()).steps());
                        start[v] = start[v].max(ready);
                    }
                }
            }
        }
        let finish = g
            .nodes()
            .map(|(v, node)| start[v.index()] + u64::from(node.steps()) - 1);
        let length = u32::try_from(finish.max().unwrap_or(1)).unwrap();
        let starts = StartTimes::from_fn(g, |v| Some(u32::try_from(start[v.index()]).unwrap()));
        (r, starts, length)
    }

    /// A seeded graph of 1–8 nodes with zero-time ops, self-loops,
    /// parallel edges and zero-delay edges (zero-delay cycles of two or
    /// more nodes included). Times stay below 4 so kernels stay short.
    fn degenerate_graph(seed: u64) -> Dfg {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_u32(1, 8) as usize;
        let mut g = Dfg::new("degenerate");
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, rng.range_u32(0, 3)))
            .collect();
        for _ in 0..rng.range_u32(0, 3 * n as u32) {
            let (from, to) = (ids[rng.index(n)], ids[rng.index(n)]);
            // The builder rejects a zero-delay self-loop.
            let floor = u32::from(from == to);
            g.add_edge(from, to, rng.range_u32(floor, 2)).unwrap();
        }
        g
    }

    /// The analysis of `kernel` as every consumer reads it: both
    /// renderings and the lints.
    fn analysis_bytes(g: &Dfg, (r, starts, length): &(Retiming, StartTimes, u32)) -> String {
        let view = ScheduleView {
            starts,
            retiming: r,
            kernel_length: *length,
        };
        let report = analyze(g, &ResourceSpec::unlimited(), Some(&view));
        format!("{}\n{}", report.render_json(g), report.render_text(g))
    }

    fn certify_kernel(g: &Dfg, (r, starts, length): &(Retiming, StartTimes, u32)) -> bool {
        certify(g, &ResourceSpec::unlimited(), Some(r), starts, *length).is_ok()
    }

    /// Certifies then analyzes each kernel, requiring the analysis' cold
    /// bytes and, for each certified kernel, no search of its own. Every
    /// kernel without a zero-delay cycle certifies. Returns how many
    /// did.
    fn handoff_matches_cold(graphs: impl Iterator<Item = Dfg>) -> usize {
        let mut certified = 0;
        for (i, g) in graphs.enumerate() {
            let k = kernel(&g, i as u64);
            let cold = analysis_bytes(&g, &k);
            let ok = certify_kernel(&g, &k);
            assert_eq!(ok, !Sweep::zero_delay(&g).is_cyclic(), "case {i}");
            let before = searches();
            assert_eq!(analysis_bytes(&g, &k), cold, "case {i}");
            if ok {
                let own = searches() - before;
                assert_eq!(own, 0, "case {i}: the certificate's answer");
                certified += 1;
            }
        }
        certified
    }

    #[test]
    fn handoff_keeps_the_analysis_bytes_on_analyze_256_shaped_kernels() {
        let certified = handoff_matches_cold((0..12).map(|seed| large_case(seed).0));
        assert_eq!(certified, 12);
    }

    #[test]
    fn handoff_keeps_the_analysis_bytes_on_degenerate_kernels() {
        let certified = handoff_matches_cold((0..500).map(degenerate_graph));
        assert_eq!(certified, 445, "the other 55 have zero-delay cycles");
    }

    /// The analyze-256-shaped graph of `seed` with its kernel.
    fn kernel_case(seed: u64) -> (Dfg, (Retiming, StartTimes, u32)) {
        let g = large_case(seed).0;
        let k = kernel(&g, seed);
        assert!(certify_kernel(&g, &k));
        (g, k)
    }

    #[test]
    fn one_search_per_certified_then_analyzed_kernel() {
        let (g1, k1) = kernel_case(1);
        let (g2, k2) = kernel_case(2);
        // Searches `f` runs.
        let count = |f: &dyn Fn()| {
            let before = searches();
            f();
            searches() - before
        };
        let analyze1 = || drop(analysis_bytes(&g1, &k1));
        let certify_then_analyze = || {
            certify_kernel(&g1, &k1);
            analyze1();
        };
        assert_eq!(count(&certify_then_analyze), 1, "certify + analyze");
        assert_eq!(count(&analyze1), 1, "analyze alone");
        let twice = || {
            analyze1();
            analyze1();
        };
        assert_eq!(count(&twice), 2, "analyze twice: the slot is not a cache");
        let interleaved = || {
            certify_kernel(&g1, &k1);
            certify_kernel(&g2, &k2);
            analyze1();
        };
        assert_eq!(
            count(&interleaved),
            3,
            "certify(g1), certify(g2), analyze(g1)"
        );
    }

    #[test]
    fn a_kernel_differing_in_one_input_never_receives_the_answer() {
        let (g, k) = kernel_case(3);
        let edge = |e: usize| g.edges().nth(e).unwrap().1;
        // Rebuilds `g` with node 0's time or edge 0's delay or head
        // moved by one.
        let variant = |time: u32, delay: u32, head: usize| {
            let mut h = Dfg::new("variant");
            for (v, node) in g.nodes() {
                let t = if v.index() == 0 { time } else { node.time() };
                h.add_node(node.name(), node.op(), t);
            }
            for (e, edge) in g.edges() {
                let (to, d) = if e.index() == 0 {
                    (NodeId::from_index(head), delay)
                } else {
                    (edge.to(), edge.delays())
                };
                h.add_edge(edge.from(), to, d).unwrap();
            }
            h
        };
        let (t0, d0, head0) = (
            g.node(NodeId::from_index(0)).time(),
            edge(0).delays(),
            edge(0).to().index(),
        );
        let other_head = (head0 + 1) % g.node_count();
        let mut retimed = k.0.clone();
        let v = NodeId::from_index(0);
        retimed.set(v, retimed.of(v) + 1);
        for (case, h, k) in [
            ("time", variant(t0 + 1, d0, head0), k.clone()),
            ("delay", variant(t0, d0 + 1, head0), k.clone()),
            ("endpoint", variant(t0, d0, other_head), k.clone()),
            (
                "retiming",
                variant(t0, d0, head0),
                (retimed, k.1.clone(), k.2),
            ),
        ] {
            let cold = analysis_bytes(&h, &k);
            assert!(certify_kernel(&g, &kernel_case(3).1), "{case}");
            let before = searches();
            assert_eq!(analysis_bytes(&h, &k), cold, "{case}");
            let own = searches() - before;
            assert_eq!(own, 1, "{case}: searched afresh");
        }
    }

    #[test]
    fn the_search_decides_acyclic_like_the_full_graph_sweep() {
        use crate::lint::{lint, LintContext, LintOptions};
        let spec = ResourceSpec::unlimited();
        let options = LintOptions::default();
        let mut acyclic = 0;
        for seed in 0..500 {
            let g = degenerate_graph(seed);
            let (r, starts, length) = kernel(&g, seed);
            let view = ScheduleView {
                starts: &starts,
                retiming: &r,
                kernel_length: length,
            };
            let swept = !Sweep::run(&g, true, false).is_cyclic();
            acyclic += usize::from(swept);
            for schedule in [None, Some(&view)] {
                let report = analyze(&g, &spec, schedule);
                assert_eq!(report.acyclic, swept, "seed {seed}");
                let ctx = LintContext {
                    spec: Some(&spec),
                    retiming: schedule.map(|s| s.retiming),
                    ..LintContext::bare(&options)
                };
                assert_eq!(report.lints, lint(&g, &ctx), "seed {seed}");
            }
        }
        assert_eq!(acyclic, 105, "acyclic graphs among the 500");
    }
}
