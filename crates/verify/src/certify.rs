//! The certificate checker: proves a concrete (graph, resources,
//! retiming, schedule) quadruple is a legal wrapped kernel, from first
//! principles.
//!
//! Nothing here calls scheduler code. The retimed delays are re-derived
//! from `d_r(e) = d(e) + r(u) − r(v)`, the reservation table is
//! replayed with the verifier's own modulo fold, and precedence is
//! checked with the uniform wrapped-schedule rule
//!
//! ```text
//! s(v) + d_r(e) · L  ≥  s(u) + t(u)       for every edge e: u → v
//! ```
//!
//! which specializes to the paper's three conditions: linear precedence
//! for `d_r = 0`, the one-delay tail condition for wrapped producers
//! (Section 4), and vacuous truth for `d_r ≥ 2` once tails are bounded
//! by two kernels (`E108`).

use rotsched_dfg::{Dfg, NodeId, Retiming};

use crate::bound::certified_bound;
use crate::diag::{sort_canonical, Code, Diagnostic, Locus};
use crate::fold;
use crate::spec::ResourceSpec;

/// Per-node start control steps, the verifier's own schedule
/// representation (1-based, like the scheduler's).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartTimes {
    starts: Vec<Option<u32>>,
}

impl StartTimes {
    /// An empty assignment for `dfg` (no node scheduled).
    #[must_use]
    pub fn empty(dfg: &Dfg) -> Self {
        StartTimes {
            starts: vec![None; dfg.node_count()],
        }
    }

    /// Builds an assignment by asking `f` for every node of `dfg` —
    /// the bridge from any external schedule representation.
    #[must_use]
    pub fn from_fn(dfg: &Dfg, f: impl FnMut(NodeId) -> Option<u32>) -> Self {
        StartTimes {
            starts: dfg.node_ids().map(f).collect(),
        }
    }

    /// Sets node `v`'s start step.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the graph this was built for.
    pub fn set(&mut self, v: NodeId, cs: u32) {
        self.starts[v.index()] = Some(cs);
    }

    /// Unschedules node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the graph this was built for.
    pub fn clear(&mut self, v: NodeId) {
        self.starts[v.index()] = None;
    }

    /// Node `v`'s start step, if assigned (`None` also for out-of-range
    /// ids, keeping the checker total on mismatched inputs).
    #[must_use]
    pub fn get(&self, v: NodeId) -> Option<u32> {
        self.starts.get(v.index()).copied().flatten()
    }

    /// Number of nodes this assignment covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the assignment covers zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

/// Evidence that a schedule was certified legal: the independently
/// re-derived facts a consumer may rely on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Fingerprint of the certified graph's structure.
    pub graph_fingerprint: u64,
    /// The certified kernel length (initiation interval) `L`.
    pub kernel_length: u32,
    /// Pipeline depth `1 + max r − min r` of the certified retiming.
    pub depth: u32,
    /// How many nodes' executions cross the kernel boundary.
    pub wrapped_nodes: u32,
    /// The verifier's independent resource lower bound.
    pub resource_bound: u64,
    /// The verifier's independent recurrence lower bound, searched on
    /// the certified retimed delays (`None` only when the critical
    /// ratio's ceiling passes `u32::MAX − 1`).
    pub recurrence_bound: Option<u32>,
}

impl Certificate {
    /// The strongest lower bound this certificate can vouch for.
    #[must_use]
    pub fn lower_bound(&self) -> u64 {
        self.resource_bound
            .max(u64::from(self.recurrence_bound.unwrap_or(1)))
            .max(1)
    }

    /// Whether the certified length provably cannot be improved.
    #[must_use]
    pub fn proves_optimal(&self) -> bool {
        u64::from(self.kernel_length) <= self.lower_bound()
    }

    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "certified: L={} depth={} wrapped={} lower-bound={}{}",
            self.kernel_length,
            self.depth,
            self.wrapped_nodes,
            self.lower_bound(),
            if self.proves_optimal() {
                " (optimal)"
            } else {
                ""
            }
        )
    }

    /// Byte-stable JSON rendering with a fixed key order.
    #[must_use]
    pub fn render_json(&self) -> String {
        format!(
            "{{\"kernel_length\":{},\"depth\":{},\"wrapped_nodes\":{},\"resource_bound\":{},\"recurrence_bound\":{},\"lower_bound\":{},\"proves_optimal\":{},\"graph_fingerprint\":\"{:016x}\"}}",
            self.kernel_length,
            self.depth,
            self.wrapped_nodes,
            self.resource_bound,
            self.recurrence_bound
                .map_or_else(|| "null".to_owned(), |b| b.to_string()),
            self.lower_bound(),
            self.proves_optimal(),
            self.graph_fingerprint,
        )
    }
}

/// A solver's statement about its own output, to be verified rather
/// than trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Claim {
    /// The kernel length the solver reported.
    pub kernel_length: u32,
    /// The pipeline depth the solver reported, if it reported one.
    pub depth: Option<u32>,
    /// Whether the solver declared the length optimal.
    pub optimal: bool,
    /// The static register count the solver reported (the sum of
    /// retimed delays, one register per value crossing an iteration
    /// boundary), if it reported one.
    pub registers: Option<u64>,
    /// The prologue + epilogue operation count the solver reported
    /// (`node_count × (depth − 1)`), if it reported one.
    pub code_size: Option<u64>,
}

/// Certifies that `starts` is a legal wrapped schedule of `dfg` retimed
/// by `retiming` (`None` = zero retiming) with kernel length
/// `kernel_length`, under `spec`.
///
/// # Errors
///
/// Returns **every** violation found, in canonical order, rather than
/// stopping at the first — a rejected certificate should explain
/// itself fully.
pub fn certify(
    dfg: &Dfg,
    spec: &ResourceSpec,
    retiming: Option<&Retiming>,
    starts: &StartTimes,
    kernel_length: u32,
) -> Result<Certificate, Vec<Diagnostic>> {
    let mut bad = Vec::new();
    let length = i128::from(kernel_length);
    if kernel_length == 0 {
        bad.push(Diagnostic::new(
            Code::InvalidStart,
            Locus::Graph,
            "kernel length is 0; control steps are 1-based",
        ));
        return Err(bad);
    }

    let retiming_usable = match retiming {
        Some(r) if r.len() != dfg.node_count() => {
            bad.push(Diagnostic::new(
                Code::CertIllegalRetiming,
                Locus::Graph,
                format!(
                    "retiming covers {} node(s) but the graph has {}",
                    r.len(),
                    dfg.node_count()
                ),
            ));
            false
        }
        _ => true,
    };

    // Completeness + per-node window: 1 ≤ s ≤ L, finish ≤ 2L.
    let mut wrapped = 0_u32;
    for (v, node) in dfg.nodes() {
        match starts.get(v) {
            None => bad.push(Diagnostic::new(
                Code::Unscheduled,
                Locus::Node(v),
                "node has no start step; a certificate requires a complete schedule",
            )),
            Some(0) => bad.push(Diagnostic::new(
                Code::InvalidStart,
                Locus::Node(v),
                "start step 0; control steps are 1-based",
            )),
            Some(s) => {
                let finish = u64::from(s) + u64::from(node.steps()) - 1; // inclusive
                if u64::from(s) > u64::from(kernel_length) {
                    bad.push(Diagnostic::new(
                        Code::StartPastKernel,
                        Locus::Node(v),
                        format!(
                            "starts at step {s}, past the kernel end {kernel_length}; only tails may wrap"
                        ),
                    ));
                } else if finish > 2 * u64::from(kernel_length) {
                    bad.push(Diagnostic::new(
                        Code::TailTooLong,
                        Locus::Node(v),
                        format!(
                            "finishes at step {finish}, crossing more than one kernel boundary (L = {kernel_length})"
                        ),
                    ));
                } else if finish > u64::from(kernel_length) {
                    wrapped += 1;
                }
            }
        }
    }

    // Retimed-delay legality + uniform wrapped precedence. A kernel
    // that certifies has every retimed delay here, each non-negative:
    // the recurrence bound searches them.
    let mut retimed = Vec::with_capacity(dfg.edge_count());
    if retiming_usable {
        for (id, edge) in dfg.edges() {
            let dr = match retiming {
                Some(r) => r.retimed_delay(dfg, id),
                None => i64::from(edge.delays()),
            };
            retimed.push(dr.unsigned_abs());
            if dr < 0 {
                bad.push(Diagnostic::new(
                    Code::CertIllegalRetiming,
                    Locus::Edge {
                        from: edge.from(),
                        to: edge.to(),
                    },
                    format!("retimed delay d_r = {dr} is negative; the retiming is illegal"),
                ));
                continue;
            }
            let (Some(su), Some(sv)) = (starts.get(edge.from()), starts.get(edge.to())) else {
                continue; // already reported as E101
            };
            let finish = i128::from(su) + i128::from(dfg.node(edge.from()).steps()); // exclusive
            let slack = i128::from(sv) + i128::from(dr) * length - finish;
            if slack < 0 {
                let locus = Locus::Edge {
                    from: edge.from(),
                    to: edge.to(),
                };
                if dr == 0 {
                    bad.push(Diagnostic::new(
                        Code::PrecedenceViolation,
                        locus,
                        format!(
                            "producer finishes at step {} but the zero-delay consumer starts at {sv}",
                            finish - 1
                        ),
                    ));
                } else {
                    bad.push(Diagnostic::new(
                        Code::WrapPrecedenceViolation,
                        locus,
                        format!(
                            "wrapped tail ends at step {} of the next kernel but the {dr}-delay consumer starts at {sv}",
                            finish - 1 - length
                        ),
                    ));
                }
            }
        }
    }

    replay_reservations(dfg, spec, starts, kernel_length, &mut bad);

    if !bad.is_empty() {
        sort_canonical(&mut bad);
        return Err(bad);
    }
    Ok(Certificate {
        graph_fingerprint: dfg.structure_fingerprint(),
        kernel_length,
        // `1 + max r − min r`, clamped to `u32::MAX` for a retiming
        // spread past the `u32` range (which no search produces).
        depth: match retiming {
            Some(r) if !r.is_empty() => {
                let spread = i128::from(r.max_value()) - i128::from(r.min_value());
                u32::try_from(spread + 1).unwrap_or(u32::MAX)
            }
            _ => 1,
        },
        wrapped_nodes: wrapped,
        resource_bound: spec.resource_bound(dfg),
        recurrence_bound: certified_bound(dfg, retimed),
    })
}

/// Certifies a schedule **and** the solver's claim about it.
///
/// On top of [`certify`], checks that a reported depth matches the
/// retiming (`E113`), that a reported optimality verdict is backed
/// by one of the verifier's own lower bounds (`E114`) — a forged
/// verdict cannot smuggle itself through an honest schedule — and that
/// every reported secondary score component (static registers, code
/// size) matches the value re-derived from the certified retiming
/// (`E115`).
///
/// # Errors
///
/// Every violation found, in canonical order.
pub fn certify_claim(
    dfg: &Dfg,
    spec: &ResourceSpec,
    retiming: Option<&Retiming>,
    starts: &StartTimes,
    claim: &Claim,
) -> Result<Certificate, Vec<Diagnostic>> {
    let mut bad = match certify(dfg, spec, retiming, starts, claim.kernel_length) {
        Ok(cert) => {
            let mut bad = Vec::new();
            check_claim_consistency(dfg, retiming, claim, &cert, &mut bad);
            if bad.is_empty() {
                return Ok(cert);
            }
            bad
        }
        Err(bad) => bad,
    };
    sort_canonical(&mut bad);
    Err(bad)
}

fn check_claim_consistency(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    claim: &Claim,
    cert: &Certificate,
    bad: &mut Vec<Diagnostic>,
) {
    if let Some(claimed) = claim.registers {
        // Re-derive from first principles: one register per retimed
        // delay, Σ_e max(d_r(e), 0) — the verifier's own pressure rule,
        // saturating at `u64::MAX` like it.
        let derived: u64 = dfg
            .edges()
            .map(|(id, edge)| match retiming {
                Some(r) => u64::try_from(r.retimed_delay(dfg, id).max(0)).unwrap_or(0),
                None => u64::from(edge.delays()),
            })
            .fold(0, u64::saturating_add);
        if derived != claimed {
            bad.push(Diagnostic::new(
                Code::ScoreClaimMismatch,
                Locus::Graph,
                format!(
                    "claimed {claimed} static register(s) but the certified retiming holds {derived}"
                ),
            ));
        }
    }
    if let Some(claimed) = claim.code_size {
        // Prologue + epilogue ops: every node appears once per pipeline
        // stage beyond the kernel itself.
        let derived = dfg.node_count() as u64 * u64::from(cert.depth.saturating_sub(1));
        if derived != claimed {
            bad.push(Diagnostic::new(
                Code::ScoreClaimMismatch,
                Locus::Graph,
                format!(
                    "claimed a prologue/epilogue of {claimed} op(s) but the certified depth implies {derived}"
                ),
            ));
        }
    }
    if let Some(depth) = claim.depth {
        if depth != cert.depth {
            bad.push(Diagnostic::new(
                Code::LengthClaimMismatch,
                Locus::Graph,
                format!(
                    "claimed pipeline depth {depth} but the retiming has depth {}",
                    cert.depth
                ),
            ));
        }
    }
    if claim.optimal {
        let l = claim.kernel_length;
        let by_resources = cert.resource_bound >= u64::from(l);
        // No recurrence bound means every length is forced.
        let by_recurrence = cert.recurrence_bound.is_none_or(|b| l <= b);
        if !by_resources && !by_recurrence {
            bad.push(
                Diagnostic::new(
                    Code::ForgedOptimality,
                    Locus::Graph,
                    format!(
                        "claimed optimal at L = {l}, but the resource bound is {} and the recurrence bound is {}; neither proves L − 1 infeasible",
                        cert.resource_bound,
                        cert.recurrence_bound
                            .map_or_else(|| "∞".to_owned(), |b| b.to_string()),
                    ),
                )
                .with_hint("report the result as feasible, not optimal"),
            );
        }
    }
}

/// Replays every operation's unit occupancy folded modulo `L` and
/// reports each control step where a class is over-subscribed.
///
/// The fold is computed arithmetically (whole wraps + one cyclic
/// remainder range per operation) rather than step-by-step, so hostile
/// inputs with huge computation times cannot stall the checker.
fn replay_reservations(
    dfg: &Dfg,
    spec: &ResourceSpec,
    starts: &StartTimes,
    kernel_length: u32,
    bad: &mut Vec<Diagnostic>,
) {
    let l = u64::from(kernel_length);
    // Per class: constant base load (whole wraps) + difference events
    // for the remainder ranges, keyed by 1-based kernel step.
    let mut base = vec![0_u64; spec.classes().len()];
    let mut events: Vec<Vec<(u64, i64)>> = vec![Vec::new(); spec.classes().len()];
    let mut unbound_reported = [false; rotsched_dfg::OpKind::ALL.len()];

    for (v, node) in dfg.nodes() {
        let Some(s) = starts.get(v) else { continue };
        if s == 0 {
            continue; // already reported as E102
        }
        let Some(c) = spec.class_of(node.op()) else {
            let tag = rotsched_dfg::OpKind::ALL
                .iter()
                .position(|&k| k == node.op())
                .unwrap_or(0);
            if !unbound_reported[tag] {
                unbound_reported[tag] = true;
                bad.push(Diagnostic::new(
                    Code::UnboundOp,
                    Locus::Node(v),
                    format!("no resource class executes `{:?}`", node.op()),
                ));
            }
            continue;
        };
        let busy = u64::from(spec.classes()[c].busy_steps(node.time()));
        // Whole wraps load every step; the remainder ranges are events.
        let (whole, ranges) = fold::wrap(u64::from(s) - 1, busy, l);
        base[c] += whole;
        for r in ranges.into_iter().filter(|r| !r.is_empty()) {
            events[c].push((r.start, 1));
            events[c].push((r.end, -1));
        }
    }

    for (c, class) in spec.classes().iter().enumerate() {
        let mut evs = core::mem::take(&mut events[c]);
        if base[c] == 0 && evs.is_empty() {
            continue;
        }
        evs.sort_unstable();
        let mut running = i64::try_from(base[c].min(u64::from(u32::MAX))).unwrap_or(i64::MAX);
        if base[c] > u64::from(class.units) {
            // Whole wraps alone over-subscribe every step.
            bad.push(overflow_diag(class, 1, base[c], u64::from(class.units)));
            continue;
        }
        let mut i = 0;
        let mut worst: Option<(u64, i64)> = None;
        while i < evs.len() {
            let step = evs[i].0;
            while i < evs.len() && evs[i].0 == step {
                running += evs[i].1;
                i += 1;
            }
            if running > i64::from(class.units) && worst.is_none_or(|(_, w)| running > w) {
                worst = Some((step, running));
            }
        }
        if let Some((step, used)) = worst {
            bad.push(overflow_diag(
                class,
                u32::try_from(step + 1).unwrap_or(u32::MAX),
                u64::try_from(used).unwrap_or(0),
                u64::from(class.units),
            ));
        }
    }
}

fn overflow_diag(class: &crate::spec::UnitClass, step: u32, used: u64, limit: u64) -> Diagnostic {
    Diagnostic::new(
        Code::ResourceOverflow,
        Locus::Step(step),
        format!(
            "class `{}` needs {used} unit(s) in this folded step but has {limit}",
            class.name
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    /// The running example: a 2-cycle multiply feeding an add through
    /// the same iteration, closed by one register.
    fn iir() -> (Dfg, NodeId, NodeId) {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        (g, m, a)
    }

    fn spec() -> ResourceSpec {
        ResourceSpec::adders_multipliers(1, 1, false)
    }

    #[test]
    fn legal_schedule_certifies_with_facts() {
        let (g, m, a) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        s.set(a, 3);
        let cert = certify(&g, &spec(), None, &s, 3).expect("legal");
        assert_eq!(cert.kernel_length, 3);
        assert_eq!(cert.depth, 1);
        assert_eq!(cert.wrapped_nodes, 0);
        assert_eq!(cert.recurrence_bound, Some(3));
        assert!(cert.proves_optimal());
        assert!(cert.summary().contains("L=3"));
    }

    #[test]
    fn incomplete_schedule_is_e101() {
        let (g, m, _) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        let bad = certify(&g, &spec(), None, &s, 3).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::Unscheduled));
    }

    #[test]
    fn precedence_violation_is_e104() {
        let (g, m, a) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        s.set(a, 2); // m occupies steps 1-2, a must start at 3
        let bad = certify(&g, &spec(), None, &s, 3).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::PrecedenceViolation));
    }

    #[test]
    fn slot_collision_is_e105() {
        let mut g = Dfg::new("two-mults");
        let m1 = g.add_node("m1", OpKind::Mul, 2);
        let m2 = g.add_node("m2", OpKind::Mul, 2);
        g.add_edge(m1, m2, 1).unwrap();
        let mut s = StartTimes::empty(&g);
        s.set(m1, 1);
        s.set(m2, 2); // overlap at step 2 on the single multiplier
        let bad = certify(&g, &spec(), None, &s, 4).unwrap_err();
        let e105 = bad
            .iter()
            .find(|d| d.code == Code::ResourceOverflow)
            .expect("collision");
        assert!(matches!(e105.locus, Locus::Step(2)));
    }

    #[test]
    fn folded_collision_across_the_boundary_is_caught() {
        // One non-pipelined multiplier; a 2-step mult at step 2 of an
        // L=2 kernel wraps onto step 1, where another mult runs.
        let mut g = Dfg::new("fold");
        let m1 = g.add_node("m1", OpKind::Mul, 1);
        let m2 = g.add_node("m2", OpKind::Mul, 2);
        g.add_edge(m1, m2, 1).unwrap();
        let mut s = StartTimes::empty(&g);
        s.set(m1, 1);
        s.set(m2, 2); // occupies 2 and (wrapped) 1
        let bad = certify(&g, &spec(), None, &s, 2).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::ResourceOverflow));
    }

    #[test]
    fn wrapped_tail_respects_one_delay_consumer() {
        // m occupies steps 2-3 of an L=2 kernel: its tail wraps onto
        // step 1. Its 1-delay consumer at step 1 starts exactly when
        // the tail is still running -> E109; at step 2 it is fine.
        let mut g = Dfg::new("wrap");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 1).unwrap();
        let sp = ResourceSpec::adders_multipliers(1, 1, false);
        let mut s = StartTimes::empty(&g);
        s.set(m, 2);
        s.set(a, 1);
        let bad = certify(&g, &sp, None, &s, 2).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::WrapPrecedenceViolation));
        s.set(a, 2);
        let cert = certify(&g, &sp, None, &s, 2).expect("legal wrap");
        assert_eq!(cert.wrapped_nodes, 1);
    }

    #[test]
    fn start_past_kernel_and_long_tail_are_rejected() {
        let (g, m, a) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 4); // > L = 3
        s.set(a, 3);
        let bad = certify(&g, &spec(), None, &s, 3).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::StartPastKernel));
        // Tail across two boundaries: 5-step op starting at step 2, L=2.
        let mut g2 = Dfg::new("long");
        let x = g2.add_node("x", OpKind::Add, 5);
        let y = g2.add_node("y", OpKind::Add, 1);
        g2.add_edge(x, y, 2).unwrap();
        let mut s2 = StartTimes::empty(&g2);
        s2.set(x, 2);
        s2.set(y, 1);
        let bad = certify(&g2, &ResourceSpec::unlimited(), None, &s2, 2).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::TailTooLong));
    }

    #[test]
    fn illegal_retiming_is_e103_even_with_consistent_starts() {
        let (g, m, a) = iir();
        let r = Retiming::from_set(&g, [a]); // m -> a loses its (only) zero delay
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        s.set(a, 1);
        let bad = certify(&g, &spec(), Some(&r), &s, 3).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::CertIllegalRetiming));
    }

    #[test]
    fn rotation_retiming_relaxes_the_precedence() {
        // After rotating m down, m -> a carries a delay: a may start
        // before m finishes within the kernel.
        let (g, m, a) = iir();
        let r = Retiming::from_set(&g, [m]);
        let mut s = StartTimes::empty(&g);
        s.set(m, 2);
        s.set(a, 1);
        let cert = certify(&g, &spec(), Some(&r), &s, 3).expect("legal rotated kernel");
        assert_eq!(cert.depth, 2);
    }

    #[test]
    fn zero_kernel_length_is_rejected_not_panicked() {
        let (g, _, _) = iir();
        let s = StartTimes::empty(&g);
        let bad = certify(&g, &spec(), None, &s, 0).unwrap_err();
        assert_eq!(bad[0].code, Code::InvalidStart);
    }

    #[test]
    fn forged_optimality_is_e114() {
        let (g, m, a) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        s.set(a, 3);
        // L = 4 is feasible (just padded) but not optimal: bounds say 3.
        let mut st4 = StartTimes::empty(&g);
        st4.set(m, 1);
        st4.set(a, 3);
        let claim = Claim {
            kernel_length: 4,
            depth: Some(1),
            optimal: true,
            registers: None,
            code_size: None,
        };
        let bad = certify_claim(&g, &spec(), None, &st4, &claim).unwrap_err();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].code, Code::ForgedOptimality);
        // The honest claim passes.
        let honest = Claim {
            kernel_length: 4,
            depth: Some(1),
            optimal: false,
            registers: None,
            code_size: None,
        };
        certify_claim(&g, &spec(), None, &st4, &honest).expect("honest");
        // And a true optimality claim at L = 3 is confirmed.
        let tight = Claim {
            kernel_length: 3,
            depth: Some(1),
            optimal: true,
            registers: None,
            code_size: None,
        };
        certify_claim(&g, &spec(), None, &s, &tight).expect("confirmed optimal");
    }

    #[test]
    fn depth_claim_mismatch_is_e113() {
        let (g, m, a) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        s.set(a, 3);
        let claim = Claim {
            kernel_length: 3,
            depth: Some(7),
            optimal: false,
            registers: None,
            code_size: None,
        };
        let bad = certify_claim(&g, &spec(), None, &s, &claim).unwrap_err();
        assert_eq!(bad[0].code, Code::LengthClaimMismatch);
    }

    #[test]
    fn score_claim_mismatch_is_e115() {
        // Rotated iir kernel: m -> a gains a delay, a -> m loses its
        // one. Registers = Σ d_r = 1, depth 2 ⇒ code size = 2 × 1 = 2.
        let (g, m, a) = iir();
        let r = Retiming::from_set(&g, [m]);
        let mut s = StartTimes::empty(&g);
        s.set(m, 2);
        s.set(a, 1);
        let honest = Claim {
            kernel_length: 3,
            depth: Some(2),
            optimal: false,
            registers: Some(1),
            code_size: Some(2),
        };
        certify_claim(&g, &spec(), Some(&r), &s, &honest).expect("honest score components");
        // Forged register count.
        let forged_regs = Claim {
            registers: Some(0),
            ..honest
        };
        let bad = certify_claim(&g, &spec(), Some(&r), &s, &forged_regs).unwrap_err();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].code, Code::ScoreClaimMismatch);
        assert!(bad[0].message.contains("register"));
        // Forged code size.
        let forged_code = Claim {
            code_size: Some(99),
            ..honest
        };
        let bad = certify_claim(&g, &spec(), Some(&r), &s, &forged_code).unwrap_err();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].code, Code::ScoreClaimMismatch);
        assert!(bad[0].message.contains("prologue"));
        // Unclaimed components are not audited: the pre-objective claim
        // shape keeps certifying.
        let silent = Claim {
            registers: None,
            code_size: None,
            ..honest
        };
        certify_claim(&g, &spec(), Some(&r), &s, &silent).expect("silent components pass");
        // With no retiming, registers re-derive from the raw delays.
        let mut flat = StartTimes::empty(&g);
        flat.set(m, 1);
        flat.set(a, 3);
        let zero_ret = Claim {
            kernel_length: 3,
            depth: Some(1),
            optimal: false,
            registers: Some(1),
            code_size: Some(0),
        };
        certify_claim(&g, &spec(), None, &flat, &zero_ret).expect("raw-delay registers");
    }

    #[test]
    fn huge_times_do_not_stall_the_replay() {
        let mut g = Dfg::new("huge");
        let x = g.add_node("x", OpKind::Add, u32::MAX);
        g.add_edge(x, x, 1).unwrap();
        let mut s = StartTimes::empty(&g);
        s.set(x, 1);
        // Certification fails (tail far past 2L) but must return fast.
        let bad = certify(
            &g,
            &ResourceSpec::adders_multipliers(1, 0, false),
            None,
            &s,
            4,
        )
        .unwrap_err();
        assert!(!bad.is_empty());
    }

    #[test]
    fn certificate_json_is_stable() {
        let (g, m, a) = iir();
        let mut s = StartTimes::empty(&g);
        s.set(m, 1);
        s.set(a, 3);
        let c1 = certify(&g, &spec(), None, &s, 3).unwrap();
        let c2 = certify(&g, &spec(), None, &s, 3).unwrap();
        assert_eq!(c1.render_json(), c2.render_json());
        assert!(c1.render_json().starts_with("{\"kernel_length\":3,"));
    }
}
