//! Schedule validation.
//!
//! * [`check_dag_schedule`] — is `s` a legal DAG schedule of `G_r` under
//!   the resource constraints? (Every zero-delay precedence satisfied,
//!   no unit over-subscribed, every node placed.)
//! * [`realizing_retiming`] — Lemma 1 / Theorem 2: does *some* legal
//!   retiming make `s` a legal static schedule of `G`? Solved via the
//!   shortest-path dual exactly as in Section 3.2; the returned retiming
//!   is normalized and has the minimum possible `max_v r(v)`, i.e. the
//!   shallowest pipeline depth.
//! * [`check_static_schedule`] — convenience wrapper combining both.

use rotsched_dfg::analysis::paths::{bellman_ford, WeightedEdge};
use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::{Dfg, Retiming};

use crate::error::SchedError;
use crate::reservation::ReservationTable;
use crate::resources::ResourceSet;
use crate::schedule::Schedule;

/// Checks that `schedule` is a complete, legal DAG schedule of `G_r`
/// under `resources`.
///
/// # Errors
///
/// Returns the first violation found: [`SchedError::Unscheduled`],
/// [`SchedError::PrecedenceViolated`], [`SchedError::ResourceOverflow`],
/// or [`SchedError::UnboundOp`].
pub fn check_dag_schedule(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    schedule: &Schedule,
    resources: &ResourceSet,
) -> Result<(), SchedError> {
    // Completeness.
    for v in dfg.node_ids() {
        if schedule.start(v).is_none() {
            return Err(SchedError::Unscheduled { node: v });
        }
    }

    // Zero-delay precedence: s(u) + t(u) <= s(v) whenever d_r(u, v) = 0.
    for (id, edge) in dfg.edges() {
        if is_zero_delay_under(dfg, retiming, id) {
            let su = schedule.start(edge.from()).expect("checked complete");
            let sv = schedule.start(edge.to()).expect("checked complete");
            // Saturating: a start near u32::MAX must report a precedence
            // violation, not wrap around and pass.
            let finish = su.saturating_add(dfg.node(edge.from()).steps());
            if finish > sv {
                return Err(SchedError::PrecedenceViolated {
                    from: edge.from(),
                    to: edge.to(),
                    finish,
                    start: sv,
                });
            }
        }
    }

    check_resources(dfg, schedule, resources)
}

/// Checks only the resource limits of a (complete or partial) schedule.
///
/// # Errors
///
/// Returns [`SchedError::ResourceOverflow`] or [`SchedError::UnboundOp`].
pub fn check_resources(
    dfg: &Dfg,
    schedule: &Schedule,
    resources: &ResourceSet,
) -> Result<(), SchedError> {
    let mut table = ReservationTable::new(resources);
    for (v, cs) in schedule.iter() {
        let class_id = resources
            .class_for(dfg.node(v).op())
            .ok_or(SchedError::UnboundOp { node: v })?;
        let class = resources.class(class_id);
        let steps: Vec<u32> = class
            .occupancy(dfg.node(v).time())
            .map(|off| cs.saturating_add(off))
            .collect();
        if !table.can_place(class_id, steps.iter().copied()) {
            let bad = steps
                .iter()
                .copied()
                .find(|&s| table.used(class_id, s) >= class.count())
                .unwrap_or(cs);
            return Err(SchedError::ResourceOverflow {
                class: class.name().to_owned(),
                cs: bad,
                used: table.used(class_id, bad) + 1,
                limit: class.count(),
            });
        }
        table.place(class_id, steps);
    }
    Ok(())
}

/// Theorem 2 / Lemma 3: finds a legal retiming `r` such that `schedule`
/// is a legal DAG schedule of `G_r`, if one exists — i.e. decides whether
/// `schedule` is a legal *static* schedule of `G` and certifies it.
///
/// The LP form
///
/// ```text
/// r(v) − r(u) ≤ d(u, v)          for every edge
/// r(v) − r(u) ≤ d(u, v) − 1      for every edge with s(u) + t(u) > s(v)
/// ```
///
/// is the dual of a single-source shortest-path problem on a constraint
/// graph `H` with a pseudo-source (Lemma 3): with an H-edge `u → v` of
/// length `k` per constraint, the shortest-path distances satisfy
/// `Sh(v) ≤ Sh(u) + k`, so `r(v) = Sh(v)` solves the LP form. (The paper
/// states this as `r(v) = −Sh(v)` over the reversed constraint graph —
/// the same solution.) The result is normalized and yields a shallow
/// pipeline depth.
///
/// Returns `None` when `H` has a negative cycle, i.e. the schedule is not
/// a legal static schedule of `G` under any retiming.
///
/// # Panics
///
/// Panics if `schedule` is incomplete.
#[must_use]
pub fn realizing_retiming(dfg: &Dfg, schedule: &Schedule) -> Option<Retiming> {
    let n = dfg.node_count();
    // Vertex n is the pseudo-source v0.
    let mut edges = Vec::with_capacity(dfg.edge_count() + n);
    for (_, edge) in dfg.edges() {
        let su = schedule
            .start(edge.from())
            .expect("realizing_retiming requires a complete schedule");
        let sv = schedule
            .start(edge.to())
            .expect("realizing_retiming requires a complete schedule");
        let chained_ok = su.saturating_add(dfg.node(edge.from()).steps()) <= sv;
        let k = i64::from(edge.delays()) - i64::from(!chained_ok);
        // Constraint r(v) − r(u) ≤ k becomes an H-edge u → v of length k.
        edges.push(WeightedEdge::new(edge.from().index(), edge.to().index(), k));
    }
    for v in 0..n {
        edges.push(WeightedEdge::new(n, v, 0));
    }

    let sp = bellman_ford(n + 1, &edges, n).ok()?;
    let values: Vec<i64> = (0..n)
        .map(|v| sp.dist[v].expect("pseudo-source reaches every vertex"))
        .collect();
    let r = Retiming::from_values(dfg, values).to_normalized();
    debug_assert!(r.is_legal(dfg), "shortest-path retiming is legal");
    Some(r)
}

/// Checks that `schedule` is a legal static schedule of `G` under
/// `resources`, returning the realizing retiming of minimum depth.
///
/// # Errors
///
/// Returns [`SchedError::PrecedenceViolated`] (with one witness edge)
/// when no retiming realizes the schedule, plus any resource or
/// completeness error.
pub fn check_static_schedule(
    dfg: &Dfg,
    schedule: &Schedule,
    resources: &ResourceSet,
) -> Result<Retiming, SchedError> {
    for v in dfg.node_ids() {
        if schedule.start(v).is_none() {
            return Err(SchedError::Unscheduled { node: v });
        }
    }
    check_resources(dfg, schedule, resources)?;
    match realizing_retiming(dfg, schedule) {
        Some(r) => Ok(r),
        None => {
            // Produce a concrete witness: some zero-delay-constrained edge
            // must be violated in every retiming; report the tightest one.
            let witness = find_violation_witness(dfg, schedule);
            Err(witness)
        }
    }
}

fn find_violation_witness(dfg: &Dfg, schedule: &Schedule) -> SchedError {
    for (_, edge) in dfg.edges() {
        let (Some(su), Some(sv)) = (schedule.start(edge.from()), schedule.start(edge.to())) else {
            continue;
        };
        let finish = su.saturating_add(dfg.node(edge.from()).steps());
        if edge.delays() == 0 && finish > sv {
            return SchedError::PrecedenceViolated {
                from: edge.from(),
                to: edge.to(),
                finish,
                start: sv,
            };
        }
    }
    // No single zero-delay edge is violated; the inconsistency is a cycle
    // property. Report the first edge of a delay-starved cycle generically.
    let (id, edge) = dfg
        .edges()
        .next()
        .expect("an unrealizable schedule implies at least one edge");
    let _ = id;
    SchedError::PrecedenceViolated {
        from: edge.from(),
        to: edge.to(),
        finish: 0,
        start: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::ListScheduler;
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn iir() -> Dfg {
        DfgBuilder::new("iir")
            .node("m", OpKind::Mul, 2)
            .node("a", OpKind::Add, 1)
            .wire("m", "a")
            .edge("a", "m", 1)
            .build()
            .unwrap()
    }

    #[test]
    fn list_schedule_passes_validation() {
        let g = iir();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let s = ListScheduler::default().schedule(&g, None, &res).unwrap();
        check_dag_schedule(&g, None, &s, &res).unwrap();
        let r = check_static_schedule(&g, &s, &res).unwrap();
        assert_eq!(r.depth(), 1, "a DAG schedule needs no pipelining");
    }

    #[test]
    fn precedence_violation_is_caught() {
        let g = iir();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let mut s = Schedule::empty(&g);
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        s.set(m, 1);
        s.set(a, 2); // m finishes at end of step 2; a cannot start at 2.
        let err = check_dag_schedule(&g, None, &s, &res).unwrap_err();
        assert!(matches!(err, SchedError::PrecedenceViolated { .. }));
    }

    #[test]
    fn resource_overflow_is_caught() {
        let g = DfgBuilder::new("two")
            .nodes("m", 2, OpKind::Mul, 1)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(0, 1, false);
        let mut s = Schedule::empty(&g);
        for v in g.node_ids() {
            s.set(v, 1);
        }
        let err = check_dag_schedule(&g, None, &s, &res).unwrap_err();
        assert!(matches!(err, SchedError::ResourceOverflow { .. }));
    }

    #[test]
    fn incomplete_schedule_is_caught() {
        let g = iir();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let s = Schedule::empty(&g);
        let err = check_dag_schedule(&g, None, &s, &res).unwrap_err();
        assert!(matches!(err, SchedError::Unscheduled { .. }));
    }

    #[test]
    fn swapped_schedule_is_realized_by_a_retiming() {
        // Schedule a *before* m: illegal as a DAG schedule of G, but legal
        // statically — the retiming r(m) = ... shifts m's iteration.
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let mut s = Schedule::empty(&g);
        s.set(a, 1);
        s.set(m, 2);
        assert!(check_dag_schedule(&g, None, &s, &res).is_err());
        let r = check_static_schedule(&g, &s, &res).unwrap();
        // r must break the m -> a zero-delay constraint: d_r(m, a) >= 1.
        let (me, _) = g.edges().find(|(_, e)| e.from() == m).unwrap();
        assert!(r.retimed_delay(&g, me) >= 1);
        assert!(r.is_legal(&g));
        // And the DAG schedule of G_r must hold.
        check_dag_schedule(&g, Some(&r), &s, &res).unwrap();
    }

    #[test]
    fn impossible_static_schedule_is_rejected() {
        // Both ops in step 1 with a 2-cycle mult feeding the add through
        // zero delays in a tight cycle with only one delay total:
        // no retiming can satisfy both directions.
        let g = DfgBuilder::new("tight")
            .node("x", OpKind::Add, 1)
            .node("y", OpKind::Add, 1)
            .wire("x", "y")
            .edge("y", "x", 1)
            .build()
            .unwrap();
        let x = g.node_by_name("x").unwrap();
        let y = g.node_by_name("y").unwrap();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut s = Schedule::empty(&g);
        // x and y both at step 1: x -> y needs d_r >= 1 and y -> x needs
        // d_r >= 1, but the cycle only has one delay.
        s.set(x, 1);
        s.set(y, 1);
        assert!(realizing_retiming(&g, &s).is_none());
        assert!(check_static_schedule(&g, &s, &res).is_err());
    }

    /// A start step near `u32::MAX` used to overflow `s(u) + t(u)` in the
    /// precedence checks (a debug-build panic on hostile input); it must
    /// instead saturate and report a violation.
    #[test]
    fn near_max_start_steps_fail_cleanly_instead_of_wrapping() {
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let mut s = Schedule::empty(&g);
        s.set(m, u32::MAX);
        s.set(a, 1);
        // Wrapped arithmetic would compute finish(m) = 1 and accept the
        // zero-delay edge m -> a; saturation must reject it.
        let err = check_dag_schedule(&g, None, &s, &res).unwrap_err();
        assert!(matches!(
            err,
            SchedError::PrecedenceViolated {
                finish: u32::MAX,
                ..
            }
        ));
        // The retiming dual hits the same sum on every edge; it must
        // terminate without panicking (no realizing retiming exists is
        // fine, finding one is fine — unwinding is not).
        let _ = realizing_retiming(&g, &s);
    }

    #[test]
    fn realizing_retiming_minimizes_depth() {
        // A 3-stage chain closed by 3 delays, scheduled "rotated": the
        // naive rotation function would have depth 3 but the schedule is
        // realizable at depth 2.
        let g = DfgBuilder::new("deep")
            .nodes("v", 3, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2"])
            .edge("v2", "v0", 3)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let mut s = Schedule::empty(&g);
        // v1 first, then v2, then v0: realized by r(v0)=1 (depth 2).
        s.set(ids[1], 1);
        s.set(ids[2], 2);
        s.set(ids[0], 3);
        let r = realizing_retiming(&g, &s).unwrap();
        assert!(r.is_legal(&g));
        assert!(r.is_normalized());
        assert_eq!(r.depth(), 2);
    }
}
