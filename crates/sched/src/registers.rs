//! Register-pressure analysis of a loop pipeline (MAXLIVE).
//!
//! The paper's conclusion points at the synthesis stages that follow
//! scheduling — "connection binding, allocation or data-path
//! generation" — and its follow-up work weighs rotation choices by
//! register and interconnect cost. This module computes the steady-state
//! register requirement of a [`LoopSchedule`]: for every kernel slot,
//! how many produced-but-not-yet-consumed values are live, counting the
//! overlapped copies from concurrent iterations.
//!
//! A value produced by `u` for iteration `j` becomes available at the
//! end of step `(j − r(u))·L + s(u) + t(u) − 1` and must be held until
//! its last consumer starts: `max over edges u→v with d delays of
//! (j + d − r(v))·L + s(v)`. Lifetimes longer than the kernel overlap
//! themselves, so one value may need several registers at once.

use rotsched_dfg::Dfg;

use crate::prologue::LoopSchedule;

/// Steady-state register requirements of a pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterReport {
    /// Live values per kernel slot (index 0 = control step 1).
    pub per_slot: Vec<u32>,
    /// The maximum over slots — registers needed.
    pub max_live: u32,
    /// Sum of all value lifetimes in steps (a proxy for total register
    /// traffic).
    pub total_lifetime: u64,
}

/// Computes the steady-state register pressure of `loop_schedule`.
///
/// Nodes without consumers contribute nothing (their results leave the
/// datapath). Values consumed in the same step they are produced still
/// occupy a register for that step boundary only if a later consumer
/// exists.
///
/// # Panics
///
/// Panics if the kernel schedule is incomplete.
#[must_use]
pub fn register_pressure(dfg: &Dfg, loop_schedule: &LoopSchedule) -> RegisterReport {
    let ii = i64::from(loop_schedule.kernel_length());
    let schedule = loop_schedule.schedule();
    let r = loop_schedule.retiming();

    let mut per_slot = vec![0_u32; ii as usize];
    let mut total_lifetime = 0_u64;

    for u in dfg.node_ids() {
        let su = i64::from(schedule.start(u).expect("complete kernel schedule"));
        let tu = i64::from(dfg.node(u).steps());
        // Available at the END of this absolute step (iteration 0 copy).
        let avail = -r.of(u) * ii + su + tu - 1;
        // Held through the start step of the last consumer.
        let mut death = avail;
        for &e in dfg.out_edges(u) {
            let edge = dfg.edge(e);
            let v = edge.to();
            let sv = i64::from(schedule.start(v).expect("complete kernel schedule"));
            let consume = (i64::from(edge.delays()) - r.of(v)) * ii + sv;
            death = death.max(consume);
        }
        if death <= avail {
            continue;
        }
        total_lifetime += u64::try_from(death - avail).expect("positive lifetime");
        // Live during absolute steps (avail, death]; fold modulo the
        // kernel.
        for x in (avail + 1)..=death {
            let slot = usize::try_from((x - 1).rem_euclid(ii)).expect("slot fits");
            per_slot[slot] += 1;
        }
    }

    let max_live = per_slot.iter().copied().max().unwrap_or(0);
    RegisterReport {
        per_slot,
        max_live,
        total_lifetime,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use rotsched_dfg::{DfgBuilder, OpKind, Retiming};

    /// Producer at step 1 (1 step), consumer at step 3, kernel of 3.
    #[test]
    fn simple_lifetime_counts_slots() {
        let g = DfgBuilder::new("g")
            .node("p", OpKind::Add, 1)
            .node("c", OpKind::Add, 1)
            .wire("p", "c")
            .build()
            .unwrap();
        let mut s = Schedule::empty(&g);
        s.set(g.node_by_name("p").unwrap(), 1);
        s.set(g.node_by_name("c").unwrap(), 3);
        let ls = LoopSchedule::new(3, s, Retiming::zero(&g));
        let report = register_pressure(&g, &ls);
        // Available end of step 1, consumed at start of step 3: live
        // through steps 2 and 3.
        assert_eq!(report.per_slot, vec![0, 1, 1]);
        assert_eq!(report.max_live, 1);
        assert_eq!(report.total_lifetime, 2);
    }

    #[test]
    fn loop_carried_value_spans_the_kernel_boundary() {
        // c produces at step 2; p of the NEXT iteration consumes it at
        // step 1 (delay 1): the value lives from end of step 2 through
        // step 1 of the next kernel -> slots 3..L and 1.
        let g = DfgBuilder::new("g")
            .node("p", OpKind::Add, 1)
            .node("c", OpKind::Add, 1)
            .wire("p", "c")
            .edge("c", "p", 1)
            .build()
            .unwrap();
        let mut s = Schedule::empty(&g);
        s.set(g.node_by_name("p").unwrap(), 1);
        s.set(g.node_by_name("c").unwrap(), 2);
        let ls = LoopSchedule::new(3, s, Retiming::zero(&g));
        let report = register_pressure(&g, &ls);
        // p's value: avail end 1, consumed by c at 2 -> slot 2.
        // c's value: avail end 2, consumed by p at step 1 of next kernel
        // (absolute 4) -> slots 3 and 1.
        assert_eq!(report.per_slot, vec![1, 1, 1]);
        assert_eq!(report.max_live, 1);
    }

    #[test]
    fn long_lifetimes_overlap_themselves() {
        // A 2-delay consumer with a 1-step kernel: each value lives ~2
        // kernels, so ~2 copies are live at once.
        let g = DfgBuilder::new("g")
            .node("p", OpKind::Add, 1)
            .node("c", OpKind::Add, 1)
            .edge("p", "c", 2)
            .edge("c", "p", 1)
            .build()
            .unwrap();
        let mut s = Schedule::empty(&g);
        s.set(g.node_by_name("p").unwrap(), 1);
        s.set(g.node_by_name("c").unwrap(), 1);
        let ls = LoopSchedule::new(1, s, Retiming::zero(&g));
        let report = register_pressure(&g, &ls);
        // p's value of iteration j: avail end of step j+... lifetime 2
        // kernels; c's value: 1 kernel. At any step: 2 copies of p's
        // value + 1 of c's = 3.
        assert_eq!(report.max_live, 3);
    }

    #[test]
    fn sink_values_need_no_register() {
        let g = DfgBuilder::new("g")
            .node("p", OpKind::Add, 1)
            .build()
            .unwrap();
        let mut s = Schedule::empty(&g);
        s.set(g.node_by_name("p").unwrap(), 1);
        let ls = LoopSchedule::new(1, s, Retiming::zero(&g));
        let report = register_pressure(&g, &ls);
        assert_eq!(report.max_live, 0);
        assert_eq!(report.total_lifetime, 0);
    }

    #[test]
    fn total_lifetime_on_a_single_cycle_is_retiming_invariant() {
        // On a cycle where every value has exactly one consumer, the
        // total lifetime telescopes to Σd·L − Σt + |C| regardless of the
        // retiming or the slot placement — registers are conserved, only
        // redistributed. (This is why the communication-sensitive
        // follow-up work optimizes the *distribution*, not the total.)
        let g = DfgBuilder::new("g")
            .node("p", OpKind::Add, 1)
            .node("c", OpKind::Add, 1)
            .wire("p", "c")
            .edge("c", "p", 2)
            .build()
            .unwrap();
        let p = g.node_by_name("p").unwrap();
        let c = g.node_by_name("c").unwrap();
        let expected = 2 * 2 - 2 + 2; // Σd·L − Σt + |C| = 4

        let mut s = Schedule::empty(&g);
        s.set(p, 1);
        s.set(c, 2);
        let flat = register_pressure(&g, &LoopSchedule::new(2, s, Retiming::zero(&g)));
        assert_eq!(flat.total_lifetime, expected);

        // Rotate p one iteration up (legal: c -> p has 2 delays) with a
        // different slot assignment: same total, possibly different
        // per-slot distribution.
        let mut s2 = Schedule::empty(&g);
        s2.set(p, 2);
        s2.set(c, 1);
        let r = Retiming::from_set(&g, [p]);
        let rotated = register_pressure(&g, &LoopSchedule::new(2, s2, r));
        assert_eq!(rotated.total_lifetime, expected);
    }
}
