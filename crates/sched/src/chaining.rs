//! Operator chaining: several dependent operations in one control step.
//!
//! Section 3 notes that the basic rotation algorithm "can handle chained
//! operations": when operation delays are measured in *time units* finer
//! than a control step (the paper's setup: 40 ns adders in 50 ns steps),
//! a fast operation can start within the same control step its
//! predecessor finishes in, as long as the combinational chain fits the
//! step. This module provides the chained scheduling substrate:
//!
//! * [`ChainedSchedule`] — start step **and** intra-step offset per node;
//! * [`ChainedScheduler`] — list scheduling with chaining, in full and
//!   partial (incremental) modes, mirroring [`ListScheduler`];
//! * validation of chained schedules.
//!
//! Units are still occupied per control step (an adder performs one
//! addition per cycle; a chain uses *different* units connected
//! combinationally). Operations longer than a step occupy
//! `ceil(t / step)` consecutive steps starting at offset 0 and cannot
//! be chained after.
//!
//! [`ListScheduler`]: crate::ListScheduler

use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::{Dfg, NodeId, NodeMap, Retiming};

use crate::error::SchedError;
use crate::priority::PriorityPolicy;
use crate::reservation::ReservationTable;
use crate::resources::ResourceSet;

/// Sub-step timing: how many time units one control step holds, and how
/// long each node takes in time units (taken from `Node::time`, which in
/// chained mode is interpreted as *time units*, not steps).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChainTiming {
    /// Usable time units per control step (the paper: 40 of the 50 ns
    /// are usable; 10 ns are latch overhead — so `40` with node times
    /// of 40/80 ns expressed as 40 and 80).
    pub units_per_step: u32,
}

impl ChainTiming {
    /// Creates a timing with the given usable units per control step.
    ///
    /// # Panics
    ///
    /// Panics if `units_per_step == 0`.
    #[must_use]
    pub fn new(units_per_step: u32) -> Self {
        assert!(units_per_step > 0, "a control step must hold time");
        ChainTiming { units_per_step }
    }

    /// Control steps an operation of `time` units occupies.
    #[must_use]
    pub fn steps_for(&self, time: u32) -> u32 {
        time.max(1).div_ceil(self.units_per_step)
    }

    /// Whether an operation of `time` units fits inside one step.
    #[must_use]
    pub fn fits_in_step(&self, time: u32) -> bool {
        time.max(1) <= self.units_per_step
    }
}

/// A chained schedule: per node, the 1-based start step and the offset
/// (in time units) within that step at which it begins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainedSchedule {
    start: NodeMap<Option<(u32, u32)>>,
}

impl ChainedSchedule {
    /// An empty chained schedule for `dfg`.
    #[must_use]
    pub fn empty(dfg: &Dfg) -> Self {
        ChainedSchedule {
            start: dfg.node_map(None),
        }
    }

    /// The `(step, offset)` of `v`, if scheduled.
    #[must_use]
    pub fn start(&self, v: NodeId) -> Option<(u32, u32)> {
        self.start[v]
    }

    /// Assigns `v`.
    pub fn set(&mut self, v: NodeId, step: u32, offset: u32) {
        assert!(step >= 1, "control steps are 1-based");
        self.start[v] = Some((step, offset));
    }

    /// The finish `(step, offset)` of `v` under `timing` — the position
    /// at which a chained successor could begin.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unscheduled.
    #[must_use]
    pub fn finish(&self, dfg: &Dfg, timing: &ChainTiming, v: NodeId) -> (u32, u32) {
        let (step, offset) = self.start[v].expect("node is scheduled");
        let t = dfg.node(v).steps();
        if timing.fits_in_step(t) && offset + t <= timing.units_per_step {
            (step, offset + t)
        } else {
            // Multi-step op: occupies full steps from offset 0.
            (step + timing.steps_for(t), 0)
        }
    }

    /// Schedule length in control steps.
    #[must_use]
    pub fn length(&self, dfg: &Dfg, timing: &ChainTiming) -> u32 {
        let mut first = u32::MAX;
        let mut last = 0_u32;
        for (v, slot) in self.start.iter() {
            if let Some((step, offset)) = *slot {
                first = first.min(step);
                let t = dfg.node(v).steps();
                let end_step = if timing.fits_in_step(t) && offset + t <= timing.units_per_step {
                    step
                } else {
                    step + timing.steps_for(t) - 1
                };
                last = last.max(end_step);
            }
        }
        if first == u32::MAX {
            0
        } else {
            last - first + 1
        }
    }

    /// Renumbers steps so the first occupied one becomes 1.
    fn normalize(&mut self) {
        let first = self
            .start
            .iter()
            .filter_map(|(_, s)| s.map(|(step, _)| step))
            .min();
        let Some(first) = first else { return };
        let delta = first - 1;
        for (step, _) in self.start.values_mut().flatten() {
            *step -= delta;
        }
    }
}

/// List scheduling with operator chaining.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainedScheduler {
    policy: PriorityPolicy,
}

impl ChainedScheduler {
    /// A chained scheduler with the given priority policy.
    #[must_use]
    pub fn new(policy: PriorityPolicy) -> Self {
        ChainedScheduler { policy }
    }

    /// Schedules the whole zero-delay DAG of `G_r` with chaining.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`crate::ListScheduler::schedule`].
    pub fn schedule(
        &self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
        timing: &ChainTiming,
    ) -> Result<ChainedSchedule, SchedError> {
        let weights = self
            .policy
            .weights(dfg, retiming)
            .map_err(SchedError::from)?;
        let mut schedule = ChainedSchedule::empty(dfg);

        let mut class_of = dfg.node_map(None);
        for (v, node) in dfg.nodes() {
            class_of[v] = Some(
                resources
                    .class_for(node.op())
                    .ok_or(SchedError::UnboundOp { node: v })?,
            );
        }

        // Blocking counts over the zero-delay DAG.
        let mut table = ReservationTable::new(resources);
        let mut blocking = dfg.node_map(0_u32);
        for v in dfg.node_ids() {
            for &e in dfg.in_edges(v) {
                if is_zero_delay_under(dfg, retiming, e) {
                    blocking[v] += 1;
                }
            }
        }
        rotsched_dfg::analysis::zero_delay_topological_order(dfg, retiming)
            .map_err(SchedError::from)?;

        let mut ready: Vec<NodeId> = dfg.node_ids().filter(|&v| blocking[v] == 0).collect();
        let mut remaining = dfg.node_count();
        let horizon = u32::try_from(dfg.node_count()).unwrap_or(u32::MAX)
            * timing.steps_for(dfg.max_node_time()).max(1)
            + 1;

        while remaining > 0 {
            ready.sort_by_key(|&v| (core::cmp::Reverse(weights[v]), v));
            // Place the best ready node at its earliest chained slot.
            let Some(&v) = ready.first() else {
                return Err(SchedError::NoFeasibleSlot {
                    node: dfg
                        .node_ids()
                        .find(|&v| schedule.start(v).is_none())
                        .expect("remaining > 0"),
                });
            };
            ready.remove(0);

            // Earliest (step, offset) from scheduled zero-delay preds.
            let mut est = (1_u32, 0_u32);
            for &e in dfg.in_edges(v) {
                if is_zero_delay_under(dfg, retiming, e) {
                    let u = dfg.edge(e).from();
                    if schedule.start(u).is_some() {
                        let fin = schedule.finish(dfg, timing, u);
                        if fin > est {
                            est = fin;
                        }
                    }
                }
            }

            let t = dfg.node(v).steps();
            let class_id = class_of[v].expect("bound");
            let steps_needed = timing.steps_for(t);
            let chainable = timing.fits_in_step(t);

            let (mut step, mut offset) = est;
            // A chained start needs the op to fit in the remainder of
            // the step; otherwise round up to the next step boundary.
            if !(chainable && offset + t <= timing.units_per_step) {
                if offset > 0 {
                    step += 1;
                }
                offset = 0;
            }
            let mut placed = false;
            while step <= horizon {
                let occ: Vec<u32> = (0..steps_needed).map(|off| step + off).collect();
                if table.can_place(class_id, occ.iter().copied()) {
                    table.place(class_id, occ);
                    schedule.set(v, step, offset);
                    placed = true;
                    break;
                }
                step += 1;
                offset = 0;
            }
            if !placed {
                return Err(SchedError::NoFeasibleSlot { node: v });
            }
            remaining -= 1;
            for &e in dfg.out_edges(v) {
                if is_zero_delay_under(dfg, retiming, e) {
                    let w = dfg.edge(e).to();
                    if schedule.start(w).is_none() {
                        blocking[w] -= 1;
                        if blocking[w] == 0 {
                            ready.push(w);
                        }
                    }
                }
            }
        }
        schedule.normalize();
        Ok(schedule)
    }
}

/// Validates a chained schedule: zero-delay precedence with sub-step
/// resolution, and per-step unit limits.
///
/// # Errors
///
/// Returns the first violation, in [`SchedError`] terms.
pub fn check_chained_schedule(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    schedule: &ChainedSchedule,
    resources: &ResourceSet,
    timing: &ChainTiming,
) -> Result<(), SchedError> {
    for v in dfg.node_ids() {
        if schedule.start(v).is_none() {
            return Err(SchedError::Unscheduled { node: v });
        }
    }
    for (id, edge) in dfg.edges() {
        if is_zero_delay_under(dfg, retiming, id) {
            let fin = schedule.finish(dfg, timing, edge.from());
            let start = schedule.start(edge.to()).expect("complete");
            if fin > start {
                return Err(SchedError::PrecedenceViolated {
                    from: edge.from(),
                    to: edge.to(),
                    finish: fin.0,
                    start: start.0,
                });
            }
        }
    }
    let mut table = ReservationTable::new(resources);
    for (v, node) in dfg.nodes() {
        let class_id = resources
            .class_for(node.op())
            .ok_or(SchedError::UnboundOp { node: v })?;
        let (step, _) = schedule.start(v).expect("complete");
        let occ: Vec<u32> = (0..timing.steps_for(node.time()))
            .map(|off| step + off)
            .collect();
        if !table.can_place(class_id, occ.iter().copied()) {
            let class = resources.class(class_id);
            return Err(SchedError::ResourceOverflow {
                class: class.name().to_owned(),
                cs: step,
                used: table.used(class_id, step) + 1,
                limit: class.count(),
            });
        }
        table.place(class_id, occ);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    /// The paper's physical timing: 50 ns steps with 10 ns latch -> 40
    /// usable units; adds take 40, mults 80.
    fn paper_chain() -> ChainTiming {
        ChainTiming::new(40)
    }

    #[test]
    fn steps_for_and_fits() {
        let t = paper_chain();
        assert_eq!(t.steps_for(40), 1);
        assert_eq!(t.steps_for(80), 2);
        assert!(t.fits_in_step(40));
        assert!(!t.fits_in_step(80));
        // A fast 15-unit shift: chains up to twice in a step... fits.
        assert!(t.fits_in_step(15));
    }

    #[test]
    fn fast_ops_chain_within_a_step() {
        // Two dependent 15-unit shifts fit in one 40-unit step.
        let g = DfgBuilder::new("chain")
            .node("a", OpKind::Shift, 15)
            .node("b", OpKind::Shift, 15)
            .wire("a", "b")
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let s = ChainedScheduler::default()
            .schedule(&g, None, &res, &paper_chain())
            .unwrap();
        assert_eq!(s.length(&g, &paper_chain()), 1);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        assert_eq!(s.start(a), Some((1, 0)));
        assert_eq!(s.start(b), Some((1, 15)));
        check_chained_schedule(&g, None, &s, &res, &paper_chain()).unwrap();
    }

    #[test]
    fn full_width_ops_do_not_chain() {
        // Two dependent 40-unit adds need two steps.
        let g = DfgBuilder::new("adds")
            .node("a", OpKind::Add, 40)
            .node("b", OpKind::Add, 40)
            .wire("a", "b")
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let s = ChainedScheduler::default()
            .schedule(&g, None, &res, &paper_chain())
            .unwrap();
        assert_eq!(s.length(&g, &paper_chain()), 2);
    }

    #[test]
    fn multicycle_mults_occupy_two_steps() {
        let g = DfgBuilder::new("mc")
            .node("m", OpKind::Mul, 80)
            .node("a", OpKind::Add, 40)
            .wire("m", "a")
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let timing = paper_chain();
        let s = ChainedScheduler::default()
            .schedule(&g, None, &res, &timing)
            .unwrap();
        // m occupies steps 1-2; a starts at step 3.
        assert_eq!(s.start(g.node_by_name("a").unwrap()), Some((3, 0)));
        assert_eq!(s.length(&g, &timing), 3);
        check_chained_schedule(&g, None, &s, &res, &timing).unwrap();
    }

    #[test]
    fn chain_longer_than_a_step_spills_to_the_next() {
        // Three dependent 15-unit ops: 15+15 fit in step 1 (ends at 30);
        // the third needs 15 more but only 10 remain -> starts step 2.
        let g = DfgBuilder::new("spill")
            .nodes("s", 3, OpKind::Shift, 15)
            .chain(&["s0", "s1", "s2"])
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(3, 0, false);
        let timing = paper_chain();
        let s = ChainedScheduler::default()
            .schedule(&g, None, &res, &timing)
            .unwrap();
        assert_eq!(s.start(g.node_by_name("s2").unwrap()), Some((2, 0)));
        assert_eq!(s.length(&g, &timing), 2);
    }

    #[test]
    fn resources_still_limit_per_step() {
        // Two independent 40-unit adds on ONE adder: serialize.
        let g = DfgBuilder::new("serial")
            .nodes("a", 2, OpKind::Add, 40)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let s = ChainedScheduler::default()
            .schedule(&g, None, &res, &paper_chain())
            .unwrap();
        assert_eq!(s.length(&g, &paper_chain()), 2);
    }

    #[test]
    fn chained_schedule_under_retiming() {
        let g = DfgBuilder::new("r")
            .node("a", OpKind::Shift, 15)
            .node("b", OpKind::Shift, 15)
            .wire("a", "b")
            .edge("b", "a", 1)
            .build()
            .unwrap();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::from_set(&g, [a]);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let s = ChainedScheduler::default()
            .schedule(&g, Some(&r), &res, &paper_chain())
            .unwrap();
        // In G_r the zero-delay edge is b -> a: b chains before a.
        let (sb, ob) = s.start(g.node_by_name("b").unwrap()).unwrap();
        let (sa, oa) = s.start(a).unwrap();
        assert!((sb, ob) < (sa, oa));
        check_chained_schedule(&g, Some(&r), &s, &res, &paper_chain()).unwrap();
    }
}
