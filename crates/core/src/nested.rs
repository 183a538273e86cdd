//! Nested loop pipelining (the extension sketched in Section 8).
//!
//! "We schedule loops from inside out. The innermost loop is scheduled
//! and pipelined first, and partitioned into the prologue, static
//! schedule, and epilogue. When rotations are applied on the outer
//! loop, the static-schedule part is treated as a compound node, which
//! occupies several functional units and takes several control steps."
//!
//! This module implements that scheme:
//!
//! * [`CompoundNode`] — the inner loop's full execution (prologue +
//!   `n` kernels + epilogue) collapsed into one operation with a
//!   per-step, per-class **occupancy profile**;
//! * [`NestedScheduler`] — list scheduling of an outer DFG in which one
//!   node is a compound node (profile-aware reservations), with full
//!   and partial modes;
//! * [`down_rotate_nested`] — rotation on the outer loop, treating the
//!   compound node like any other operation.

use rotsched_dfg::analysis::topo::is_zero_delay_under;
use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{
    LoopSchedule, PriorityPolicy, ReservationTable, ResourceSet, SchedError, Schedule,
};

use crate::error::RotationError;
use crate::rotate::check_size;

/// An inner loop collapsed into a single schedulable operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompoundNode {
    /// `profile[step][class]` = units of `class` busy during the
    /// compound's step `step` (0-based offsets from its start).
    profile: Vec<Vec<u32>>,
}

impl CompoundNode {
    /// Collapses the expanded execution of `inner` (pipelined by
    /// `loop_schedule`, run for `iterations` iterations) into a
    /// compound node: the total span in control steps and the exact
    /// per-step unit usage.
    ///
    /// # Panics
    ///
    /// Panics if an inner operation is not bound to any resource class.
    #[must_use]
    pub fn from_loop(
        inner: &Dfg,
        loop_schedule: &LoopSchedule,
        resources: &ResourceSet,
        iterations: u32,
    ) -> Self {
        let events = loop_schedule.events(inner, iterations);
        let first = events.iter().map(|e| e.start).min().unwrap_or(0);
        let last = events
            .iter()
            .map(|e| e.start + i64::from(inner.node(e.node).steps()) - 1)
            .max()
            .unwrap_or(0);
        let span = usize::try_from(last - first + 1).unwrap_or(1).max(1);
        let mut profile = vec![vec![0_u32; resources.classes().len()]; span];
        for e in &events {
            let class = resources
                .class_for(inner.node(e.node).op())
                .expect("inner operations are bound");
            for off in resources.class(class).occupancy(inner.node(e.node).time()) {
                let step =
                    usize::try_from(e.start + i64::from(off) - first).expect("event within span");
                profile[step][class.index()] += 1;
            }
        }
        CompoundNode { profile }
    }

    /// The compound's span in control steps.
    #[must_use]
    pub fn span(&self) -> u32 {
        u32::try_from(self.profile.len()).expect("span fits")
    }

    /// The occupancy profile (`[step][class]`).
    #[must_use]
    pub fn profile(&self) -> &[Vec<u32>] {
        &self.profile
    }

    /// The peak unit usage per class across the span.
    #[must_use]
    pub fn peak_usage(&self) -> Vec<u32> {
        let classes = self.profile.first().map_or(0, Vec::len);
        (0..classes)
            .map(|c| self.profile.iter().map(|row| row[c]).max().unwrap_or(0))
            .collect()
    }
}

/// Outer-loop scheduling with one compound node.
#[derive(Clone, Debug)]
pub struct NestedScheduler {
    policy: PriorityPolicy,
}

impl Default for NestedScheduler {
    fn default() -> Self {
        NestedScheduler {
            policy: PriorityPolicy::DescendantCount,
        }
    }
}

impl NestedScheduler {
    /// A nested scheduler with the given priority policy for the outer
    /// loop's regular operations.
    #[must_use]
    pub fn new(policy: PriorityPolicy) -> Self {
        NestedScheduler { policy }
    }

    /// Schedules the outer DFG. `compound_at` names the outer node that
    /// stands for the inner loop; its [`Dfg`] computation time must
    /// equal `compound.span()` so precedence arithmetic is consistent.
    ///
    /// # Errors
    ///
    /// Same failure modes as list scheduling, plus a panic-free check
    /// that the compound fits the resource set at all (its peak usage
    /// must not exceed any class count, else
    /// [`SchedError::ResourceOverflow`]).
    pub fn schedule(
        &self,
        outer: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
        compound_at: NodeId,
        compound: &CompoundNode,
    ) -> Result<Schedule, SchedError> {
        let mut schedule = Schedule::empty(outer);
        let free: Vec<NodeId> = outer.node_ids().collect();
        self.reschedule(
            outer,
            retiming,
            resources,
            compound_at,
            compound,
            &mut schedule,
            &free,
        )?;
        schedule.normalize();
        Ok(schedule)
    }

    /// Incremental (partial) variant: nodes outside `free` keep their
    /// steps and reservations.
    ///
    /// # Errors
    ///
    /// See [`NestedScheduler::schedule`].
    #[allow(clippy::too_many_arguments)]
    pub fn reschedule(
        &self,
        outer: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
        compound_at: NodeId,
        compound: &CompoundNode,
        schedule: &mut Schedule,
        free: &[NodeId],
    ) -> Result<(), SchedError> {
        // Sanity: the compound must fit the machine at all.
        for (class, &peak) in resources.classes().iter().zip(&compound.peak_usage()) {
            if peak > class.count() {
                return Err(SchedError::ResourceOverflow {
                    class: class.name().to_owned(),
                    cs: 1,
                    used: peak,
                    limit: class.count(),
                });
            }
        }
        debug_assert_eq!(
            outer.node(compound_at).steps(),
            compound.span().max(1),
            "the compound node's declared time must equal its span"
        );

        let weights = self
            .policy
            .weights(outer, retiming)
            .map_err(SchedError::from)?;
        let mut is_free = outer.node_map(false);
        for &v in free {
            is_free[v] = true;
            schedule.clear(v);
        }

        let mut class_of = outer.node_map(None);
        for (v, node) in outer.nodes() {
            if v != compound_at {
                class_of[v] = Some(
                    resources
                        .class_for(node.op())
                        .ok_or(SchedError::UnboundOp { node: v })?,
                );
            }
        }

        // Reservation helpers that understand the compound profile.
        // For the compound node the caller ALWAYS pre-checks with
        // `can_place_compound`, so placement here cannot fail part-way.
        let try_place = |table: &mut ReservationTable, v: NodeId, cs: u32| -> bool {
            if v == compound_at {
                for (off, row) in compound.profile.iter().enumerate() {
                    for (class_idx, &need) in row.iter().enumerate() {
                        let class = rotsched_sched::ResourceClassId::from_index(class_idx);
                        for _ in 0..need {
                            table.place(class, [cs + off as u32]);
                        }
                    }
                }
                true
            } else {
                let class_id = class_of[v].expect("bound");
                let class = resources.class(class_id);
                let steps: Vec<u32> = class
                    .occupancy(outer.node(v).time())
                    .map(|off| cs + off)
                    .collect();
                if table.can_place(class_id, steps.iter().copied()) {
                    table.place(class_id, steps);
                    true
                } else {
                    false
                }
            }
        };
        let can_place_compound = |table: &ReservationTable, cs: u32| -> bool {
            // Strict pre-check so try_place never leaves partial state.
            let mut extra: std::collections::HashMap<(usize, u32), u32> =
                std::collections::HashMap::new();
            for (off, row) in compound.profile.iter().enumerate() {
                for (class_idx, &need) in row.iter().enumerate() {
                    if need > 0 {
                        *extra.entry((class_idx, cs + off as u32)).or_insert(0) += need;
                    }
                }
            }
            extra.iter().all(|(&(class_idx, step), &need)| {
                let class = &resources.classes()[class_idx];
                table.used(rotsched_sched::ResourceClassId::from_index(class_idx), step) + need
                    <= class.count()
            })
        };

        // Reserve fixed nodes (including a fixed compound).
        let mut table = ReservationTable::new(resources);
        let fixed: Vec<(NodeId, u32)> = schedule.iter().collect();
        for (v, cs) in fixed {
            let ok = if v == compound_at {
                can_place_compound(&table, cs) && try_place(&mut table, v, cs)
            } else {
                try_place(&mut table, v, cs)
            };
            if !ok {
                return Err(SchedError::ResourceOverflow {
                    class: "outer".to_owned(),
                    cs,
                    used: 0,
                    limit: 0,
                });
            }
        }

        // Standard list loop over the zero-delay DAG of G_r.
        let mut blocking = outer.node_map(0_u32);
        for &v in free {
            for &e in outer.in_edges(v) {
                if is_zero_delay_under(outer, retiming, e) && is_free[outer.edge(e).from()] {
                    blocking[v] += 1;
                }
            }
        }
        rotsched_dfg::analysis::zero_delay_topological_order(outer, retiming)
            .map_err(SchedError::from)?;

        let mut ready: Vec<NodeId> = free.iter().copied().filter(|&v| blocking[v] == 0).collect();
        let mut remaining = free.len();
        let horizon = table.horizon()
            + u32::try_from(outer.total_time()).unwrap_or(u32::MAX)
            + compound.span()
            + 1;
        let mut cs = 1_u32;
        while remaining > 0 {
            if cs > horizon {
                return Err(SchedError::NoFeasibleSlot {
                    node: free
                        .iter()
                        .copied()
                        .find(|&v| schedule.start(v).is_none())
                        .expect("remaining > 0"),
                });
            }
            ready.sort_by_key(|&v| (core::cmp::Reverse(weights[v]), v));
            let mut placed_any = true;
            while placed_any {
                placed_any = false;
                let mut i = 0;
                while i < ready.len() {
                    let v = ready[i];
                    let mut earliest = 1;
                    for &e in outer.in_edges(v) {
                        if is_zero_delay_under(outer, retiming, e) {
                            let u = outer.edge(e).from();
                            if let Some(su) = schedule.start(u) {
                                earliest = earliest.max(su + outer.node(u).steps());
                            }
                        }
                    }
                    if earliest > cs {
                        i += 1;
                        continue;
                    }
                    let ok = if v == compound_at {
                        can_place_compound(&table, cs) && try_place(&mut table, v, cs)
                    } else {
                        try_place(&mut table, v, cs)
                    };
                    if ok {
                        schedule.set(v, cs);
                        remaining -= 1;
                        ready.swap_remove(i);
                        placed_any = true;
                        for &e in outer.out_edges(v) {
                            if is_zero_delay_under(outer, retiming, e) {
                                let w = outer.edge(e).to();
                                if is_free[w] && schedule.start(w).is_none() {
                                    blocking[w] -= 1;
                                    if blocking[w] == 0 {
                                        ready.push(w);
                                    }
                                }
                            }
                        }
                    } else {
                        i += 1;
                    }
                }
                if placed_any {
                    ready.sort_by_key(|&v| (core::cmp::Reverse(weights[v]), v));
                }
            }
            cs += 1;
        }
        Ok(())
    }
}

/// One down-rotation on the outer loop of a nested schedule: the
/// compound node rotates like any other operation when it falls in the
/// prefix.
///
/// # Errors
///
/// Same failure modes as [`crate::rotate::down_rotate`].
#[allow(clippy::too_many_arguments)]
pub fn down_rotate_nested(
    outer: &Dfg,
    scheduler: &NestedScheduler,
    resources: &ResourceSet,
    compound_at: NodeId,
    compound: &CompoundNode,
    retiming: &mut Retiming,
    schedule: &mut Schedule,
    size: u32,
) -> Result<Vec<NodeId>, RotationError> {
    check_size(outer, schedule, size)?;
    let rotated = schedule.prefix_nodes(size);
    for &v in &rotated {
        schedule.clear(v);
    }
    retiming.apply_set(&rotated, 1);
    schedule.normalize();
    scheduler.reschedule(
        outer,
        Some(retiming),
        resources,
        compound_at,
        compound,
        schedule,
        &rotated,
    )?;
    schedule.normalize();
    Ok(rotated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    /// A small inner loop: 2 mults + 1 add with a recurrence.
    fn inner_loop() -> Dfg {
        DfgBuilder::new("inner")
            .node("im1", OpKind::Mul, 2)
            .node("im2", OpKind::Mul, 2)
            .node("ia", OpKind::Add, 1)
            .wire("im1", "ia")
            .wire("im2", "ia")
            .edge("ia", "im1", 1)
            .edge("ia", "im2", 1)
            .build()
            .unwrap()
    }

    /// An outer loop: pre-processing adds, the inner loop as `LOOP`,
    /// post-processing, and an outer recurrence.
    fn outer_loop(compound_span: u32) -> (Dfg, NodeId) {
        let g = DfgBuilder::new("outer")
            .node("pre1", OpKind::Add, 1)
            .node("pre2", OpKind::Add, 1)
            .node("LOOP", OpKind::Other, compound_span)
            .node("post", OpKind::Add, 1)
            .wire("pre1", "pre2")
            .wire("pre2", "LOOP")
            .wire("LOOP", "post")
            .edge("post", "pre1", 1)
            .build()
            .unwrap();
        let id = g.node_by_name("LOOP").unwrap();
        (g, id)
    }

    fn solve_inner(res: &ResourceSet, iterations: u32) -> (Dfg, CompoundNode) {
        let inner = inner_loop();
        let solved = crate::RotationScheduler::new(&inner, res.clone())
            .solve()
            .expect("inner loop schedulable");
        let ls = crate::depth::into_loop_schedule(&inner, res, &solved.state).expect("expandable");
        let compound = CompoundNode::from_loop(&inner, &ls, res, iterations);
        (inner, compound)
    }

    #[test]
    fn compound_profile_reflects_inner_usage() {
        let res = ResourceSet::adders_multipliers(1, 2, false);
        let (_, compound) = solve_inner(&res, 4);
        assert!(compound.span() >= 4, "4 inner iterations take time");
        let peak = compound.peak_usage();
        // Class 0 = adders, class 1 = multipliers in the standard set.
        assert!(peak[1] >= 1 && peak[1] <= 2);
        assert!(peak[0] >= 1);
    }

    #[test]
    fn outer_schedule_places_the_compound() {
        let res = ResourceSet::adders_multipliers(1, 2, false);
        let (_, compound) = solve_inner(&res, 3);
        let (outer, loop_id) = outer_loop(compound.span());
        let s = NestedScheduler::default()
            .schedule(&outer, None, &res, loop_id, &compound)
            .unwrap();
        assert!(s.is_complete());
        // pre2 finishes before LOOP starts; post starts after it ends.
        let pre2 = s.start(outer.node_by_name("pre2").unwrap()).unwrap();
        let lp = s.start(loop_id).unwrap();
        let post = s.start(outer.node_by_name("post").unwrap()).unwrap();
        assert!(pre2 < lp);
        assert!(lp + compound.span() <= post);
    }

    #[test]
    fn compound_too_big_for_the_machine_is_rejected() {
        let big = ResourceSet::adders_multipliers(2, 2, false);
        let (_, compound) = solve_inner(&big, 3);
        let tiny = ResourceSet::adders_multipliers(2, 0, false);
        let (outer, loop_id) = outer_loop(compound.span());
        let err = NestedScheduler::default()
            .schedule(&outer, None, &tiny, loop_id, &compound)
            .unwrap_err();
        assert!(matches!(err, SchedError::ResourceOverflow { .. }));
    }

    #[test]
    fn outer_rotation_overlaps_around_the_compound() {
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let (_, compound) = solve_inner(&res, 2);
        let (outer, loop_id) = outer_loop(compound.span());
        let sched = NestedScheduler::default();
        let mut s = sched
            .schedule(&outer, None, &res, loop_id, &compound)
            .unwrap();
        let mut r = Retiming::zero(&outer);
        let before = s.length(&outer);
        // Rotate the prefix (pre1): it moves into the slack alongside
        // the compound, shortening or preserving the schedule.
        down_rotate_nested(&outer, &sched, &res, loop_id, &compound, &mut r, &mut s, 1).unwrap();
        assert!(r.is_legal(&outer));
        assert!(s.length(&outer) <= before);
        assert!(s.is_complete());
    }

    #[test]
    fn outer_ops_fill_compound_slack() {
        // The inner loop barely uses the adders; an independent outer
        // add (fed through a delay) should co-schedule WITH the
        // compound rather than after it.
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let (_, compound) = solve_inner(&res, 3);
        let outer = DfgBuilder::new("outer")
            .node("LOOP", OpKind::Other, compound.span())
            .node("free_add", OpKind::Add, 1)
            .edge("LOOP", "free_add", 1)
            .build()
            .unwrap();
        let loop_id = outer.node_by_name("LOOP").unwrap();
        let s = NestedScheduler::default()
            .schedule(&outer, None, &res, loop_id, &compound)
            .unwrap();
        let lp = s.start(loop_id).unwrap();
        let fa = s.start(outer.node_by_name("free_add").unwrap()).unwrap();
        assert!(
            fa < lp + compound.span(),
            "the independent add shares the compound's span (slack steps)"
        );
    }
}
