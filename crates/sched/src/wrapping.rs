//! Wrapped schedules for multi-cycle operations (Section 4, Figures 6–8).
//!
//! With multi-cycle operations, a rotation can leave the *tail* of an
//! operation dangling past the end of the static schedule, lengthening
//! it. Because a static schedule is really a **cylinder** of instructions
//! executed repeatedly, such a tail can be *wrapped* around to the first
//! control steps — conceptually pushing a delay into the middle of the
//! node (Figure 7-(b)) — provided:
//!
//! 1. spare units exist in the wrapped-to control steps (resource
//!    condition), and
//! 2. the outgoing edges of the wrapped node that carry **one** delay are
//!    satisfied as *new* zero-delay-like precedences: the consumer of the
//!    next iteration must start no earlier than the wrapped tail ends.
//!
//! The schedule length of a DFG with multi-cycle operations is defined as
//! the length of its wrapped schedule; rotation keeps operating on the
//! unwrapped schedule and wrapping is (re)computed on demand.

use rotsched_dfg::{Dfg, NodeId, Retiming};

use crate::error::SchedError;
use crate::reservation::ReservationTable;
use crate::resources::ResourceSet;
use crate::schedule::Schedule;

/// A schedule interpreted cyclically with a kernel of `kernel_length`
/// control steps; tails of multi-cycle operations may wrap past the
/// boundary into the next kernel instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrappedSchedule {
    /// The kernel length `L` — the initiation interval of the pipeline.
    pub kernel_length: u32,
    /// The underlying (normalized) start steps; all starts lie in
    /// `1..=kernel_length`, finishes may exceed it.
    pub schedule: Schedule,
    /// Nodes whose execution crosses the kernel boundary.
    pub wrapped_nodes: Vec<NodeId>,
}

impl WrappedSchedule {
    /// Whether any node actually wraps.
    #[must_use]
    pub fn has_wraps(&self) -> bool {
        !self.wrapped_nodes.is_empty()
    }
}

/// Attempts to interpret `schedule` as a wrapped schedule with kernel
/// length `target`.
///
/// The input schedule must be a legal DAG schedule of `G_r` (precedences
/// with `d_r = 0` satisfied linearly); this function additionally checks
/// the wrap conditions above.
///
/// # Errors
///
/// * [`SchedError::NoFeasibleSlot`] — some node *starts* after `target`
///   (only tails may wrap) or a tail would cross two boundaries.
/// * [`SchedError::ResourceOverflow`] — the folded (modulo `target`)
///   usage exceeds a class limit.
/// * [`SchedError::PrecedenceViolated`] — a one-delay successor of a
///   wrapped node starts before the wrapped tail ends.
/// * [`SchedError::Unscheduled`] — the schedule is incomplete.
///
/// # Panics
///
/// Panics if `target == 0`.
pub fn wrap_to_length(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    schedule: &Schedule,
    resources: &ResourceSet,
    target: u32,
) -> Result<WrappedSchedule, SchedError> {
    assert!(target >= 1, "kernel length must be positive");
    let mut normalized = schedule.clone();
    for v in dfg.node_ids() {
        if normalized.start(v).is_none() {
            return Err(SchedError::Unscheduled { node: v });
        }
    }
    normalized.normalize();

    let mut wrapped_nodes = Vec::new();
    for (v, cs) in normalized.iter() {
        if cs > target {
            return Err(SchedError::NoFeasibleSlot { node: v });
        }
        let finish = cs + dfg.node(v).steps() - 1; // inclusive last step
        if finish > 2 * target {
            // A tail crossing two kernel boundaries would need the
            // two-delay successors checked as well; rotation never
            // produces this, so reject it outright.
            return Err(SchedError::NoFeasibleSlot { node: v });
        }
        if finish > target {
            wrapped_nodes.push(v);
        }
    }

    // Resource condition: fold the linear reservations modulo `target`.
    let mut table = ReservationTable::new(resources);
    for (v, cs) in normalized.iter() {
        let class_id = resources
            .class_for(dfg.node(v).op())
            .ok_or(SchedError::UnboundOp { node: v })?;
        let class = resources.class(class_id);
        for off in class.occupancy(dfg.node(v).time()) {
            let folded = (cs + off - 1) % target + 1;
            if !table.can_place(class_id, [folded]) {
                return Err(SchedError::ResourceOverflow {
                    class: class.name().to_owned(),
                    cs: folded,
                    used: table.used(class_id, folded) + 1,
                    limit: class.count(),
                });
            }
            table.place(class_id, [folded]);
        }
    }

    // Precedence conditions.
    for (id, edge) in dfg.edges() {
        let dr = match retiming {
            Some(r) => r.retimed_delay(dfg, id),
            None => i64::from(edge.delays()),
        };
        let su = normalized.start(edge.from()).expect("complete");
        let sv = normalized.start(edge.to()).expect("complete");
        let finish = su + dfg.node(edge.from()).steps(); // exclusive
        match dr {
            0 if finish > sv => {
                return Err(SchedError::PrecedenceViolated {
                    from: edge.from(),
                    to: edge.to(),
                    finish,
                    start: sv,
                });
            }
            1 if finish - 1 > target
                // Wrapped producer: consumer of the next iteration must
                // wait for the tail: s(v) >= finish - target.
                && sv + target < finish =>
            {
                return Err(SchedError::PrecedenceViolated {
                    from: edge.from(),
                    to: edge.to(),
                    finish: finish - target,
                    start: sv,
                });
            }
            _ => {}
        }
    }

    Ok(WrappedSchedule {
        kernel_length: target,
        schedule: normalized,
        wrapped_nodes,
    })
}

/// The shortest kernel length at which `schedule` wraps legally, scanning
/// from the largest start step up to the unwrapped length.
///
/// The unwrapped length always succeeds, so this never fails on a legal
/// DAG schedule.
///
/// # Errors
///
/// Returns the error of the unwrapped interpretation if even that is
/// illegal (e.g. the schedule is incomplete or violates resources).
pub fn minimal_wrap(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    schedule: &Schedule,
    resources: &ResourceSet,
) -> Result<WrappedSchedule, SchedError> {
    let mut normalized = schedule.clone();
    normalized.normalize();
    let unwrapped_len = normalized.length(dfg);
    let min_start = normalized.iter().map(|(_, cs)| cs).max().unwrap_or(1);

    let mut last_err = None;
    for target in min_start..=unwrapped_len.max(min_start) {
        match wrap_to_length(dfg, retiming, &normalized, resources, target) {
            Ok(w) => return Ok(w),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(SchedError::NoFeasibleSlot {
        node: rotsched_dfg::NodeId::from_index(0),
    }))
}

/// The wrapped schedule length of a legal DAG schedule — the paper's
/// definition of schedule length in the presence of multi-cycle
/// operations.
///
/// # Errors
///
/// Propagates errors from [`minimal_wrap`].
pub fn wrapped_length(
    dfg: &Dfg,
    retiming: Option<&Retiming>,
    schedule: &Schedule,
    resources: &ResourceSet,
) -> Result<u32, SchedError> {
    Ok(minimal_wrap(dfg, retiming, schedule, resources)?.kernel_length)
}

/// Reusable buffers for the allocation-free wrapped-length probe the
/// rotation engine runs once per step.
///
/// [`wrapped_length`] clones and renormalizes the schedule, rebuilds a
/// [`ReservationTable`], and rebinds classes on every call — fine for
/// one-shot queries, but the dominant allocation source in the rotation
/// loop. `WrapScratch` hoists the class binding out and folds occupancy
/// into a flat reusable buffer, so steady-state probes allocate nothing
/// (the buffer grows to the largest target seen, then stays). Results
/// are identical to [`wrapped_length`] — `debug_assert`ed on every call
/// in debug builds.
#[derive(Clone, Debug)]
pub struct WrapScratch {
    /// Resource class of each node, by node index (bound once).
    class_of: Vec<crate::resources::ResourceClassId>,
    /// Normalized start steps, by node index (filled per call).
    starts: Vec<u32>,
    /// Folded occupancy, `classes × target` row-major (resized within
    /// capacity per probed target after warm-up).
    usage: Vec<u32>,
    /// `(exclusive finish of u, s(v))` of every one-delay edge `u → v`
    /// whose producer ends past the smallest probed target — the only
    /// one-delay edges that can reject a target — compacted to the
    /// front (filled per call). One entry per edge, so the pass that
    /// fills it never grows it.
    one_delay: Vec<(u32, u32)>,
}

impl WrapScratch {
    /// Binds every node to its resource class up front.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::UnboundOp`] if some operation has no class.
    pub fn new(dfg: &Dfg, resources: &ResourceSet) -> Result<Self, SchedError> {
        let mut class_of = Vec::with_capacity(dfg.node_count());
        for (v, node) in dfg.nodes() {
            class_of.push(
                resources
                    .class_for(node.op())
                    .ok_or(SchedError::UnboundOp { node: v })?,
            );
        }
        Ok(WrapScratch {
            class_of,
            starts: Vec::new(),
            usage: Vec::new(),
            one_delay: vec![(0, 0); dfg.edge_count()],
        })
    }

    /// [`wrapped_length`] without the per-call clones: the shortest
    /// kernel length at which `schedule` wraps legally.
    ///
    /// # Errors
    ///
    /// Exactly [`wrapped_length`]'s errors (the cold failure path defers
    /// to [`minimal_wrap`] so the reported error is identical too).
    ///
    /// # Panics
    ///
    /// Panics if the scratch was built for a different graph.
    pub fn wrapped_length(
        &mut self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        schedule: &Schedule,
        resources: &ResourceSet,
    ) -> Result<u32, SchedError> {
        assert_eq!(
            self.class_of.len(),
            dfg.node_count(),
            "scratch/graph mismatch"
        );
        let result = self.wrapped_length_inner(dfg, retiming, schedule, resources);
        #[cfg(debug_assertions)]
        {
            let reference = wrapped_length(dfg, retiming, schedule, resources);
            match (&result, &reference) {
                (Ok(a), Ok(b)) => debug_assert_eq!(a, b, "scratch wrap diverged"),
                (Err(_), Err(_)) => {}
                _ => panic!("scratch wrap verdict diverged: {result:?} vs {reference:?}"),
            }
        }
        result
    }

    // Index loops walk several parallel arrays (`starts`, `times`,
    // `class_of`) in lockstep; an iterator over any one of them would
    // obscure that. The edge pass combines comparisons with `&` so that
    // no edge takes a branch.
    #[allow(clippy::needless_range_loop, clippy::needless_bitwise_bool)]
    fn wrapped_length_inner(
        &mut self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        schedule: &Schedule,
        resources: &ResourceSet,
    ) -> Result<u32, SchedError> {
        let n = dfg.node_count();
        if n == 0 {
            return wrapped_length(dfg, retiming, schedule, resources);
        }
        let csr = dfg.csr();
        let times = csr.times();

        // Normalize virtually: work in `cs − base` space instead of
        // cloning and shifting the schedule.
        let mut first = u32::MAX;
        for v in dfg.node_ids() {
            match schedule.start(v) {
                Some(cs) => first = first.min(cs),
                None => return Err(SchedError::Unscheduled { node: v }),
            }
        }
        let base = first - 1;
        self.starts.clear();
        let mut min_start = 1;
        let mut unwrapped_len = 0;
        for v in dfg.node_ids() {
            let cs = schedule.start(v).expect("checked complete") - base;
            self.starts.push(cs);
            min_start = min_start.max(cs);
            unwrapped_len = unwrapped_len.max(cs + times[v.index()] - 1);
        }

        // Tail condition: only one kernel boundary may be crossed, and
        // the latest inclusive finish is `unwrapped_len`, so every
        // target below ⌈unwrapped_len / 2⌉ fails it; the scan starts
        // past them. (Starts never exceed a target either — the scan
        // begins at the maximum start step.)
        let first_target = min_start.max(unwrapped_len.div_ceil(2));

        // One pass over the edges, without a branch on any edge.
        // Zero-retimed-delay precedences are target-independent: if one
        // is violated, every target fails — the violation is folded
        // into one flag, and a set flag defers to the reference path
        // for the exact error. A one-delay edge rejects `target` only if
        // its producer's tail ends past it (`finish − 1 > target ≥
        // first_target`), so only those edges are kept for the scan:
        // every edge is written at the kept count, which advances past
        // the kept ones only. The buffer holds one entry per edge.
        let delays = csr.edge_delays();
        let (edge_from, edge_to) = (csr.edge_from(), csr.edge_to());
        let r = retiming.map(Retiming::as_slice);
        self.one_delay.resize(delays.len(), (0, 0));
        let (mut violated, mut kept) = (false, 0);
        for (i, &d) in delays.iter().enumerate() {
            let (u, v) = (edge_from[i] as usize, edge_to[i] as usize);
            let dr = i64::from(d) + r.map_or(0, |r| r[u] - r[v]);
            let (finish, sv) = (self.starts[u] + times[u], self.starts[v]);
            violated |= (dr == 0) & (finish > sv);
            self.one_delay[kept] = (finish, sv);
            kept += usize::from((dr == 1) & (finish - 1 > first_target));
        }
        if violated {
            return wrapped_length(dfg, retiming, schedule, resources);
        }
        let one_delay = &self.one_delay[..kept];

        let classes = resources.classes();
        'target: for target in first_target..=unwrapped_len {
            // Resource condition: fold occupancy modulo `target`. A
            // 0-based slot lies below `2 · target` (starts are at most
            // `target`, finishes at most `2 · target`), so one
            // subtraction folds it.
            self.usage.clear();
            self.usage.resize(classes.len() * target as usize, 0);
            for v in 0..n {
                let class_id = self.class_of[v];
                let class = resources.class(class_id);
                let row = class_id.index() * target as usize;
                for off in class.occupancy(times[v]) {
                    let mut folded = self.starts[v] + off - 1;
                    if folded >= target {
                        folded -= target;
                    }
                    let slot = row + folded as usize;
                    self.usage[slot] += 1;
                    if self.usage[slot] > class.count() {
                        continue 'target;
                    }
                }
            }
            // One-delay precedences across the wrap boundary: the
            // consumer of the next iteration waits for the tail.
            for &(finish, sv) in one_delay {
                if finish - 1 > target && sv + target < finish {
                    continue 'target;
                }
            }
            return Ok(target);
        }
        // No target succeeded (cannot happen for a legal DAG schedule);
        // surface the reference error.
        wrapped_length(dfg, retiming, schedule, resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    /// One 2-cycle multiplier whose tail dangles: mult starts at the last
    /// step of an otherwise 2-step schedule.
    fn dangling_tail() -> (Dfg, Schedule, ResourceSet) {
        let g = DfgBuilder::new("tail")
            .node("m", OpKind::Mul, 2)
            .node("a", OpKind::Add, 1)
            .node("b", OpKind::Add, 1)
            .edge("m", "a", 1)
            .build()
            .unwrap();
        let mut s = Schedule::empty(&g);
        // a (the 1-delay consumer of m) sits at step 2: when m's tail
        // wraps onto step 1 of the next kernel, a still starts after the
        // tail ends — exactly the Figure 8 situation.
        s.set(g.node_by_name("a").unwrap(), 2);
        s.set(g.node_by_name("b").unwrap(), 1);
        s.set(g.node_by_name("m").unwrap(), 2); // occupies steps 2-3
        let res = ResourceSet::adders_multipliers(1, 1, false);
        (g, s, res)
    }

    #[test]
    fn unwrapped_length_is_three() {
        let (g, s, _) = dangling_tail();
        assert_eq!(s.length(&g), 3);
    }

    #[test]
    fn tail_wraps_to_length_two() {
        let (g, s, res) = dangling_tail();
        let w = minimal_wrap(&g, None, &s, &res).unwrap();
        assert_eq!(w.kernel_length, 2);
        assert!(w.has_wraps());
        assert_eq!(w.wrapped_nodes, vec![g.node_by_name("m").unwrap()]);
    }

    #[test]
    fn one_delay_successor_blocks_early_wrap() {
        // m (steps 2-3) wraps its tail onto step 1 of the next kernel;
        // its 1-delay successor `a` sits at step 1, exactly when the tail
        // ends — `a` starting at step 1 needs the value at the *start* of
        // step 1, but the tail occupies step 1. Wrapping to L=2 must fail
        // on precedence and the minimal wrap must stay at 3 when `a` is
        // the multiplier's one-delay consumer scheduled too early.
        let g = DfgBuilder::new("blocked")
            .node("m", OpKind::Mul, 3)
            .node("a", OpKind::Add, 1)
            .edge("m", "a", 1)
            .build()
            .unwrap();
        let mut s = Schedule::empty(&g);
        s.set(g.node_by_name("a").unwrap(), 1);
        s.set(g.node_by_name("m").unwrap(), 2); // occupies 2-4
        let res = ResourceSet::adders_multipliers(1, 1, false);
        // L=2: the 3-step tail folds onto itself — resource overflow.
        let err = wrap_to_length(&g, None, &s, &res, 2).unwrap_err();
        assert!(matches!(err, SchedError::ResourceOverflow { .. }));
        // L=3: resources fold fine but the tail ends at step 5-3=2 > 1,
        // after the one-delay consumer `a` has already started.
        let err = wrap_to_length(&g, None, &s, &res, 3).unwrap_err();
        assert!(matches!(err, SchedError::PrecedenceViolated { .. }));
        // L=4 (the unwrapped length): fine.
        let w = minimal_wrap(&g, None, &s, &res).unwrap();
        assert_eq!(w.kernel_length, 4);
    }

    #[test]
    fn resource_conflict_blocks_wrap() {
        // Two 2-cycle mults on one non-pipelined multiplier, at steps 1
        // and 3: linear usage 1,2,3,4. Folding to L=3 puts step 4 onto
        // step 1, where the first mult is already running.
        let g = DfgBuilder::new("resclash")
            .nodes("m", 2, OpKind::Mul, 2)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let mut s = Schedule::empty(&g);
        s.set(ids[0], 1);
        s.set(ids[1], 3);
        let res = ResourceSet::adders_multipliers(0, 1, false);
        let err = wrap_to_length(&g, None, &s, &res, 3).unwrap_err();
        assert!(matches!(err, SchedError::ResourceOverflow { .. }));
        let w = minimal_wrap(&g, None, &s, &res).unwrap();
        assert_eq!(w.kernel_length, 4);
    }

    #[test]
    fn start_after_target_is_rejected() {
        let (g, s, res) = dangling_tail();
        let err = wrap_to_length(&g, None, &s, &res, 1).unwrap_err();
        assert!(matches!(err, SchedError::NoFeasibleSlot { .. }));
    }

    #[test]
    fn wrap_without_multicycle_is_identity() {
        let g = DfgBuilder::new("flat")
            .nodes("a", 2, OpKind::Add, 1)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let mut s = Schedule::empty(&g);
        s.set(ids[0], 1);
        s.set(ids[1], 2);
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let w = minimal_wrap(&g, None, &s, &res).unwrap();
        assert_eq!(w.kernel_length, 2);
        assert!(!w.has_wraps());
    }

    #[test]
    fn incomplete_schedule_is_rejected() {
        let (g, mut s, res) = dangling_tail();
        s.clear(g.node_by_name("m").unwrap());
        assert!(matches!(
            wrap_to_length(&g, None, &s, &res, 2),
            Err(SchedError::Unscheduled { .. })
        ));
    }

    #[test]
    fn scratch_probe_matches_reference() {
        let (g, s, res) = dangling_tail();
        let mut scratch = WrapScratch::new(&g, &res).unwrap();
        assert_eq!(
            scratch.wrapped_length(&g, None, &s, &res).unwrap(),
            wrapped_length(&g, None, &s, &res).unwrap()
        );
        // Repeated probes reuse the buffers and stay correct.
        for _ in 0..3 {
            assert_eq!(scratch.wrapped_length(&g, None, &s, &res).unwrap(), 2);
        }
    }

    #[test]
    fn scratch_probe_handles_unnormalized_schedules() {
        let (g, mut s, res) = dangling_tail();
        s.shift(4); // starts at step 5 — the probe normalizes virtually
        let mut scratch = WrapScratch::new(&g, &res).unwrap();
        assert_eq!(
            scratch.wrapped_length(&g, None, &s, &res).unwrap(),
            wrapped_length(&g, None, &s, &res).unwrap()
        );
    }

    #[test]
    fn scratch_probe_rejects_incomplete_schedules() {
        let (g, mut s, res) = dangling_tail();
        s.clear(g.node_by_name("m").unwrap());
        let mut scratch = WrapScratch::new(&g, &res).unwrap();
        assert!(matches!(
            scratch.wrapped_length(&g, None, &s, &res),
            Err(SchedError::Unscheduled { .. })
        ));
    }
}
