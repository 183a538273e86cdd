//! The rotation operators (Section 2, Definition 1, and the `DownRotate`
//! procedure of Subsection 3.1).
//!
//! A *down-rotation* of a node set `X` pushes one delay from each
//! incoming edge of `X` to each outgoing edge — the retiming that is the
//! 0–1 indicator of `X`. Rotation scheduling always rotates the set
//! `S_i` of nodes scheduled in the first `i` control steps, which is
//! down-rotatable by construction (Property 1), then *reschedules only
//! those nodes* at their earliest feasible steps in the implicitly
//! retimed graph.
//!
//! No retimed graph is ever materialized: the state of a rotation
//! sequence is a single [`Retiming`] (the *rotation function* `R`), and
//! the scheduler reads retimed delays through it.

use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{ListScheduler, ResourceSet, Schedule};

use crate::error::RotationError;

/// The evolving state of a rotation sequence: the accumulated rotation
/// function `R` and the current schedule, which is a legal DAG schedule
/// of `G_R` (and therefore a legal *static* schedule of `G`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotationState {
    /// The rotation function: composite of all rotations performed.
    pub retiming: Retiming,
    /// The current schedule of the retimed DAG, normalized to start at
    /// control step 1.
    pub schedule: Schedule,
}

impl RotationState {
    /// The schedule length in control steps (unwrapped).
    #[must_use]
    pub fn length(&self, dfg: &Dfg) -> u32 {
        self.schedule.length(dfg)
    }

    /// The wrapped schedule length — the paper's length metric in the
    /// presence of multi-cycle operations (Section 4).
    ///
    /// # Errors
    ///
    /// Propagates wrap-analysis failures (never happens for the state
    /// maintained by rotation, whose unwrapped interpretation is legal).
    pub fn wrapped_length(&self, dfg: &Dfg, resources: &ResourceSet) -> Result<u32, RotationError> {
        Ok(rotsched_sched::wrapped_length(
            dfg,
            Some(&self.retiming),
            &self.schedule,
            resources,
        )?)
    }
}

/// Checks Property 1: is `set` down-rotatable in `G_r`? Equivalently,
/// does every edge entering the set from outside carry at least one
/// (retimed) delay?
#[must_use]
pub fn is_down_rotatable(dfg: &Dfg, retiming: &Retiming, set: &[NodeId]) -> bool {
    find_rotatability_witness(dfg, retiming, set).is_none()
}

/// Returns a node of `set` reached by a delay-free edge from outside, if
/// any (the witness that the set is *not* down-rotatable).
#[must_use]
pub fn find_rotatability_witness(dfg: &Dfg, retiming: &Retiming, set: &[NodeId]) -> Option<NodeId> {
    let mut in_set = dfg.node_map(false);
    for &v in set {
        in_set[v] = true;
    }
    for (id, edge) in dfg.edges() {
        if !in_set[edge.from()] && in_set[edge.to()] && retiming.retimed_delay(dfg, id) == 0 {
            return Some(edge.to());
        }
    }
    None
}

/// Outcome of one down-rotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DownRotateOutcome {
    /// The nodes rotated down (the old schedule's first `size` steps).
    pub rotated: Vec<NodeId>,
    /// New (unwrapped) schedule length.
    pub length: u32,
}

/// Rejects a rotation `size` of 0 or of the whole `schedule` (the
/// identity on the DAG), as the paper's phases do: every rotation
/// operator and step mode reports [`RotationError::InvalidSize`] alike.
/// Returns the schedule's length.
pub(crate) fn check_size(dfg: &Dfg, schedule: &Schedule, size: u32) -> Result<u32, RotationError> {
    let length = schedule.length(dfg);
    if size == 0 || size >= length {
        return Err(RotationError::InvalidSize {
            size,
            schedule_length: length,
        });
    }
    Ok(length)
}

/// Performs one down-rotation of `size` control steps on `state`
/// (procedure `DownRotate(G, s, i)`):
///
/// 1. `X ← {v | s(v) in the first `size` steps}` — down-rotatable by
///    construction;
/// 2. deallocate `X` and shift the rest down to start at step 1;
/// 3. `R ← R ∘ X` (push a delay through every node of `X`);
/// 4. reschedule `X` incrementally on the DAG of `G_R`
///    (`PartialSchedule`), which pushes each rotated node up to its
///    earliest feasible step.
///
/// The resulting schedule is never longer than the previous one *plus*
/// the tail effects of multi-cycle operations (Section 4); for
/// single-cycle operations it is at most the previous length.
///
/// # Errors
///
/// * [`RotationError::InvalidSize`] — `size` is 0 or ≥ the schedule
///   length (a rotation of the whole schedule is the identity on the
///   DAG and is rejected as the paper's phases do).
/// * [`RotationError::Sched`] — incremental rescheduling failed.
pub fn down_rotate(
    dfg: &Dfg,
    scheduler: &ListScheduler,
    resources: &ResourceSet,
    state: &mut RotationState,
    size: u32,
) -> Result<DownRotateOutcome, RotationError> {
    check_size(dfg, &state.schedule, size)?;

    // X = nodes starting in the first `size` control steps.
    let rotated = state.schedule.prefix_nodes(size);
    debug_assert!(
        is_down_rotatable(dfg, &state.retiming, &rotated),
        "a schedule prefix is always down-rotatable (Property 1)"
    );

    // Deallocate and fold the rotation into R in place (no per-step
    // indicator retiming is allocated).
    for &v in &rotated {
        state.schedule.clear(v);
    }
    state.retiming.apply_set(&rotated, 1);

    // Shift the fixed remainder down to start at step 1, then reschedule
    // the rotated nodes at their earliest feasible steps in G_R.
    state.schedule.normalize();
    scheduler.reschedule(
        dfg,
        Some(&state.retiming),
        resources,
        &mut state.schedule,
        &rotated,
    )?;
    // The non-empty fixed remainder keeps occupying step 1 and
    // rescheduling never places below it, so the result is already
    // normalized.
    debug_assert_eq!(state.schedule.first_step(), Some(1));

    Ok(DownRotateOutcome {
        rotated,
        length: state.schedule.length(dfg),
    })
}

/// Performs one *up*-rotation of `size` control steps: the suffix set of
/// the schedule is rotated up (one delay pulled from each outgoing edge
/// to each incoming edge, `r(v) ← r(v) − 1`) and rescheduled at the
/// earliest steps of the schedule.
///
/// Up-rotation is the inverse view of down-rotation (Section 2 notes the
/// symmetric properties); it is provided for completeness and for
/// heuristics that want to shrink the pipeline depth during search.
///
/// # Errors
///
/// * [`RotationError::InvalidSize`] — `size` is 0 or ≥ the schedule
///   length.
/// * [`RotationError::NotRotatable`] — the suffix set is not
///   up-rotatable (an edge leaves it without a delay).
/// * [`RotationError::Sched`] — incremental rescheduling failed.
pub fn up_rotate(
    dfg: &Dfg,
    scheduler: &ListScheduler,
    resources: &ResourceSet,
    state: &mut RotationState,
    size: u32,
) -> Result<DownRotateOutcome, RotationError> {
    let length = check_size(dfg, &state.schedule, size)?;
    let first = state
        .schedule
        .first_step()
        .expect("nonempty schedule has a first step");
    let boundary = first + length - size; // steps >= boundary are the suffix
    let rotated: Vec<NodeId> = state
        .schedule
        .iter()
        .filter(|&(_, cs)| cs >= boundary)
        .map(|(v, _)| v)
        .collect();

    // Up-rotatability: every (retimed) edge from the set to the outside
    // must carry a delay. Probe by applying the delta in place and
    // rolling it back on failure — only edges *leaving* the set lose a
    // delay, so checking those (in edge-id order, matching
    // `Retiming::check_legal`'s reporting) covers every edge that could
    // have gone negative.
    state.retiming.apply_set(&rotated, -1);
    let mut witness: Option<(rotsched_dfg::EdgeId, NodeId)> = None;
    for &v in &rotated {
        for &e in dfg.out_edges(v) {
            let to = dfg.edge(e).to();
            let crosses_out = state.schedule.start(to).is_some_and(|cs| cs < boundary);
            if crosses_out
                && state.retiming.retimed_delay(dfg, e) < 0
                && witness.is_none_or(|(w, _)| e.index() < w.index())
            {
                witness = Some((e, to));
            }
        }
    }
    if let Some((_, node)) = witness {
        state.retiming.undo_set(&rotated, -1);
        return Err(RotationError::NotRotatable { node });
    }
    debug_assert!(
        state.retiming.check_legal(dfg).is_ok(),
        "only edges leaving the suffix can lose their last delay"
    );

    for &v in &rotated {
        state.schedule.clear(v);
    }

    // Make room at the front, then let the incremental scheduler place
    // the rotated nodes at the earliest steps compatible with their
    // (fixed) zero-delay successors.
    state.schedule.shift(i64::from(size));
    scheduler.reschedule(
        dfg,
        Some(&state.retiming),
        resources,
        &mut state.schedule,
        &rotated,
    )?;
    state.schedule.normalize();

    Ok(DownRotateOutcome {
        rotated,
        length: state.schedule.length(dfg),
    })
}

/// Builds the initial rotation state: a `FullSchedule` of the unretimed
/// DAG with the zero rotation function.
///
/// # Errors
///
/// Returns [`RotationError::Graph`] for invalid graphs and
/// [`RotationError::Sched`] for unschedulable ones.
pub fn initial_state(
    dfg: &Dfg,
    scheduler: &ListScheduler,
    resources: &ResourceSet,
) -> Result<RotationState, RotationError> {
    dfg.validate()?;
    let schedule = scheduler.schedule(dfg, None, resources)?;
    Ok(RotationState {
        retiming: Retiming::zero(dfg),
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::DfgBuilder;
    use rotsched_dfg::OpKind;
    use rotsched_sched::validate::check_dag_schedule;

    /// A 4-node ring with two delays on the back edge — rotation can
    /// overlap the two halves.
    fn ring() -> Dfg {
        DfgBuilder::new("ring")
            .nodes("v", 4, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3"])
            .edge("v3", "v0", 2)
            .build()
            .unwrap()
    }

    fn setup(adders: u32) -> (Dfg, ListScheduler, ResourceSet) {
        (
            ring(),
            ListScheduler::default(),
            ResourceSet::adders_multipliers(adders, 0, false),
        )
    }

    #[test]
    fn initial_state_is_a_legal_dag_schedule() {
        let (g, sched, res) = setup(2);
        let st = initial_state(&g, &sched, &res).unwrap();
        assert_eq!(st.length(&g), 4);
        check_dag_schedule(&g, None, &st.schedule, &res).unwrap();
    }

    #[test]
    fn down_rotation_shortens_the_ring() {
        let (g, sched, res) = setup(2);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        // Rotate v0 down: edge v3 -> v0 loses a delay; v0 can overlap
        // with v1's chain. With 2 adders the length drops.
        let out = down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        assert_eq!(out.rotated, vec![g.node_by_name("v0").unwrap()]);
        assert!(out.length <= 4);
        check_dag_schedule(&g, Some(&st.retiming), &st.schedule, &res).unwrap();
        // One more rotation reaches the 2-step steady state
        // (ratio = 4 ops / 2 delays = 2 with enough adders).
        let out = down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        let _ = out;
        let out = down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        assert!(out.length >= 2);
        check_dag_schedule(&g, Some(&st.retiming), &st.schedule, &res).unwrap();
    }

    #[test]
    fn rotation_state_remains_statically_realizable() {
        let (g, sched, res) = setup(2);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        for _ in 0..6 {
            let len = st.length(&g);
            if len <= 1 {
                break;
            }
            down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
            // The schedule must always be realizable as a static schedule
            // of the ORIGINAL graph.
            let r = rotsched_sched::validate::realizing_retiming(&g, &st.schedule)
                .expect("rotation preserves static legality");
            assert!(r.is_legal(&g));
        }
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        let (g, sched, res) = setup(2);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        assert!(matches!(
            down_rotate(&g, &sched, &res, &mut st, 0),
            Err(RotationError::InvalidSize { .. })
        ));
        let len = st.length(&g);
        assert!(matches!(
            down_rotate(&g, &sched, &res, &mut st, len),
            Err(RotationError::InvalidSize { .. })
        ));
    }

    #[test]
    fn rotatability_check_matches_property_1() {
        let g = ring();
        let ids: Vec<_> = g.node_ids().collect();
        let r0 = Retiming::zero(&g);
        // v0 is a root (its only incoming edge has 2 delays).
        assert!(is_down_rotatable(&g, &r0, &[ids[0]]));
        // v1 has a zero-delay edge from v0.
        assert!(!is_down_rotatable(&g, &r0, &[ids[1]]));
        assert_eq!(find_rotatability_witness(&g, &r0, &[ids[1]]), Some(ids[1]));
        // {v0, v1} together are rotatable.
        assert!(is_down_rotatable(&g, &r0, &[ids[0], ids[1]]));
    }

    #[test]
    fn up_rotation_inverts_down_rotation_retiming() {
        let (g, sched, res) = setup(2);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
        assert_eq!(st.retiming.max_value(), 1);
        // Rotate the last step up; if it contains exactly the previously
        // rotated node the retiming returns to zero.
        let len = st.length(&g);
        let _ = len;
        // Up-rotate whatever suffix is rotatable; sizes that are not
        // rotatable report NotRotatable rather than corrupting state.
        match up_rotate(&g, &sched, &res, &mut st, 1) {
            Ok(_) => {
                assert!(st.retiming.is_legal(&g));
                check_dag_schedule(&g, Some(&st.retiming), &st.schedule, &res).unwrap();
            }
            Err(RotationError::NotRotatable { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn down_rotate_result_is_already_normalized() {
        // Regression for the redundant second normalize that used to run
        // after rescheduling: the fixed remainder pins control step 1, so
        // rotation must hand back an already-normalized schedule with
        // unchanged starts and length.
        let (g, sched, res) = setup(1);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        for _ in 0..5 {
            if st.length(&g) <= 1 {
                break;
            }
            down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
            assert_eq!(st.schedule.first_step(), Some(1));
            let mut renormalized = st.schedule.clone();
            renormalized.normalize();
            assert_eq!(renormalized, st.schedule, "second normalize is a no-op");
        }
    }

    #[test]
    fn multicycle_rotation_may_lengthen_then_wrap_recovers() {
        // Two-cycle mult feeding an add in a tight loop; rotating the
        // mult's producer can dangle a tail (Section 4).
        let g = DfgBuilder::new("mc")
            .node("m", OpKind::Mul, 2)
            .node("a", OpKind::Add, 1)
            .node("b", OpKind::Add, 1)
            .wire("m", "a")
            .wire("a", "b")
            .edge("b", "m", 2)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        assert_eq!(st.length(&g), 4);
        for _ in 0..3 {
            if st.length(&g) <= 1 {
                break;
            }
            down_rotate(&g, &sched, &res, &mut st, 1).unwrap();
            let wrapped = st.wrapped_length(&g, &res).unwrap();
            assert!(wrapped <= st.length(&g));
        }
    }
}
