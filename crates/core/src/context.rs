//! The persistent rotation context — the paper's `O(|R||V|)` per-step
//! bound, realized.
//!
//! [`down_rotate`](crate::rotate::down_rotate) is semantically
//! incremental (only the rotated prefix is rescheduled) but pays
//! `O(V+E)` setup per step inside [`ListScheduler::reschedule`].
//! [`RotationContext`] carries that setup *across* the steps of a phase:
//! the reservation table, the zero-delay edge view, and the priority
//! weights are maintained by deltas (see
//! [`SchedContext`]), the retiming is
//! updated in place via [`Retiming::apply_set`], and schedule
//! normalization becomes an O(1) origin shift on the table.
//!
//! [`RotationContext::down_rotate`] makes exactly the same decisions as
//! the from-scratch operator — both funnel into the same placement core
//! — so results are bit-identical; debug builds cross-check every
//! maintained structure against full recomputation.
//!
//! [`Retiming::apply_set`]: rotsched_dfg::Retiming::apply_set

use rotsched_dfg::{Dfg, NodeId};
use rotsched_sched::{CacheStats, ListScheduler, ResourceSet, SchedContext};

use crate::error::RotationError;
use crate::rotate::{is_down_rotatable, DownRotateOutcome, RotationState};

/// Incremental scheduling state for a run of down-rotations on one
/// `(graph, scheduler, resources)` triple.
///
/// Build one from a phase's starting state (each portfolio worker builds
/// its own); it stays valid as long as every rotation of that state goes
/// through [`RotationContext::down_rotate`] or
/// [`RotationContext::down_rotate_in_place`], and
/// [`RotationContext::full_schedule`] makes it valid again for the state
/// it schedules, so a Heuristic-2 sweep keeps one context from phase to
/// phase. After an error the context is stale — rebuild before reuse.
#[derive(Debug)]
pub struct RotationContext {
    ctx: SchedContext,
    /// The reusable prefix buffer: the rotated set `S_i` of the most
    /// recent step. Filled by `prefix_nodes_into`, so steady-state
    /// steps never allocate it.
    rotated: Vec<NodeId>,
}

impl RotationContext {
    /// Builds the context for `state`'s schedule and rotation function.
    ///
    /// # Errors
    ///
    /// Propagates scheduling-substrate failures (unbindable ops, an
    /// oversubscribed schedule, a cyclic zero-delay subgraph).
    pub fn new(
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
    ) -> Result<Self, RotationError> {
        Self::with_buffer(dfg, scheduler, resources, state, Vec::new())
    }

    /// [`RotationContext::new`] seeded with a recycled prefix buffer
    /// (a retired context's [`RotationContext::into_buffer`]), so
    /// rebuilding a context at a phase boundary reuses the previous
    /// phase's warm capacity.
    ///
    /// # Errors
    ///
    /// Exactly [`RotationContext::new`]'s errors.
    pub fn with_buffer(
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
        mut buffer: Vec<NodeId>,
    ) -> Result<Self, RotationError> {
        buffer.clear();
        Ok(RotationContext {
            ctx: SchedContext::new(
                dfg,
                scheduler,
                resources,
                Some(&state.retiming),
                &state.schedule,
            )?,
            rotated: buffer,
        })
    }

    /// Retires the context, handing its prefix buffer back for reuse.
    #[must_use]
    pub fn into_buffer(self) -> Vec<NodeId> {
        self.rotated
    }

    /// [`down_rotate`](crate::rotate::down_rotate), incrementally: frees
    /// only the prefix nodes' reservations, folds the rotation into the
    /// retiming in place, repairs the zero-delay view and weights
    /// locally, renumbers by an O(1) origin shift, and reschedules the
    /// prefix through the shared placement core. Produces bit-identical
    /// states, lengths, and errors to the from-scratch operator.
    ///
    /// # Errors
    ///
    /// Exactly [`down_rotate`](crate::rotate::down_rotate)'s errors; the
    /// context must be rebuilt after one.
    pub fn down_rotate(
        &mut self,
        dfg: &Dfg,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<DownRotateOutcome, RotationError> {
        let length = self.down_rotate_in_place(dfg, resources, state, size)?;
        Ok(DownRotateOutcome {
            rotated: self.rotated.clone(),
            length,
        })
    }

    /// [`RotationContext::down_rotate`] without the owned outcome: the
    /// rotated set is kept in the context's reusable buffer (read it via
    /// [`RotationContext::rotated`]) and only the new unwrapped length is
    /// returned. This is the engine's hot path — a steady-state call
    /// performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Exactly [`RotationContext::down_rotate`]'s errors.
    pub fn down_rotate_in_place(
        &mut self,
        dfg: &Dfg,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<u32, RotationError> {
        let length = state.schedule.length(dfg);
        if size == 0 || size >= length {
            return Err(RotationError::InvalidSize {
                size,
                schedule_length: length,
            });
        }

        state.schedule.prefix_nodes_into(size, &mut self.rotated);
        let rotated = &self.rotated;
        debug_assert!(
            is_down_rotatable(dfg, &state.retiming, rotated),
            "a schedule prefix is always down-rotatable (Property 1)"
        );

        for &v in rotated {
            let cs = state.schedule.start(v).expect("prefix nodes are scheduled");
            self.ctx.release(dfg, resources, v, cs);
            state.schedule.clear(v);
        }
        self.ctx
            .apply_down_rotation(dfg, &mut state.retiming, rotated);

        // Normalize the fixed remainder; the table follows with an O(1)
        // origin shift. The remainder can be empty even for size <
        // length when multi-cycle tails pad the length past the last
        // start step — then there is nothing to renumber, exactly like
        // `Schedule::normalize` on an empty schedule.
        if let Some(first) = state.schedule.first_step() {
            if first != 1 {
                state.schedule.shift(1 - i64::from(first));
                self.ctx.shift(1 - i64::from(first));
            }
        }

        self.ctx.reschedule(
            dfg,
            Some(&state.retiming),
            resources,
            &mut state.schedule,
            &self.rotated,
        )?;
        debug_assert_eq!(state.schedule.first_step(), Some(1));

        Ok(state.schedule.length(dfg))
    }

    /// `FullSchedule(G_R)` through the context: replaces `state`'s
    /// schedule with a fresh full schedule under its rotation function
    /// — bit-identical to [`ListScheduler::schedule`] — and leaves the
    /// context as [`RotationContext::new`] would build it for the
    /// result, so the next phase can start on it without a rebuild (see
    /// [`SchedContext::full_schedule`]). `state` may have been rewritten
    /// since the context last saw it.
    ///
    /// # Errors
    ///
    /// Exactly [`ListScheduler::schedule`]'s errors; the context must be
    /// rebuilt after one.
    pub fn full_schedule(
        &mut self,
        dfg: &Dfg,
        resources: &ResourceSet,
        state: &mut RotationState,
    ) -> Result<(), RotationError> {
        self.ctx
            .full_schedule(dfg, Some(&state.retiming), resources, &mut state.schedule)?;
        Ok(())
    }

    /// The node set rotated by the most recent
    /// [`RotationContext::down_rotate_in_place`] (empty before the first
    /// step).
    #[must_use]
    pub fn rotated(&self) -> &[NodeId] {
        &self.rotated
    }

    /// Running weight-memo hit/miss counters of the underlying
    /// scheduling context, monotone over the context's lifetime. The
    /// [engine](crate::engine) reports per-phase deltas from these via
    /// [`CacheStats::since`].
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::{down_rotate, initial_state};
    use rotsched_dfg::{DfgBuilder, OpKind};

    #[test]
    fn context_rotations_match_the_from_scratch_operator() {
        let g = DfgBuilder::new("ring")
            .nodes("v", 5, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3", "v4"])
            .edge("v4", "v0", 2)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut incremental = initial_state(&g, &sched, &res).unwrap();
        let mut reference = incremental.clone();
        let mut ctx = RotationContext::new(&g, &sched, &res, &incremental).unwrap();
        for _ in 0..6 {
            if incremental.length(&g) <= 1 {
                break;
            }
            let a = ctx.down_rotate(&g, &res, &mut incremental, 1).unwrap();
            let b = down_rotate(&g, &sched, &res, &mut reference, 1).unwrap();
            assert_eq!(a, b);
            assert_eq!(incremental, reference);
        }
    }

    #[test]
    fn context_rejects_invalid_sizes_like_the_operator() {
        let g = DfgBuilder::new("pair")
            .nodes("v", 2, OpKind::Add, 1)
            .wire("v0", "v1")
            .edge("v1", "v0", 1)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let mut st = initial_state(&g, &sched, &res).unwrap();
        let mut ctx = RotationContext::new(&g, &sched, &res, &st).unwrap();
        assert!(matches!(
            ctx.down_rotate(&g, &res, &mut st, 0),
            Err(RotationError::InvalidSize { .. })
        ));
        let len = st.length(&g);
        assert!(matches!(
            ctx.down_rotate(&g, &res, &mut st, len),
            Err(RotationError::InvalidSize { .. })
        ));
    }
}
