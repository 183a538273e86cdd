//! Rotation phases (Section 5): a bounded sequence of same-size
//! down-rotations with best-schedule tracking.
//!
//! A *rotation phase of size `i`* performs `α` down-rotations of size
//! `i`, halving the size whenever it reaches the current schedule length
//! (a rotation of the full schedule is illegal). The phase maintains the
//! shortest length seen (`L_opt`) and the set `Q` of distinct schedules
//! achieving it.

use rotsched_dfg::rng::Fnv64;
use rotsched_sched::Schedule;

use crate::budget::StopReason;
use crate::objective::Score;
use crate::rotate::RotationState;

/// A cheap order-insensitive-enough fingerprint of a schedule: FNV-1a
/// over its `(node, control step)` pairs in node-index order (the order
/// [`Schedule::iter`] already yields). Two equal schedules always hash
/// equal; unequal schedules collide only with hash probability, and a
/// collision merely costs one deep comparison — never a wrong answer.
#[must_use]
fn schedule_fingerprint(schedule: &Schedule) -> u64 {
    let mut h = Fnv64::new();
    for (v, cs) in schedule.iter() {
        h.write_u32(u32::try_from(v.index()).unwrap_or(u32::MAX));
        h.write_u32(cs);
    }
    h.finish()
}

/// How an offered state relates to the current best set.
enum Admission {
    /// Worse than the best, a duplicate, or a tie with the set full.
    Reject,
    /// Ties the best and is new; carries the precomputed fingerprint.
    Tie(u64),
    /// Strictly improves the best; carries the precomputed fingerprint.
    Improve(u64),
}

/// The set of best schedules found so far (`Q` in the paper), with the
/// best packed [`Score`] (length-only scores carry `L_opt` exactly).
#[derive(Clone, Debug)]
pub struct BestSet {
    /// Best (smallest) packed score seen; its high 32 bits are the
    /// shortest wrapped schedule length under the default objective.
    pub score: Score,
    /// Distinct states achieving it, capped at a configurable size.
    pub schedules: Vec<RotationState>,
    /// Maximum number of schedules retained.
    pub capacity: usize,
    /// `fingerprints[i]` is the schedule fingerprint of `schedules[i]`;
    /// duplicate offers are rejected on a fingerprint mismatch scan and
    /// only fall back to a deep schedule comparison on a hash match.
    fingerprints: Vec<u64>,
}

impl BestSet {
    /// An empty set with the given retention capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BestSet {
            score: Score::NONE,
            schedules: Vec::new(),
            capacity: capacity.max(1),
            fingerprints: Vec::new(),
        }
    }

    /// The shortest wrapped schedule length seen — the length component
    /// of the best score ([`u32::MAX`] while the set is empty).
    #[must_use]
    pub fn length(&self) -> u32 {
        self.score.length()
    }

    /// Classifies an offer without cloning anything. Fingerprints are
    /// computed only when the offer can actually be admitted.
    fn admission(&self, score: Score, schedule: &Schedule) -> Admission {
        if score > self.score {
            return Admission::Reject;
        }
        if score < self.score {
            return Admission::Improve(schedule_fingerprint(schedule));
        }
        if self.schedules.len() >= self.capacity {
            return Admission::Reject;
        }
        let fp = schedule_fingerprint(schedule);
        let duplicate = self
            .fingerprints
            .iter()
            .zip(&self.schedules)
            .any(|(&f, s)| f == fp && s.schedule == *schedule);
        if duplicate {
            Admission::Reject
        } else {
            Admission::Tie(fp)
        }
    }

    /// Offers a state with the given packed score; keeps it when it
    /// ties or improves the best, dropping worse ones. Returns `true`
    /// when the offer strictly improved the best score.
    ///
    /// The exact tie-break, which the packed score preserves from the
    /// scalar-length days: a *strictly smaller* score clears the set
    /// and installs the state alone; an *equal* score appends the state
    /// in **insertion order** (first offered, first kept) provided it
    /// is not a duplicate and the set is below capacity; a larger score
    /// is rejected. Insertion order is load-bearing — the portfolio's
    /// union merge re-offers each worker's states in this order, so
    /// the merged set (and everything derived from it, down to response
    /// bytes) is identical at every `--jobs` value.
    ///
    /// The state is cloned only on admission — rejected offers (the
    /// common case inside a rotation phase) cost a fingerprint at most.
    #[must_use = "the return value reports whether the best score strictly improved"]
    pub fn offer(&mut self, score: Score, state: &RotationState) -> bool {
        match self.admission(score, &state.schedule) {
            Admission::Reject => false,
            Admission::Tie(fp) => {
                self.schedules.push(state.clone());
                self.fingerprints.push(fp);
                false
            }
            Admission::Improve(fp) => {
                self.score = score;
                self.schedules.clear();
                self.fingerprints.clear();
                self.schedules.push(state.clone());
                self.fingerprints.push(fp);
                true
            }
        }
    }

    /// Like [`BestSet::offer`] but takes ownership of the state, so
    /// admission moves instead of cloning. Rejected states are dropped.
    /// The admission rule and tie-break are identical to
    /// [`BestSet::offer`].
    #[must_use = "the return value reports whether the best score strictly improved"]
    pub fn offer_owned(&mut self, score: Score, state: RotationState) -> bool {
        match self.admission(score, &state.schedule) {
            Admission::Reject => false,
            Admission::Tie(fp) => {
                self.schedules.push(state);
                self.fingerprints.push(fp);
                false
            }
            Admission::Improve(fp) => {
                self.score = score;
                self.schedules.clear();
                self.fingerprints.clear();
                self.schedules.push(state);
                self.fingerprints.push(fp);
                true
            }
        }
    }

    /// The number of distinct best schedules retained.
    #[must_use]
    pub fn count(&self) -> usize {
        self.schedules.len()
    }

    /// True when no offer can change the set any more: the best score
    /// achieves the proven lower bound `bound` (nothing beats it, see
    /// [`Score::achieves_bound`]) and the set is full (a tie finds no
    /// room). From then on [`BestSet::offer`] rejects every state.
    #[must_use]
    pub(crate) fn is_frozen(&self, bound: u32) -> bool {
        self.count() >= self.capacity && self.score.achieves_bound(bound)
    }
}

/// Statistics from one rotation phase, for convergence studies
/// (Section 5 discusses convergence speed vs. rotation size).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// The size the phase was asked to run at.
    pub requested_size: u32,
    /// Down-rotations performed: logical rotations, so the replayed
    /// ones count (see [`PhaseStats::replayed`]).
    pub rotations: usize,
    /// How many of `rotations` were replayed from the phase's
    /// [`CycleLog`](crate::cycle::CycleLog) instead of executed, because
    /// the phase had returned to a state it already held. Always the
    /// last ones: once a phase repeats a state it replays to its end.
    ///
    /// A phase that Heuristic 2 replays whole from the log (see
    /// [`HeuristicOutcome::replayed_phases`](crate::HeuristicOutcome::replayed_phases))
    /// executes none of its rotations but reports the count executing
    /// it would have: its statistics, this field included, never depend
    /// on sweep replay.
    pub replayed: usize,
    /// Wrapped schedule length after each rotation.
    pub lengths: Vec<u32>,
    /// The first rotation index (1-based) at which the phase achieved its
    /// own minimum length, if any rotation was performed.
    pub first_optimum_at: Option<usize>,
    /// Why the phase stopped early, if a [`Budget`](crate::Budget) limit
    /// fired mid-phase; `None` for a phase that ran to natural
    /// completion. Sweeps key their own early exit off this recorded
    /// flag rather than re-reading the clock, so budgeted control flow
    /// stays reproducible for deterministic limits.
    pub stopped: Option<StopReason>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchDriver;
    use crate::rotate::initial_state;
    use rotsched_dfg::{Dfg, DfgBuilder, OpKind};
    use rotsched_sched::{ListScheduler, ResourceSet};

    fn ring(delays: u32) -> Dfg {
        DfgBuilder::new("ring")
            .nodes("v", 4, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3"])
            .edge("v3", "v0", delays)
            .build()
            .unwrap()
    }

    fn setup() -> (Dfg, ListScheduler, ResourceSet) {
        (
            ring(2),
            ListScheduler::default(),
            ResourceSet::adders_multipliers(2, 0, false),
        )
    }

    #[test]
    fn size_one_phase_improves_but_can_plateau() {
        // Section 5: "If the rotation size is too small, the corresponding
        // rotation phase may never converge to an optimal schedule
        // length." Size-1 rotations on this ring cycle at length 3.
        let (g, sched, res) = setup();
        let mut st = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(8);
        assert!(best.offer(
            Score::from_length(st.wrapped_length(&g, &res).unwrap()),
            &st
        ));
        assert_eq!(best.length(), 4);
        let stats = SearchDriver::incremental(&g, &sched, &res)
            .run_phase(&mut st, &mut best, 1, 8)
            .unwrap();
        assert_eq!(stats.rotations, 8);
        assert!(best.length() <= 3, "size-1 rotation improves 4 -> 3");
    }

    #[test]
    fn size_two_phase_reaches_the_iteration_bound() {
        // A single size-2 rotation moves {v0, v1} together, producing the
        // spread retiming r = [1,1,0,0] and the optimal 2-step kernel.
        let (g, sched, res) = setup();
        let mut st = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(8);
        assert!(best.offer(
            Score::from_length(st.wrapped_length(&g, &res).unwrap()),
            &st
        ));
        SearchDriver::incremental(&g, &sched, &res)
            .run_phase(&mut st, &mut best, 2, 8)
            .unwrap();
        assert_eq!(best.length(), 2, "iteration bound 4/2 = 2");
    }

    #[test]
    fn oversized_phase_halves_down() {
        let (g, sched, res) = setup();
        let mut st = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(8);
        // Size 100 >> length 4: must halve to below the length and still
        // perform rotations.
        let stats = SearchDriver::incremental(&g, &sched, &res)
            .run_phase(&mut st, &mut best, 100, 4)
            .unwrap();
        assert_eq!(stats.rotations, 4);
        assert!(best.length() <= 4);
    }

    #[test]
    fn best_set_dedupes_and_caps() {
        let (g, sched, res) = setup();
        let st = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(2);
        assert!(best.offer(Score::from_length(4), &st));
        assert!(
            !best.offer(Score::from_length(4), &st),
            "same schedule is not re-added"
        );
        assert_eq!(best.count(), 1);
        let mut st2 = st.clone();
        st2.schedule.shift(1); // a (trivially) different schedule object
        assert!(!best.offer(Score::from_length(4), &st2));
        assert_eq!(best.count(), 2);
        let mut st3 = st.clone();
        st3.schedule.shift(2);
        assert!(!best.offer(Score::from_length(4), &st3));
        assert_eq!(best.count(), 2, "capacity caps the set");
        // An improvement clears the set.
        assert!(best.offer(Score::from_length(3), &st));
        assert_eq!(best.count(), 1);
        assert_eq!(best.length(), 3);
    }

    #[test]
    fn owned_offers_match_borrowed_offers() {
        let (g, sched, res) = setup();
        let st = initial_state(&g, &sched, &res).unwrap();
        let mut by_ref = BestSet::new(4);
        let mut by_move = BestSet::new(4);
        for shift in 0..3_i64 {
            let mut s = st.clone();
            s.schedule.shift(shift);
            assert_eq!(
                by_ref.offer(Score::from_length(4), &s),
                by_move.offer_owned(Score::from_length(4), s.clone())
            );
        }
        assert_eq!(by_ref.score, by_move.score);
        assert_eq!(by_ref.schedules, by_move.schedules);
    }

    #[test]
    fn context_phase_matches_reference_phase() {
        let (g, sched, res) = setup();
        for size in 1..=3 {
            let mut st_ctx = initial_state(&g, &sched, &res).unwrap();
            let mut st_ref = st_ctx.clone();
            let mut best_ctx = BestSet::new(8);
            let mut best_ref = BestSet::new(8);
            let stats_ctx = SearchDriver::incremental(&g, &sched, &res)
                .run_phase(&mut st_ctx, &mut best_ctx, size, 8)
                .unwrap();
            let stats_ref = SearchDriver::reference(&g, &sched, &res)
                .run_phase(&mut st_ref, &mut best_ref, size, 8)
                .unwrap();
            assert_eq!(stats_ctx, stats_ref);
            assert_eq!(st_ctx, st_ref);
            assert_eq!(best_ctx.score, best_ref.score);
            assert_eq!(best_ctx.schedules, best_ref.schedules);
        }
    }

    #[test]
    fn rotation_budget_truncates_phase_to_a_prefix() {
        use crate::budget::{Budget, StopReason};
        let (g, sched, res) = setup();
        // Unlimited run as the reference trace.
        let mut st_full = initial_state(&g, &sched, &res).unwrap();
        let mut best_full = BestSet::new(8);
        let full = SearchDriver::incremental(&g, &sched, &res)
            .run_phase(&mut st_full, &mut best_full, 1, 8)
            .unwrap();
        // Budget of k rotations reproduces exactly the first k lengths.
        for k in 0..=full.rotations {
            let meter = Budget::default().with_max_rotations(k as u64).arm();
            let mut st = initial_state(&g, &sched, &res).unwrap();
            let mut best = BestSet::new(8);
            let stats = SearchDriver::incremental(&g, &sched, &res)
                .with_budget(Some(&meter))
                .run_phase(&mut st, &mut best, 1, 8)
                .unwrap();
            assert_eq!(stats.rotations, k);
            assert_eq!(stats.lengths, full.lengths[..k]);
            if k < full.rotations {
                assert_eq!(stats.stopped, Some(StopReason::RotationBudget));
            }
        }
    }

    #[test]
    fn cancelled_phase_keeps_its_incumbent() {
        use crate::budget::{Budget, CancelToken, StopReason};
        let (g, sched, res) = setup();
        let token = CancelToken::new();
        token.cancel();
        let meter = Budget::default().with_cancel(token).arm();
        let mut st = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(8);
        assert!(best.offer(
            Score::from_length(st.wrapped_length(&g, &res).unwrap()),
            &st
        ));
        let stats = SearchDriver::incremental(&g, &sched, &res)
            .with_budget(Some(&meter))
            .run_phase(&mut st, &mut best, 2, 8)
            .unwrap();
        assert_eq!(stats.rotations, 0);
        assert_eq!(stats.stopped, Some(StopReason::Cancelled));
        assert_eq!(best.length(), 4, "pre-cancel incumbent survives");
    }

    #[test]
    fn stats_track_lengths_per_rotation() {
        let (g, sched, res) = setup();
        let mut st = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(4);
        let stats = SearchDriver::incremental(&g, &sched, &res)
            .run_phase(&mut st, &mut best, 1, 5)
            .unwrap();
        assert_eq!(stats.lengths.len(), stats.rotations);
        assert!(stats.first_optimum_at.is_some());
        assert!(stats.lengths.iter().min().copied().unwrap() == best.length());
    }
}
