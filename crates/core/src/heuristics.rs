//! The two rotation-scheduling heuristics of Section 5.
//!
//! * **Heuristic 1** runs independent rotation phases of sizes `1..=β`,
//!   each restarting from the initial list schedule of the original DFG.
//!   Its behavior is predictable and lets one study the effect of
//!   rotation size on convergence.
//! * **Heuristic 2** chains phases in *decreasing* size order, feeding
//!   each phase's final rotation function into a fresh `FullSchedule` of
//!   the retimed graph — "these rotation functions give us more faces of
//!   the input DFG". It found strictly better schedules than Heuristic 1
//!   in one of the paper's experiments (elliptic filter, 2A 1Mp) and is
//!   the heuristic behind the reported tables.
//!
//! Both run as sweeps of one [`SearchDriver`]
//! ([`SearchDriver::heuristic1`], [`SearchDriver::heuristic2`]); this
//! module holds their shared configuration and outcome types.
//!
//! [`SearchDriver`]: crate::engine::SearchDriver
//! [`SearchDriver::heuristic1`]: crate::engine::SearchDriver::heuristic1
//! [`SearchDriver::heuristic2`]: crate::engine::SearchDriver::heuristic2

use crate::budget::StopReason;
use crate::objective::Score;
use crate::phase::{BestSet, PhaseStats};
use crate::rotate::RotationState;

/// Tuning knobs shared by both heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// `α`: down-rotations per phase.
    pub rotations_per_phase: usize,
    /// `β`: the range of phase sizes (`1..=β` for Heuristic 1, `β..=1`
    /// descending for Heuristic 2). `None` uses the initial schedule
    /// length, the paper's default.
    pub max_size: Option<u32>,
    /// How many distinct best schedules to retain in `Q`.
    pub keep_best: usize,
    /// How many times Heuristic 2 repeats its full descending size
    /// sweep, each round continuing from the previous round's
    /// accumulated rotation function. The paper's description is one
    /// round; extra rounds explore more "faces of the input DFG" for
    /// hard instances (Heuristic 1 ignores this knob).
    pub rounds: usize,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            rotations_per_phase: 32,
            max_size: None,
            keep_best: 16,
            rounds: 4,
        }
    }
}

/// The result of a heuristic run.
#[derive(Clone, Debug)]
pub struct HeuristicOutcome {
    /// Best (wrapped) schedule length found.
    pub best_length: u32,
    /// Best packed score found; its length component is `best_length`,
    /// and under the default objective it is exactly
    /// `Score::from_length(best_length)`.
    pub best_score: Score,
    /// The distinct best schedules (`Q`), each with its rotation
    /// function.
    pub best: Vec<RotationState>,
    /// Per-phase statistics in execution order, for convergence studies.
    pub phases: Vec<PhaseStats>,
    /// Total rotations performed across all phases: logical rotations,
    /// so a rotation replayed instead of executed still counts, whether
    /// a phase replayed it from its cycle log (see
    /// [`PhaseStats::replayed`]) or Heuristic 2 replayed its whole phase
    /// (see [`HeuristicOutcome::replayed_phases`]). For
    /// Heuristic 2 this counts rotations until `Q` froze at the lower
    /// bound (see [`SearchDriver::heuristic2`]) — fewer than the full
    /// sweep's `rounds × β × α` whenever the set fills at the bound,
    /// with the identical `best`.
    ///
    /// [`SearchDriver::heuristic2`]: crate::engine::SearchDriver::heuristic2
    pub total_rotations: usize,
    /// Why the run stopped early, if a [`Budget`](crate::Budget) limit
    /// fired mid-run; `None` for a run that finished its full sweep or
    /// ended with `Q` frozen at the lower bound.
    pub stopped: Option<StopReason>,
    /// The combined recurrence + resource lower bound the run proved
    /// against, when it computed one: Heuristic 2 (its frozen-set stop
    /// needs it) and the portfolio always do, Heuristic 1 does not.
    pub lower_bound: Option<u32>,
    /// How many of `phases` Heuristic 2 replayed whole from its sweep
    /// log instead of executing (see [`SearchDriver::heuristic2`]): the
    /// last ones of a sweep, and a portfolio merge sums its tasks'.
    /// Their statistics are exactly the ones executing them yields, so
    /// this count is the only trace of the replay in the outcome.
    ///
    /// [`SearchDriver::heuristic2`]: crate::engine::SearchDriver::heuristic2
    pub replayed_phases: usize,
}

impl HeuristicOutcome {
    /// Assembles an outcome from a final best set and the per-phase
    /// statistics in execution order (the [`SearchDriver`]'s raw
    /// products), with no lower bound recorded.
    ///
    /// [`SearchDriver`]: crate::engine::SearchDriver
    #[must_use]
    pub fn from_parts(best: BestSet, phases: Vec<PhaseStats>) -> Self {
        HeuristicOutcome {
            best_length: best.length(),
            best_score: best.score,
            best: best.schedules,
            total_rotations: phases.iter().map(|p| p.rotations).sum(),
            stopped: phases.iter().find_map(|p| p.stopped),
            phases,
            lower_bound: None,
            replayed_phases: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchDriver;
    use crate::rotate::initial_state;
    use rotsched_dfg::analysis::iteration_bound;
    use rotsched_dfg::{Dfg, DfgBuilder, OpKind};
    use rotsched_sched::validate::realizing_retiming;
    use rotsched_sched::{ListScheduler, ResourceSet};

    fn ring(n: usize, delays: u32) -> Dfg {
        let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        DfgBuilder::new("ring")
            .nodes("v", n, OpKind::Add, 1)
            .chain(&refs)
            .edge(&format!("v{}", n - 1), "v0", delays)
            .build()
            .unwrap()
    }

    fn config() -> HeuristicConfig {
        HeuristicConfig {
            rotations_per_phase: 16,
            max_size: None,
            keep_best: 8,
            rounds: 1,
        }
    }

    #[test]
    fn heuristic1_reaches_the_combined_lower_bound_on_a_ring() {
        // 6 unit ops, 3 delays: IB = 2, but 2 adders bound the length at
        // ceil(6/2) = 3 — the binding constraint here.
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic1(&config())
            .unwrap();
        let ib = iteration_bound(&g).unwrap().unwrap();
        assert_eq!(ib, 2);
        assert_eq!(out.best_length, 3);
        assert!(!out.best.is_empty());
    }

    #[test]
    fn heuristic1_reaches_the_iteration_bound_with_ample_resources() {
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(3, 0, false);
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic1(&config())
            .unwrap();
        assert_eq!(out.best_length, 2, "IB = 6/3 = 2 with 3 adders");
    }

    #[test]
    fn heuristic2_reaches_the_combined_lower_bound_on_a_ring() {
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic2(&config())
            .unwrap();
        assert_eq!(out.best_length, 3);
    }

    #[test]
    fn resource_bound_limits_the_result() {
        // 6 adds, 1 adder: no schedule can beat 6 steps regardless of
        // delays.
        let g = ring(6, 6);
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic2(&config())
            .unwrap();
        assert_eq!(out.best_length, 6);
    }

    #[test]
    fn every_best_schedule_is_statically_legal() {
        let g = ring(5, 2);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic2(&config())
            .unwrap();
        for st in &out.best {
            let r = realizing_retiming(&g, &st.schedule)
                .expect("best schedules are static schedules of G");
            assert!(r.is_legal(&g));
        }
    }

    #[test]
    fn phases_and_rotation_counts_are_reported() {
        let g = ring(4, 2);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic1(&config())
            .unwrap();
        assert_eq!(out.phases.len(), 4, "one phase per size 1..=initial length");
        assert_eq!(
            out.total_rotations,
            out.phases.iter().map(|p| p.rotations).sum::<usize>()
        );
    }

    #[test]
    fn incremental_heuristic2_matches_the_reference_path() {
        for delays in 1..=3 {
            let g = ring(6, delays);
            let res = ResourceSet::adders_multipliers(2, 0, false);
            let fast = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
                .heuristic2(&config())
                .unwrap();
            let slow = SearchDriver::reference(&g, &ListScheduler::default(), &res)
                .heuristic2(&config())
                .unwrap();
            assert_eq!(fast.best_length, slow.best_length);
            assert_eq!(fast.best, slow.best);
            assert_eq!(fast.phases, slow.phases);
        }
    }

    #[test]
    fn budgeted_heuristic2_truncates_deterministically() {
        use crate::budget::{Budget, StopReason};
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let full = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .heuristic2(&config())
            .unwrap();
        let mut last_best = u32::MAX;
        for k in 0..=full.total_rotations {
            let meter = Budget::default().with_max_rotations(k as u64).arm();
            let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
                .with_budget(Some(&meter))
                .heuristic2(&config())
                .unwrap();
            assert!(out.total_rotations <= k);
            assert!(
                out.best_length <= last_best,
                "incumbent never regresses as the budget grows"
            );
            last_best = out.best_length;
            if k < full.total_rotations {
                assert_eq!(out.stopped, Some(StopReason::RotationBudget));
            }
        }
        assert_eq!(last_best, full.best_length);
    }

    #[test]
    fn budgeted_heuristic1_stops_and_keeps_incumbent() {
        use crate::budget::Budget;
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let meter = Budget::default().with_max_rotations(0).arm();
        let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
            .with_budget(Some(&meter))
            .heuristic1(&config())
            .unwrap();
        assert_eq!(out.total_rotations, 0);
        assert!(out.stopped.is_some());
        assert!(!out.best.is_empty(), "initial schedule is the incumbent");
    }

    #[test]
    fn heuristics_never_worsen_the_initial_schedule() {
        for delays in 1..=4 {
            let g = ring(5, delays);
            let res = ResourceSet::adders_multipliers(2, 0, false);
            let init_len = initial_state(&g, &ListScheduler::default(), &res)
                .unwrap()
                .length(&g);
            let out = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
                .heuristic2(&config())
                .unwrap();
            assert!(out.best_length <= init_len);
        }
    }
}
