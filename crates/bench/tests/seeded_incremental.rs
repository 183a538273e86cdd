//! Seeded equivalence properties for the incremental rotation kernel:
//! on random cyclic DFGs, the production step mode
//! ([`IncrementalStep`](rotsched_core::IncrementalStep)), which runs
//! each rotation as one call on a persistent
//! [`SchedContext`](rotsched_sched::SchedContext), must be bit-identical
//! to the from-scratch reference ([`ScratchStep`](rotsched_core::ScratchStep),
//! the [`down_rotate`](rotsched_core::down_rotate) operator) at every
//! level — single rotation phases (under every priority policy), full
//! Heuristic-1 and Heuristic-2 sweeps, and the parallel portfolio at
//! every job count.
//!
//! Debug builds additionally cross-check every incrementally maintained
//! structure (reservation table, zero-delay view, priority weights)
//! against full recomputation inside the context itself, so a pass here
//! is a strong structural guarantee, not just an output comparison.

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    initial_state, BestSet, Budget, HeuristicConfig, HeuristicOutcome, RotationScheduler, Score,
    SearchDriver,
};
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

const SEEDS: [u64; 4] = [11, 23, 42, 97];

fn suite_graph(seed: u64) -> Dfg {
    random_dfg(
        &RandomDfgConfig {
            nodes: 40,
            ..RandomDfgConfig::default()
        },
        seed,
    )
}

fn config() -> HeuristicConfig {
    HeuristicConfig {
        rotations_per_phase: 24,
        max_size: Some(4),
        keep_best: 4,
        rounds: 2,
    }
}

fn assert_outcomes_identical(a: &HeuristicOutcome, b: &HeuristicOutcome, what: &str) {
    assert_eq!(a.best_length, b.best_length, "{what}: best length diverged");
    assert_eq!(a.best, b.best, "{what}: best schedule set diverged");
    assert_eq!(a.phases, b.phases, "{what}: phase statistics diverged");
    assert_eq!(
        a.total_rotations, b.total_rotations,
        "{what}: rotation count diverged"
    );
}

#[test]
fn phases_match_the_reference_under_every_policy() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    for seed in SEEDS {
        let g = suite_graph(seed);
        for policy in [
            PriorityPolicy::DescendantCount,
            PriorityPolicy::PathHeight,
            PriorityPolicy::Mobility,
            PriorityPolicy::InputOrder,
        ] {
            let sched = ListScheduler::new(policy);
            let init = initial_state(&g, &sched, &res).expect("schedulable");
            for size in 1..=3 {
                let mut incremental = init.clone();
                let mut reference = init.clone();
                let mut best_inc = BestSet::new(4);
                let mut best_ref = BestSet::new(4);
                let stats_inc = SearchDriver::incremental(&g, &sched, &res)
                    .run_phase(&mut incremental, &mut best_inc, size, 24)
                    .expect("phase runs");
                let stats_ref = SearchDriver::reference(&g, &sched, &res)
                    .run_phase(&mut reference, &mut best_ref, size, 24)
                    .expect("phase runs");
                let what = format!("seed {seed}, {policy:?}, size {size}");
                assert_eq!(stats_inc, stats_ref, "{what}: phase stats diverged");
                assert_eq!(incremental, reference, "{what}: final state diverged");
                assert_eq!(best_inc.score, best_ref.score, "{what}: best score");
                assert_eq!(
                    best_inc.schedules, best_ref.schedules,
                    "{what}: best set diverged"
                );
            }
        }
    }
}

#[test]
fn heuristic2_matches_the_reference_on_random_graphs() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    for seed in SEEDS {
        let g = suite_graph(seed);
        let sched = ListScheduler::default();
        let incremental = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config())
            .expect("schedulable");
        let reference = SearchDriver::reference(&g, &sched, &res)
            .heuristic2(&config())
            .expect("schedulable");
        assert_outcomes_identical(
            &incremental,
            &reference,
            &format!("seed {seed}, heuristic2"),
        );
    }
}

/// Heuristic 1's phases all restart from the initial state; driving the
/// same loop with the from-scratch phase must reproduce it exactly.
#[test]
fn heuristic1_matches_a_reference_driven_sweep() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let cfg = config();
    for seed in SEEDS {
        let g = suite_graph(seed);
        let sched = ListScheduler::default();
        let incremental = SearchDriver::incremental(&g, &sched, &res)
            .heuristic1(&cfg)
            .expect("schedulable");

        let init = initial_state(&g, &sched, &res).expect("schedulable");
        let mut best = BestSet::new(cfg.keep_best);
        let _ = best.offer(
            Score::from_length(init.wrapped_length(&g, &res).expect("wrappable")),
            &init,
        );
        let beta = cfg.max_size.unwrap_or_else(|| init.length(&g)).max(1);
        let mut phases = Vec::new();
        let mut reference = SearchDriver::reference(&g, &sched, &res);
        for size in 1..=beta {
            let mut state = init.clone();
            let stats = reference
                .run_phase(&mut state, &mut best, size, cfg.rotations_per_phase)
                .expect("phase runs");
            phases.push(stats);
        }

        let what = format!("seed {seed}, heuristic1");
        assert_eq!(
            incremental.best_length,
            best.length(),
            "{what}: best length"
        );
        assert_eq!(incremental.best, best.schedules, "{what}: best set");
        assert_eq!(incremental.phases, phases, "{what}: phase statistics");
    }
}

/// The resilience layer's bit-identity guarantee: an *unlimited* budget
/// threaded through every entry point (heuristics, facade solve, and
/// portfolio) changes nothing — schedules, stats, and phase traces all
/// match the budget-free API exactly.
#[test]
fn unlimited_budget_is_bit_identical_to_no_budget() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    for seed in SEEDS {
        let g = suite_graph(seed);
        let sched = ListScheduler::default();
        let what = format!("seed {seed}");

        let plain2 = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config())
            .expect("schedulable");
        let meter = Budget::unlimited().arm();
        let budgeted2 = SearchDriver::incremental(&g, &sched, &res)
            .with_budget(Some(&meter))
            .heuristic2(&config())
            .expect("schedulable");
        assert_outcomes_identical(&plain2, &budgeted2, &format!("{what}, heuristic2+budget"));
        assert_eq!(budgeted2.stopped, None, "{what}: unlimited budget fired");

        let plain1 = SearchDriver::incremental(&g, &sched, &res)
            .heuristic1(&config())
            .expect("schedulable");
        let meter = Budget::unlimited().arm();
        let budgeted1 = SearchDriver::incremental(&g, &sched, &res)
            .with_budget(Some(&meter))
            .heuristic1(&config())
            .expect("schedulable");
        assert_outcomes_identical(&plain1, &budgeted1, &format!("{what}, heuristic1+budget"));

        let rs = RotationScheduler::new(&g, res.clone()).with_config(config());
        let plain = rs.solve().expect("schedulable");
        let budgeted = rs
            .clone()
            .with_budget(Budget::unlimited())
            .solve()
            .expect("schedulable");
        assert_eq!(plain.length, budgeted.length, "{what}: solve length");
        assert_eq!(plain.state, budgeted.state, "{what}: solve state");
        assert_eq!(plain.depth, budgeted.depth, "{what}: solve depth");
        assert_eq!(plain.quality, budgeted.quality, "{what}: solve quality");
        assert_eq!(plain.stats, budgeted.stats, "{what}: solve stats");
    }
}

/// Anytime monotonicity at the suite scale: under growing rotation
/// budgets the incumbent never regresses, and the truncated search's
/// rotation trace is a prefix of the unlimited run's.
#[test]
fn rotation_budgets_truncate_heuristic2_monotonically() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    for seed in [11, 97] {
        let g = suite_graph(seed);
        let sched = ListScheduler::default();
        let full = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config())
            .expect("schedulable");
        let full_trace: Vec<u32> = full
            .phases
            .iter()
            .flat_map(|p| p.lengths.iter().copied())
            .collect();
        let mut last_best = u32::MAX;
        // Stride the budget axis to keep the suite fast; include the
        // exact endpoints.
        let budgets: Vec<usize> = (0..full.total_rotations)
            .step_by(7)
            .chain([full.total_rotations])
            .collect();
        for k in budgets {
            let meter = Budget::default().with_max_rotations(k as u64).arm();
            let out = SearchDriver::incremental(&g, &sched, &res)
                .with_budget(Some(&meter))
                .heuristic2(&config())
                .expect("schedulable");
            let what = format!("seed {seed}, budget {k}");
            let trace: Vec<u32> = out
                .phases
                .iter()
                .flat_map(|p| p.lengths.iter().copied())
                .collect();
            assert_eq!(
                trace,
                full_trace[..trace.len()],
                "{what}: truncated trace is not a prefix"
            );
            assert!(out.total_rotations <= k, "{what}: budget overshot");
            assert!(
                out.best_length <= last_best,
                "{what}: incumbent regressed ({} > {last_best})",
                out.best_length
            );
            last_best = out.best_length;
        }
        assert_eq!(last_best, full.best_length);
    }
}

#[test]
fn portfolio_is_identical_for_every_job_count() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    for seed in [11, 42] {
        let g = suite_graph(seed);
        let baseline = RotationScheduler::new(&g, res.clone())
            .with_config(config())
            .with_jobs(1)
            .portfolio()
            .expect("schedulable");
        for jobs in [2, 4] {
            let run = RotationScheduler::new(&g, res.clone())
                .with_config(config())
                .with_jobs(jobs)
                .portfolio()
                .expect("schedulable");
            let what = format!("seed {seed}, jobs {jobs}");
            assert_eq!(
                run.merged.best_length, baseline.merged.best_length,
                "{what}: best length"
            );
            assert_eq!(
                run.merged.best, baseline.merged.best,
                "{what}: canonical best set"
            );
            assert_eq!(
                run.merged.lower_bound, baseline.merged.lower_bound,
                "{what}: bound"
            );
            assert_eq!(
                run.canonical_task, baseline.canonical_task,
                "{what}: canonical task"
            );
            assert_eq!(
                run.merged.phases, baseline.merged.phases,
                "{what}: phase statistics"
            );
            assert_eq!(
                run.merged.total_rotations, baseline.merged.total_rotations,
                "{what}: rotation count"
            );
        }
    }
}
