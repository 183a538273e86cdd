//! Heuristic 2's frozen-set stop is exact.
//!
//! `SearchDriver::heuristic2` ends its sweep once the best set `Q` is
//! full at the proven lower bound, because from then on every offer is
//! rejected. This suite checks that claim against a full-sweep oracle
//! assembled here from public pieces — `run_phase`,
//! `ListScheduler::schedule` and `SearchDriver::offer`, with no bound —
//! over seeded random graphs (plus self-loops) for every priority
//! policy, both a scalar and a lexicographic objective, two `Q`
//! capacities and two round counts. The early stop must return the
//! oracle's `Q` (states and order), score and stop reason; its phases
//! must be a prefix of the oracle's, and it never rotates more.

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    initial_state, BestSet, Budget, HeuristicConfig, HeuristicOutcome, Objective, RotationError,
    SearchDriver,
};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, DfgBuilder, OpKind};
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

const SEEDS: [u64; 6] = [3, 11, 19, 42, 77, 1993];

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

const OBJECTIVES: [Objective; 2] = [Objective::Length, Objective::LengthRegs];

/// A seeded random graph; odd seeds also get self-loops on a few nodes.
fn suite_graph(seed: u64) -> Dfg {
    let mut g = random_dfg(
        &RandomDfgConfig {
            nodes: 12,
            ..RandomDfgConfig::default()
        },
        seed,
    );
    if seed % 2 == 1 {
        let mut rng = SplitMix64::new(seed);
        let ids: Vec<_> = g.nodes().map(|(id, _)| id).collect();
        for &v in &ids {
            if rng.chance(0.25) {
                g.add_edge(v, v, rng.range_u32(1, 2))
                    .expect("a delayed self-loop is valid");
            }
        }
    }
    g
}

/// The paper's full Heuristic-2 sweep with no bound: every phase of
/// every round runs, followed by its chained `FullSchedule(G_R)`.
fn full_sweep(
    g: &Dfg,
    scheduler: ListScheduler,
    resources: &ResourceSet,
    config: &HeuristicConfig,
    objective: Objective,
) -> Result<HeuristicOutcome, RotationError> {
    let mut driver = SearchDriver::incremental(g, &scheduler, resources).with_objective(objective);
    let mut state = initial_state(g, &scheduler, resources)?;
    let mut best = BestSet::new(config.keep_best);
    let wrapped = state.wrapped_length(g, resources)?;
    driver.offer(&mut best, wrapped, &state);
    let beta = config.max_size.unwrap_or_else(|| state.length(g)).max(1);
    let mut phases = Vec::new();
    for _round in 0..config.rounds.max(1) {
        for size in (1..=beta).rev() {
            phases.push(driver.run_phase(
                &mut state,
                &mut best,
                size,
                config.rotations_per_phase,
            )?);
            state.schedule = scheduler.schedule(g, Some(&state.retiming), resources)?;
            let wrapped = state.wrapped_length(g, resources)?;
            driver.offer(&mut best, wrapped, &state);
        }
    }
    Ok(HeuristicOutcome::from_parts(best, phases))
}

/// Asserts the early-stopped `fast` outcome is exact against `full`.
fn assert_exact(fast: &HeuristicOutcome, full: &HeuristicOutcome, what: &str) {
    assert_eq!(fast.best, full.best, "{what}: best set (states, order)");
    assert_eq!(fast.best_score, full.best_score, "{what}: best score");
    assert_eq!(fast.best_length, full.best_length, "{what}: best length");
    assert_eq!(fast.stopped, full.stopped, "{what}: stop reason");
    assert!(
        fast.total_rotations <= full.total_rotations,
        "{what}: {} rotations vs the full sweep's {}",
        fast.total_rotations,
        full.total_rotations
    );
    assert!(
        fast.phases.len() <= full.phases.len(),
        "{what}: more phases than the full sweep"
    );
    for (i, (got, want)) in fast.phases.iter().zip(&full.phases).enumerate() {
        assert_eq!(
            got.requested_size, want.requested_size,
            "{what}: phase {i} size"
        );
        assert!(
            want.lengths.starts_with(&got.lengths),
            "{what}: phase {i} lengths are not a prefix of the full sweep's"
        );
        if i + 1 < fast.phases.len() {
            assert_eq!(got, want, "{what}: phase {i} before the last differs");
        }
    }
}

#[test]
fn frozen_stop_matches_the_full_sweep() {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let (mut cases, mut shortened) = (0, 0);
    for seed in SEEDS {
        let g = suite_graph(seed);
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            for objective in OBJECTIVES {
                for keep_best in [1, 16] {
                    for rounds in [1, 4] {
                        let config = HeuristicConfig {
                            rotations_per_phase: 8,
                            max_size: None,
                            keep_best,
                            rounds,
                        };
                        let what = format!(
                            "seed {seed}, {policy:?}, {}, keep {keep_best}, rounds {rounds}",
                            objective.mnemonic()
                        );
                        let full = full_sweep(&g, scheduler, &res, &config, objective)
                            .expect("schedulable");
                        let fast = SearchDriver::incremental(&g, &scheduler, &res)
                            .with_objective(objective)
                            .heuristic2(&config)
                            .expect("schedulable");
                        assert_exact(&fast, &full, &what);
                        cases += 1;
                        shortened += usize::from(fast.total_rotations < full.total_rotations);
                    }
                }
            }
        }
    }
    assert!(
        shortened * 4 >= cases,
        "only {shortened} of {cases} cases froze early: the suite lost its teeth"
    );
}

/// A zero-time op is rejected before any search: the early-stopping
/// sweep reports exactly the oracle's error.
#[test]
fn zero_time_ops_fail_identically() {
    let mut g = suite_graph(SEEDS[0]);
    let first = g.nodes().map(|(id, _)| id).next().expect("nodes");
    let z = g.add_node("z", OpKind::Add, 0);
    g.add_edge(first, z, 0).expect("valid edge");
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let scheduler = ListScheduler::default();
    let config = HeuristicConfig::default();
    let full = full_sweep(&g, scheduler, &res, &config, Objective::Length)
        .expect_err("zero-time ops are rejected");
    let fast = SearchDriver::incremental(&g, &scheduler, &res)
        .heuristic2(&config)
        .expect_err("zero-time ops are rejected");
    assert_eq!(fast.to_string(), full.to_string());
}

/// An initial schedule already at the bound, with room for one state:
/// `Q` is frozen before the first phase, so nothing rotates — while the
/// full sweep spends every rotation for the same answer.
#[test]
fn initial_schedule_at_the_bound_does_zero_rotations() {
    // Four unit adds on one adder: the resource bound 4 is the initial
    // list schedule's length.
    let g = DfgBuilder::new("ring")
        .nodes("v", 4, OpKind::Add, 1)
        .chain(&["v0", "v1", "v2", "v3"])
        .edge("v3", "v0", 1)
        .build()
        .expect("valid ring");
    let res = ResourceSet::adders_multipliers(1, 0, false);
    let scheduler = ListScheduler::default();
    let config = HeuristicConfig {
        keep_best: 1,
        ..HeuristicConfig::default()
    };
    let full = full_sweep(&g, scheduler, &res, &config, Objective::Length).expect("schedulable");
    let fast = SearchDriver::incremental(&g, &scheduler, &res)
        .heuristic2(&config)
        .expect("schedulable");
    assert_exact(&fast, &full, "ring at its bound");
    assert_eq!(fast.best_length, 4);
    assert_eq!(fast.lower_bound, Some(4));
    assert_eq!(fast.total_rotations, 0);
    assert!(fast.phases.is_empty());
    assert!(full.total_rotations > 0, "the full sweep still rotates");
}

/// A budget of exactly the rotations a search needs is not a stop, also
/// where the search ends without a rotation to run: the budget is polled
/// after the exits that run none. Two unit adds in a ring with two
/// delays, on two adders: the bound is 1, the first rotation of a phase
/// reaches it, and then nothing is left to rotate. With four rounds the
/// later phases of Heuristic 2 are replayed whole from the sweep log, and
/// the last of them ends where the phase it repeats found nothing to
/// rotate.
#[test]
fn a_budget_of_exactly_the_needed_rotations_is_not_a_stop() {
    let g = DfgBuilder::new("pair")
        .nodes("v", 2, OpKind::Add, 1)
        .wire("v0", "v1")
        .edge("v1", "v0", 2)
        .build()
        .expect("valid ring");
    let res = ResourceSet::adders_multipliers(2, 0, false);
    for policy in POLICIES {
        let scheduler = ListScheduler::new(policy);
        for rounds in [1, 4] {
            let config = HeuristicConfig {
                rounds,
                ..HeuristicConfig::default()
            };
            let what = format!("{policy:?}, rounds {rounds}");
            let run = |heuristic2: bool, budget: Option<usize>| {
                let meter = budget.map(|k| Budget::default().with_max_rotations(k as u64).arm());
                let mut driver =
                    SearchDriver::incremental(&g, &scheduler, &res).with_budget(meter.as_ref());
                if heuristic2 {
                    driver.heuristic2(&config)
                } else {
                    driver.heuristic1(&config)
                }
                .expect("schedulable")
            };
            for heuristic2 in [true, false] {
                let full = run(heuristic2, None);
                let t = full.total_rotations;
                assert_eq!(full.best_length, 1, "{what}");
                assert!(t > 0, "{what}");
                if heuristic2 && rounds > 1 {
                    assert!(full.replayed_phases > 0, "{what}: no phase replayed whole");
                }
                let at_t = run(heuristic2, Some(t));
                assert_eq!(at_t.stopped, None, "{what}, heuristic 2: {heuristic2}");
                assert_eq!(at_t.best, full.best, "{what}");
                assert_eq!(at_t.phases, full.phases, "{what}");
                let below = run(heuristic2, Some(t - 1));
                assert!(below.stopped.is_some(), "{what} at k = T - 1");
            }
        }
    }
}
