//! The anytime contract of the resilience layer, at property-suite
//! scale: stop a solve after *any* number of down-rotations — via a
//! rotation budget or a pre-fired cancel token — and the incumbent it
//! returns is a complete, legal static schedule whose length never
//! regresses as the budget grows.
//!
//! This is the load-bearing guarantee behind `--deadline-ms`: budget
//! checks fire *between* rotations, so there is no partially-applied
//! rotation to corrupt the incumbent, for every priority policy and
//! both heuristics.

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    Budget, CancelToken, HeuristicConfig, HeuristicOutcome, SearchDriver, StopReason,
};
use rotsched_dfg::Dfg;
use rotsched_sched::validate::check_static_schedule;
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

const SEEDS: [u64; 2] = [7, 31];

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

fn suite_graph(seed: u64) -> Dfg {
    random_dfg(
        &RandomDfgConfig {
            nodes: 16,
            ..RandomDfgConfig::default()
        },
        seed,
    )
}

/// Small phases keep the full-run rotation count low enough to sweep
/// every budget k = 0, 1, 2, … exhaustively.
fn config() -> HeuristicConfig {
    HeuristicConfig {
        rotations_per_phase: 8,
        max_size: Some(2),
        keep_best: 2,
        rounds: 1,
    }
}

/// Asserts every schedule in the incumbent set is a legal static
/// schedule of `g` (resource-respecting and realized by some retiming)
/// at the claimed length.
fn assert_incumbent_legal(g: &Dfg, res: &ResourceSet, out: &HeuristicOutcome, what: &str) {
    assert!(!out.best.is_empty(), "{what}: incumbent set is empty");
    for (i, state) in out.best.iter().enumerate() {
        check_static_schedule(g, &state.schedule, res)
            .unwrap_or_else(|e| panic!("{what}: incumbent {i} is illegal: {e}"));
        let wrapped = state
            .wrapped_length(g, res)
            .unwrap_or_else(|e| panic!("{what}: incumbent {i} unwrappable: {e}"));
        assert_eq!(
            wrapped, out.best_length,
            "{what}: incumbent {i} does not achieve the claimed best length"
        );
    }
}

/// Runs one (heuristic, policy) cell under rotation budget `k`.
fn run_budgeted(
    g: &Dfg,
    policy: PriorityPolicy,
    res: &ResourceSet,
    use_h2: bool,
    budget: &Budget,
) -> HeuristicOutcome {
    let sched = ListScheduler::new(policy);
    let meter = budget.arm();
    let mut driver = SearchDriver::incremental(g, &sched, res).with_budget(Some(&meter));
    if use_h2 {
        driver.heuristic2(&config()).expect("schedulable")
    } else {
        driver.heuristic1(&config()).expect("schedulable")
    }
}

/// The exhaustive anytime sweep: for every policy and both heuristics,
/// every rotation budget k = 0..=R yields a legal incumbent, respects
/// the budget, never regresses as k grows, and lands exactly on the
/// unlimited result at k = R.
#[test]
fn every_truncation_point_yields_a_legal_monotone_incumbent() {
    let res = ResourceSet::adders_multipliers(2, 1, false);
    for seed in SEEDS {
        let g = suite_graph(seed);
        for policy in POLICIES {
            for use_h2 in [false, true] {
                let name = if use_h2 { "h2" } else { "h1" };
                let full = run_budgeted(&g, policy, &res, use_h2, &Budget::unlimited());
                assert_eq!(full.stopped, None);
                let mut last_best = u32::MAX;
                for k in 0..=full.total_rotations {
                    let budget = Budget::default().with_max_rotations(k as u64);
                    let out = run_budgeted(&g, policy, &res, use_h2, &budget);
                    let what = format!("seed {seed}, {policy:?}, {name}, budget {k}");
                    assert_incumbent_legal(&g, &res, &out, &what);
                    assert!(out.total_rotations <= k, "{what}: budget overshot");
                    assert!(
                        out.best_length <= last_best,
                        "{what}: incumbent regressed ({} > {last_best})",
                        out.best_length
                    );
                    if k < full.total_rotations {
                        assert_eq!(
                            out.stopped,
                            Some(StopReason::RotationBudget),
                            "{what}: missing stop reason"
                        );
                    }
                    last_best = out.best_length;
                }
                assert_eq!(
                    last_best, full.best_length,
                    "seed {seed}, {policy:?}, {name}: full budget missed the unlimited best"
                );
            }
        }
    }
}

/// A token cancelled before the solve starts: zero rotations happen,
/// the stop reason says so, and the incumbent — the initial list
/// schedule — is still legal.
#[test]
fn pre_cancelled_solves_return_the_legal_initial_incumbent() {
    let res = ResourceSet::adders_multipliers(2, 1, false);
    for seed in SEEDS {
        let g = suite_graph(seed);
        for use_h2 in [false, true] {
            let token = CancelToken::new();
            token.cancel();
            let budget = Budget::default().with_cancel(token);
            let out = run_budgeted(&g, PriorityPolicy::DescendantCount, &res, use_h2, &budget);
            let what = format!("seed {seed}, h{}", if use_h2 { 2 } else { 1 });
            assert_eq!(out.total_rotations, 0, "{what}: rotated despite cancel");
            assert_eq!(out.stopped, Some(StopReason::Cancelled), "{what}");
            assert_incumbent_legal(&g, &res, &out, &what);
        }
    }
}

/// Cancellation raced against a running solve (the one legitimately
/// nondeterministic mode): whenever it lands, the incumbent is legal
/// and no worse than the initial schedule.
#[test]
fn mid_flight_cancellation_always_leaves_a_legal_incumbent() {
    let res = ResourceSet::adders_multipliers(2, 1, false);
    let g = suite_graph(SEEDS[0]);
    let initial = run_budgeted(
        &g,
        PriorityPolicy::DescendantCount,
        &res,
        true,
        &Budget::default().with_max_rotations(0),
    )
    .best_length;
    for delay_us in [0_u64, 20, 200] {
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                token.cancel();
            })
        };
        let budget = Budget::default().with_cancel(token);
        let out = run_budgeted(&g, PriorityPolicy::DescendantCount, &res, true, &budget);
        canceller.join().expect("canceller thread");
        let what = format!("cancel after ~{delay_us}us");
        assert_incumbent_legal(&g, &res, &out, &what);
        assert!(out.best_length <= initial, "{what}: worse than initial");
    }
}
