//! Batch-solving equivalence: `RotationScheduler::solve_batch` must be
//! byte-identical to per-item `solve` calls on a seeded problem corpus.
//!
//! The batch path shares one `IncrementalStep` (a warm prefix buffer,
//! with a new context for each item) and deduplicates repeated specs by
//! graph fingerprint — neither of which may steer a single decision.
//! The corpus injects exact duplicates so the deduplication path is
//! exercised, and cycles all four priority policies so consecutive
//! items differ in graph and policy.

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{HeuristicConfig, ProblemSpec, RotationScheduler, SolveOutcome};
use rotsched_dfg::rng::SplitMix64;
use rotsched_sched::{PriorityPolicy, ResourceSet};

/// Total corpus size; seeds repeat past `UNIQUE`, giving 50 duplicates.
const PROBLEMS: u64 = 200;
const UNIQUE: u64 = 150;

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

fn spec_for(seed: u64) -> ProblemSpec {
    let mut rng = SplitMix64::new(seed.wrapping_mul(7919).wrapping_add(13));
    let nodes = rng.range_u32(4, 13) as usize;
    let dfg = random_dfg(
        &RandomDfgConfig {
            nodes,
            forward_density: 0.2,
            feedback_density: 0.08,
            max_delays: 2,
            mult_fraction: 0.35,
            mult_steps: 2,
        },
        rng.next_u64() % 500,
    );
    let resources =
        ResourceSet::adders_multipliers(rng.range_u32(1, 2), rng.range_u32(1, 2), rng.chance(0.5));
    let policy = POLICIES[(seed % 4) as usize];
    // A trimmed sweep keeps the 200-problem corpus fast in debug builds
    // while still running multiple phases per item.
    let config = HeuristicConfig {
        rotations_per_phase: 6,
        max_size: Some(3),
        keep_best: 4,
        rounds: 1,
    };
    ProblemSpec::new(dfg, resources)
        .with_policy(policy)
        .with_config(config)
}

fn assert_identical(got: &SolveOutcome, want: &SolveOutcome, what: &str) {
    assert_eq!(got.length, want.length, "{what}: length");
    assert_eq!(got.depth, want.depth, "{what}: depth");
    assert_eq!(got.state, want.state, "{what}: state");
    assert_eq!(got.quality, want.quality, "{what}: quality");
    assert_eq!(got.stats, want.stats, "{what}: stats");
    assert_eq!(
        got.outcome.best_length, want.outcome.best_length,
        "{what}: best_length"
    );
    assert_eq!(got.outcome.best, want.outcome.best, "{what}: best set");
    assert_eq!(got.outcome.phases, want.outcome.phases, "{what}: phases");
    assert_eq!(
        got.outcome.total_rotations, want.outcome.total_rotations,
        "{what}: rotations"
    );
    assert_eq!(got.outcome.stopped, want.outcome.stopped, "{what}: stopped");
}

#[test]
fn batch_matches_per_item_solves_on_a_seeded_corpus() {
    let specs: Vec<ProblemSpec> = (0..PROBLEMS).map(|i| spec_for(i % UNIQUE)).collect();
    let batch = RotationScheduler::solve_batch(&specs).expect("corpus is solvable");
    assert_eq!(batch.len(), specs.len());
    for (i, (spec, got)) in specs.iter().zip(&batch).enumerate() {
        let want = RotationScheduler::new(&spec.dfg, spec.resources.clone())
            .with_policy(spec.policy)
            .with_config(spec.config)
            .solve()
            .expect("per-item solve succeeds");
        assert_identical(got, &want, &format!("item {i}"));
    }
}

#[test]
fn duplicate_items_reuse_the_representative_outcome() {
    let spec = spec_for(3);
    let batch =
        RotationScheduler::solve_batch(&[spec.clone(), spec.clone(), spec]).expect("solvable");
    assert_identical(&batch[1], &batch[0], "first duplicate");
    assert_identical(&batch[2], &batch[0], "second duplicate");
}

#[test]
fn near_duplicates_are_not_merged() {
    // Same graph, different resources: the confirm step must reject the
    // fingerprint match and solve both items independently.
    let a = spec_for(5);
    let mut b = a.clone();
    b.resources = ResourceSet::adders_multipliers(3, 3, true);
    let batch = RotationScheduler::solve_batch(&[a.clone(), b.clone()]).expect("solvable");
    let want_b = RotationScheduler::new(&b.dfg, b.resources.clone())
        .with_policy(b.policy)
        .with_config(b.config)
        .solve()
        .expect("solvable");
    assert_identical(&batch[1], &want_b, "distinct-resources item");
    // And differing policies likewise stay separate.
    let mut c = a.clone();
    c.policy = PriorityPolicy::InputOrder;
    let batch = RotationScheduler::solve_batch(&[a, c.clone()]).expect("solvable");
    let want_c = RotationScheduler::new(&c.dfg, c.resources.clone())
        .with_policy(c.policy)
        .with_config(c.config)
        .solve()
        .expect("solvable");
    assert_identical(&batch[1], &want_c, "distinct-policy item");
}

#[test]
fn empty_batch_is_empty() {
    assert!(RotationScheduler::solve_batch(&[])
        .expect("trivial")
        .is_empty());
}
