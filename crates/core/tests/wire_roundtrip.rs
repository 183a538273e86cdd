//! The wire-format round-trip guarantee, enforced over a seeded corpus:
//! `parse_problem(&render_problem(&spec)) == spec` for every spec the
//! generators can produce — random graphs, varied resource allocations
//! (including multi-class sets with pipelined units), all four priority
//! policies, swept heuristic configurations, and budgets down to
//! sub-millisecond deadlines. The canonical cache key must likewise be
//! stable under a render→parse→render cycle and blind to budgets, and
//! every key must be a fixed point of the wire format — the serve tier
//! looks raw payloads up as keys before parsing them.

use core::time::Duration;
use std::collections::BTreeSet;

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    cache_fingerprint, cache_key_text, fingerprint_text, parse_problem, render_problem, Budget,
    HeuristicConfig, Objective, ProblemSpec,
};
use rotsched_dfg::rng::SplitMix64;
use rotsched_sched::{PriorityPolicy, ResourceSet};
use rotsched_serve::{seeded_corpus, ServeConfig};

const CORPUS: u64 = 120;

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

/// A seed-determined spec wandering the whole wire surface.
fn spec_for(seed: u64) -> ProblemSpec {
    let mut rng = SplitMix64::new(seed.wrapping_mul(6364).wrapping_add(11));
    let nodes = rng.range_u32(3, 16) as usize;
    let dfg = random_dfg(
        &RandomDfgConfig {
            nodes,
            forward_density: 0.25,
            feedback_density: 0.1,
            max_delays: 3,
            mult_fraction: 0.4,
            mult_steps: 2,
        },
        rng.next_u64() % 1000,
    );
    let resources =
        ResourceSet::adders_multipliers(rng.range_u32(1, 3), rng.range_u32(1, 2), rng.chance(0.5));
    let config = HeuristicConfig {
        rotations_per_phase: 1 + rng.index(64),
        max_size: rng.chance(0.5).then(|| rng.range_u32(1, 8)),
        keep_best: 1 + rng.index(16),
        rounds: 1 + rng.index(4),
    };
    let mut budget = Budget::unlimited();
    if rng.chance(0.4) {
        // Mix whole-millisecond deadlines (rendered as `deadline-ms`)
        // with nanosecond-precision ones (rendered as `deadline-ns`).
        budget = if rng.chance(0.5) {
            budget.with_deadline(Duration::from_millis(1 + rng.next_u64() % 10_000))
        } else {
            budget.with_deadline(Duration::from_nanos(1 + rng.next_u64() % 5_000_000_000))
        };
    }
    if rng.chance(0.4) {
        budget = budget.with_max_rotations(rng.next_u64() % 1_000_000);
    }
    ProblemSpec::new(dfg, resources)
        .with_policy(POLICIES[rng.index(POLICIES.len())])
        .with_config(config)
        .with_budget(budget)
}

#[test]
fn roundtrip_is_exact_over_a_seeded_corpus() {
    for seed in 0..CORPUS {
        let spec = spec_for(seed);
        let wire = render_problem(&spec);
        let back = parse_problem(&wire)
            .unwrap_or_else(|e| panic!("seed {seed}: rendered spec failed to parse: {e}\n{wire}"));
        assert_eq!(back, spec, "seed {seed}: parse(render(spec)) != spec");
        // Rendering is a fixed point: a second trip is byte-identical.
        assert_eq!(
            render_problem(&back),
            wire,
            "seed {seed}: render not stable"
        );
    }
}

#[test]
fn cache_keys_are_canonical_and_budget_blind() {
    for seed in 0..CORPUS {
        let spec = spec_for(seed);
        let back = parse_problem(&render_problem(&spec)).expect("round-trips");
        assert_eq!(
            cache_key_text(&back),
            cache_key_text(&spec),
            "seed {seed}: cache key changed across a wire round-trip"
        );
        let mut unbudgeted = spec.clone();
        unbudgeted.budget = Budget::unlimited();
        assert_eq!(
            cache_key_text(&spec),
            cache_key_text(&unbudgeted),
            "seed {seed}: budget leaked into the cache key"
        );
        assert_eq!(
            cache_fingerprint(&spec),
            cache_fingerprint(&unbudgeted),
            "seed {seed}: budget leaked into the fingerprint"
        );
    }
}

#[test]
fn distinct_problems_get_distinct_keys() {
    // Fingerprints may collide in principle; over this corpus the full
    // key texts must all differ (the consumer compares full keys, but a
    // generator collapsing distinct problems onto one key would make
    // the cache serve wrong answers silently).
    let mut keys: Vec<String> = (0..CORPUS).map(|s| cache_key_text(&spec_for(s))).collect();
    let total = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), total, "corpus produced duplicate cache keys");
}

/// Asserts the fixed point the serve tier's raw-payload probe rests on:
/// `key` parses, with an unlimited budget, back to a spec whose key is
/// `key` itself.
fn assert_fixed_point(key: &str, what: &str) {
    let back = parse_problem(key)
        .unwrap_or_else(|e| panic!("{what}: the key failed to parse: {e}\n{key}"));
    assert!(
        back.budget.is_unlimited(),
        "{what}: the key parsed with a budget\n{key}"
    );
    assert_eq!(
        cache_key_text(&back),
        key,
        "{what}: the key is not a fixed point"
    );
}

#[test]
fn cache_keys_are_fixed_points_with_well_spread_fingerprints() {
    let mut keys = BTreeSet::new();
    for seed in [1, 2, 7] {
        for (i, doc) in seeded_corpus(seed, 256).iter().enumerate() {
            let spec = parse_problem(doc).unwrap_or_else(|e| panic!("seed {seed} item {i}: {e}"));
            for objective in Objective::ALL {
                let key = cache_key_text(&spec.clone().with_objective(objective));
                assert_fixed_point(&key, &format!("seed {seed} item {i} {objective:?}"));
                keys.insert(key);
            }
        }
    }
    // Names may hold anything but whitespace, and the key renders them
    // verbatim: a quote, a backslash and a control character (U+0001)
    // in the graph, node and resource-class names.
    let escapes = "dfg e\"s\\c\u{1}\nnode a\"q add 1\nnode b\\s mul 2\nnode c\u{1}x add 1\n\
                   edge a\"q b\\s 0\nedge b\\s c\u{1}x 0\nedge c\u{1}x a\"q 1\n\
                   resource ad\"d\\\u{1} 2 non-pipelined add\nresource mul 1 pipelined mul\n";
    let spec = parse_problem(escapes).expect("escaped names parse");
    for objective in Objective::ALL {
        let key = cache_key_text(&spec.clone().with_objective(objective));
        assert_fixed_point(&key, &format!("escaped names {objective:?}"));
        keys.insert(key);
    }

    let fingerprints: BTreeSet<u64> = keys.iter().map(|k| fingerprint_text(k)).collect();
    assert_eq!(
        fingerprints.len(),
        keys.len(),
        "two of {} distinct keys share a fingerprint",
        keys.len()
    );
    let shards = ServeConfig::default().shards as u64;
    let used: BTreeSet<u64> = fingerprints.iter().map(|f| f & (shards - 1)).collect();
    assert_eq!(
        used.len() as u64,
        shards,
        "the keys reach only shards {used:?}"
    );
}
