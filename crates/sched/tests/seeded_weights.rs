//! The rotation context's memoized priority weights against the
//! definitions, over rotation sequences long enough to evict from the
//! weight memo.
//!
//! A `SchedContext` keeps the weights of up to 64 zero-delay sets and
//! recomputes them with the CSR weight kernel on a miss, for every
//! priority policy. After every rotation step the active weights must
//! equal both `PriorityPolicy::weights` and a test-local reference
//! written from the definitions (a depth-first descendant count, a
//! recursive path height, the mobility of `timing_bounds`, the node
//! index). The sequences visit well over 64 distinct zero-delay sets,
//! on graphs both below and above 64 nodes (one- and multi-word
//! descendant bitsets) with zero-time operations among them, whose raw
//! time 0 differs from the one step they take. Full schedules are
//! interleaved at seeded points, some restoring an earlier retiming, so
//! the context's kept topological order is both rebuilt by a sort and
//! carried across rotations and unchanged full schedules. A second test
//! pins the memo's hit/miss counts on fixed seeds: the memo's keys and
//! eviction order are part of its contract.

mod common;

use std::collections::HashSet;

use common::{random_dfg, reference_weights, POLICIES};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{
    CacheStats, ListScheduler, PriorityPolicy, ResourceSet, SchedContext, Schedule, ZeroSet,
};

/// The context's memo capacity.
const MEMO_CAP: usize = 64;

/// Graph sizes: below one bitset word, and two words.
const SIZES: [usize; 2] = [40, 100];

/// Rotation steps per sequence.
const STEPS: usize = 400;

fn graph(seed: u64, n: usize) -> Dfg {
    let mut rng = SplitMix64::new(seed);
    let density = 3.0 / n as f64;
    random_dfg(&mut rng, n, 2, density)
}

/// [`graph`] with every fourth node made a zero-time operation.
fn graph_with_zero_time_ops(seed: u64, n: usize) -> Dfg {
    let mut g = graph(seed, n);
    for i in (0..n).step_by(4) {
        g.node_mut(NodeId::from_index(i)).set_time(0);
    }
    g
}

/// One step in this many, on average, is followed by a full schedule
/// when a sequence interleaves them.
const FULL_SCHEDULE_EVERY: u64 = 16;

/// A rotation sequence through one context, with seeded rotation
/// sizes; calls `after_step` after every step. With `full_schedules`,
/// steps picked by a second seeded stream are each followed by the
/// context's full schedule (and another `after_step`): half of them of
/// a retiming saved at an earlier such point, as Heuristic 2 restores
/// its best state, so the zero-delay set changes and the kept order is
/// sorted afresh; the rest of the current retiming, which keeps it.
fn rotate_through(
    g: &Dfg,
    policy: PriorityPolicy,
    seed: u64,
    full_schedules: bool,
    mut after_step: impl FnMut(&SchedContext, &Retiming),
) -> CacheStats {
    let res = ResourceSet::adders_multipliers(3, 2, false);
    let scheduler = ListScheduler::new(policy);
    let mut rng = SplitMix64::new(seed);
    let mut points = SplitMix64::new(!seed);
    let mut schedule: Schedule = scheduler.schedule(g, None, &res).expect("DAGs schedule");
    let mut retiming = Retiming::zero(g);
    let mut saved = retiming.clone();
    let mut ctx = SchedContext::new(g, &scheduler, &res, Some(&retiming), &schedule)
        .expect("the initial schedule is legal");
    let mut rotated = Vec::new();
    for _ in 0..STEPS {
        let length = schedule.length(g);
        if length <= 1 {
            break;
        }
        let size = rng.range_u32(1, (length - 1).min(6));
        ctx.down_rotate(g, &res, &mut retiming, &mut schedule, size, &mut rotated)
            .expect("a rotated prefix has no fixed zero-delay successors");
        after_step(&ctx, &retiming);
        if full_schedules && points.below(FULL_SCHEDULE_EVERY) == 0 {
            if points.below(2) == 0 {
                std::mem::swap(&mut retiming, &mut saved);
            } else {
                saved.clone_from(&retiming);
            }
            ctx.full_schedule(g, Some(&retiming), &res, &mut schedule)
                .expect("a legal retiming schedules");
            after_step(&ctx, &retiming);
        }
    }
    ctx.cache_stats()
}

#[test]
fn memoized_weights_match_the_definitions_across_eviction() {
    for policy in POLICIES {
        for (i, &n) in SIZES.iter().enumerate() {
            let seed = 11 + i as u64;
            let g = graph_with_zero_time_ops(seed, n);
            let mut seen = HashSet::new();
            let stats = rotate_through(&g, policy, seed, true, |ctx, retiming| {
                let weights = ctx.active_weights();
                let library = policy.weights(&g, Some(retiming)).expect("acyclic");
                let reference = reference_weights(policy, &g, Some(retiming));
                assert_eq!(weights.as_slice(), library.as_slice(), "{policy:?}, n {n}");
                assert_eq!(
                    weights.as_slice(),
                    reference.as_slice(),
                    "{policy:?}, n {n}"
                );
                seen.insert(ZeroSet::compute(&g, Some(retiming)).key());
            });
            assert!(
                seen.len() > 2 * MEMO_CAP,
                "{policy:?}, n {n}: only {} distinct zero-delay sets",
                seen.len()
            );
            assert!(
                stats.weight_memo_misses > MEMO_CAP as u64,
                "{policy:?}, n {n}: {stats:?} never evicted"
            );
            assert!(stats.weight_memo_hits > 0, "{policy:?}, n {n}: {stats:?}");
        }
    }
}

#[test]
fn memo_hit_and_miss_counts_are_pinned() {
    // (policy, graph size, hits, misses), recorded before the weight
    // kernel replaced the per-flip weight repair; the memo's keys and
    // eviction order did not change with it.
    let pinned = [
        (PriorityPolicy::DescendantCount, 40, 86, 311),
        (PriorityPolicy::DescendantCount, 100, 23, 374),
        (PriorityPolicy::PathHeight, 40, 56, 341),
        (PriorityPolicy::PathHeight, 100, 34, 366),
        (PriorityPolicy::Mobility, 40, 57, 343),
        (PriorityPolicy::Mobility, 100, 58, 341),
        (PriorityPolicy::InputOrder, 40, 48, 350),
        (PriorityPolicy::InputOrder, 100, 47, 353),
    ];
    for (policy, n, hits, misses) in pinned {
        let seed = 23 + n as u64;
        let stats = rotate_through(&graph(seed, n), policy, seed, false, |_, _| {});
        assert_eq!(
            (stats.weight_memo_hits, stats.weight_memo_misses),
            (hits, misses),
            "{policy:?}, n {n}"
        );
    }
}
