//! The hot-path weight cache must actually pay off on real heuristic
//! runs: rotation revisits zero-delay edge sets (phase restarts, cyclic
//! rotations, repeated `FullSchedule`s of the same retimed face), so a
//! meaningful share of priority-weight computations should be cache
//! hits.

use std::sync::Arc;

use rotsched_benchmarks::{all_benchmarks, TimingModel};
use rotsched_core::{HeuristicConfig, SearchDriver};
use rotsched_dfg::{NodeId, Retiming};
use rotsched_sched::{ListScheduler, ResourceSet};

fn config() -> HeuristicConfig {
    HeuristicConfig {
        rotations_per_phase: 32,
        max_size: None,
        keep_best: 4,
        rounds: 2,
    }
}

#[test]
fn weight_cache_gets_hits_on_real_sweeps() {
    let mut total_hits = 0_u64;
    let mut total_misses = 0_u64;
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let sched = ListScheduler::default();
        let mut driver = SearchDriver::incremental(&g, &sched, &res);
        driver.heuristic1(&config()).expect("schedulable");
        driver.heuristic2(&config()).expect("schedulable");
        let (hits, misses) = sched.weight_cache_stats();
        println!("{name}: weight cache {hits} hits / {misses} misses");
        total_hits += hits;
        total_misses += misses;
    }
    assert!(total_hits > 0, "cache never hit on an entire sweep suite");
    assert!(
        total_hits * 4 >= total_misses,
        "cache hit fewer than 20% of lookups ({total_hits} hits / {total_misses} misses) — \
         the hot-path cache no longer pays off"
    );
    let rate = total_hits as f64 / (total_hits + total_misses) as f64;
    println!(
        "overall hit rate with fingerprint keying: {:.1}%",
        rate * 100.0
    );
}

/// A cache hit must hand back the stored `Arc`, not a fresh copy of the
/// weight vector — the hot loop calls this once per rotation step.
#[test]
fn cache_hits_share_one_allocation() {
    let (name, g) = all_benchmarks(&TimingModel::paper())
        .into_iter()
        .next()
        .expect("suite is non-empty");
    let sched = ListScheduler::default();

    let first = sched.cached_weights(&g, None).expect("acyclic zero graph");
    assert_eq!(
        sched.weight_cache_stats(),
        (0, 1),
        "{name}: cold lookup must miss"
    );

    let second = sched.cached_weights(&g, None).expect("acyclic zero graph");
    assert!(
        Arc::ptr_eq(&first, &second),
        "{name}: a hit returned a reallocated weight vector instead of the cached Arc"
    );
    assert_eq!(sched.weight_cache_stats(), (1, 1));

    // The cache keys on the retiming's *effect* — the zero-delay edge
    // set fingerprint — not on the retiming values. A uniform retiming
    // leaves every retimed delay unchanged, so it must hit the same
    // entry without allocating.
    let mut uniform = Retiming::zero(&g);
    let everyone: Vec<NodeId> = g.node_ids().collect();
    uniform.apply_set(&everyone, 1);
    let third = sched
        .cached_weights(&g, Some(&uniform))
        .expect("acyclic zero graph");
    assert!(
        Arc::ptr_eq(&first, &third),
        "{name}: fingerprint keying must recognize a zero-delay-set-preserving retiming"
    );
    assert_eq!(sched.weight_cache_stats(), (2, 1));
}
