//! The rotation context's weight memo must actually pay off on real
//! heuristic runs: rotation revisits zero-delay edge sets (cyclic
//! rotations, phases that retrace an earlier phase's faces), so a
//! meaningful share of the memo's lookups should be hits — under every
//! priority policy, since the memo is the solve's only weight cache.
//!
//! The counters are the context's own (`CacheStats`), as the search
//! reports them at each phase end, summed over a Heuristic-1 run and a
//! Heuristic-2 sweep on every paper benchmark.

use rotsched_benchmarks::{all_benchmarks, TimingModel};
use rotsched_core::{HeuristicConfig, SearchDriver, SearchEvent, SearchObserver};
use rotsched_sched::{CacheStats, ListScheduler, PriorityPolicy, ResourceSet};

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

fn config() -> HeuristicConfig {
    HeuristicConfig {
        rotations_per_phase: 32,
        max_size: None,
        keep_best: 4,
        rounds: 2,
    }
}

/// Sums the memo counters every phase end reports.
#[derive(Default)]
struct MemoTotals(CacheStats);

impl SearchObserver for MemoTotals {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        if let SearchEvent::PhaseEnd { cache, .. } = event {
            self.0.weight_memo_hits += cache.weight_memo_hits;
            self.0.weight_memo_misses += cache.weight_memo_misses;
        }
    }
}

#[test]
fn weight_memo_gets_hits_on_real_sweeps_under_every_policy() {
    for policy in POLICIES {
        let mut hits = 0_u64;
        let mut misses = 0_u64;
        for (name, g) in all_benchmarks(&TimingModel::paper()) {
            let res = ResourceSet::adders_multipliers(2, 2, false);
            let sched = ListScheduler::new(policy);
            let mut driver =
                SearchDriver::incremental(&g, &sched, &res).with_observer(MemoTotals::default());
            driver.heuristic1(&config()).expect("schedulable");
            driver.heuristic2(&config()).expect("schedulable");
            let totals = driver.observer.0;
            println!(
                "{policy:?} {name}: weight memo {} hits / {} misses",
                totals.weight_memo_hits, totals.weight_memo_misses
            );
            hits += totals.weight_memo_hits;
            misses += totals.weight_memo_misses;
        }
        assert!(hits > 0, "{policy:?}: the memo never hit on the suite");
        assert!(
            hits * 4 >= misses,
            "{policy:?}: the memo hit fewer than 20% of lookups ({hits} hits / {misses} misses)"
        );
        let rate = hits as f64 / (hits + misses) as f64;
        println!("{policy:?}: overall hit rate {:.1}%", rate * 100.0);
    }
}
