//! Wall-clock cost of the full heuristics on the paper's benchmarks —
//! the Section 6 claim that "every experiment is finished within
//! seconds" (on a 1993 DEC 5000; modern hardware does it in
//! milliseconds).

use core::time::Duration;
use rotsched_bench::harness::Harness;
use rotsched_benchmarks::{all_benchmarks, TimingModel};
use rotsched_core::{HeuristicConfig, SearchDriver};
use rotsched_sched::{ListScheduler, ResourceSet};

fn main() {
    let config = HeuristicConfig {
        rotations_per_phase: 32,
        max_size: None,
        keep_best: 16,
        rounds: 1,
    };
    let mut h = Harness::new("heuristics").with_budget(
        Duration::from_millis(500),
        Duration::from_secs(2),
        20,
    );
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let sched = ListScheduler::default();
        h.bench(&format!("heuristic2/{name}"), || {
            SearchDriver::incremental(&g, &sched, &res)
                .heuristic2(&config)
                .expect("schedulable");
        });
        // The from-scratch ablation of the incremental rotation context
        // (identical output, see DESIGN.md §6).
        h.bench(&format!("heuristic2-reference/{name}"), || {
            SearchDriver::reference(&g, &sched, &res)
                .heuristic2(&config)
                .expect("schedulable");
        });
        h.bench(&format!("heuristic1/{name}"), || {
            SearchDriver::incremental(&g, &sched, &res)
                .heuristic1(&config)
                .expect("schedulable");
        });
    }
    h.finish();
}
