//! Ablation study over the rotation heuristics' knobs: priority policy,
//! heuristic variant, and sweep rounds.
//!
//! ```text
//! cargo run --release -p rotsched-bench --bin ablation [-- --jobs N]
//! ```
//!
//! With `--jobs N` the per-benchmark rows of each study run on `N`
//! worker threads; rows print in a fixed order for every jobs value.

use rotsched_baselines::lower_bound;
use rotsched_bench::jobs_from_args;
use rotsched_benchmarks::{all_benchmarks, TimingModel};
use rotsched_core::{parallel_indexed, HeuristicConfig, SearchDriver};
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

fn main() {
    let jobs = jobs_from_args();
    for (adders, mults, pipelined) in [(2, 2, false), (6, 8, true)] {
        println!(
            "\n#### resource configuration {}A {}M{} ####",
            adders,
            mults,
            if pipelined { "p" } else { "" }
        );
        run(
            &ResourceSet::adders_multipliers(adders, mults, pipelined),
            jobs,
        );
    }
}

fn run(res: &ResourceSet, jobs: usize) {
    let policies = [
        ("descendants", PriorityPolicy::DescendantCount),
        ("path-height", PriorityPolicy::PathHeight),
        ("mobility", PriorityPolicy::Mobility),
        ("input-order", PriorityPolicy::InputOrder),
    ];
    let benchmarks = all_benchmarks(&TimingModel::paper());
    let rows = |f: &(dyn Fn(&str, &Dfg) -> String + Sync)| {
        parallel_indexed(jobs, benchmarks.len(), |i| {
            let (name, g) = &benchmarks[i];
            f(name, g)
        })
    };

    println!("== Priority-policy ablation (Heuristic 2, 1 round) ==");
    println!(
        "{:<28} {:>3} {:>12} {:>12} {:>10} {:>12}",
        "Benchmark", "LB", "descendants", "path-height", "mobility", "input-order"
    );
    for row in rows(&|name, g| {
        let lb = lower_bound(g, res).expect("valid");
        let mut cells = Vec::new();
        for (_, policy) in policies {
            let cfg = HeuristicConfig {
                rotations_per_phase: 32,
                max_size: None,
                keep_best: 4,
                rounds: 1,
            };
            let out = SearchDriver::incremental(g, &ListScheduler::new(policy), res)
                .heuristic2(&cfg)
                .expect("schedulable");
            cells.push(out.best_length);
        }
        format!(
            "{:<28} {:>3} {:>12} {:>12} {:>10} {:>12}",
            name, lb, cells[0], cells[1], cells[2], cells[3]
        )
    }) {
        println!("{row}");
    }

    println!("\n== Heuristic 1 vs Heuristic 2 (descendants, 1 round) ==");
    println!(
        "{:<28} {:>3} {:>4} {:>4} | rotations H1 / H2",
        "Benchmark", "LB", "H1", "H2"
    );
    for row in rows(&|name, g| {
        let lb = lower_bound(g, res).expect("valid");
        let cfg = HeuristicConfig {
            rotations_per_phase: 32,
            max_size: None,
            keep_best: 4,
            rounds: 1,
        };
        let sched = ListScheduler::default();
        let h1 = SearchDriver::incremental(g, &sched, res)
            .heuristic1(&cfg)
            .expect("schedulable");
        let h2 = SearchDriver::incremental(g, &sched, res)
            .heuristic2(&cfg)
            .expect("schedulable");
        format!(
            "{:<28} {:>3} {:>4} {:>4} | {:>5} / {:>5}",
            name, lb, h1.best_length, h2.best_length, h1.total_rotations, h2.total_rotations
        )
    }) {
        println!("{row}");
    }

    println!("\n== Rounds ablation (Heuristic 2, descendants) ==");
    println!(
        "{:<28} {:>3} {:>4} {:>4} {:>4} {:>4}",
        "Benchmark", "LB", "r1", "r2", "r4", "r8"
    );
    for row in rows(&|name, g| {
        let lb = lower_bound(g, res).expect("valid");
        let mut cells = Vec::new();
        for rounds in [1, 2, 4, 8] {
            let cfg = HeuristicConfig {
                rotations_per_phase: 32,
                max_size: None,
                keep_best: 4,
                rounds,
            };
            let out = SearchDriver::incremental(g, &ListScheduler::default(), res)
                .heuristic2(&cfg)
                .expect("schedulable");
            cells.push(out.best_length);
        }
        format!(
            "{:<28} {:>3} {:>4} {:>4} {:>4} {:>4}",
            name, lb, cells[0], cells[1], cells[2], cells[3]
        )
    }) {
        println!("{row}");
    }
}
