//! The batch arm: `solve_batch` throughput over a deduplicating corpus.

use std::time::Instant;

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{HeuristicConfig, ProblemSpec, RotationScheduler};
use rotsched_sched::ResourceSet;

use crate::report::{elapsed_ns, info, Percentiles, Sheet};
use crate::Baseline;

/// Report path of the median batch throughput.
pub const SOLVES_PER_SEC: &str = "batch_throughput.solves_per_sec_p50";
/// Unique problems in the corpus.
const BATCH_UNIQUE: u64 = 48;
/// Total batch items (the tail repeats earlier specs, exercising the
/// fingerprint deduplication path).
const BATCH_ITEMS: u64 = 64;
/// Timed `solve_batch` repetitions.
const BATCH_REPS: usize = 9;
/// Smoke gate: measured batch throughput must stay within this divisor
/// of the baseline's `solves_per_sec_p50` (generous — the baseline may
/// come from different hardware; the gate exists to catch
/// order-of-magnitude regressions, not machine variance).
const BATCH_THROUGHPUT_DIVISOR: f64 = 3.0;

/// The corpus: `BATCH_ITEMS` specs over `BATCH_UNIQUE` seeds, so the
/// tail repeats earlier graphs and exercises the deduplication path
/// exactly as a real sweep with repeated cells would.
fn corpus() -> Vec<ProblemSpec> {
    (0..BATCH_ITEMS)
        .map(|i| {
            let seed = i % BATCH_UNIQUE;
            let dfg = random_dfg(
                &RandomDfgConfig {
                    nodes: 8 + (seed as usize % 9),
                    ..RandomDfgConfig::default()
                },
                seed,
            );
            let adders = 1 + (seed % 2) as u32;
            let mults = 1 + (seed / 2 % 2) as u32;
            ProblemSpec::new(dfg, ResourceSet::adders_multipliers(adders, mults, false))
                .with_config(HeuristicConfig {
                    rotations_per_phase: 8,
                    max_size: Some(4),
                    keep_best: 4,
                    rounds: 1,
                })
        })
        .collect()
}

/// Solves per second implied by a per-repetition wall time.
fn solves_per_sec(wall_ns: u64) -> f64 {
    BATCH_ITEMS as f64 * 1e9 / wall_ns.max(1) as f64
}

/// Times `RotationScheduler::solve_batch` over the corpus after one
/// untimed warm-up repetition; returns per-repetition wall-time
/// percentiles. p99 is the slowest repetition, so its rate is the tail
/// throughput floor.
pub fn throughput() -> Percentiles {
    let specs = corpus();
    let _ = RotationScheduler::solve_batch(&specs).expect("corpus solves");
    let mut wall_ns = Vec::with_capacity(BATCH_REPS);
    for _ in 0..BATCH_REPS {
        let start = Instant::now();
        let outcomes = RotationScheduler::solve_batch(&specs).expect("corpus solves");
        assert_eq!(outcomes.len(), specs.len());
        wall_ns.push(elapsed_ns(start));
    }
    Percentiles::of(&mut wall_ns)
}

/// Records the batch arm. Against a baseline, the median rate must stay
/// above a generous fraction of the baseline's: that catches
/// order-of-magnitude regressions in the batch core without tripping on
/// machine-to-machine variance.
pub fn record(wall: &Percentiles, sheet: &mut Sheet, baseline: Option<&Baseline>) {
    let (sps, tail) = (solves_per_sec(wall.p50), solves_per_sec(wall.p99));
    let line = format!(
        "batch throughput ({BATCH_ITEMS} items, {BATCH_UNIQUE} unique): {sps:.0} solves/s \
         at p50, {tail:.0} at the p99 tail"
    );
    match baseline {
        Some(b) => sheet.gate(
            sps >= b.solves_per_sec_p50 / BATCH_THROUGHPUT_DIVISOR,
            &format!(
                "{line}; at least baseline {:.0} / {BATCH_THROUGHPUT_DIVISOR}",
                b.solves_per_sec_p50
            ),
        ),
        None => info(&line),
    }
    sheet.put("batch_throughput.items", &BATCH_ITEMS);
    sheet.put("batch_throughput.unique", &BATCH_UNIQUE);
    sheet.put("batch_throughput.reps", &BATCH_REPS);
    sheet.put("batch_throughput.wall_ns_p50", &wall.p50);
    sheet.put("batch_throughput.wall_ns_p99", &wall.p99);
    sheet.fixed(SOLVES_PER_SEC, sps, 0);
    sheet.fixed("batch_throughput.solves_per_sec_p99", tail, 0);
}
