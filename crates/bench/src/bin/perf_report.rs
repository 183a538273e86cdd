//! Wall-clock performance report for the parallel portfolio engine and
//! the incremental rotation kernel.
//!
//! ```text
//! cargo run --release -p rotsched-bench --bin perf_report [-- OPTIONS]
//!
//!   --out PATH        write the JSON report here (default:
//!                     BENCH_ROTATION.json at the repository root)
//!   --reps N          timed repetitions per jobs value (default: 3)
//!   --check BASELINE  smoke mode: run one sweep, compare schedule
//!                     lengths and the rows fingerprint against a
//!                     checked-in baseline JSON, gate the tail latency
//!                     of the SoA rotation step and of the dense-graph
//!                     driver step (p99 within 10x of p50 each),
//!                     gate batch throughput against the baseline's
//!                     recorded solves/s (within a generous divisor),
//!                     hold the driver-overhead reading — measured AND
//!                     baseline — inside a two-sided band (a large
//!                     negative reading means the hand-rolled replica
//!                     went stale, not that the engine got fast), and
//!                     gate the serve layer (warm hits ≥8x faster
//!                     than cold at p50 with zero solver invocations,
//!                     identical bursts collapsing to one solve,
//!                     byte-identical responses throughout), and hold
//!                     the fault-injection plane's `NoopFaults`
//!                     default to at most a 2% warm-path cost against
//!                     a quiet-armed service (the zero-cost gate), and
//!                     gate the static-analysis framework (a full
//!                     schedule-mode analysis of a 256-node graph
//!                     under 5 ms at p50, byte-identical reports on
//!                     every repetition; the sweep fingerprint gate
//!                     doubles as proof that a plain solve pays
//!                     nothing when `--analyze` is off), and gate the
//!                     cycle-ratio bounds (dfg's iteration bound and
//!                     the verifier's recurrence bound of a 256-node
//!                     graph, each under 1.5 ms at p50); exit non-zero
//!                     on any regression. No report written.
//!   --certify         certification mode: run one sweep and have the
//!                     independent verifier (`rotsched-verify`) re-prove
//!                     every winning kernel legal — starts, retimed-delay
//!                     precedence, reservations, and the optimality
//!                     verdict. Exit non-zero on any rejection. No
//!                     timing, no report written.
//!   --degradation     anytime-degradation mode: for each paper
//!                     benchmark, run Heuristic 2 once under the
//!                     instrumented engine and read the incumbent best
//!                     length at each truncation point off the recorded
//!                     best-length trajectory (`best_at_rotation`
//!                     equals a fresh budgeted solve at that exact
//!                     rotation count). Deterministic (rotation
//!                     budgets, no clocks); no report written. Source
//!                     of EXPERIMENTS.md's degradation-curve table.
//! ```
//!
//! Times the full Table-3 sweep (every benchmark × resource-config
//! cell) sequentially and under several `--jobs` values (requested and
//! effective counts both recorded), checks that every jobs value yields
//! byte-identical rows, samples per-rotation-step latency percentiles
//! for the allocation-free SoA step, for full driver steps on a dense
//! graph, and for the incremental context path against the
//! from-scratch path, times `solve_batch` throughput over a
//! deduplicating corpus, measures the `SearchDriver` dispatch overhead
//! against a hand-rolled replica of the pre-engine phase loop (the
//! `NoopObserver` path must stay within noise of the bare kernel),
//! exercises the warm-path serve layer in-process (cold vs. warm-hit
//! latency, single-flight deduplication under an identical burst,
//! closed-loop sustained throughput — all counter-asserted and
//! byte-compared), times the two cycle-ratio bounds on the graphs of the
//! e2e `analyze-256` workload, and writes a machine-readable JSON report.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use rotsched_baselines::TABLE_3;
use rotsched_bench::{format_row, measure_rs};
use rotsched_benchmarks::{
    allpole, biquad, diffeq, lattice4, random_dfg, RandomDfgConfig, TimingModel,
};
use rotsched_core::{
    down_rotate, effective_jobs, initial_state, parallel_indexed, BestSet, HeuristicConfig,
    Objective, ProblemSpec, RotationContext, RotationScheduler, Score, SearchDriver, TraceRecorder,
};
use rotsched_dfg::analysis::RatioWork;
use rotsched_dfg::rng::{Fnv64, SplitMix64};
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, ResourceSet, WrapScratch};
use rotsched_serve::{seeded_corpus, FaultPlan, InjectedFaults, ServeConfig, SolveService};

const JOBS: [usize; 4] = [1, 2, 4, 8];
/// Size-1 rotations per sampled sequence in the per-step timing study.
const STEP_SEQ: usize = 32;
/// Repetitions of each sampled sequence.
const STEP_REPS: usize = 5;
/// Unique problems in the batch-throughput corpus.
const BATCH_UNIQUE: u64 = 48;
/// Total batch items (the tail repeats earlier specs, exercising the
/// fingerprint deduplication path).
const BATCH_ITEMS: u64 = 64;
/// Timed `solve_batch` repetitions.
const BATCH_REPS: usize = 9;
/// Smoke gate: a steady-state SoA step's tail latency must stay within
/// this multiple of its median.
const STEP_TAIL_RATIO: u64 = 10;
/// The `dense` arm's p50 and p99 step time (ns) at the commit before
/// ready nodes' earliest starts were cached in the placement core, the
/// weight repair became one CSR weight-kernel pass, and the wrap probe
/// became single-pass: medians of 5 runs on a shared 2-vCPU Xeon VM.
const DENSE_BEFORE_P50_NS: u64 = 62_849;
/// See [`DENSE_BEFORE_P50_NS`].
const DENSE_BEFORE_P99_NS: u64 = 109_825;
/// Smoke gate: measured batch throughput must stay within this divisor
/// of the baseline's `solves_per_sec_p50` (generous — the baseline may
/// come from different hardware; the gate exists to catch
/// order-of-magnitude regressions, not machine variance).
const BATCH_THROUGHPUT_DIVISOR: f64 = 3.0;
/// Smoke gate: the engine-vs-replica overhead must sit inside
/// `±DRIVER_OVERHEAD_BAND_PCT` — two-sided, because a large *negative*
/// reading doesn't mean the engine got fast, it means the hand-rolled
/// replica went stale against the engine's hot path.
const DRIVER_OVERHEAD_BAND_PCT: f64 = 15.0;
/// Seed for the serve-arm corpus.
const SERVE_SEED: u64 = 11;
/// Unique problems in the serve-arm corpus. Seven keeps every item
/// budget-free (`seeded_corpus` attaches a rotation budget to every
/// eighth item), so each problem takes the full warm path.
const SERVE_UNIQUE: usize = 7;
/// Fresh-service repetitions of the cold-solve pass.
const SERVE_COLD_REPS: usize = 3;
/// Timed warm-hit samples.
const SERVE_WARM_SAMPLES: usize = 2000;
/// Concurrent identical requests in the coalescing burst.
const SERVE_BURST: usize = 32;
/// Closed-loop client threads in the sustained arm.
const SERVE_SUSTAIN_THREADS: usize = 4;
/// Requests per closed-loop client.
const SERVE_SUSTAIN_REQUESTS: usize = 200;
/// Smoke gate: a warm cache hit must be at least this many times
/// faster than a cold solve at p50.
///
/// Derived from measurement, not aspiration. Heuristic 2 now ends its
/// sweep once the best set is frozen at the lower bound, which made the
/// corpus' cold solves ~5x cheaper (p50 ~3.8 ms → 0.55–0.92 ms) while
/// the warm hit stayed at 24–38 µs. Six `--check` runs on a shared
/// 2-vCPU VM then read 14–25x. A warm path that solved again, or a cache
/// that stopped hitting, reads ~1x; a floor of 8 catches that with room
/// below the measured spread, so CPU contention does not trip it.
const SERVE_WARM_SPEEDUP_FLOOR: u64 = 8;
/// Smoke gate: the default `NoopFaults` warm path must cost at most
/// this much more than a fault-armed service running an all-quiet
/// plan. The fault plane is a generic parameter monomorphized out on
/// the default path; if the noop path ever pays more than noise, the
/// zero-cost claim broke.
const FAULT_OVERHEAD_LIMIT_PCT: f64 = 2.0;
/// Interleaved warm-hit samples per arm in the fault-overhead study.
const FAULT_OVERHEAD_SAMPLES: usize = 1200;
/// Smoke gate: the default length-only objective must cost at most
/// this much more than a scalar-`u32` replica of the pre-objective
/// best set over identical rotation sequences. `Objective::score`
/// dispatch plus `Score::from_length` packing is a match and a shift;
/// if the default path ever pays more than noise, the zero-cost
/// objective claim broke.
const OBJECTIVE_OVERHEAD_LIMIT_PCT: f64 = 2.0;
/// Interleaved sequence samples per arm in the objective-overhead
/// study.
const OBJECTIVE_OVERHEAD_SAMPLES: usize = 400;
/// Graphs in the analyze-arm latency suite.
const ANALYZE_SUITE_GRAPHS: u64 = 8;
/// Nodes per suite graph.
const ANALYZE_SUITE_NODES: usize = 64;
/// Timed full-analysis repetitions per graph.
const ANALYZE_REPS: usize = 9;
/// Nodes in the large analyze-gate graph.
const ANALYZE_LARGE_NODES: usize = 256;
/// Smoke gate: one full schedule-mode analysis (all four passes plus
/// the lint sweep) of the 256-node graph must finish under 5 ms at
/// p50. The analysis framework runs after `solve --analyze` and per
/// request in `analyze`; a linear-ish budget keeps it invisible next
/// to the solve it annotates.
const ANALYZE_LARGE_LIMIT_NS: u64 = 5_000_000;

/// Seed of the e2e `analyze-256` workload's graph pool, whose twelve
/// graphs the `bounds` arm times.
const ANALYZE256_POOL_SEED: u64 = 0xA7A1_0256;
/// Timed repetitions of each bound per graph in the `bounds` arm.
const BOUNDS_REPS: usize = 15;
/// Smoke gate: on the 256-node graph of the `bounds` arm, each bound —
/// `dfg::analysis::iteration_bound` and `verify::recurrence_bound` —
/// must finish within this at p50. Both ran full Bellman–Ford sweeps
/// per probe before they stopped at the first predecessor-graph cycle,
/// and read 11.3 ms and 5.7 ms there ([`BOUNDS_BEFORE`]).
const BOUNDS_LARGE_LIMIT_NS: u64 = 1_500_000;
/// The `bounds` arm at the commit before both bounds stopped each probe
/// at the first predecessor-graph cycle: p50 and p99 (ns) over all
/// twelve graphs, then the 256-node graph's p50, for the dfg iteration
/// bound and the verifier's recurrence bound. Medians of 3 runs on a
/// shared 2-vCPU Xeon VM.
const BOUNDS_BEFORE: BoundsBefore = BoundsBefore {
    dfg: (6_971_547, 15_149_543, 11_338_350),
    verify: (2_210_633, 6_132_667, 5_729_286),
};

struct Options {
    out: String,
    check: Option<String>,
    reps: usize,
    degradation: bool,
    certify: bool,
}

fn main() {
    let opts = options_from_args();
    let t = TimingModel::paper();
    let graphs: Vec<(&str, Dfg)> = vec![
        ("Differential Equation", diffeq(&t)),
        ("4-stage Lattice Filter", lattice4(&t)),
        ("All-pole Lattice Filter", allpole(&t)),
        ("2-cascaded Biquad Filter", biquad(&t)),
    ];

    if let Some(baseline) = &opts.check {
        std::process::exit(check_against_baseline(&graphs, baseline));
    }
    if opts.certify {
        std::process::exit(certify_sweep(&graphs));
    }
    if opts.degradation {
        degradation_report(&graphs);
        return;
    }

    let cells = TABLE_3.len();
    let reps = opts.reps;
    let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("perf_report: table3 sweep ({cells} cells), {reps} reps per jobs value");
    println!("hardware threads: {hardware}\n");

    // One untimed warm-up pass so allocator and page-cache effects hit
    // every configuration equally.
    let _ = sweep(&graphs, 1);

    let mut results = Vec::new();
    let mut lengths = Vec::new();
    for jobs in JOBS {
        let effective = effective_jobs(jobs, cells);
        let mut wall_ns = Vec::new();
        let mut fingerprint = 0_u64;
        for _ in 0..reps {
            let start = Instant::now();
            let rows = sweep(&graphs, jobs);
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            wall_ns.push(elapsed);
            fingerprint = rows_fingerprint(&rows);
            lengths = rows.iter().map(|(_, rs)| *rs).collect();
        }
        wall_ns.sort_unstable();
        let median = wall_ns[wall_ns.len() / 2];
        let min = wall_ns[0];
        println!(
            "jobs {jobs} (effective {effective}): median {:.1} ms, min {:.1} ms \
             (fingerprint {fingerprint:#018x})",
            median as f64 / 1e6,
            min as f64 / 1e6
        );
        results.push((jobs, effective, median, min, fingerprint));
    }

    let seq_median = results[0].2;
    let deterministic = results.iter().all(|r| r.4 == results[0].4);
    assert!(
        deterministic,
        "table3 rows must be byte-identical for every jobs value"
    );
    println!("\nrows byte-identical across all jobs values: yes");
    for (jobs, _, median, _, _) in &results {
        println!(
            "speedup vs sequential at jobs {jobs}: {:.2}x",
            seq_median as f64 / *median as f64
        );
    }

    let soa = soa_steady_percentiles();
    let dense = dense_step_percentiles();
    let (ctx, scratch) = step_percentiles(&graphs);
    println!(
        "\nrotation step (soa, steady):  p50 {:>8} ns, p90 {:>8} ns, p99 {:>8} ns ({} samples)",
        soa.p50, soa.p90, soa.p99, soa.samples
    );
    println!(
        "driver step (dense):          p50 {:>8} ns, p90 {:>8} ns, p99 {:>8} ns ({} samples; \
         before the CSR weight kernel: p50 {DENSE_BEFORE_P50_NS} ns, p99 {DENSE_BEFORE_P99_NS} ns)",
        dense.p50, dense.p90, dense.p99, dense.samples
    );
    println!(
        "rotation step (context):      p50 {:>8} ns, p90 {:>8} ns, p99 {:>8} ns ({} samples)",
        ctx.p50, ctx.p90, ctx.p99, ctx.samples
    );
    println!(
        "rotation step (from scratch): p50 {:>8} ns, p90 {:>8} ns, p99 {:>8} ns ({} samples)",
        scratch.p50, scratch.p90, scratch.p99, scratch.samples
    );
    println!(
        "per-step speedup at p50: {:.2}x (context vs scratch); steady soa step \
         tail p99/p50: {:.1}x",
        scratch.p50 as f64 / ctx.p50.max(1) as f64,
        soa.p99 as f64 / soa.p50.max(1) as f64
    );

    let specs = batch_corpus();
    let batch = batch_throughput(&specs);
    println!(
        "\nbatch throughput ({} items, {} unique): \
         {:.0} solves/s at p50, {:.0} solves/s at the p99 tail",
        BATCH_ITEMS,
        BATCH_UNIQUE,
        solves_per_sec(BATCH_ITEMS, batch.p50),
        solves_per_sec(BATCH_ITEMS, batch.p99)
    );

    let (driver, legacy) = driver_overhead(&graphs);
    let overhead_pct = (driver.p50 as f64 - legacy.p50 as f64) / legacy.p50.max(1) as f64 * 100.0;
    println!(
        "\ndriver overhead ({STEP_SEQ} size-1 rotations per sequence): \
         driver p50 {} ns, legacy loop p50 {} ns ({overhead_pct:+.2}%)",
        driver.p50, legacy.p50
    );

    let serve = serve_report();
    println!(
        "\nserve cold solve:  p50 {:>9} ns, p99 {:>9} ns ({} samples)",
        serve.cold.p50, serve.cold.p99, serve.cold.samples
    );
    println!(
        "serve warm hit:    p50 {:>9} ns, p99 {:>9} ns ({} samples, \
         {} extra solver invocations)",
        serve.warm.p50, serve.warm.p99, serve.warm.samples, serve.warm_extra_invocations
    );
    println!(
        "serve warm speedup at p50: {:.0}x; coalescing: {} identical requests \
         -> {} solve(s), {} followers; sustained: {:.0} req/s over {} threads; \
         deterministic: {}",
        serve.cold.p50 as f64 / serve.warm.p50.max(1) as f64,
        SERVE_BURST,
        serve.burst_solves,
        serve.burst_followers,
        serve.sustained_rps,
        SERVE_SUSTAIN_THREADS,
        if serve.deterministic { "yes" } else { "NO" }
    );
    assert!(
        serve.deterministic,
        "serve responses must be byte-identical across cache states, \
         thread counts, and arrival orders"
    );

    let fault = fault_overhead();
    println!(
        "\nfault-plane overhead: noop warm p50 {} ns vs quiet-armed p50 {} ns \
         ({:+.2}%, limit {FAULT_OVERHEAD_LIMIT_PCT}%)",
        fault.noop_p50, fault.armed_p50, fault.overhead_pct
    );

    let objective = objective_overhead(&graphs);
    println!(
        "objective-core overhead: scalar best-set p50 {} ns vs packed p50 {} ns \
         ({:+.2}%, limit {OBJECTIVE_OVERHEAD_LIMIT_PCT}%)",
        objective.scalar_p50, objective.packed_p50, objective.overhead_pct
    );

    let analyze = analyze_arm();
    println!(
        "\nfull analysis ({ANALYZE_SUITE_NODES}-node suite): p50 {:>8} ns, \
         p90 {:>8} ns, p99 {:>8} ns ({} samples)",
        analyze.suite.p50, analyze.suite.p90, analyze.suite.p99, analyze.suite.samples
    );
    println!(
        "full analysis ({ANALYZE_LARGE_NODES} nodes):     p50 {:>8} ns \
         (limit {ANALYZE_LARGE_LIMIT_NS} ns); reports byte-stable: {}",
        analyze.large.p50,
        if analyze.byte_stable { "yes" } else { "NO" }
    );
    assert!(
        analyze.byte_stable,
        "analysis reports must render byte-identically on every run"
    );

    let bounds = bounds_arm(&analyze256_graphs());
    println!(
        "\ndfg iteration bound ({} graphs, {}-{} nodes):  p50 {:>8} ns, p99 {:>8} ns \
         ({ANALYZE_LARGE_NODES} nodes: p50 {} ns; before: p50 {} ns, p99 {} ns)",
        bounds.graphs,
        bounds.min_nodes,
        bounds.max_nodes,
        bounds.dfg.all.p50,
        bounds.dfg.all.p99,
        bounds.dfg.large.p50,
        BOUNDS_BEFORE.dfg.0,
        BOUNDS_BEFORE.dfg.1
    );
    println!(
        "dfg search work: {} probes, {} Bellman-Ford rounds over the {} graphs",
        bounds.dfg_work.probes, bounds.dfg_work.rounds, bounds.graphs
    );
    println!(
        "verify recurrence bound ({} graphs):       p50 {:>8} ns, p99 {:>8} ns \
         ({ANALYZE_LARGE_NODES} nodes: p50 {} ns; before: p50 {} ns, p99 {} ns)",
        bounds.graphs,
        bounds.verify.all.p50,
        bounds.verify.all.p99,
        bounds.verify.large.p50,
        BOUNDS_BEFORE.verify.0,
        BOUNDS_BEFORE.verify.1
    );

    let json = render_json(
        hardware,
        cells,
        reps,
        &results,
        seq_median,
        deterministic,
        &lengths,
        &soa,
        &dense,
        &ctx,
        &scratch,
        &batch,
        &driver,
        &legacy,
        &serve,
        &fault,
        &objective,
        &analyze,
        &bounds,
    );
    match std::fs::write(&opts.out, json) {
        Ok(()) => println!("\nwrote {}", opts.out),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", opts.out);
            std::process::exit(1);
        }
    }
}

/// Runs the full Table-3 sweep; returns each cell's formatted row and
/// achieved schedule length.
fn sweep(graphs: &[(&str, Dfg)], jobs: usize) -> Vec<(String, u32)> {
    parallel_indexed(jobs, TABLE_3.len(), |i| {
        let row = &TABLE_3[i];
        let g = &graphs
            .iter()
            .find(|(name, _)| *name == row.benchmark)
            .expect("benchmark exists")
            .1;
        let measured = measure_rs(g, row.adders, row.multipliers, row.pipelined);
        let rs = measured.rs;
        (format_row(&measured, row.lb, row.rs, row.rs_depth), rs)
    })
}

fn rows_fingerprint(rows: &[(String, u32)]) -> u64 {
    let mut h = Fnv64::new();
    for (row, _) in rows {
        for b in row.bytes() {
            h.write_u8(b);
        }
        h.write_u8(b'\n');
    }
    h.finish()
}

#[derive(Clone, Copy)]
struct StepPercentiles {
    p50: u64,
    p90: u64,
    p99: u64,
    samples: usize,
}

fn percentiles(ns: &mut [u64]) -> StepPercentiles {
    ns.sort_unstable();
    let at = |p: usize| ns[(ns.len() - 1) * p / 100];
    StepPercentiles {
        p50: at(50),
        p90: at(90),
        p99: at(99),
        samples: ns.len(),
    }
}

/// Samples per-rotation-step latency for the persistent-context path and
/// the from-scratch operator over the paper benchmarks plus a 64-node
/// random graph.
fn step_percentiles(graphs: &[(&str, Dfg)]) -> (StepPercentiles, StepPercentiles) {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let random64 = random64();
    let mut ctx_ns = Vec::new();
    let mut scratch_ns = Vec::new();
    let subjects = graphs
        .iter()
        .map(|(_, g)| g)
        .chain(std::iter::once(&random64));
    for g in subjects {
        let init = initial_state(g, &sched, &res).expect("schedulable");
        // One continuous sequence per arm — the context and the caches
        // warm up exactly as they do inside a rotation phase.
        let mut state = init.clone();
        let mut ctx = RotationContext::new(g, &sched, &res, &state).expect("schedulable");
        for _ in 0..STEP_REPS * STEP_SEQ {
            if state.length(g) <= 1 {
                break;
            }
            let start = Instant::now();
            ctx.down_rotate(g, &sched, &res, &mut state, 1)
                .expect("legal");
            ctx_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let mut state = init.clone();
        for _ in 0..STEP_REPS * STEP_SEQ {
            if state.length(g) <= 1 {
                break;
            }
            let start = Instant::now();
            down_rotate(g, &sched, &res, &mut state, 1).expect("legal");
            scratch_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    (percentiles(&mut ctx_ns), percentiles(&mut scratch_ns))
}

/// Steps in the steady-state SoA benchmark's measured window.
const SOA_SAMPLES: usize = 800;

/// Samples the engine's true steady-state rotation step: a ring that
/// rotates indefinitely, pooled buffers and the weight memo fully warm,
/// each step a `down_rotate_in_place` on the reused buffer plus the
/// allocation-free `WrapScratch` wrapped-length probe — exactly the
/// work `SearchDriver` performs per rotation once warm-up is over (the
/// `alloc_discipline` suite proves this window is allocation-free).
/// Unlike [`step_percentiles`], which pools five graphs of very
/// different sizes and shapes, every step here does like-for-like work,
/// so the percentile spread reflects the hot loop itself.
fn soa_steady_percentiles() -> StepPercentiles {
    let n = 24_usize;
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let g = rotsched_dfg::DfgBuilder::new("steady-ring")
        .nodes("v", n, rotsched_dfg::OpKind::Add, 1)
        .chain(&refs)
        .edge(&format!("v{}", n - 1), "v0", 3)
        .build()
        .expect("valid ring");
    let sched = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(4, 0, false);
    let mut state = initial_state(&g, &sched, &res).expect("ring schedules");
    let mut ctx = RotationContext::new(&g, &sched, &res, &state).expect("schedulable");
    let mut wrap = WrapScratch::new(&g, &res).expect("ops bind");
    // Warm-up: the rotation sequence of a uniform ring is periodic, so
    // 4n steps see every distinct zero-delay set and grow every buffer.
    // The untimed wrapped-length probe between steps keeps the scratch
    // warm without charging the probe to the rotation arm (the
    // `context` and `scratch` arms time the rotation operator alone).
    for _ in 0..4 * n {
        ctx.down_rotate_in_place(&g, &sched, &res, &mut state, 1)
            .expect("steady ring keeps rotating");
        wrap.wrapped_length(&g, Some(&state.retiming), &state.schedule, &res)
            .expect("rotation states wrap");
    }
    let mut ns = Vec::with_capacity(SOA_SAMPLES);
    for _ in 0..SOA_SAMPLES {
        let start = Instant::now();
        ctx.down_rotate_in_place(&g, &sched, &res, &mut state, 1)
            .expect("steady ring keeps rotating");
        ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        wrap.wrapped_length(&g, Some(&state.retiming), &state.schedule, &res)
            .expect("rotation states wrap");
    }
    percentiles(&mut ns)
}

/// The 64-node random graph of the per-step, driver-overhead and dense
/// arms.
fn random64() -> Dfg {
    random_dfg(
        &RandomDfgConfig {
            nodes: 64,
            ..RandomDfgConfig::default()
        },
        7,
    )
}

/// Samples full driver steps on a dense graph: the 64-node random graph
/// under 3 adders and 2 multipliers, swept exactly as Heuristic 2 sweeps
/// it — phases of sizes `β..=1` for the default rounds, each phase a
/// fresh context over the `FullSchedule` of the accumulated retiming,
/// each step a `down_rotate_in_place` plus the `WrapScratch` probe at
/// the phase's effective size. Unlike the `soa` ring, most steps here
/// meet a zero-delay set the weight memo has not seen, place prefixes
/// with many zero-delay predecessors, and probe multi-cycle tails, so
/// the arm prices the placement core, the weight kernel and the wrap
/// probe together.
fn dense_step_percentiles() -> StepPercentiles {
    let g = random64();
    let sched = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(3, 2, false);
    let config = HeuristicConfig::default();
    let mut state = initial_state(&g, &sched, &res).expect("schedulable");
    let mut wrap = WrapScratch::new(&g, &res).expect("ops bind");
    let beta = state.length(&g);
    let mut ns = Vec::new();
    for _ in 0..config.rounds {
        for size in (1..=beta).rev() {
            let mut ctx = RotationContext::new(&g, &sched, &res, &state).expect("schedulable");
            for _ in 0..config.rotations_per_phase {
                let length = state.length(&g);
                if length <= 1 {
                    break;
                }
                let mut effective = size;
                while effective >= length {
                    effective = effective.div_ceil(2);
                }
                let start = Instant::now();
                ctx.down_rotate_in_place(&g, &sched, &res, &mut state, effective)
                    .expect("legal");
                wrap.wrapped_length(&g, Some(&state.retiming), &state.schedule, &res)
                    .expect("rotation states wrap");
                ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            state.schedule = sched
                .schedule(&g, Some(&state.retiming), &res)
                .expect("legal retimings schedule");
        }
    }
    percentiles(&mut ns)
}

/// The batch-throughput corpus: `BATCH_ITEMS` specs over `BATCH_UNIQUE`
/// seeds, so the tail repeats earlier graphs and exercises the
/// deduplication path exactly as a real sweep with repeated cells would.
fn batch_corpus() -> Vec<ProblemSpec> {
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

/// Times `RotationScheduler::solve_batch` over the corpus. Returns
/// per-repetition wall-time percentiles; p99 is the slowest repetition,
/// so `items / p99` is the tail throughput floor.
fn batch_throughput(specs: &[ProblemSpec]) -> StepPercentiles {
    // Untimed warm-up rep.
    let _ = RotationScheduler::solve_batch(specs).expect("corpus solves");
    let mut wall_ns = Vec::with_capacity(BATCH_REPS);
    for _ in 0..BATCH_REPS {
        let start = Instant::now();
        let outcomes = RotationScheduler::solve_batch(specs).expect("corpus solves");
        assert_eq!(outcomes.len(), specs.len());
        wall_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    percentiles(&mut wall_ns)
}

/// Solves per second implied by a per-repetition wall time.
fn solves_per_sec(items: u64, wall_ns: u64) -> f64 {
    items as f64 * 1e9 / wall_ns.max(1) as f64
}

/// Measures the engine's dispatch overhead: a full size-1 rotation
/// phase through [`SearchDriver`] (the monomorphized `NoopObserver`
/// path) against a hand-rolled replica of the pre-engine phase loop
/// driving the same incremental kernel. Returns per-sequence wall-time
/// percentiles `(driver, legacy)`.
fn driver_overhead(graphs: &[(&str, Dfg)]) -> (StepPercentiles, StepPercentiles) {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let random64 = random64();
    let mut driver_ns = Vec::new();
    let mut legacy_ns = Vec::new();
    let subjects = graphs
        .iter()
        .map(|(_, g)| g)
        .chain(std::iter::once(&random64));
    for g in subjects {
        let init = initial_state(g, &sched, &res).expect("schedulable");
        // Warm-up: one untimed sequence per arm.
        run_driver_sequence(g, &sched, &res, &init);
        run_legacy_sequence(g, &sched, &res, &init);
        for _ in 0..STEP_REPS {
            let start = Instant::now();
            run_driver_sequence(g, &sched, &res, &init);
            driver_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let start = Instant::now();
            run_legacy_sequence(g, &sched, &res, &init);
            legacy_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    (percentiles(&mut driver_ns), percentiles(&mut legacy_ns))
}

/// One phase of `STEP_SEQ` size-1 rotations through the engine.
fn run_driver_sequence(
    g: &Dfg,
    sched: &ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut driver = SearchDriver::incremental(g, sched, res);
    driver
        .run_phase(&mut state, &mut best, 1, STEP_SEQ)
        .expect("legal");
}

/// The engine's phase loop, hand-rolled: the same context kernel,
/// halving rule, wrapped-length probe, stats bookkeeping, and best-set
/// offer that `SearchDriver::run_phase` performs — minus the engine's
/// dispatch (step-mode enum, budget polling, observer calls). Kept as
/// the baseline the engine's dispatch is measured against, and it MUST
/// track the engine's hot path: when the engine gains a faster kernel
/// (as the SoA rework did with `down_rotate_in_place` + `WrapScratch`),
/// a stale replica turns the overhead number into a bogus "engine is
/// far faster than the bare loop" reading. The two-sided `--check` band
/// exists to catch exactly that drift.
fn run_legacy_sequence(
    g: &Dfg,
    sched: &ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut ctx = RotationContext::new(g, sched, res, &state).expect("schedulable");
    let mut wrap = WrapScratch::new(g, res).expect("ops bind");
    let mut rotations = 0_usize;
    let mut lengths = Vec::new();
    let mut first_optimum_at = None;
    let mut min_seen = u32::MAX;
    for j in 0..STEP_SEQ {
        let length = state.length(g);
        if length <= 1 {
            break;
        }
        let mut effective = 1_u32;
        while effective >= length {
            effective = effective.div_ceil(2);
        }
        if effective == 0 {
            break;
        }
        ctx.down_rotate_in_place(g, sched, res, &mut state, effective)
            .expect("legal");
        let wrapped = wrap
            .wrapped_length(g, Some(&state.retiming), &state.schedule, res)
            .expect("wraps");
        rotations += 1;
        lengths.push(wrapped);
        if wrapped < min_seen {
            min_seen = wrapped;
            first_optimum_at = Some(j + 1);
        }
        let _ = best.offer(Score::from_length(wrapped), &state);
    }
    // Keep the bookkeeping observable so the optimizer cannot discard
    // the replica's stats work that the real loop also performed.
    std::hint::black_box((rotations, lengths, first_optimum_at));
}

/// Everything the serve arms measure and assert.
struct ServeReport {
    cold: StepPercentiles,
    warm: StepPercentiles,
    /// Solver invocations during warm-hit sampling — must be 0: the
    /// warm path never touches the solver.
    warm_extra_invocations: u64,
    warm_hits: u64,
    /// Solver invocations across the identical burst — must be 1.
    burst_solves: u64,
    /// Burst requests served without solving (coalesced + cache hits).
    burst_followers: u64,
    sustained_rps: f64,
    /// Every response byte-identical to the reference, across fresh
    /// services, warm caches, and concurrent clients.
    deterministic: bool,
}

/// Measures the warm-path serve layer in-process: cold-solve latency
/// over fresh services, warm-hit latency with the solver provably
/// idle, single-flight deduplication under an identical burst, and
/// closed-loop sustained throughput — asserting byte-identical
/// responses throughout.
fn serve_report() -> ServeReport {
    let payloads: Vec<String> = seeded_corpus(SERVE_SEED, SERVE_UNIQUE)
        .into_iter()
        .map(|doc| format!("solve\n{doc}"))
        .collect();
    let mut deterministic = true;

    // Cold solves: a fresh service per repetition, so every request
    // misses. Responses across instances must agree byte-for-byte —
    // this is the "regardless of cache state" half of the determinism
    // contract.
    let mut cold_ns = Vec::with_capacity(SERVE_COLD_REPS * payloads.len());
    let mut reference: Vec<String> = Vec::with_capacity(payloads.len());
    for rep in 0..SERVE_COLD_REPS {
        let service = SolveService::new(ServeConfig::default());
        for (i, payload) in payloads.iter().enumerate() {
            let start = Instant::now();
            let handled = service.handle(payload);
            cold_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let response = handled.response();
            assert!(
                response.contains("\"status\": \"ok\""),
                "serve corpus item {i} did not solve: {response}"
            );
            if rep == 0 {
                reference.push(response.to_owned());
            } else {
                deterministic &= response == reference[i];
            }
        }
        assert_eq!(
            service.counters().solver_invocations,
            payloads.len() as u64,
            "every cold request must invoke the solver exactly once"
        );
    }

    // Warm hits: one service, fully warmed, then a long timed run of
    // pure cache hits. The counters prove the solver never ran.
    let service = SolveService::new(ServeConfig::default());
    for (i, payload) in payloads.iter().enumerate() {
        deterministic &= service.handle(payload).response() == reference[i];
    }
    let warmed = service.counters().solver_invocations;
    let mut warm_ns = Vec::with_capacity(SERVE_WARM_SAMPLES);
    for k in 0..SERVE_WARM_SAMPLES {
        let i = k % payloads.len();
        let start = Instant::now();
        let handled = service.handle(&payloads[i]);
        warm_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        deterministic &= handled.response() == reference[i];
    }
    let after = service.counters();
    let warm_extra_invocations = after.solver_invocations - warmed;
    let warm_hits = after.cache_hits;

    // Coalescing: SERVE_BURST threads fire the identical request at a
    // cold service through a barrier. Exactly one solve; every thread
    // gets the same bytes (followers via the flight, late arrivals via
    // the cache the leader filled before retiring the flight).
    let burst_service = Arc::new(SolveService::new(ServeConfig::default()));
    let burst_payload = Arc::new(payloads[1].clone());
    let barrier = Arc::new(Barrier::new(SERVE_BURST));
    let workers: Vec<_> = (0..SERVE_BURST)
        .map(|_| {
            let service = Arc::clone(&burst_service);
            let payload = Arc::clone(&burst_payload);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.handle(&payload).response().to_owned()
            })
        })
        .collect();
    for worker in workers {
        deterministic &= worker.join().expect("burst worker") == reference[1];
    }
    let burst = burst_service.counters();
    let burst_solves = burst.solver_invocations;
    let burst_followers = burst.coalesced + burst.cache_hits;

    // Sustained closed loop: seeded clients hammering the corpus mix
    // against one service — the "regardless of thread count or arrival
    // order" half of the determinism contract, plus a requests/s
    // number dominated by the warm path, as production traffic is.
    let sustain_service = Arc::new(SolveService::new(ServeConfig::default()));
    let sustain_payloads = Arc::new(payloads);
    let sustain_reference = Arc::new(reference);
    let started = Instant::now();
    let clients: Vec<_> = (0..SERVE_SUSTAIN_THREADS)
        .map(|t| {
            let service = Arc::clone(&sustain_service);
            let payloads = Arc::clone(&sustain_payloads);
            let reference = Arc::clone(&sustain_reference);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(SERVE_SEED ^ (0x5EED + t as u64));
                let mut ok = true;
                for _ in 0..SERVE_SUSTAIN_REQUESTS {
                    let i = rng.index(payloads.len());
                    ok &= service.handle(&payloads[i]).response() == reference[i];
                }
                ok
            })
        })
        .collect();
    for client in clients {
        deterministic &= client.join().expect("sustain client");
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let total = (SERVE_SUSTAIN_THREADS * SERVE_SUSTAIN_REQUESTS) as f64;

    ServeReport {
        cold: percentiles(&mut cold_ns),
        warm: percentiles(&mut warm_ns),
        warm_extra_invocations,
        warm_hits,
        burst_solves,
        burst_followers,
        sustained_rps: total / elapsed,
        deterministic,
    }
}

/// What the fault-overhead arm measures.
struct FaultOverheadReport {
    noop_p50: u64,
    armed_p50: u64,
    /// `(noop - armed) / armed`, in percent. Negative or near zero
    /// when `NoopFaults` is truly free (the armed arm does strictly
    /// more work: rate checks against an all-quiet plan).
    overhead_pct: f64,
    samples: usize,
}

/// Times one call for the fault-overhead comparison.
fn time_one(call: impl FnOnce()) -> u64 {
    let start = Instant::now();
    call();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Measures the cost of threading the fault plane through the serve
/// hot path: interleaved warm-hit sampling of the default
/// (`NoopFaults`, monomorphized no-ops) service against a service
/// armed with [`FaultPlan::quiet`] — every injection point consulted,
/// every rate zero, nothing fires. Interleaving cancels clock and
/// cache drift between the arms.
fn fault_overhead() -> FaultOverheadReport {
    let payloads: Vec<String> = seeded_corpus(SERVE_SEED, SERVE_UNIQUE)
        .into_iter()
        .map(|doc| format!("solve\n{doc}"))
        .collect();
    let noop = SolveService::new(ServeConfig::default());
    let armed = SolveService::with_faults(
        ServeConfig::default(),
        InjectedFaults::new(FaultPlan::quiet(1)),
    );
    // Warm both caches fully, plus one untimed hit lap per arm.
    for payload in &payloads {
        assert_eq!(
            noop.handle(payload).response(),
            armed.handle(payload).response(),
            "a quiet plan must not change response bytes"
        );
    }
    for payload in &payloads {
        let _ = noop.handle(payload);
        let _ = armed.handle(payload);
    }
    let mut noop_ns = Vec::with_capacity(FAULT_OVERHEAD_SAMPLES);
    let mut armed_ns = Vec::with_capacity(FAULT_OVERHEAD_SAMPLES);
    for k in 0..FAULT_OVERHEAD_SAMPLES {
        let payload = &payloads[k % payloads.len()];
        // Alternate which arm goes first: back-to-back calls on the
        // same payload leave the second arm with warmer caches, and a
        // fixed order would bias the comparison toward whichever arm
        // always ran second.
        if k % 2 == 0 {
            noop_ns.push(time_one(|| drop(noop.handle(payload))));
            armed_ns.push(time_one(|| drop(armed.handle(payload))));
        } else {
            armed_ns.push(time_one(|| drop(armed.handle(payload))));
            noop_ns.push(time_one(|| drop(noop.handle(payload))));
        }
    }
    assert_eq!(
        noop.counters().solver_invocations,
        payloads.len() as u64,
        "sampling must stay on the warm path"
    );
    let noop_p50 = percentiles(&mut noop_ns).p50;
    let armed_p50 = percentiles(&mut armed_ns).p50;
    FaultOverheadReport {
        noop_p50,
        armed_p50,
        overhead_pct: (noop_p50 as f64 - armed_p50 as f64) / armed_p50.max(1) as f64 * 100.0,
        samples: FAULT_OVERHEAD_SAMPLES,
    }
}

/// What the objective-overhead arm measures.
struct ObjectiveOverheadReport {
    /// p50 of one rotation sequence against the scalar-`u32` replica.
    scalar_p50: u64,
    /// p50 of the same sequence against the packed-score best set,
    /// scored through the `Objective::Length` dispatch the engine uses.
    packed_p50: u64,
    /// `(packed - scalar) / scalar`, in percent.
    overhead_pct: f64,
    samples: usize,
}

/// A `u32`-keyed replica of the pre-objective best set, for the
/// overhead comparison only: same admission rule, same fingerprint,
/// same cloning discipline — scalar length compare instead of the
/// packed score.
struct ScalarBestSet {
    length: u32,
    schedules: Vec<rotsched_core::RotationState>,
    fingerprints: Vec<u64>,
    capacity: usize,
}

impl ScalarBestSet {
    fn new(capacity: usize) -> Self {
        ScalarBestSet {
            length: u32::MAX,
            schedules: Vec::new(),
            fingerprints: Vec::new(),
            capacity,
        }
    }

    fn fingerprint(state: &rotsched_core::RotationState) -> u64 {
        let mut h = Fnv64::new();
        for (v, cs) in state.schedule.iter() {
            h.write_u32(u32::try_from(v.index()).unwrap_or(u32::MAX));
            h.write_u32(cs);
        }
        h.finish()
    }

    fn offer(&mut self, length: u32, state: &rotsched_core::RotationState) -> bool {
        if length > self.length {
            return false;
        }
        if length < self.length {
            let fp = Self::fingerprint(state);
            self.length = length;
            self.schedules.clear();
            self.fingerprints.clear();
            self.schedules.push(state.clone());
            self.fingerprints.push(fp);
            return true;
        }
        if self.schedules.len() >= self.capacity {
            return false;
        }
        let fp = Self::fingerprint(state);
        let duplicate = self
            .fingerprints
            .iter()
            .zip(&self.schedules)
            .any(|(&f, s)| f == fp && s.schedule == state.schedule);
        if !duplicate {
            self.schedules.push(state.clone());
            self.fingerprints.push(fp);
        }
        false
    }
}

/// The scalar arm: the legacy loop tracking its best with plain `u32`
/// lengths, exactly as the engine did before the objective core.
fn run_scalar_sequence(
    g: &Dfg,
    sched: &ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
) {
    let mut state = init.clone();
    let mut best = ScalarBestSet::new(4);
    let mut ctx = RotationContext::new(g, sched, res, &state).expect("schedulable");
    let mut wrap = WrapScratch::new(g, res).expect("ops bind");
    for _ in 0..STEP_SEQ {
        let length = state.length(g);
        if length <= 1 {
            break;
        }
        let mut effective = 1_u32;
        while effective >= length {
            effective = effective.div_ceil(2);
        }
        if effective == 0 {
            break;
        }
        ctx.down_rotate_in_place(g, sched, res, &mut state, effective)
            .expect("legal");
        let wrapped = wrap
            .wrapped_length(g, Some(&state.retiming), &state.schedule, res)
            .expect("wraps");
        let _ = best.offer(wrapped, &state);
    }
    std::hint::black_box((best.length, best.schedules.len()));
}

/// The packed arm: the identical loop, but scoring through the
/// `Objective::Length` dispatch and the packed best set — the exact
/// representation the engine's default path runs today.
fn run_packed_sequence(
    g: &Dfg,
    sched: &ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut ctx = RotationContext::new(g, sched, res, &state).expect("schedulable");
    let mut wrap = WrapScratch::new(g, res).expect("ops bind");
    for _ in 0..STEP_SEQ {
        let length = state.length(g);
        if length <= 1 {
            break;
        }
        let mut effective = 1_u32;
        while effective >= length {
            effective = effective.div_ceil(2);
        }
        if effective == 0 {
            break;
        }
        ctx.down_rotate_in_place(g, sched, res, &mut state, effective)
            .expect("legal");
        let wrapped = wrap
            .wrapped_length(g, Some(&state.retiming), &state.schedule, res)
            .expect("wraps");
        let score = Objective::Length.score(g, &state.retiming, wrapped);
        let _ = best.offer(score, &state);
    }
    std::hint::black_box((best.length(), best.count()));
}

/// Measures what the pluggable objective core costs the default
/// length-only path: interleaved timing of identical rotation
/// sequences against the scalar-`u32` replica of the pre-objective
/// best set vs the packed-score best set behind the `Objective`
/// dispatch. Interleaving cancels clock and cache drift between arms.
fn objective_overhead(graphs: &[(&str, Dfg)]) -> ObjectiveOverheadReport {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let subjects: Vec<(&Dfg, rotsched_core::RotationState)> = graphs
        .iter()
        .map(|(_, g)| (g, initial_state(g, &sched, &res).expect("schedulable")))
        .collect();
    // Warm-up: one untimed sequence per arm per subject.
    for (g, init) in &subjects {
        run_scalar_sequence(g, &sched, &res, init);
        run_packed_sequence(g, &sched, &res, init);
    }
    let mut scalar_ns = Vec::with_capacity(OBJECTIVE_OVERHEAD_SAMPLES);
    let mut packed_ns = Vec::with_capacity(OBJECTIVE_OVERHEAD_SAMPLES);
    for k in 0..OBJECTIVE_OVERHEAD_SAMPLES {
        let (g, init) = &subjects[k % subjects.len()];
        // Alternate which arm goes first so neither always runs with
        // the warmer caches the first arm leaves behind.
        if k % 2 == 0 {
            scalar_ns.push(time_one(|| run_scalar_sequence(g, &sched, &res, init)));
            packed_ns.push(time_one(|| run_packed_sequence(g, &sched, &res, init)));
        } else {
            packed_ns.push(time_one(|| run_packed_sequence(g, &sched, &res, init)));
            scalar_ns.push(time_one(|| run_scalar_sequence(g, &sched, &res, init)));
        }
    }
    let scalar_p50 = percentiles(&mut scalar_ns).p50;
    let packed_p50 = percentiles(&mut packed_ns).p50;
    ObjectiveOverheadReport {
        scalar_p50,
        packed_p50,
        overhead_pct: (packed_p50 as f64 - scalar_p50 as f64) / scalar_p50.max(1) as f64 * 100.0,
        samples: OBJECTIVE_OVERHEAD_SAMPLES,
    }
}

/// What the static-analysis arm measures.
struct AnalyzeArmReport {
    /// Full-analysis latency over the 64-node suite.
    suite: StepPercentiles,
    /// Full-analysis latency on the single large graph.
    large: StepPercentiles,
    /// Every repetition rendered byte-identical JSON.
    byte_stable: bool,
}

/// Times one full schedule-mode analysis — all four registered passes
/// plus the lint sweep — against `graphs` of `nodes` nodes each, and
/// byte-compares every repetition's JSON rendering against the first.
/// The schedule view comes from the list scheduler's initial schedule,
/// so the saturation and register-pressure passes run in their
/// schedule-aware mode (static-only analysis does strictly less work).
fn analyze_percentiles(nodes: usize, graphs: u64, byte_stable: &mut bool) -> StepPercentiles {
    use rotsched_sched::{verify_spec, verify_starts};
    use rotsched_verify::{analyze, ScheduleView};
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let spec = verify_spec(&res);
    let sched = ListScheduler::default();
    // The large gate graph keeps the 64-node suite's per-node degree.
    let config = RandomDfgConfig::degree_scaled(nodes, ANALYZE_SUITE_NODES);
    let mut ns = Vec::with_capacity(graphs as usize * ANALYZE_REPS);
    for seed in 0..graphs {
        let g = random_dfg(&config, seed);
        let state = initial_state(&g, &sched, &res).expect("schedulable");
        let starts = verify_starts(&g, &state.schedule);
        let view = ScheduleView {
            starts: &starts,
            retiming: &state.retiming,
            kernel_length: state.length(&g),
        };
        // Untimed warm-up rep doubles as the byte-stability reference.
        let reference = analyze(&g, &spec, Some(&view)).render_json(&g);
        for _ in 0..ANALYZE_REPS {
            let start = Instant::now();
            let report = analyze(&g, &spec, Some(&view));
            ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            *byte_stable &= report.render_json(&g) == reference;
        }
    }
    percentiles(&mut ns)
}

/// Measures the static-analysis framework: per-run latency over the
/// 64-node suite and over the single 256-node gate graph. The solve
/// path itself pays nothing for any of this — analysis runs only
/// behind `--analyze` (`opts.analyze.then(..)` in the CLI), which the
/// sweep fingerprints above would expose if it ever changed.
fn analyze_arm() -> AnalyzeArmReport {
    let mut byte_stable = true;
    let suite = analyze_percentiles(ANALYZE_SUITE_NODES, ANALYZE_SUITE_GRAPHS, &mut byte_stable);
    let large = analyze_percentiles(ANALYZE_LARGE_NODES, 1, &mut byte_stable);
    AnalyzeArmReport {
        suite,
        large,
        byte_stable,
    }
}

/// The twelve graphs of the e2e `analyze-256` workload: 80 to 256
/// nodes in steps of 16 at a 64-node graph's per-node degree, drawn
/// from the workload's pool seed exactly as it draws them (each graph's
/// seed is followed by the three draws of its resource allocation).
fn analyze256_graphs() -> Vec<Dfg> {
    let mut rng = SplitMix64::new(ANALYZE256_POOL_SEED);
    (5..=16)
        .map(|k| {
            let g = random_dfg(&RandomDfgConfig::degree_scaled(16 * k, 64), rng.next_u64());
            let _allocation = (rng.range_u32(0, 1), rng.range_u32(0, 1), rng.chance(0.25));
            g
        })
        .collect()
}

/// One bound's latency in the `bounds` arm.
struct BoundLatency {
    /// Over every graph.
    all: StepPercentiles,
    /// On the largest graph alone.
    large: StepPercentiles,
}

/// The `bounds` arm: both cycle-ratio bounds timed on the same graphs.
struct BoundsReport {
    graphs: usize,
    min_nodes: usize,
    max_nodes: usize,
    /// `dfg::analysis::iteration_bound`, as every solve's lower bound
    /// runs it.
    dfg: BoundLatency,
    /// `verify::recurrence_bound`, as every certificate runs it.
    verify: BoundLatency,
    /// The dfg search's deterministic work over one pass of the graphs.
    dfg_work: RatioWork,
}

/// A [`BoundsReport`] recorded before a change: `(p50, p99, large p50)`
/// per bound, in ns.
struct BoundsBefore {
    dfg: (u64, u64, u64),
    verify: (u64, u64, u64),
}

/// Times `dfg::analysis::iteration_bound` and `verify::recurrence_bound`
/// `BOUNDS_REPS` times each on every graph, alternating the two so
/// machine noise hits both alike. `graphs` must be sorted by size; the
/// last one is the `large` graph.
fn bounds_arm(graphs: &[Dfg]) -> BoundsReport {
    use rotsched_dfg::analysis::{iteration_bound, max_cycle_ratio_counted};
    use rotsched_verify::recurrence_bound;
    let mut dfg_ns = Vec::with_capacity(graphs.len() * BOUNDS_REPS);
    let mut verify_ns = Vec::with_capacity(graphs.len() * BOUNDS_REPS);
    let (mut dfg_large, mut verify_large) = (Vec::new(), Vec::new());
    let mut dfg_work = RatioWork::default();
    for (i, g) in graphs.iter().enumerate() {
        max_cycle_ratio_counted(g, &mut dfg_work).expect("valid graph");
        // One untimed call of each warms the allocator for this size.
        let _ = std::hint::black_box((iteration_bound(g), recurrence_bound(g)));
        for _ in 0..BOUNDS_REPS {
            let a = time_one(|| {
                std::hint::black_box(iteration_bound(g).ok());
            });
            let b = time_one(|| {
                std::hint::black_box(recurrence_bound(g));
            });
            dfg_ns.push(a);
            verify_ns.push(b);
            if i + 1 == graphs.len() {
                dfg_large.push(a);
                verify_large.push(b);
            }
        }
    }
    BoundsReport {
        graphs: graphs.len(),
        min_nodes: graphs.iter().map(Dfg::node_count).min().unwrap_or(0),
        max_nodes: graphs.iter().map(Dfg::node_count).max().unwrap_or(0),
        dfg: BoundLatency {
            all: percentiles(&mut dfg_ns),
            large: percentiles(&mut dfg_large),
        },
        verify: BoundLatency {
            all: percentiles(&mut verify_ns),
            large: percentiles(&mut verify_large),
        },
        dfg_work,
    }
}

/// Anytime-degradation mode: incumbent best length as a function of the
/// rotation budget, per benchmark. Rotation budgets stop the search at
/// exact down-rotation counts, so this table is fully deterministic and
/// directly reproducible.
///
/// One traced, unlimited run per benchmark replays the whole budget
/// column: `TaskTrace::best_at_rotation(k)` is exactly the best length
/// a fresh solve under `Budget::with_max_rotations(k)` returns (the
/// `trace_determinism` suite enforces the equality).
fn degradation_report(graphs: &[(&str, Dfg)]) {
    let res = ResourceSet::adders_multipliers(2, 1, false);
    let sched = ListScheduler::default();
    let config = HeuristicConfig {
        rotations_per_phase: 32,
        max_size: None,
        keep_best: 16,
        rounds: 1,
    };
    println!("anytime degradation (Heuristic 2, {}):\n", res.label());
    println!("| benchmark | budget (rotations) | best length |");
    println!("|---|---|---|");
    for (name, g) in graphs {
        // Capacity 0: the trajectory lives outside the event ring, so
        // the recorder stays allocation-light while staying exact.
        let mut driver =
            SearchDriver::incremental(g, &sched, &res).with_observer(TraceRecorder::new(0));
        let full = driver.heuristic2(&config).expect("schedulable");
        let trace = driver.observer.finish();
        // Powers of two up to the unlimited run's rotation count, plus
        // the exact endpoint.
        let mut budgets = vec![0_usize];
        let mut k = 1;
        while k < full.total_rotations {
            budgets.push(k);
            k *= 2;
        }
        budgets.push(full.total_rotations);
        for k in budgets {
            let best = trace
                .best_at_rotation(k as u64)
                .expect("the initial schedule is always admitted");
            let mark = if best == full.best_length {
                " (converged)"
            } else {
                ""
            };
            println!("| {name} | {k} | {best}{mark} |");
        }
    }
    println!("\nbudgets are exact down-rotation counts; every row is deterministic");
}

/// Smoke mode: one sequential sweep compared against a checked-in
/// baseline. Returns the process exit code.
fn check_against_baseline(graphs: &[(&str, Dfg)], baseline_path: &str) -> i32 {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    let rows = sweep(graphs, 1);
    let fingerprint = rows_fingerprint(&rows);
    let mut failures = 0_u32;

    match extract_hex_field(&baseline, "rows_fingerprint") {
        Some(expected) if expected == fingerprint => {
            println!("rows fingerprint: {fingerprint:#018x} (matches baseline)");
        }
        Some(expected) => {
            eprintln!("FAIL: rows fingerprint {fingerprint:#018x} != baseline {expected:#018x}");
            failures += 1;
        }
        None => {
            eprintln!("FAIL: baseline has no rows_fingerprint field");
            failures += 1;
        }
    }

    match extract_u32_array(&baseline, "schedule_lengths") {
        Some(expected) if expected.len() == rows.len() => {
            for (i, ((_, rs), want)) in rows.iter().zip(&expected).enumerate() {
                if rs > want {
                    eprintln!(
                        "FAIL: cell {i} ({}, {}): schedule length {rs} regressed past \
                         baseline {want}",
                        TABLE_3[i].benchmark, TABLE_3[i].adders
                    );
                    failures += 1;
                }
            }
            if failures == 0 {
                println!(
                    "schedule lengths: all {} cells at or below baseline",
                    rows.len()
                );
            }
        }
        Some(expected) => {
            eprintln!(
                "FAIL: baseline has {} schedule lengths, sweep produced {}",
                expected.len(),
                rows.len()
            );
            failures += 1;
        }
        None => {
            eprintln!("FAIL: baseline has no schedule_lengths field");
            failures += 1;
        }
    }

    // Latency-shape gate: a steady-state SoA rotation step must keep
    // its tail bounded — a p99 blowing past 10x the median means a
    // hidden slow path (reallocation, cache rebuild) crept back into
    // the hot loop even if medians look fine.
    let soa = soa_steady_percentiles();
    let ratio = soa.p99 / soa.p50.max(1);
    if ratio > STEP_TAIL_RATIO {
        eprintln!(
            "FAIL: soa step p99 {} ns is {ratio}x its p50 {} ns (limit {STEP_TAIL_RATIO}x)",
            soa.p99, soa.p50
        );
        failures += 1;
    } else {
        println!(
            "soa step tail: p99 {} ns within {STEP_TAIL_RATIO}x of p50 {} ns",
            soa.p99, soa.p50
        );
    }

    // The same tail gate on full driver steps over the dense graph,
    // where memo misses, crowded placements and wrapped tails live.
    let dense = dense_step_percentiles();
    let ratio = dense.p99 / dense.p50.max(1);
    if ratio > STEP_TAIL_RATIO {
        eprintln!(
            "FAIL: dense step p99 {} ns is {ratio}x its p50 {} ns (limit {STEP_TAIL_RATIO}x)",
            dense.p99, dense.p50
        );
        failures += 1;
    } else {
        println!(
            "dense step tail: p99 {} ns within {STEP_TAIL_RATIO}x of p50 {} ns",
            dense.p99, dense.p50
        );
    }

    // Batch-throughput floor: measured p50 must stay within a generous
    // divisor of the baseline's recorded rate. Catches order-of-
    // magnitude regressions in the batch core without tripping on
    // machine-to-machine variance.
    let batch = batch_throughput(&batch_corpus());
    let measured_sps = solves_per_sec(BATCH_ITEMS, batch.p50);
    match extract_f64_field(&baseline, "solves_per_sec_p50") {
        Some(recorded) if measured_sps >= recorded / BATCH_THROUGHPUT_DIVISOR => {
            println!(
                "batch throughput: {measured_sps:.0} solves/s at p50 \
                 (baseline {recorded:.0}, floor /{BATCH_THROUGHPUT_DIVISOR})"
            );
        }
        Some(recorded) => {
            eprintln!(
                "FAIL: batch throughput {measured_sps:.0} solves/s fell below \
                 baseline {recorded:.0} / {BATCH_THROUGHPUT_DIVISOR}"
            );
            failures += 1;
        }
        None => {
            eprintln!("FAIL: baseline has no solves_per_sec_p50 field");
            failures += 1;
        }
    }

    // Driver-overhead band, two-sided and applied to both the fresh
    // measurement and the baseline's recorded number. Large positive
    // means the engine's dispatch got expensive; large negative (the
    // PR-6 drift: a recorded -43% against a real -2.65%) means the
    // hand-rolled replica went stale against the engine's hot path —
    // either way the overhead reading is fiction and must fail.
    let (driver, legacy) = driver_overhead(graphs);
    let measured_pct = (driver.p50 as f64 - legacy.p50 as f64) / legacy.p50.max(1) as f64 * 100.0;
    if measured_pct.abs() > DRIVER_OVERHEAD_BAND_PCT {
        eprintln!(
            "FAIL: driver overhead {measured_pct:+.2}% outside \
             ±{DRIVER_OVERHEAD_BAND_PCT}% (replica and engine hot paths diverged)"
        );
        failures += 1;
    } else {
        println!("driver overhead: {measured_pct:+.2}% within ±{DRIVER_OVERHEAD_BAND_PCT}%");
    }
    match extract_f64_field(&baseline, "overhead_pct") {
        Some(recorded) if recorded.abs() <= DRIVER_OVERHEAD_BAND_PCT => {
            println!(
                "baseline driver overhead: {recorded:+.2}% within \
                 ±{DRIVER_OVERHEAD_BAND_PCT}%"
            );
        }
        Some(recorded) => {
            eprintln!(
                "FAIL: baseline records driver overhead {recorded:+.2}% outside \
                 ±{DRIVER_OVERHEAD_BAND_PCT}% — stale baseline, regenerate it"
            );
            failures += 1;
        }
        None => {
            eprintln!("FAIL: baseline has no overhead_pct field");
            failures += 1;
        }
    }

    // Serve gates: the warm path must actually be warm (no solver, a
    // real multiple faster than solving), an identical burst must
    // collapse to one solve, and every response must be byte-stable.
    let serve = serve_report();
    let speedup = serve.cold.p50 / serve.warm.p50.max(1);
    if speedup < SERVE_WARM_SPEEDUP_FLOOR {
        eprintln!(
            "FAIL: serve warm hit p50 {} ns is only {speedup}x faster than cold \
             p50 {} ns (floor {SERVE_WARM_SPEEDUP_FLOOR}x)",
            serve.warm.p50, serve.cold.p50
        );
        failures += 1;
    } else {
        println!("serve warm speedup: {speedup}x at p50 (floor {SERVE_WARM_SPEEDUP_FLOOR}x)");
    }
    if serve.warm_extra_invocations != 0 {
        eprintln!(
            "FAIL: {} solver invocation(s) during warm-hit sampling — the warm \
             path must never solve",
            serve.warm_extra_invocations
        );
        failures += 1;
    } else {
        println!(
            "serve warm path: 0 solver invocations across {} hits",
            serve.warm.samples
        );
    }
    if serve.burst_solves == 1 {
        println!(
            "serve coalescing: {SERVE_BURST} identical requests -> 1 solve, \
             {} followers",
            serve.burst_followers
        );
    } else {
        eprintln!(
            "FAIL: {SERVE_BURST} identical concurrent requests took {} solves \
             (single-flight must collapse them to 1)",
            serve.burst_solves
        );
        failures += 1;
    }
    if serve.deterministic {
        println!("serve determinism: byte-identical responses across services and threads");
    } else {
        eprintln!("FAIL: serve responses diverged across cache states or threads");
        failures += 1;
    }

    // Fault-plane gate, one-sided: the default NoopFaults warm path
    // may not cost more than the limit over a quiet-armed service
    // (which does strictly more work). Applied to the fresh
    // measurement AND the baseline's recorded number, so a stale
    // baseline can't hide a regression.
    let fault = fault_overhead();
    if fault.overhead_pct <= FAULT_OVERHEAD_LIMIT_PCT {
        println!(
            "fault-plane overhead: {:+.2}% within {FAULT_OVERHEAD_LIMIT_PCT}% \
             (noop p50 {} ns, quiet-armed p50 {} ns)",
            fault.overhead_pct, fault.noop_p50, fault.armed_p50
        );
    } else {
        eprintln!(
            "FAIL: NoopFaults warm path is {:+.2}% slower than a quiet-armed \
             service (limit {FAULT_OVERHEAD_LIMIT_PCT}%) — the zero-cost default broke",
            fault.overhead_pct
        );
        failures += 1;
    }
    match extract_f64_field(&baseline, "fault_overhead_pct") {
        Some(recorded) if recorded <= FAULT_OVERHEAD_LIMIT_PCT => {
            println!(
                "baseline fault-plane overhead: {recorded:+.2}% within \
                 {FAULT_OVERHEAD_LIMIT_PCT}%"
            );
        }
        Some(recorded) => {
            eprintln!(
                "FAIL: baseline records fault-plane overhead {recorded:+.2}% past \
                 {FAULT_OVERHEAD_LIMIT_PCT}% — stale baseline, regenerate it"
            );
            failures += 1;
        }
        None => {
            eprintln!("FAIL: baseline has no fault_overhead_pct field");
            failures += 1;
        }
    }

    // Objective-core gate, one-sided like the fault plane's: the
    // packed-score default path may not cost more than the limit over
    // the scalar-`u32` replica of the pre-objective best set. Applied
    // to the fresh measurement AND the baseline's recorded number.
    let objective = objective_overhead(graphs);
    if objective.overhead_pct <= OBJECTIVE_OVERHEAD_LIMIT_PCT {
        println!(
            "objective-core overhead: {:+.2}% within {OBJECTIVE_OVERHEAD_LIMIT_PCT}% \
             (scalar p50 {} ns, packed p50 {} ns)",
            objective.overhead_pct, objective.scalar_p50, objective.packed_p50
        );
    } else {
        eprintln!(
            "FAIL: the packed-score default path is {:+.2}% slower than the scalar \
             replica (limit {OBJECTIVE_OVERHEAD_LIMIT_PCT}%) — the zero-cost objective broke",
            objective.overhead_pct
        );
        failures += 1;
    }
    match extract_f64_field(&baseline, "objective_overhead_pct") {
        Some(recorded) if recorded <= OBJECTIVE_OVERHEAD_LIMIT_PCT => {
            println!(
                "baseline objective-core overhead: {recorded:+.2}% within \
                 {OBJECTIVE_OVERHEAD_LIMIT_PCT}%"
            );
        }
        Some(recorded) => {
            eprintln!(
                "FAIL: baseline records objective-core overhead {recorded:+.2}% past \
                 {OBJECTIVE_OVERHEAD_LIMIT_PCT}% — stale baseline, regenerate it"
            );
            failures += 1;
        }
        None => {
            eprintln!("FAIL: baseline has no objective_overhead_pct field");
            failures += 1;
        }
    }

    // Analysis gates: one full schedule-mode analysis of the 256-node
    // graph must stay under its latency budget, and every repetition
    // must render byte-identical JSON. The solve path itself is gated
    // separately (fingerprint + lengths above): analysis runs only
    // behind `--analyze`, so those gates would expose any cost leaking
    // into a plain solve.
    let analyze = analyze_arm();
    if analyze.large.p50 <= ANALYZE_LARGE_LIMIT_NS {
        println!(
            "analysis latency: {ANALYZE_LARGE_NODES}-node full analysis p50 {} ns \
             within {ANALYZE_LARGE_LIMIT_NS} ns (suite p50 {} ns, p99 {} ns)",
            analyze.large.p50, analyze.suite.p50, analyze.suite.p99
        );
    } else {
        eprintln!(
            "FAIL: {ANALYZE_LARGE_NODES}-node full analysis p50 {} ns over the \
             {ANALYZE_LARGE_LIMIT_NS} ns budget",
            analyze.large.p50
        );
        failures += 1;
    }
    if analyze.byte_stable {
        println!(
            "analysis determinism: byte-identical reports across {} runs",
            analyze.suite.samples + analyze.large.samples
        );
    } else {
        eprintln!("FAIL: analysis reports diverged between repetitions");
        failures += 1;
    }

    // Bound gates: each cycle-ratio bound of the 256-node graph under
    // its budget at p50 — the full-sweep probes they replaced read 7.6x
    // and 3.8x over it.
    let graphs = analyze256_graphs();
    let bounds = bounds_arm(&graphs[graphs.len() - 1..]);
    for (name, latency) in [
        ("dfg iteration bound", &bounds.dfg),
        ("verify recurrence bound", &bounds.verify),
    ] {
        let p50 = latency.large.p50;
        if p50 <= BOUNDS_LARGE_LIMIT_NS {
            println!(
                "{name}: {ANALYZE_LARGE_NODES}-node p50 {p50} ns within \
                 {BOUNDS_LARGE_LIMIT_NS} ns"
            );
        } else {
            eprintln!(
                "FAIL: {name}: {ANALYZE_LARGE_NODES}-node p50 {p50} ns over the \
                 {BOUNDS_LARGE_LIMIT_NS} ns budget"
            );
            failures += 1;
        }
    }

    if failures == 0 {
        println!("check passed");
        0
    } else {
        eprintln!("check failed with {failures} regression(s)");
        1
    }
}

/// Certification mode: solve every Table-3 cell and have the
/// independent verifier re-prove each winning kernel — and the
/// solver's own quality verdict — legal. This is what stands between
/// "the perf numbers regressed nowhere" and "the perf numbers are
/// backed by schedules that are actually correct".
fn certify_sweep(graphs: &[(&str, Dfg)]) -> i32 {
    use rotsched_core::SolveQuality;
    use rotsched_sched::{verify_spec, verify_starts};
    use rotsched_verify::{certify_claim, Claim};

    let mut failures = 0_u32;
    for row in TABLE_3 {
        let g = &graphs
            .iter()
            .find(|(name, _)| *name == row.benchmark)
            .expect("benchmark exists")
            .1;
        let resources = ResourceSet::adders_multipliers(row.adders, row.multipliers, row.pipelined);
        let scheduler = RotationScheduler::new(g, resources.clone());
        let solved = scheduler.solve().expect("benchmark solves");
        let kernel = scheduler
            .loop_schedule(&solved.state)
            .expect("winner expands");
        let spec = verify_spec(&resources);
        let starts = verify_starts(g, kernel.schedule());
        let claim = Claim {
            kernel_length: kernel.kernel_length(),
            depth: Some(kernel.retiming().depth()),
            optimal: matches!(solved.quality, SolveQuality::Optimal),
            registers: Some(rotsched_core::objective::static_registers(
                g,
                kernel.retiming(),
            )),
            code_size: Some(rotsched_core::objective::code_size(g, kernel.retiming())),
        };
        match certify_claim(g, &spec, Some(kernel.retiming()), &starts, &claim) {
            Ok(cert) => println!(
                "  ok  {:<24} {:<6} {}",
                row.benchmark,
                resources.label(),
                cert.summary()
            ),
            Err(bad) => {
                failures += 1;
                eprintln!(
                    "FAIL {:<24} {:<6} rejected by the verifier:",
                    row.benchmark,
                    resources.label()
                );
                for d in &bad {
                    eprintln!("       {}", d.render_text(g));
                }
            }
        }
    }
    if failures == 0 {
        println!("certified: all {} Table-3 cells", TABLE_3.len());
        0
    } else {
        eprintln!("certification failed on {failures} cell(s)");
        1
    }
}

/// Pulls `"name": "0x..."` out of a baseline report without a JSON
/// parser (the workspace is dependency-free).
fn extract_hex_field(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\": \"0x");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let end = rest.find('"')?;
    u64::from_str_radix(&rest[..end], 16).ok()
}

/// Pulls a bare numeric `"name": -2.65` (or integer) field out of a
/// baseline report.
fn extract_f64_field(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": ");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"name": [1, 2, ...]` out of a baseline report.
fn extract_u32_array(json: &str, name: &str) -> Option<Vec<u32>> {
    let key = format!("\"{name}\": [");
    let start = json.find(&key)? + key.len();
    let rest = &json[start..];
    let end = rest.find(']')?;
    rest[..end]
        .split(',')
        .map(|s| s.trim().parse::<u32>().ok())
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    hardware: usize,
    cells: usize,
    reps: usize,
    results: &[(usize, usize, u64, u64, u64)],
    seq_median: u64,
    deterministic: bool,
    lengths: &[u32],
    soa: &StepPercentiles,
    dense: &StepPercentiles,
    ctx: &StepPercentiles,
    scratch: &StepPercentiles,
    batch: &StepPercentiles,
    driver: &StepPercentiles,
    legacy: &StepPercentiles,
    serve: &ServeReport,
    fault: &FaultOverheadReport,
    objective: &ObjectiveOverheadReport,
    analyze: &AnalyzeArmReport,
    bounds: &BoundsReport,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"table3_sweep\",\n");
    s.push_str(&format!("  \"hardware_threads\": {hardware},\n"));
    s.push_str(&format!("  \"cells\": {cells},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!(
        "  \"deterministic_across_jobs\": {deterministic},\n"
    ));
    let lengths_csv = lengths
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    s.push_str(&format!("  \"schedule_lengths\": [{lengths_csv}],\n"));
    s.push_str("  \"rotation_step_ns\": {\n");
    for (label, p) in [
        ("soa", soa),
        ("dense", dense),
        ("context", ctx),
        ("scratch", scratch),
    ] {
        s.push_str(&format!(
            "    \"{label}\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"samples\": {}}},\n",
            p.p50, p.p90, p.p99, p.samples
        ));
    }
    s.push_str(&format!(
        "    \"speedup_p50\": {:.2},\n",
        scratch.p50 as f64 / ctx.p50.max(1) as f64
    ));
    s.push_str(&format!(
        "    \"soa_speedup_p50_vs_context\": {:.2},\n",
        ctx.p50 as f64 / soa.p50.max(1) as f64
    ));
    s.push_str(&format!(
        "    \"soa_tail_p99_over_p50\": {:.2},\n",
        soa.p99 as f64 / soa.p50.max(1) as f64
    ));
    s.push_str(&format!(
        "    \"dense_before\": {{\"p50\": {DENSE_BEFORE_P50_NS}, \"p99\": {DENSE_BEFORE_P99_NS}}},\n"
    ));
    s.push_str(&format!(
        "    \"dense_speedup_p50\": {:.2},\n",
        DENSE_BEFORE_P50_NS as f64 / dense.p50.max(1) as f64
    ));
    s.push_str(&format!(
        "    \"dense_tail_p99_over_p50\": {:.2}\n",
        dense.p99 as f64 / dense.p50.max(1) as f64
    ));
    s.push_str("  },\n");
    s.push_str("  \"batch_throughput\": {\n");
    s.push_str(&format!(
        "    \"items\": {BATCH_ITEMS}, \"unique\": {BATCH_UNIQUE}, \"reps\": {BATCH_REPS},\n"
    ));
    s.push_str(&format!(
        "    \"wall_ns_p50\": {}, \"wall_ns_p99\": {},\n",
        batch.p50, batch.p99
    ));
    s.push_str(&format!(
        "    \"solves_per_sec_p50\": {:.0}, \"solves_per_sec_p99\": {:.0}\n",
        solves_per_sec(BATCH_ITEMS, batch.p50),
        solves_per_sec(BATCH_ITEMS, batch.p99)
    ));
    s.push_str("  },\n");
    s.push_str("  \"driver_overhead\": {\n");
    s.push_str(&format!(
        "    \"driver_seq_ns_p50\": {}, \"legacy_seq_ns_p50\": {}, \"samples\": {},\n",
        driver.p50, legacy.p50, driver.samples
    ));
    s.push_str(&format!(
        "    \"overhead_pct\": {:.2}\n",
        (driver.p50 as f64 - legacy.p50 as f64) / legacy.p50.max(1) as f64 * 100.0
    ));
    s.push_str("  },\n");
    s.push_str("  \"serve\": {\n");
    s.push_str(&format!(
        "    \"unique\": {SERVE_UNIQUE}, \"seed\": {SERVE_SEED},\n"
    ));
    s.push_str(&format!(
        "    \"cold_solve_ns_p50\": {}, \"cold_solve_ns_p99\": {},\n",
        serve.cold.p50, serve.cold.p99
    ));
    s.push_str(&format!(
        "    \"warm_hit_ns_p50\": {}, \"warm_hit_ns_p99\": {}, \"warm_samples\": {},\n",
        serve.warm.p50, serve.warm.p99, serve.warm.samples
    ));
    s.push_str(&format!(
        "    \"warm_speedup_p50\": {:.1}, \"warm_extra_invocations\": {}, \
         \"warm_hits\": {},\n",
        serve.cold.p50 as f64 / serve.warm.p50.max(1) as f64,
        serve.warm_extra_invocations,
        serve.warm_hits
    ));
    s.push_str(&format!(
        "    \"coalescing\": {{\"burst\": {SERVE_BURST}, \"solves\": {}, \
         \"followers\": {}, \"dedup_ratio\": {:.2}}},\n",
        serve.burst_solves,
        serve.burst_followers,
        SERVE_BURST as f64 / serve.burst_solves.max(1) as f64
    ));
    s.push_str(&format!(
        "    \"sustained\": {{\"threads\": {SERVE_SUSTAIN_THREADS}, \
         \"requests\": {}, \"requests_per_sec\": {:.0}}},\n",
        SERVE_SUSTAIN_THREADS * SERVE_SUSTAIN_REQUESTS,
        serve.sustained_rps
    ));
    s.push_str(&format!("    \"deterministic\": {}\n", serve.deterministic));
    s.push_str("  },\n");
    s.push_str("  \"fault_overhead\": {\n");
    s.push_str(&format!(
        "    \"noop_warm_ns_p50\": {}, \"armed_quiet_warm_ns_p50\": {}, \
         \"samples\": {},\n",
        fault.noop_p50, fault.armed_p50, fault.samples
    ));
    s.push_str(&format!(
        "    \"fault_overhead_pct\": {:.2}, \"limit_pct\": {FAULT_OVERHEAD_LIMIT_PCT}\n",
        fault.overhead_pct
    ));
    s.push_str("  },\n");
    s.push_str("  \"objective_overhead\": {\n");
    s.push_str(&format!(
        "    \"scalar_seq_ns_p50\": {}, \"packed_seq_ns_p50\": {}, \"samples\": {},\n",
        objective.scalar_p50, objective.packed_p50, objective.samples
    ));
    s.push_str(&format!(
        "    \"objective_overhead_pct\": {:.2}, \"limit_pct\": {OBJECTIVE_OVERHEAD_LIMIT_PCT}\n",
        objective.overhead_pct
    ));
    s.push_str("  },\n");
    s.push_str("  \"analyze\": {\n");
    s.push_str(&format!(
        "    \"suite_nodes\": {ANALYZE_SUITE_NODES}, \"suite_graphs\": {ANALYZE_SUITE_GRAPHS},\n"
    ));
    s.push_str(&format!(
        "    \"suite_ns_p50\": {}, \"suite_ns_p90\": {}, \"suite_ns_p99\": {}, \
         \"suite_samples\": {},\n",
        analyze.suite.p50, analyze.suite.p90, analyze.suite.p99, analyze.suite.samples
    ));
    s.push_str(&format!(
        "    \"large_nodes\": {ANALYZE_LARGE_NODES}, \"large_ns_p50\": {}, \
         \"large_limit_ns\": {ANALYZE_LARGE_LIMIT_NS},\n",
        analyze.large.p50
    ));
    s.push_str(&format!("    \"byte_stable\": {}\n", analyze.byte_stable));
    s.push_str("  },\n");
    s.push_str("  \"bounds\": {\n");
    s.push_str(&format!(
        "    \"graphs\": {}, \"min_nodes\": {}, \"max_nodes\": {}, \"reps\": {BOUNDS_REPS},\n",
        bounds.graphs, bounds.min_nodes, bounds.max_nodes
    ));
    for (label, b) in [
        ("dfg_iteration_bound", &bounds.dfg),
        ("verify_recurrence_bound", &bounds.verify),
    ] {
        s.push_str(&format!(
            "    \"{label}\": {{\"p50\": {}, \"p99\": {}, \"samples\": {}, \"large_p50\": {}}},\n",
            b.all.p50, b.all.p99, b.all.samples, b.large.p50
        ));
    }
    s.push_str(&format!(
        "    \"dfg_probes\": {}, \"dfg_rounds\": {},\n",
        bounds.dfg_work.probes, bounds.dfg_work.rounds
    ));
    s.push_str(&format!(
        "    \"large_nodes\": {}, \"large_limit_ns\": {BOUNDS_LARGE_LIMIT_NS}\n",
        bounds.max_nodes
    ));
    s.push_str("  },\n");
    s.push_str("  \"bounds_before\": {\n");
    for (label, (p50, p99, large), comma) in [
        ("dfg_iteration_bound", BOUNDS_BEFORE.dfg, ","),
        ("verify_recurrence_bound", BOUNDS_BEFORE.verify, ""),
    ] {
        s.push_str(&format!(
            "    \"{label}\": {{\"p50\": {p50}, \"p99\": {p99}, \"large_p50\": {large}}}{comma}\n"
        ));
    }
    s.push_str("  },\n");
    s.push_str("  \"results\": [\n");
    for (k, (jobs, effective, median, min, fingerprint)) in results.iter().enumerate() {
        let speedup = seq_median as f64 / *median as f64;
        s.push_str(&format!(
            "    {{\"jobs\": {jobs}, \"jobs_effective\": {effective}, \
             \"wall_ns_median\": {median}, \"wall_ns_min\": {min}, \
             \"speedup_vs_sequential\": {speedup:.3}, \
             \"rows_fingerprint\": \"{fingerprint:#018x}\"}}{}\n",
            if k + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

fn options_from_args() -> Options {
    let mut opts = Options {
        out: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ROTATION.json").to_string(),
        check: None,
        reps: 3,
        degradation: false,
        certify: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            if let Some(p) = args.next() {
                opts.out = p;
            }
        } else if let Some(p) = arg.strip_prefix("--out=") {
            opts.out = p.to_string();
        } else if arg == "--check" {
            if let Some(p) = args.next() {
                opts.check = Some(p);
            }
        } else if let Some(p) = arg.strip_prefix("--check=") {
            opts.check = Some(p.to_string());
        } else if arg == "--reps" {
            if let Some(n) = args.next() {
                opts.reps = n.parse().unwrap_or(opts.reps).max(1);
            }
        } else if let Some(n) = arg.strip_prefix("--reps=") {
            opts.reps = n.parse().unwrap_or(opts.reps).max(1);
        } else if arg == "--degradation" {
            opts.degradation = true;
        } else if arg == "--certify" {
            opts.certify = true;
        }
    }
    opts
}
