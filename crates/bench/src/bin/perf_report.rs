//! Wall-clock performance report and CI gate for the rotation engine,
//! the serve layer and the analysis passes.
//!
//! ```text
//! cargo run --release -p rotsched-bench --bin perf_report [-- OPTIONS]
//!
//!   --out PATH        write the JSON report here (default:
//!                     BENCH_ROTATION.json at the repository root)
//!   --reps N          timed sweeps per jobs value (default: 3)
//!   --check BASELINE  smoke mode: also gate against a checked-in
//!                     baseline report; write nothing
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
//! Report mode and `--check` make one pass: `measure` runs every arm
//! once, then `gate` prints each arm's reading with its verdict. The
//! modes differ only at the end. Report mode writes the JSON report,
//! unless a gate failed: then it writes nothing and exits 1. `--check`
//! adds the baseline gates and exits 1 on any failure. A bad command
//! line exits 2 before anything is measured.
//!
//! The arms: the full Table-3 sweep (every benchmark × resource-config
//! cell) timed under several `--jobs` values (requested and effective
//! counts both recorded); per-rotation-step latency percentiles for the
//! allocation-free SoA step, for full driver steps on a dense graph,
//! and for the incremental context path against the from-scratch path;
//! `solve_batch` throughput over a deduplicating corpus; the rotations
//! the sweep replays within its executed phases and the phases it
//! replays whole, both from the driver's one replay log; the `SearchDriver` dispatch
//! overhead against a hand-rolled replica of the phase loop; the
//! warm-path serve layer in-process (cold vs. warm-hit latency,
//! single-flight deduplication under an identical burst, closed-loop
//! sustained throughput); the fault plane's and the objective core's
//! default-path cost; the static-analysis framework; and the two
//! cycle-ratio bounds on the graphs of the e2e `analyze-256` workload.
//!
//! The gates every run applies:
//! - rows byte-identical at every jobs value;
//! - SoA and dense step p99 within 10x of p50;
//! - driver overhead (the median over graphs of per-graph paired
//!   engine/replica time ratios) inside ±15% — two-sided, since a large
//!   negative reading means the replica went stale;
//! - serve: warm hits ≥8x faster than cold at p50 with zero solver
//!   invocations, an identical burst collapsing to one solve, and
//!   byte-identical responses throughout;
//! - `NoopFaults` warm path and the packed-score objective each at most
//!   2% over their replica;
//! - a full schedule-mode analysis of a 256-node graph under 5 ms at
//!   p50, byte-identical on every repetition (the sweep fingerprint
//!   doubles as proof that a plain solve pays nothing when `--analyze`
//!   is off);
//! - dfg's iteration bound and the verifier's recurrence bound of a
//!   256-node graph, each under 1.5 ms at p50.
//!
//! `--check` adds: the rows fingerprint and every schedule length no
//! worse than the baseline's, batch throughput at least a third of the
//! baseline's, and the baseline's own recorded driver, fault and
//! objective overheads inside their limits (a stale baseline fails).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use rotsched_baselines::TABLE_3;
use rotsched_bench::{format_row, measure_rs};
use rotsched_benchmarks::{
    allpole, biquad, diffeq, lattice4, random_dfg, RandomDfgConfig, TimingModel,
};
use rotsched_core::{
    down_rotate, effective_jobs, initial_state, parallel_indexed, BestSet, CycleLog,
    HeuristicConfig, Objective, ProblemSpec, RotationContext, RotationScheduler, Score,
    SearchDriver, SearchEvent, SearchObserver, TraceRecorder,
};
use rotsched_dfg::analysis::RatioWork;
use rotsched_dfg::rng::{Fnv64, SplitMix64};
use rotsched_dfg::{json, Dfg};
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
/// eighth item), so every request after a problem's first is a warm
/// hit.
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
/// Derived from measurement, not aspiration. The corpus' payloads are
/// canonical, so a warm hit is one cache probe on the payload bytes
/// (p50 0.57–0.70 µs) against cold solves of 0.35–0.67 ms. Ten
/// `--check` runs on a shared 2-vCPU VM read 662–1116x; a hit that
/// parsed the payload and rendered its key (0.02–0.04 ms) read 12–25x.
/// A warm path that solved again, or a cache that stopped hitting,
/// reads ~1x; a floor of 8 catches that with room below every measured
/// spread, so CPU contention does not trip it.
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
/// request in `analyze`. Register pressure costs O(|E| + L), saturation
/// O(|V| + L) per class and chain depth one pass over the graph, so
/// the cycle-ratio search and the lint sweep take most of the budget,
/// which keeps the analysis invisible next to the solve it annotates.
const ANALYZE_LARGE_LIMIT_NS: u64 = 5_000_000;

/// The `certify_then_analyze` reading at the commit before a
/// certificate handed its cycle-ratio search to the analysis: p50 and
/// p99 (ns) over the 64-node suite. Medians of 3 runs on a shared
/// 2-vCPU VM, alternated with 3 runs of the handoff, which read p50
/// 80,035 ns and p99 118,849 ns.
const CERTIFY_THEN_ANALYZE_BEFORE: (u64, u64) = (106_655, 237_883);

/// Timed repetitions of the Table-3 sweep in the phase-boundary arm.
const BOUNDARY_REPS: usize = 3;
/// The `phase_boundary_ns` reading at the commit before a Heuristic-2
/// sweep kept one scheduling context: p50 and p99 (ns) of an executed
/// phase boundary over the Table-3 cells. Medians of 3 runs on a shared
/// 2-vCPU VM, alternated with 3 runs of the shared context, which read
/// p50 2,618 ns and p99 5,714 ns.
const PHASE_BOUNDARY_BEFORE: (u64, u64) = (8_938, 18_074);

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

const USAGE: &str = "usage: perf_report [--out PATH] [--reps N] [--check BASELINE] \
                     [--certify] [--degradation]";

/// The report's default path: `BENCH_ROTATION.json` at the repository
/// root.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ROTATION.json");

/// What one invocation does; `--check` wins over `--certify`, which
/// wins over `--degradation`.
#[derive(Debug, PartialEq)]
enum Mode {
    Report,
    Check(String),
    Certify,
    Degradation,
}

#[derive(Debug, PartialEq)]
struct Options {
    mode: Mode,
    out: String,
    reps: usize,
}

impl Options {
    /// Parses the command line (program name excluded). A flag missing
    /// its value, a non-numeric `--reps` and any unknown argument are
    /// errors, so a mistyped `--check` never falls through to report
    /// mode and overwrites the baseline.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut out = DEFAULT_OUT.to_string();
        let mut reps = 3;
        let (mut check, mut certify, mut degradation) = (None, false, false);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--out" => out = value()?,
                "--check" => check = Some(value()?),
                "--reps" => {
                    let n = value()?;
                    reps = n
                        .parse::<usize>()
                        .map_err(|_| format!("--reps needs a number, got `{n}`"))?
                        .max(1);
                }
                "--certify" if inline.is_none() => certify = true,
                "--degradation" if inline.is_none() => degradation = true,
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        let mode = match check {
            Some(path) => Mode::Check(path),
            None if certify => Mode::Certify,
            None if degradation => Mode::Degradation,
            None => Mode::Report,
        };
        Ok(Options { mode, out, reps })
    }
}

fn main() {
    let opts = Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let t = TimingModel::paper();
    let graphs: Vec<(&str, Dfg)> = vec![
        ("Differential Equation", diffeq(&t)),
        ("4-stage Lattice Filter", lattice4(&t)),
        ("All-pole Lattice Filter", allpole(&t)),
        ("2-cascaded Biquad Filter", biquad(&t)),
    ];

    let baseline = match &opts.mode {
        Mode::Certify => std::process::exit(certify_sweep(&graphs)),
        Mode::Degradation => return degradation_report(&graphs),
        Mode::Report => None,
        Mode::Check(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Baseline::parse(&text))
                .unwrap_or_else(|e| {
                    eprintln!("error: baseline {path}: {e}");
                    std::process::exit(1);
                }),
        ),
    };

    let report = measure(&graphs, opts.reps);
    let failed = gate(&report, baseline.as_ref());
    if failed > 0 {
        match baseline {
            Some(_) => eprintln!("check failed: {failed} gate(s)"),
            None => eprintln!("{failed} gate(s) failed; {} not written", opts.out),
        }
        std::process::exit(1);
    }
    if baseline.is_some() {
        println!("check passed");
    } else if let Err(e) = std::fs::write(&opts.out, render_json(&report)) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        std::process::exit(1);
    } else {
        println!("wrote {}", opts.out);
    }
}

/// One `--jobs` value's timed Table-3 sweeps.
struct SweepTiming {
    jobs: usize,
    effective: usize,
    median: u64,
    min: u64,
    fingerprint: u64,
}

/// Every arm's reading from one [`measure`] pass.
struct Report {
    hardware: usize,
    reps: usize,
    /// One entry per [`JOBS`] value, sequential first.
    sweeps: Vec<SweepTiming>,
    lengths: Vec<u32>,
    soa: StepPercentiles,
    dense: StepPercentiles,
    context: StepPercentiles,
    scratch: StepPercentiles,
    batch: StepPercentiles,
    replay: ReplayShare,
    boundary: StepPercentiles,
    overhead: DriverOverhead,
    serve: ServeReport,
    fault: FaultOverheadReport,
    objective: ObjectiveOverheadReport,
    analyze: AnalyzeArmReport,
    bounds: BoundsReport,
}

/// Runs every arm once: `reps` timed Table-3 sweeps per [`JOBS`] value,
/// then the per-step, batch, replay, overhead, serve, analysis and
/// bound arms.
fn measure(graphs: &[(&str, Dfg)], reps: usize) -> Report {
    // One untimed warm-up pass so allocator and page-cache effects hit
    // every configuration equally.
    let _ = sweep(graphs, 1);
    let mut lengths = Vec::new();
    let sweeps = JOBS
        .into_iter()
        .map(|jobs| {
            let mut wall_ns = Vec::with_capacity(reps);
            let mut fingerprint = 0_u64;
            for _ in 0..reps {
                let start = Instant::now();
                let rows = sweep(graphs, jobs);
                wall_ns.push(elapsed_ns(start));
                fingerprint = rows_fingerprint(&rows);
                lengths = rows.iter().map(|(_, rs)| *rs).collect();
            }
            wall_ns.sort_unstable();
            SweepTiming {
                jobs,
                effective: effective_jobs(jobs, TABLE_3.len()),
                median: wall_ns[wall_ns.len() / 2],
                min: wall_ns[0],
                fingerprint,
            }
        })
        .collect();
    let soa = soa_steady_percentiles();
    let dense = dense_step_percentiles();
    let (context, scratch) = step_percentiles(graphs);
    Report {
        hardware: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        reps,
        sweeps,
        lengths,
        soa,
        dense,
        context,
        scratch,
        batch: batch_throughput(&batch_corpus()),
        replay: replay_share(graphs),
        boundary: phase_boundary_percentiles(graphs),
        overhead: driver_overhead(graphs),
        serve: serve_report(),
        fault: fault_overhead(),
        objective: objective_overhead(graphs),
        analyze: analyze_arm(),
        bounds: bounds_arm(&analyze256_graphs()),
    }
}

/// Nanoseconds since `start`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
            ctx.down_rotate(g, &res, &mut state, 1).expect("legal");
            ctx_ns.push(elapsed_ns(start));
        }
        let mut state = init.clone();
        for _ in 0..STEP_REPS * STEP_SEQ {
            if state.length(g) <= 1 {
                break;
            }
            let start = Instant::now();
            down_rotate(g, &sched, &res, &mut state, 1).expect("legal");
            scratch_ns.push(elapsed_ns(start));
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
        ctx.down_rotate_in_place(&g, &res, &mut state, 1)
            .expect("steady ring keeps rotating");
        wrap.wrapped_length(&g, Some(&state.retiming), &state.schedule, &res)
            .expect("rotation states wrap");
    }
    let mut ns = Vec::with_capacity(SOA_SAMPLES);
    for _ in 0..SOA_SAMPLES {
        let start = Instant::now();
        ctx.down_rotate_in_place(&g, &res, &mut state, 1)
            .expect("steady ring keeps rotating");
        ns.push(elapsed_ns(start));
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
                ctx.down_rotate_in_place(&g, &res, &mut state, effective)
                    .expect("legal");
                wrap.wrapped_length(&g, Some(&state.retiming), &state.schedule, &res)
                    .expect("rotation states wrap");
                ns.push(elapsed_ns(start));
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
        wall_ns.push(elapsed_ns(start));
    }
    percentiles(&mut wall_ns)
}

/// Solves per second implied by a per-repetition wall time.
fn solves_per_sec(items: u64, wall_ns: u64) -> f64 {
    items as f64 * 1e9 / wall_ns.max(1) as f64
}

/// How much of the Table-3 sweep's rotation work replay serves.
struct ReplayShare {
    /// Logical rotations over every cell's solve.
    rotations: usize,
    /// Of those, the rotations an executed phase replayed from its
    /// cycle log.
    replayed: usize,
    /// Phases Heuristic 2 replayed whole from its replay log.
    sweep_phases: usize,
    /// The rotations of those phases.
    sweep_rotations: usize,
}

impl ReplayShare {
    /// The share of rotations not executed, in percent.
    fn share_pct(&self) -> f64 {
        (self.replayed + self.sweep_rotations) as f64 * 100.0 / self.rotations.max(1) as f64
    }
}

/// Counts replayed rotations over one sequential Table-3 sweep: each
/// cell solved as the sweep solves it (paper defaults), summing
/// [`rotsched_core::PhaseStats::replayed`] over its executed phases and
/// the rotations of the last
/// [`rotsched_core::HeuristicOutcome::replayed_phases`] phases, which
/// were replayed whole. Deterministic.
fn replay_share(graphs: &[(&str, Dfg)]) -> ReplayShare {
    let mut share = ReplayShare {
        rotations: 0,
        replayed: 0,
        sweep_phases: 0,
        sweep_rotations: 0,
    };
    for row in TABLE_3 {
        let (_, g) = graphs
            .iter()
            .find(|(name, _)| *name == row.benchmark)
            .expect("benchmark exists");
        let res = ResourceSet::adders_multipliers(row.adders, row.multipliers, row.pipelined);
        let solved = RotationScheduler::new(g, res)
            .solve()
            .expect("benchmarks are schedulable");
        let phases = &solved.outcome.phases;
        let (executed, replayed) = phases.split_at(phases.len() - solved.outcome.replayed_phases);
        share.rotations += phases.iter().map(|p| p.rotations).sum::<usize>();
        share.replayed += executed.iter().map(|p| p.replayed).sum::<usize>();
        share.sweep_phases += replayed.len();
        share.sweep_rotations += replayed.iter().map(|p| p.rotations).sum::<usize>();
    }
    share
}

/// Reads the clock at every phase start and phase end of a sweep.
#[derive(Default)]
struct PhaseClock {
    starts: Vec<Instant>,
    ends: Vec<Instant>,
}

impl SearchObserver for PhaseClock {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        match event {
            SearchEvent::PhaseStart { .. } => self.starts.push(Instant::now()),
            SearchEvent::PhaseEnd { .. } => self.ends.push(Instant::now()),
            _ => {}
        }
    }
}

/// Samples the executed phase boundaries of the Table-3 sweep: from
/// the end of each executed phase that another phase follows to that
/// phase's start — the `FullSchedule(G_R)` of the retimed graph, its
/// wrap probe and offer, the replay log's phase-end bookkeeping and the next
/// phase's setup. Each cell is solved as the sweep solves it (paper
/// defaults, Heuristic 2 on the incremental driver); phases replayed
/// whole are left out, and so is the boundary before the first of
/// them, which starts no phase setup. Ungated.
fn phase_boundary_percentiles(graphs: &[(&str, Dfg)]) -> StepPercentiles {
    let mut ns = Vec::new();
    for _ in 0..BOUNDARY_REPS {
        for row in TABLE_3 {
            let (_, g) = graphs
                .iter()
                .find(|(name, _)| *name == row.benchmark)
                .expect("benchmark exists");
            let res = ResourceSet::adders_multipliers(row.adders, row.multipliers, row.pipelined);
            let sched = ListScheduler::default();
            let mut driver =
                SearchDriver::incremental(g, &sched, &res).with_observer(PhaseClock::default());
            let outcome = driver
                .heuristic2(&HeuristicConfig::default())
                .expect("benchmarks are schedulable");
            let executed = outcome.phases.len() - outcome.replayed_phases;
            let clock = &driver.observer;
            for i in 1..executed {
                let gap = clock.starts[i].duration_since(clock.ends[i - 1]);
                ns.push(u64::try_from(gap.as_nanos()).unwrap_or(u64::MAX));
            }
        }
    }
    percentiles(&mut ns)
}

/// The engine-vs-replica dispatch overhead.
struct DriverOverhead {
    /// Per-sequence wall time through the engine, over every graph.
    driver: StepPercentiles,
    /// Per-sequence wall time through the hand-rolled replica.
    legacy: StepPercentiles,
    /// The median over graphs of each graph's median paired ratio
    /// (engine time over replica time, one pair per repetition), as a
    /// percentage above 1.
    overhead_pct: f64,
}

/// Measures the engine's dispatch overhead: a full size-1 rotation
/// phase through [`SearchDriver`] (the monomorphized `NoopObserver`
/// path) against a hand-rolled replica of the phase loop driving the
/// same incremental kernel and cycle log.
///
/// The reading is the median over graphs of per-graph paired ratios.
/// A pooled p50 over all sequences mixes graphs whose sequences differ
/// several-fold in length, so it reads whichever graph's times straddle
/// the pooled middle, and one noisy repetition there moves it by tens of
/// percent. A ratio of two back-to-back runs of the same graph cancels
/// the graph's scale and most host drift; the arms alternate which runs
/// first.
fn driver_overhead(graphs: &[(&str, Dfg)]) -> DriverOverhead {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let random64 = random64();
    let mut driver_ns = Vec::new();
    let mut legacy_ns = Vec::new();
    let mut graph_ratios = Vec::new();
    let subjects = graphs
        .iter()
        .map(|(_, g)| g)
        .chain(std::iter::once(&random64));
    for g in subjects {
        let init = initial_state(g, &sched, &res).expect("schedulable");
        let driver = |_| run_driver_sequence(g, sched, &res, &init);
        let legacy = |_| run_legacy_sequence(g, sched, &res, &init);
        // Warm-up: one untimed sequence per arm.
        driver(0);
        legacy(0);
        let (d, l) = interleave(STEP_REPS, driver, legacy);
        let mut ratios: Vec<f64> = d
            .iter()
            .zip(&l)
            .map(|(&d, &l)| d as f64 / l.max(1) as f64)
            .collect();
        graph_ratios.push(median(&mut ratios));
        driver_ns.extend(d);
        legacy_ns.extend(l);
    }
    DriverOverhead {
        driver: percentiles(&mut driver_ns),
        legacy: percentiles(&mut legacy_ns),
        overhead_pct: (median(&mut graph_ratios) - 1.0) * 100.0,
    }
}

/// The middle value (upper middle for an even count).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One phase of `STEP_SEQ` size-1 rotations through the engine.
fn run_driver_sequence(
    g: &Dfg,
    sched: ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut driver = SearchDriver::incremental(g, &sched, res);
    driver
        .run_phase(&mut state, &mut best, 1, STEP_SEQ)
        .expect("legal");
}

/// The engine's phase loop, hand-rolled: the same context kernel,
/// halving rule, wrapped-length probe, stats bookkeeping, best-set
/// offer and cycle replay (one [`CycleLog`], the engine's own) that
/// `SearchDriver::run_phase` performs — minus the engine's dispatch
/// (step-mode enum, budget polling, observer calls). Kept as the
/// baseline the engine's dispatch is measured against, and it MUST
/// track the engine's hot path: when the engine gains a faster kernel
/// (as the SoA rework did with `down_rotate_in_place` + `WrapScratch`,
/// and cycle replay did by skipping the rotations past a repeated
/// state), a stale replica turns the overhead number into a bogus
/// "engine is far faster than the bare loop" reading. The two-sided
/// `--check` band exists to catch exactly that drift.
fn run_legacy_sequence(
    g: &Dfg,
    sched: ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut ctx = RotationContext::new(g, &sched, res, &state).expect("schedulable");
    let mut wrap = WrapScratch::new(g, res).expect("ops bind");
    let mut cycles = CycleLog::new();
    cycles.begin(&state, STEP_SEQ);
    let mut rotations = 0_usize;
    let mut lengths = Vec::new();
    let mut first_optimum_at = None;
    let mut min_seen = u32::MAX;
    for j in 0..STEP_SEQ {
        if let Some((_, wrapped)) = cycles.replay(j + 1) {
            rotations += 1;
            lengths.push(wrapped);
            continue;
        }
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
        ctx.down_rotate_in_place(g, res, &mut state, effective)
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
        cycles.record(ctx.rotated(), wrapped, &state);
    }
    cycles.restore(rotations, &mut state);
    // Keep the bookkeeping observable so the optimizer cannot discard
    // the replica's stats work that the real loop also performed.
    std::hint::black_box((rotations, lengths, first_optimum_at, state));
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
            cold_ns.push(elapsed_ns(start));
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
        warm_ns.push(elapsed_ns(start));
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

/// Times one call.
fn time_one(call: impl FnOnce()) -> u64 {
    let start = Instant::now();
    call();
    elapsed_ns(start)
}

/// Times `a(k)` and `b(k)` back to back for every `k < samples`,
/// alternating which runs first: the second call of a pair runs with
/// the warmer caches the first leaves behind, and a fixed order would
/// bias the comparison toward whichever arm always ran second. Returns
/// each arm's times in sample order.
fn interleave(
    samples: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (Vec<u64>, Vec<u64>) {
    let mut a_ns = Vec::with_capacity(samples);
    let mut b_ns = Vec::with_capacity(samples);
    for k in 0..samples {
        if k % 2 == 0 {
            a_ns.push(time_one(|| a(k)));
            b_ns.push(time_one(|| b(k)));
        } else {
            b_ns.push(time_one(|| b(k)));
            a_ns.push(time_one(|| a(k)));
        }
    }
    (a_ns, b_ns)
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
    let (mut noop_ns, mut armed_ns) = interleave(
        FAULT_OVERHEAD_SAMPLES,
        |k| drop(noop.handle(&payloads[k % payloads.len()])),
        |k| drop(armed.handle(&payloads[k % payloads.len()])),
    );
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

/// One `STEP_SEQ`-rotation size-1 sequence of the bare kernel — the
/// halving rule, the in-place rotation and the wrapped-length probe —
/// handing each wrapped length and state to `offer`.
fn run_offer_sequence(
    g: &Dfg,
    sched: ListScheduler,
    res: &ResourceSet,
    init: &rotsched_core::RotationState,
    mut offer: impl FnMut(u32, &rotsched_core::RotationState),
) {
    let mut state = init.clone();
    let mut ctx = RotationContext::new(g, &sched, res, &state).expect("schedulable");
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
        ctx.down_rotate_in_place(g, res, &mut state, effective)
            .expect("legal");
        let wrapped = wrap
            .wrapped_length(g, Some(&state.retiming), &state.schedule, res)
            .expect("wraps");
        offer(wrapped, &state);
    }
}

/// Measures what the pluggable objective core costs the default
/// length-only path: interleaved timing of identical rotation
/// sequences, one arm tracking its best with plain `u32` lengths in the
/// scalar replica of the pre-objective best set, the other scoring
/// through the `Objective::Length` dispatch into the packed-score best
/// set — the exact representation the engine's default path runs.
fn objective_overhead(graphs: &[(&str, Dfg)]) -> ObjectiveOverheadReport {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let subjects: Vec<(&Dfg, rotsched_core::RotationState)> = graphs
        .iter()
        .map(|(_, g)| (g, initial_state(g, &sched, &res).expect("schedulable")))
        .collect();
    let scalar = |k: usize| {
        let (g, init) = &subjects[k % subjects.len()];
        let mut best = ScalarBestSet::new(4);
        run_offer_sequence(g, sched, &res, init, |wrapped, state| {
            best.offer(wrapped, state);
        });
        std::hint::black_box((best.length, best.schedules.len()));
    };
    let packed = |k: usize| {
        let (g, init) = &subjects[k % subjects.len()];
        let mut best = BestSet::new(4);
        run_offer_sequence(g, sched, &res, init, |wrapped, state| {
            let _ = best.offer(Objective::Length.score(g, &state.retiming, wrapped), state);
        });
        std::hint::black_box((best.length(), best.count()));
    };
    // Warm-up: one untimed sequence per arm per subject.
    for k in 0..subjects.len() {
        scalar(k);
        packed(k);
    }
    let (mut scalar_ns, mut packed_ns) = interleave(OBJECTIVE_OVERHEAD_SAMPLES, scalar, packed);
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
    /// Certify-then-analyze latency over the 64-node suite (ungated).
    certified: StepPercentiles,
    /// Every repetition rendered byte-identical JSON.
    byte_stable: bool,
}

/// Times one full schedule-mode analysis — all four registered passes
/// plus the lint sweep — against `graphs` of `nodes` nodes each, and
/// byte-compares every repetition's JSON rendering against the first.
/// The schedule view comes from the list scheduler's initial schedule,
/// so the saturation and register-pressure passes run in their
/// schedule-aware mode (static-only analysis does strictly less work).
/// With `certify`, each timed repetition first certifies that schedule,
/// as `solve --certify --analyze` does.
fn analyze_percentiles(
    nodes: usize,
    graphs: u64,
    certify: bool,
    byte_stable: &mut bool,
) -> StepPercentiles {
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
            if certify {
                let cert = rotsched_verify::certify(
                    &g,
                    &spec,
                    Some(view.retiming),
                    &starts,
                    view.kernel_length,
                );
                std::hint::black_box(cert).expect("the initial schedule certifies");
            }
            let report = analyze(&g, &spec, Some(&view));
            ns.push(elapsed_ns(start));
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
    let suite = analyze_percentiles(
        ANALYZE_SUITE_NODES,
        ANALYZE_SUITE_GRAPHS,
        false,
        &mut byte_stable,
    );
    let large = analyze_percentiles(ANALYZE_LARGE_NODES, 1, false, &mut byte_stable);
    let certified = analyze_percentiles(
        ANALYZE_SUITE_NODES,
        ANALYZE_SUITE_GRAPHS,
        true,
        &mut byte_stable,
    );
    AnalyzeArmReport {
        suite,
        large,
        certified,
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

/// What `--check` reads from the baseline report, each value by its
/// JSON path.
struct Baseline {
    rows_fingerprint: u64,
    schedule_lengths: Vec<u32>,
    solves_per_sec_p50: f64,
    overhead_pct: f64,
    fault_overhead_pct: f64,
    objective_overhead_pct: f64,
}

impl Baseline {
    /// Parses a report [`render_json`] wrote. Fails naming the path of
    /// the first gated value that is missing or of the wrong type.
    fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text)?;
        let number = |path: &str| doc.path(path)?.as_f64(path);
        let fingerprint = "results[0].rows_fingerprint";
        let lengths = "schedule_lengths";
        Ok(Baseline {
            rows_fingerprint: doc
                .path(fingerprint)?
                .as_str(fingerprint)?
                .strip_prefix("0x")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("{fingerprint} is not a 0x-prefixed hex u64"))?,
            schedule_lengths: doc
                .path(lengths)?
                .as_array(lengths)?
                .iter()
                .enumerate()
                .map(|(i, v)| v.as_u32(&format!("{lengths}[{i}]")))
                .collect::<Result<_, _>>()?,
            solves_per_sec_p50: number("batch_throughput.solves_per_sec_p50")?,
            overhead_pct: number("driver_overhead.overhead_pct")?,
            fault_overhead_pct: number("fault_overhead.fault_overhead_pct")?,
            objective_overhead_pct: number("objective_overhead.objective_overhead_pct")?,
        })
    }
}

/// Prints a reading no limit applies to, aligned with the gated ones.
fn info(reading: &str) {
    println!("     {reading}");
}

/// Prints every arm's reading with its verdict and returns how many
/// gates failed. The limit gates apply to every run; a `baseline` adds
/// the comparisons `--check` makes.
fn gate(r: &Report, baseline: Option<&Baseline>) -> u32 {
    let mut failed = 0_u32;
    let mut gated = |ok: bool, reading: &str| {
        failed += u32::from(!ok);
        println!("{} {reading}", if ok { "ok  " } else { "FAIL" });
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;

    println!(
        "perf_report: table3 sweep ({} cells), {} reps per jobs value, {} hardware threads",
        TABLE_3.len(),
        r.reps,
        r.hardware
    );
    let sequential = &r.sweeps[0];
    for s in &r.sweeps {
        info(&format!(
            "sweep at jobs {} (effective {}): median {:.1} ms, min {:.1} ms, {:.2}x vs sequential",
            s.jobs,
            s.effective,
            s.median as f64 / 1e6,
            s.min as f64 / 1e6,
            ratio(sequential.median, s.median)
        ));
    }
    let fingerprint = sequential.fingerprint;
    gated(
        r.sweeps.iter().all(|s| s.fingerprint == fingerprint),
        &format!("rows fingerprint {fingerprint:#018x} at every jobs value"),
    );
    if let Some(b) = baseline {
        gated(
            fingerprint == b.rows_fingerprint,
            &format!(
                "rows fingerprint equals the baseline's {:#018x}",
                b.rows_fingerprint
            ),
        );
        let regressed: Vec<String> = (r.lengths.iter().zip(&b.schedule_lengths).enumerate())
            .filter(|(_, (rs, want))| rs > want)
            .map(|(i, (rs, want))| {
                let cell = &TABLE_3[i];
                format!(
                    "cell {i} ({}, {}): {rs} > {want}",
                    cell.benchmark, cell.adders
                )
            })
            .collect();
        gated(
            r.lengths.len() == b.schedule_lengths.len() && regressed.is_empty(),
            &format!(
                "schedule lengths: {} cells, none above the baseline's {} {regressed:?}",
                r.lengths.len(),
                b.schedule_lengths.len()
            ),
        );
    }

    let percentile_line = |name: &str, p: &StepPercentiles| {
        format!(
            "{name}: p50 {} ns, p90 {} ns, p99 {} ns ({} samples)",
            p.p50, p.p90, p.p99, p.samples
        )
    };
    // Latency-shape gates: a p99 blowing past 10x the median means a
    // hidden slow path (reallocation, cache rebuild) crept back into
    // the hot loop even if medians look fine.
    for (name, p) in [
        ("rotation step (soa, steady)", &r.soa),
        ("driver step (dense)", &r.dense),
    ] {
        gated(
            p.p99 / p.p50.max(1) <= STEP_TAIL_RATIO,
            &format!(
                "{}; p99 within {STEP_TAIL_RATIO}x of p50",
                percentile_line(name, p)
            ),
        );
    }
    info(&format!(
        "dense step before the CSR weight kernel: p50 {DENSE_BEFORE_P50_NS} ns, \
         p99 {DENSE_BEFORE_P99_NS} ns"
    ));
    info(&percentile_line("rotation step (context)", &r.context));
    info(&percentile_line("rotation step (from scratch)", &r.scratch));
    info(&format!(
        "per-step speedup at p50: {:.2}x (context vs scratch)",
        ratio(r.scratch.p50, r.context.p50)
    ));

    let sps = solves_per_sec(BATCH_ITEMS, r.batch.p50);
    let batch = format!(
        "batch throughput ({BATCH_ITEMS} items, {BATCH_UNIQUE} unique): {sps:.0} solves/s \
         at p50, {:.0} at the p99 tail",
        solves_per_sec(BATCH_ITEMS, r.batch.p99)
    );
    // A generous floor under the baseline's rate: catches order-of-
    // magnitude regressions in the batch core without tripping on
    // machine-to-machine variance.
    match baseline {
        Some(b) => gated(
            sps >= b.solves_per_sec_p50 / BATCH_THROUGHPUT_DIVISOR,
            &format!(
                "{batch}; at least baseline {:.0} / {BATCH_THROUGHPUT_DIVISOR}",
                b.solves_per_sec_p50
            ),
        ),
        None => info(&batch),
    }

    let replay = &r.replay;
    info(&format!(
        "cycle replay: {} of {} sweep rotations replayed ({:.1}%): {} within executed \
         phases, {} in {} phases replayed whole",
        replay.replayed + replay.sweep_rotations,
        replay.rotations,
        replay.share_pct(),
        replay.replayed,
        replay.sweep_rotations,
        replay.sweep_phases
    ));
    let (before_p50, before_p99) = PHASE_BOUNDARY_BEFORE;
    info(&format!(
        "{} (before: p50 {before_p50} ns, p99 {before_p99} ns)",
        percentile_line("executed Heuristic-2 phase boundary", &r.boundary)
    ));

    // Driver-overhead band, two-sided and applied to both the fresh
    // measurement and the baseline's recorded number. Large positive
    // means the engine's dispatch got expensive; large negative (a
    // recorded -43% against a real -2.65% once) means the hand-rolled
    // replica went stale against the engine's hot path — either way the
    // overhead reading is fiction and must fail.
    let band = DRIVER_OVERHEAD_BAND_PCT;
    gated(
        r.overhead.overhead_pct.abs() <= band,
        &format!(
            "driver overhead ({STEP_SEQ} size-1 rotations per sequence): driver p50 {} ns, \
             replica p50 {} ns, {:+.2}% (median of per-graph paired ratios) within ±{band}%",
            r.overhead.driver.p50, r.overhead.legacy.p50, r.overhead.overhead_pct
        ),
    );
    if let Some(b) = baseline {
        gated(
            b.overhead_pct.abs() <= band,
            &format!(
                "baseline driver overhead {:+.2}% within ±{band}%",
                b.overhead_pct
            ),
        );
    }

    // Serve gates: the warm path must actually be warm (no solver, a
    // real multiple faster than solving), an identical burst must
    // collapse to one solve, and every response must be byte-stable.
    let serve = &r.serve;
    info(&format!(
        "serve cold solve: p50 {} ns, p99 {} ns ({} samples)",
        serve.cold.p50, serve.cold.p99, serve.cold.samples
    ));
    gated(
        serve.warm_extra_invocations == 0,
        &format!(
            "serve warm hit: p50 {} ns, p99 {} ns ({} samples); {} solver invocations, \
             must be 0",
            serve.warm.p50, serve.warm.p99, serve.warm.samples, serve.warm_extra_invocations
        ),
    );
    let speedup = serve.cold.p50 / serve.warm.p50.max(1);
    gated(
        speedup >= SERVE_WARM_SPEEDUP_FLOOR,
        &format!("serve warm speedup {speedup}x at p50, floor {SERVE_WARM_SPEEDUP_FLOOR}x"),
    );
    gated(
        serve.burst_solves == 1,
        &format!(
            "serve coalescing: {SERVE_BURST} identical requests -> {} solve(s), must be 1 \
             ({} followers)",
            serve.burst_solves, serve.burst_followers
        ),
    );
    gated(
        serve.deterministic,
        "serve responses byte-identical across cache states, thread counts and arrival orders",
    );
    info(&format!(
        "serve sustained: {:.0} req/s over {SERVE_SUSTAIN_THREADS} threads",
        serve.sustained_rps
    ));

    // Zero-cost gates, one-sided: the default `NoopFaults` warm path
    // against a quiet-armed service, and the packed-score objective
    // against the scalar-`u32` replica (each rival does strictly more
    // work). Applied to the fresh measurement AND the baseline's
    // recorded number, so a stale baseline can't hide a regression.
    let fault = &r.fault;
    let objective = &r.objective;
    for (reading, pct, limit, recorded) in [
        (
            format!(
                "fault-plane overhead: noop warm p50 {} ns vs quiet-armed p50 {} ns",
                fault.noop_p50, fault.armed_p50
            ),
            fault.overhead_pct,
            FAULT_OVERHEAD_LIMIT_PCT,
            baseline.map(|b| ("fault-plane", b.fault_overhead_pct)),
        ),
        (
            format!(
                "objective-core overhead: scalar best-set p50 {} ns vs packed p50 {} ns",
                objective.scalar_p50, objective.packed_p50
            ),
            objective.overhead_pct,
            OBJECTIVE_OVERHEAD_LIMIT_PCT,
            baseline.map(|b| ("objective-core", b.objective_overhead_pct)),
        ),
    ] {
        gated(
            pct <= limit,
            &format!("{reading}, {pct:+.2}% within {limit}%"),
        );
        if let Some((name, recorded)) = recorded {
            gated(
                recorded <= limit,
                &format!("baseline {name} overhead {recorded:+.2}% within {limit}%"),
            );
        }
    }

    // Analysis gates: the 256-node full analysis under its budget and
    // every repetition byte-identical. The solve path itself is gated
    // by the fingerprint above: analysis runs only behind `--analyze`.
    let analyze = &r.analyze;
    info(&percentile_line(
        &format!("full analysis ({ANALYZE_SUITE_NODES}-node suite)"),
        &analyze.suite,
    ));
    let (before_p50, before_p99) = CERTIFY_THEN_ANALYZE_BEFORE;
    info(&format!(
        "{} (before: p50 {before_p50} ns, p99 {before_p99} ns)",
        percentile_line(
            &format!("certify + full analysis ({ANALYZE_SUITE_NODES}-node suite)"),
            &analyze.certified,
        )
    ));
    gated(
        analyze.large.p50 <= ANALYZE_LARGE_LIMIT_NS,
        &format!(
            "full analysis ({ANALYZE_LARGE_NODES} nodes): p50 {} ns within \
             {ANALYZE_LARGE_LIMIT_NS} ns",
            analyze.large.p50
        ),
    );
    gated(
        analyze.byte_stable,
        &format!(
            "analysis reports byte-identical across {} runs",
            analyze.suite.samples + analyze.large.samples
        ),
    );

    // Bound gates: each cycle-ratio bound of the 256-node graph under
    // its budget at p50 — the full-sweep probes they replaced read 7.6x
    // and 3.8x over it.
    let bounds = &r.bounds;
    for (name, latency, before) in [
        ("dfg iteration bound", &bounds.dfg, BOUNDS_BEFORE.dfg),
        (
            "verify recurrence bound",
            &bounds.verify,
            BOUNDS_BEFORE.verify,
        ),
    ] {
        gated(
            latency.large.p50 <= BOUNDS_LARGE_LIMIT_NS,
            &format!(
                "{name} ({} graphs, {}-{} nodes): p50 {} ns, p99 {} ns (before: p50 {} ns, \
                 p99 {} ns); {ANALYZE_LARGE_NODES} nodes: p50 {} ns within \
                 {BOUNDS_LARGE_LIMIT_NS} ns",
                bounds.graphs,
                bounds.min_nodes,
                bounds.max_nodes,
                latency.all.p50,
                latency.all.p99,
                before.0,
                before.1,
                latency.large.p50
            ),
        );
    }
    info(&format!(
        "dfg search work: {} probes, {} Bellman-Ford rounds over the {} graphs",
        bounds.dfg_work.probes, bounds.dfg_work.rounds, bounds.graphs
    ));
    failed
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

/// Renders the report as `BENCH_ROTATION.json`.
fn render_json(r: &Report) -> String {
    let Report {
        hardware,
        reps,
        soa,
        dense,
        context: ctx,
        scratch,
        batch,
        replay,
        boundary,
        overhead,
        serve,
        fault,
        objective,
        analyze,
        bounds,
        ..
    } = r;
    let cells = TABLE_3.len();
    let seq_median = r.sweeps[0].median;
    let deterministic = r
        .sweeps
        .iter()
        .all(|s| s.fingerprint == r.sweeps[0].fingerprint);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"table3_sweep\",\n");
    s.push_str(&format!("  \"hardware_threads\": {hardware},\n"));
    s.push_str(&format!("  \"cells\": {cells},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!(
        "  \"deterministic_across_jobs\": {deterministic},\n"
    ));
    let lengths_csv = r
        .lengths
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
    s.push_str(&format!(
        "  \"cycle_replay\": {{\"rotations\": {}, \"replayed\": {}, \"sweep_phases\": {}, \
         \"sweep_rotations\": {}, \"share_pct\": {:.1}}},\n",
        replay.rotations,
        replay.replayed,
        replay.sweep_phases,
        replay.sweep_rotations,
        replay.share_pct()
    ));
    let (before_p50, before_p99) = PHASE_BOUNDARY_BEFORE;
    s.push_str(&format!(
        "  \"phase_boundary_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"samples\": {}, \
         \"before\": {{\"p50\": {before_p50}, \"p99\": {before_p99}}}}},\n",
        boundary.p50, boundary.p90, boundary.p99, boundary.samples
    ));
    s.push_str("  \"driver_overhead\": {\n");
    s.push_str(&format!(
        "    \"driver_seq_ns_p50\": {}, \"legacy_seq_ns_p50\": {}, \"samples\": {},\n",
        overhead.driver.p50, overhead.legacy.p50, overhead.driver.samples
    ));
    s.push_str(&format!(
        "    \"overhead_pct\": {:.2}\n",
        overhead.overhead_pct
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
    s.push_str(&format!(
        "    \"certify_then_analyze\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \
         \"samples\": {}}},\n",
        analyze.certified.p50,
        analyze.certified.p90,
        analyze.certified.p99,
        analyze.certified.samples
    ));
    let (before_p50, before_p99) = CERTIFY_THEN_ANALYZE_BEFORE;
    s.push_str(&format!(
        "    \"certify_then_analyze_before\": {{\"p50\": {before_p50}, \"p99\": {before_p99}}},\n"
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
    for (k, t) in r.sweeps.iter().enumerate() {
        let speedup = seq_median as f64 / t.median as f64;
        s.push_str(&format!(
            "    {{\"jobs\": {}, \"jobs_effective\": {}, \
             \"wall_ns_median\": {}, \"wall_ns_min\": {}, \
             \"speedup_vs_sequential\": {speedup:.3}, \
             \"rows_fingerprint\": \"{:#018x}\"}}{}\n",
            t.jobs,
            t.effective,
            t.median,
            t.min,
            t.fingerprint,
            if k + 1 < r.sweeps.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The baseline CI checks against.
    const CHECKED_IN: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_ROTATION.json"
    ));

    /// Every value `--check` reads: its key as it appears (first) in the
    /// file, and its path.
    const GATED: [(&str, &str); 6] = [
        ("\"rows_fingerprint\"", "results[0].rows_fingerprint"),
        ("\"schedule_lengths\"", "schedule_lengths"),
        (
            "\"solves_per_sec_p50\"",
            "batch_throughput.solves_per_sec_p50",
        ),
        ("\"overhead_pct\"", "driver_overhead.overhead_pct"),
        (
            "\"fault_overhead_pct\"",
            "fault_overhead.fault_overhead_pct",
        ),
        (
            "\"objective_overhead_pct\"",
            "objective_overhead.objective_overhead_pct",
        ),
    ];

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        assert_eq!(
            parse(&[]),
            Ok(Options {
                mode: Mode::Report,
                out: DEFAULT_OUT.to_string(),
                reps: 3
            })
        );
        assert_eq!(
            parse(&["--reps", "5", "--out=o.json"]),
            Ok(Options {
                mode: Mode::Report,
                out: "o.json".to_string(),
                reps: 5
            })
        );
        assert_eq!(parse(&["--reps=0"]).map(|o| o.reps), Ok(1));
        for args in [&["--check", "b.json"][..], &["--check=b.json"]] {
            assert_eq!(
                parse(args).map(|o| o.mode),
                Ok(Mode::Check("b.json".to_string()))
            );
        }
        assert_eq!(parse(&["--certify"]).map(|o| o.mode), Ok(Mode::Certify));
        assert_eq!(
            parse(&["--degradation"]).map(|o| o.mode),
            Ok(Mode::Degradation)
        );
        assert_eq!(
            parse(&["--degradation", "--certify", "--check", "b"]).map(|o| o.mode),
            Ok(Mode::Check("b".to_string()))
        );
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for args in [
            &["--check"][..],
            &["--out"],
            &["--reps"],
            &["--reps", "3", "--check"],
            &["--chek", "BENCH_ROTATION.json"],
            &["--check-baseline=BENCH_ROTATION.json"],
            &["BENCH_ROTATION.json"],
            &["--certify=yes"],
            &["--reps", "many"],
            &["--reps=-1"],
        ] {
            assert!(parse(args).is_err(), "accepted {args:?}");
        }
    }

    #[test]
    fn checked_in_baseline_parses_with_every_gated_path() {
        let doc = json::parse(CHECKED_IN).expect("the baseline is JSON");
        for (_, path) in GATED {
            let value = doc.path(path).expect("gated path resolves");
            match path {
                "results[0].rows_fingerprint" => assert!(value.as_str(path).is_ok()),
                "schedule_lengths" => assert!(value.as_array(path).is_ok()),
                _ => assert!(value.as_f64(path).is_ok(), "{path}"),
            }
        }
        let baseline = Baseline::parse(CHECKED_IN).expect("the baseline parses");
        assert_eq!(baseline.schedule_lengths.len(), TABLE_3.len());
        assert_eq!(
            doc.path("results")
                .and_then(|r| r.as_array("results").map(<[_]>::len)),
            Ok(JOBS.len())
        );
    }

    #[test]
    fn missing_or_mistyped_gated_values_name_their_path() {
        for (key, path) in GATED {
            let missing = CHECKED_IN.replacen(key, "\"renamed\"", 1);
            let mistyped = CHECKED_IN.replacen(key, &format!("{key}: true, \"was\""), 1);
            for broken in [missing, mistyped] {
                match Baseline::parse(&broken) {
                    Ok(_) => panic!("accepted a baseline without a valid {path}"),
                    Err(e) => assert!(e.contains(path), "{path} not named in: {e}"),
                }
            }
        }
    }
}
