//! The analysis arms: the static-analysis framework's latency, and the
//! two cycle-ratio bounds on the graphs of the e2e `analyze-256`
//! workload.

use std::time::Instant;

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::initial_state;
use rotsched_dfg::analysis::RatioWork;
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, ResourceSet};

use crate::report::{before, elapsed_ns, info, time_one, Percentiles, Sheet};

/// Graphs in the analyze-arm latency suite.
const ANALYZE_SUITE_GRAPHS: u64 = 8;
/// Nodes per suite graph.
const ANALYZE_SUITE_NODES: usize = 64;
/// Timed full-analysis repetitions per graph.
const ANALYZE_REPS: usize = 9;
/// Nodes in the large analyze-gate graph.
const ANALYZE_LARGE_NODES: usize = 256;
/// Smoke gate: one full schedule-mode analysis (all four passes plus
/// the lint sweep) of the 256-node graph under 5 ms at p50, invisible
/// next to the solve it annotates; the cycle-ratio search and the lint
/// sweep take most of it.
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
/// and read 11.3 ms and 5.7 ms there (`bounds_before`).
const BOUNDS_LARGE_LIMIT_NS: u64 = 1_500_000;

/// Times one full analysis of `graphs` graphs of `nodes` nodes each
/// against the initial list schedule (the schedule-aware mode, which
/// does strictly more than static-only), byte-comparing every
/// repetition's JSON with the first. With `certify`, each repetition
/// first certifies the schedule, as `solve --certify --analyze` does.
fn analyze_percentiles(
    nodes: usize,
    graphs: u64,
    certify: bool,
    byte_stable: &mut bool,
) -> Percentiles {
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
    Percentiles::of(&mut ns)
}

/// The analysis arm's readings: full-analysis latency over the 64-node
/// suite and on the large graph, certify-then-analyze latency over the
/// suite, and whether every repetition rendered byte-identical JSON.
pub struct Analysis {
    pub suite: Percentiles,
    pub large: Percentiles,
    pub certified: Percentiles,
    pub byte_stable: bool,
}

impl Analysis {
    /// Measures the analysis framework. A plain solve pays nothing for
    /// it: analysis runs only behind `--analyze`, which the sweep
    /// fingerprint would expose if it changed.
    pub fn measure() -> Analysis {
        let mut byte_stable = true;
        let mut run =
            |nodes, graphs, certify| analyze_percentiles(nodes, graphs, certify, &mut byte_stable);
        Analysis {
            suite: run(ANALYZE_SUITE_NODES, ANALYZE_SUITE_GRAPHS, false),
            large: run(ANALYZE_LARGE_NODES, 1, false),
            certified: run(ANALYZE_SUITE_NODES, ANALYZE_SUITE_GRAPHS, true),
            byte_stable,
        }
    }

    /// Gates the 256-node analysis under its budget and every
    /// repetition byte-identical.
    pub fn record(&self, sheet: &mut Sheet) {
        let (suite, large, certified) = (&self.suite, &self.large, &self.certified);
        info(&suite.line(&format!("full analysis ({ANALYZE_SUITE_NODES}-node suite)")));
        info(&format!(
            "{} (before: p50 {} ns, p99 {} ns)",
            certified.line(&format!(
                "certify + full analysis ({ANALYZE_SUITE_NODES}-node suite)"
            )),
            before("analyze.certify_then_analyze_before.p50"),
            before("analyze.certify_then_analyze_before.p99")
        ));
        sheet.gate(
            large.p50 <= ANALYZE_LARGE_LIMIT_NS,
            &format!(
                "full analysis ({ANALYZE_LARGE_NODES} nodes): p50 {} ns within \
                 {ANALYZE_LARGE_LIMIT_NS} ns",
                large.p50
            ),
        );
        sheet.gate(
            self.byte_stable,
            &format!(
                "analysis reports byte-identical across {} runs",
                suite.samples + large.samples
            ),
        );
        sheet.put("analyze.suite_nodes", &ANALYZE_SUITE_NODES);
        sheet.put("analyze.suite_graphs", &ANALYZE_SUITE_GRAPHS);
        sheet.put("analyze.suite_ns_p50", &suite.p50);
        sheet.put("analyze.suite_ns_p90", &suite.p90);
        sheet.put("analyze.suite_ns_p99", &suite.p99);
        sheet.put("analyze.suite_samples", &suite.samples);
        sheet.put("analyze.large_nodes", &ANALYZE_LARGE_NODES);
        sheet.put("analyze.large_ns_p50", &large.p50);
        sheet.put("analyze.large_limit_ns", &ANALYZE_LARGE_LIMIT_NS);
        sheet.spread("analyze.certify_then_analyze", certified);
        sheet.before("analyze.certify_then_analyze_before");
        sheet.put("analyze.byte_stable", &self.byte_stable);
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

/// One bound's latency: over every graph, and on the largest alone.
pub struct BoundLatency {
    pub all: Percentiles,
    pub large: Percentiles,
}

/// The `bounds` arm's readings: `dfg::analysis::iteration_bound`, as
/// every solve's lower bound runs it, `verify::recurrence_bound`, as
/// every certificate runs it, and the dfg search's deterministic work
/// over one pass of the graphs.
pub struct Bounds {
    pub graphs: usize,
    pub min_nodes: usize,
    pub max_nodes: usize,
    pub dfg: BoundLatency,
    pub verify: BoundLatency,
    pub work: RatioWork,
}

impl Bounds {
    /// Times both bounds `BOUNDS_REPS` times each on every graph of
    /// [`analyze256_graphs`], alternating the two so machine noise hits
    /// both alike; the last, largest graph is the `large` one.
    pub fn measure() -> Bounds {
        use rotsched_dfg::analysis::{iteration_bound, max_cycle_ratio_counted};
        use rotsched_verify::recurrence_bound;
        let graphs = analyze256_graphs();
        let mut dfg_ns = Vec::with_capacity(graphs.len() * BOUNDS_REPS);
        let mut verify_ns = Vec::with_capacity(graphs.len() * BOUNDS_REPS);
        let (mut dfg_large, mut verify_large) = (Vec::new(), Vec::new());
        let mut work = RatioWork::default();
        for (i, g) in graphs.iter().enumerate() {
            max_cycle_ratio_counted(g, &mut work).expect("valid graph");
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
        Bounds {
            graphs: graphs.len(),
            min_nodes: graphs.iter().map(Dfg::node_count).min().unwrap_or(0),
            max_nodes: graphs.iter().map(Dfg::node_count).max().unwrap_or(0),
            dfg: BoundLatency {
                all: Percentiles::of(&mut dfg_ns),
                large: Percentiles::of(&mut dfg_large),
            },
            verify: BoundLatency {
                all: Percentiles::of(&mut verify_ns),
                large: Percentiles::of(&mut verify_large),
            },
            work,
        }
    }

    /// Gates each bound of the 256-node graph under its budget at p50 —
    /// the full-sweep probes they replaced read 7.6x and 3.8x over it.
    pub fn record(&self, sheet: &mut Sheet) {
        let (graphs, min, max) = (self.graphs, self.min_nodes, self.max_nodes);
        let bounds = [
            ("dfg iteration bound", "dfg_iteration_bound", &self.dfg),
            (
                "verify recurrence bound",
                "verify_recurrence_bound",
                &self.verify,
            ),
        ];
        for (name, key, latency) in bounds {
            sheet.gate(
                latency.large.p50 <= BOUNDS_LARGE_LIMIT_NS,
                &format!(
                    "{name} ({graphs} graphs, {min}-{max} nodes): p50 {} ns, p99 {} ns (before: \
                     p50 {} ns, p99 {} ns); {ANALYZE_LARGE_NODES} nodes: p50 {} ns within \
                     {BOUNDS_LARGE_LIMIT_NS} ns",
                    latency.all.p50,
                    latency.all.p99,
                    before(&format!("bounds_before.{key}.p50")),
                    before(&format!("bounds_before.{key}.p99")),
                    latency.large.p50
                ),
            );
        }
        info(&format!(
            "dfg search work: {} probes, {} Bellman-Ford rounds over the {graphs} graphs",
            self.work.probes, self.work.rounds
        ));
        sheet.put("bounds.graphs", &graphs);
        sheet.put("bounds.min_nodes", &min);
        sheet.put("bounds.max_nodes", &max);
        sheet.put("bounds.reps", &BOUNDS_REPS);
        for (_, key, latency) in bounds {
            sheet.put(format!("bounds.{key}.p50"), &latency.all.p50);
            sheet.put(format!("bounds.{key}.p99"), &latency.all.p99);
            sheet.put(format!("bounds.{key}.samples"), &latency.all.samples);
            sheet.put(format!("bounds.{key}.large_p50"), &latency.large.p50);
        }
        sheet.put("bounds.dfg_probes", &self.work.probes);
        sheet.put("bounds.dfg_rounds", &self.work.rounds);
        sheet.put("bounds.large_nodes", &max);
        sheet.put("bounds.large_limit_ns", &BOUNDS_LARGE_LIMIT_NS);
        sheet.before("bounds_before");
    }
}
