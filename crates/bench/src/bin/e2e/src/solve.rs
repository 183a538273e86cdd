//! The `paper` and `random-64` workloads: one op is a full solve —
//! `RotationScheduler::solve` plus `loop_schedule` under the paper's
//! defaults — of one graph under one resource allocation.

use std::hint::black_box;
use std::time::Instant;

use rotsched_baselines::{lower_bound, TABLE_2, TABLE_3};
use rotsched_benchmarks::{all_benchmarks, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::depth::{into_loop_schedule, minimized_depth};
use rotsched_core::{HeuristicConfig, RotationScheduler, SearchDriver, SolveOutcome, SolveQuality};
use rotsched_dfg::analysis::iteration_bound;
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::Dfg;
use rotsched_sched::{
    simulate, verify_spec, verify_starts, ListScheduler, LoopSchedule, ResourceSet,
};
use rotsched_verify::{certify_claim, Claim};

use crate::trace::{uncounted, EngineProbe, Layer, Tracer};
use crate::workload::{ensure, shuffle, Checks, Quality, Workload};

/// Graphs per `random-64` pass.
const RANDOM_GRAPHS: usize = 8;
/// The seed `random-64`'s graphs are drawn from, whatever the run's seed.
const RANDOM_POOL_SEED: u64 = 0x7A4D_0064;
/// Node counts of `random-64` graphs are drawn from this range.
const RANDOM_NODES: (usize, usize) = (32, 64);
/// Iterations each warm-up kernel is simulated for against sequential
/// loop semantics.
const SIMULATED_ITERATIONS: u32 = 25;

/// One op: a graph under a resource allocation.
#[derive(Clone, Debug)]
struct Cell {
    graph: usize,
    resources: ResourceSet,
    /// The paper's published rotation-scheduling result, if any.
    published: Option<u32>,
}

/// What a solve must reproduce on every pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Solved {
    ii: u32,
    depth: u32,
    rotations: usize,
}

impl Solved {
    fn of(outcome: &SolveOutcome) -> Self {
        Solved {
            ii: outcome.length,
            depth: outcome.depth,
            rotations: outcome.stats.total_rotations,
        }
    }
}

pub struct SolveWorkload {
    graphs: Vec<Dfg>,
    cells: Vec<Cell>,
    reference: Vec<Solved>,
}

impl SolveWorkload {
    /// The 38 published cells — Table 2's seven elliptic-filter cells
    /// and Table 3's 31 — in a seeded order.
    pub fn paper(seed: u64) -> Self {
        let suite = all_benchmarks(&TimingModel::paper());
        let mut cells: Vec<Cell> = TABLE_2
            .iter()
            .chain(TABLE_3)
            .map(|row| Cell {
                graph: suite
                    .iter()
                    .position(|(name, _)| *name == row.benchmark)
                    .expect("every published row names a suite benchmark"),
                resources: ResourceSet::adders_multipliers(
                    row.adders,
                    row.multipliers,
                    row.pipelined,
                ),
                published: Some(row.rs),
            })
            .collect();
        shuffle(&mut cells, seed);
        SolveWorkload {
            graphs: suite.into_iter().map(|(_, g)| g).collect(),
            cells,
            reference: Vec::new(),
        }
    }

    /// Random graphs of 32–64 nodes under 2–3 adders and 1–2
    /// multipliers, in a seeded order.
    pub fn random64(seed: u64) -> Self {
        let mut rng = SplitMix64::new(RANDOM_POOL_SEED);
        let mut graphs = Vec::with_capacity(RANDOM_GRAPHS);
        let mut cells = Vec::with_capacity(RANDOM_GRAPHS);
        for graph in 0..RANDOM_GRAPHS {
            let nodes = RANDOM_NODES.0 + rng.index(RANDOM_NODES.1 - RANDOM_NODES.0 + 1);
            let config = RandomDfgConfig {
                nodes,
                ..RandomDfgConfig::default()
            };
            graphs.push(random_dfg(&config, rng.next_u64()));
            cells.push(Cell {
                graph,
                resources: ResourceSet::adders_multipliers(
                    2 + rng.range_u32(0, 1),
                    1 + rng.range_u32(0, 1),
                    false,
                ),
                published: None,
            });
        }
        shuffle(&mut cells, seed);
        SolveWorkload {
            graphs,
            cells,
            reference: Vec::new(),
        }
    }

    /// The inputs as text, for the input-determinism test.
    #[cfg(test)]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            let g = &self.graphs[cell.graph];
            out.push_str(&format!(
                "{} {:?}\n{}\n",
                cell.resources.label(),
                cell.published,
                rotsched_dfg::text::to_text(g)
            ));
        }
        out
    }

    fn label(&self, i: usize) -> String {
        let cell = &self.cells[i];
        format!(
            "op {i} ({} under {})",
            self.graphs[cell.graph].name(),
            cell.resources.label()
        )
    }

    fn matches(&self, i: usize, got: Solved) -> Result<(), String> {
        ensure(got == self.reference[i], || {
            format!(
                "{}: solved {got:?}, warm-up solved {:?}",
                self.label(i),
                self.reference[i]
            )
        })
    }

    /// Solves cell `i` through the traced composition of the facade's
    /// steps; returns the op's latency.
    fn traced_op(&self, i: usize, tracer: &mut Tracer, checks: &mut Checks) -> u64 {
        let cell = &self.cells[i];
        let g = &self.graphs[cell.graph];
        let root = tracer.open(Layer::Solve, i);
        let scheduler = ListScheduler::default();
        let resources = cell.resources.clone();
        let t = tracer.clock.now();
        let outcome = {
            let mut probe = EngineProbe::new(tracer, i);
            let outcome = SearchDriver::incremental(g, &scheduler, &resources)
                .with_observer(&mut probe)
                .heuristic2(&HeuristicConfig::default());
            probe.finish();
            outcome
        };
        tracer.record(Layer::Heuristic2, t, i, Some(root));
        let t = tracer.clock.now();
        black_box(lower_bound(g, &resources).ok());
        tracer.record(Layer::LowerBound, t, i, Some(root));
        let solved = match outcome {
            Ok(outcome) => {
                let state = outcome
                    .best
                    .first()
                    .expect("Heuristic 2 keeps a best schedule");
                let t = tracer.clock.now();
                let depth = minimized_depth(g, state);
                tracer.record(Layer::MinimizedDepth, t, i, Some(root));
                let t = tracer.clock.now();
                let kernel = into_loop_schedule(g, &resources, state);
                tracer.record(Layer::LoopSchedule, t, i, Some(root));
                black_box(&kernel);
                match (depth, kernel) {
                    (Ok(depth), Ok(_)) => Ok(Solved {
                        ii: outcome.best_length,
                        depth,
                        rotations: outcome.total_rotations,
                    }),
                    (Err(e), _) | (_, Err(e)) => Err(format!("{}: {e}", self.label(i))),
                }
            }
            Err(e) => Err(format!("{}: {e}", self.label(i))),
        };
        let latency = tracer.close(root);
        uncounted(|| {
            let t = tracer.clock.now();
            black_box(iteration_bound(g).ok());
            tracer.record(Layer::IterationBound, t, i, None);
        });
        checks.op(solved.and_then(|s| self.matches(i, s)));
        latency
    }
}

/// The op as a user runs it: the facade's solve plus loop expansion.
fn solve(g: &Dfg, resources: &ResourceSet) -> Result<(SolveOutcome, LoopSchedule), String> {
    let rs = RotationScheduler::new(g, resources.clone());
    let solved = rs.solve().map_err(|e| e.to_string())?;
    let kernel = rs.loop_schedule(&solved.state).map_err(|e| e.to_string())?;
    Ok((solved, kernel))
}

/// The warm-up oracle for one solved cell.
fn oracle(
    g: &Dfg,
    cell: &Cell,
    solved: &SolveOutcome,
    kernel: &LoopSchedule,
    bound: u64,
) -> Result<(), String> {
    ensure(u64::from(solved.length) >= bound, || {
        format!("II {} is below the lower bound {bound}", solved.length)
    })?;
    if let Some(published) = cell.published {
        ensure(solved.length <= published, || {
            format!(
                "II {} is worse than the published {published}",
                solved.length
            )
        })?;
    }
    ensure(kernel.kernel_length() == solved.length, || {
        format!(
            "expanded kernel length {} differs from the solved II {}",
            kernel.kernel_length(),
            solved.length
        )
    })?;
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
    certify_claim(
        g,
        &verify_spec(&cell.resources),
        Some(kernel.retiming()),
        &verify_starts(g, kernel.schedule()),
        &claim,
    )
    .map_err(|bad| {
        let first = bad.first().map(|d| d.render_text(g)).unwrap_or_default();
        format!("the verifier rejected the kernel: {first}")
    })?;
    simulate(g, kernel, &cell.resources, SIMULATED_ITERATIONS)
        .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(())
}

impl Workload for SolveWorkload {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn root_layer(&self) -> Layer {
        Layer::Solve
    }

    fn spans_per_op(&self) -> usize {
        6
    }

    fn warm_up(&mut self, checks: &mut Checks) -> Quality {
        let mut quality = Quality::default();
        self.reference.clear();
        for i in 0..self.cells.len() {
            let cell = &self.cells[i];
            let g = &self.graphs[cell.graph];
            let checked = solve(g, &cell.resources).and_then(|(solved, kernel)| {
                let bound = lower_bound(g, &cell.resources).map_err(|e| e.to_string())?;
                oracle(g, cell, &solved, &kernel, bound)?;
                quality.add(g, &kernel, bound);
                Ok(Solved::of(&solved))
            });
            self.reference.push(checked.clone().unwrap_or_default());
            checks.op(checked
                .map(drop)
                .map_err(|e| format!("{}: {e}", self.label(i))));
        }
        quality
    }

    fn pass(&mut self, times: &mut [u64], checks: &mut Checks, tracer: Option<&mut Tracer>) {
        match tracer {
            Some(tracer) => {
                for (i, time) in times.iter_mut().enumerate() {
                    *time = self.traced_op(i, tracer, checks);
                }
            }
            None => {
                for (i, time) in times.iter_mut().enumerate() {
                    let cell = &self.cells[i];
                    let g = &self.graphs[cell.graph];
                    let start = Instant::now();
                    let out = black_box(solve(g, &cell.resources));
                    *time = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    checks.op(out
                        .map_err(|e| format!("{}: {e}", self.label(i)))
                        .and_then(|(solved, _)| self.matches(i, Solved::of(&solved))));
                }
            }
        }
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let c = tracer.engine_reference.unwrap_or_default();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            ("core.engine.rotations", c.rotations as f64),
            ("core.engine.rotated_nodes", c.rotated_nodes as f64),
            (
                "core.engine.step_ns_p50",
                tracer.steps.percentile(50.0) as f64,
            ),
            (
                "core.engine.step_ns_p99",
                tracer.steps.percentile(99.0) as f64,
            ),
            ("core.engine.step_s", tracer.layer_s(Layer::Step)),
            (
                "core.engine.useful_ratio",
                ratio(c.useful_rotations, c.rotations),
            ),
            (
                "core.context.memo_hit_ratio",
                ratio(c.memo_hits, c.memo_hits + c.memo_misses),
            ),
            ("core.context.memo_misses", c.memo_misses as f64),
            ("core.engine.init_s", tracer.layer_s(Layer::EngineInit)),
            (
                "core.engine.phase_setup_s",
                tracer.layer_s(Layer::PhaseSetup),
            ),
            (
                "core.engine.reschedule_s",
                tracer.layer_s(Layer::Reschedule),
            ),
            ("core.engine.phases", c.phases as f64),
            (
                "core.engine.heuristic2_s",
                tracer.layer_s(Layer::Heuristic2),
            ),
            ("baselines.lower_bound_s", tracer.layer_s(Layer::LowerBound)),
            (
                "dfg.iteration_bound_ns_p50",
                tracer.layer_p(Layer::IterationBound, 50.0) as f64,
            ),
            (
                "core.depth.minimized_depth_s",
                tracer.layer_s(Layer::MinimizedDepth),
            ),
            (
                "core.depth.loop_schedule_s",
                tracer.layer_s(Layer::LoopSchedule),
            ),
            ("solve.self_s", tracer.layer_s(Layer::Solve)),
        ]
    }
}
