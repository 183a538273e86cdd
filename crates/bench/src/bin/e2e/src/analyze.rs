//! The `analyze-256` workload: what `solve --certify --analyze --format
//! json` does after its solve. Setup solves each graph under a fixed
//! rotation budget (a deterministic truncation); one op certifies the
//! kernel with the independent verifier, runs every analysis pass over
//! it, and renders both reports as JSON.

use std::hint::black_box;
use std::time::Instant;

use rotsched_baselines::lower_bound;
use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{Budget, RotationScheduler, SolveQuality};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::Dfg;
use rotsched_sched::{
    analyze_loop_schedule, verify_spec, verify_starts, LoopSchedule, ResourceSet,
};
use rotsched_verify::{
    analyze_in_order, certify_claim, lint, recurrence_bound, render_json_array, Claim, LintContext,
    LintOptions, ResourceSpec, ScheduleView, StartTimes, ANALYSIS_PASSES,
};

use crate::trace::{uncounted, Layer, Tracer};
use crate::workload::{ensure, shuffle, Checks, Quality, Workload};

/// Graph sizes: 80 to 256 nodes in steps of 16 (12 graphs).
const SIZES: std::ops::RangeInclusive<usize> = 5..=16;
const SIZE_STEP: usize = 16;
/// The generator's densities are per node pair; they are scaled so every
/// graph keeps the per-node degree of a 64-node graph.
const DEGREE_NODES: f64 = 64.0;
/// The setup solve's rotation budget.
const SETUP_ROTATIONS: u64 = 64;
/// The seed the graphs and allocations are drawn from, whatever the
/// run's seed.
const POOL_SEED: u64 = 0xA7A1_0256;
/// The analysis passes, in registry order, with the layer each is
/// charged to.
const PASS_LAYERS: [Layer; 4] = [
    Layer::CriticalCycle,
    Layer::Saturation,
    Layer::RegisterPressure,
    Layer::ChainDepth,
];

struct Item {
    dfg: Dfg,
    resources: ResourceSet,
    spec: ResourceSpec,
    kernel: LoopSchedule,
    starts: StartTimes,
    claim: Claim,
}

pub struct AnalyzeWorkload {
    items: Vec<Item>,
    /// Each op's rendered output from the warm-up pass.
    reference: Vec<String>,
    quality: Quality,
}

impl AnalyzeWorkload {
    /// Twelve random graphs of 80 to 256 nodes, each solved under the
    /// setup rotation budget, in a seeded order.
    pub fn build(seed: u64) -> Result<Self, String> {
        assert_eq!(
            ANALYSIS_PASSES.len(),
            PASS_LAYERS.len(),
            "one layer per analysis pass"
        );
        let mut rng = SplitMix64::new(POOL_SEED);
        let defaults = RandomDfgConfig::default();
        let mut items = Vec::new();
        let mut quality = Quality::default();
        for k in SIZES {
            let nodes = k * SIZE_STEP;
            let scale = (DEGREE_NODES / nodes as f64).min(1.0);
            let dfg = random_dfg(
                &RandomDfgConfig {
                    nodes,
                    forward_density: defaults.forward_density * scale,
                    feedback_density: defaults.feedback_density * scale,
                    ..defaults
                },
                rng.next_u64(),
            );
            let resources = ResourceSet::adders_multipliers(
                2 + rng.range_u32(0, 1),
                1 + rng.range_u32(0, 1),
                rng.chance(0.25),
            );
            let rs = RotationScheduler::new(&dfg, resources.clone())
                .with_budget(Budget::unlimited().with_max_rotations(SETUP_ROTATIONS));
            let solved = rs.solve().map_err(|e| format!("{}: {e}", dfg.name()))?;
            let kernel = rs
                .loop_schedule(&solved.state)
                .map_err(|e| format!("{}: {e}", dfg.name()))?;
            let bound = lower_bound(&dfg, &resources).map_err(|e| e.to_string())?;
            quality.add(&dfg, &kernel, bound);
            let claim = Claim {
                kernel_length: kernel.kernel_length(),
                depth: Some(kernel.retiming().depth()),
                optimal: matches!(solved.quality, SolveQuality::Optimal),
                registers: Some(rotsched_core::objective::static_registers(
                    &dfg,
                    kernel.retiming(),
                )),
                code_size: Some(rotsched_core::objective::code_size(&dfg, kernel.retiming())),
            };
            items.push(Item {
                spec: verify_spec(&resources),
                starts: verify_starts(&dfg, kernel.schedule()),
                dfg,
                resources,
                kernel,
                claim,
            });
        }
        shuffle(&mut items, seed);
        Ok(AnalyzeWorkload {
            items,
            reference: Vec::new(),
            quality,
        })
    }

    /// The inputs as text, for the input-determinism test.
    #[cfg(test)]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for it in &self.items {
            out.push_str(&format!(
                "{} {:?}\n{}\n",
                it.resources.label(),
                it.claim,
                rotsched_dfg::text::to_text(&it.dfg)
            ));
        }
        out
    }

    /// One op, untraced: certify + analyze + render.
    fn op(&self, i: usize) -> (String, bool) {
        let it = &self.items[i];
        let cert = certify_claim(
            &it.dfg,
            &it.spec,
            Some(it.kernel.retiming()),
            &it.starts,
            &it.claim,
        );
        let report = analyze_loop_schedule(&it.dfg, &it.resources, &it.kernel);
        let certified = cert.is_ok();
        (
            render(&it.dfg, &cert, &report),
            certified && !report.has_errors(),
        )
    }

    /// One op with spans around each layer call, then the per-layer
    /// probes outside the op's span. Returns the op's latency.
    fn traced_op(&self, i: usize, tracer: &mut Tracer) -> (u64, String) {
        let it = &self.items[i];
        let root = tracer.open(Layer::VerifyOp, i);
        let t = tracer.clock.now();
        let cert = certify_claim(
            &it.dfg,
            &it.spec,
            Some(it.kernel.retiming()),
            &it.starts,
            &it.claim,
        );
        tracer.record(Layer::Certify, t, i, Some(root));
        let t = tracer.clock.now();
        let report = analyze_loop_schedule(&it.dfg, &it.resources, &it.kernel);
        tracer.record(Layer::Analysis, t, i, Some(root));
        let t = tracer.clock.now();
        let rendered = render(&it.dfg, &cert, &report);
        tracer.record(Layer::Render, t, i, Some(root));
        let latency = tracer.close(root);

        uncounted(|| {
            let view = ScheduleView {
                starts: &it.starts,
                retiming: it.kernel.retiming(),
                kernel_length: it.kernel.kernel_length(),
            };
            let t = tracer.clock.now();
            black_box(analyze_in_order(&it.dfg, &it.spec, Some(&view), &[]));
            tracer.record(Layer::AnalysisBase, t, i, None);
            let options = LintOptions::default();
            let t = tracer.clock.now();
            black_box(lint(
                &it.dfg,
                &LintContext {
                    spec: Some(&it.spec),
                    retiming: Some(it.kernel.retiming()),
                    options: &options,
                    recurrence_hint: None,
                },
            ));
            tracer.record(Layer::Lint, t, i, None);
            for (k, &layer) in PASS_LAYERS.iter().enumerate() {
                let t = tracer.clock.now();
                black_box(analyze_in_order(&it.dfg, &it.spec, Some(&view), &[k]));
                tracer.record(layer, t, i, None);
            }
            let t = tracer.clock.now();
            black_box(recurrence_bound(&it.dfg));
            tracer.record(Layer::RecurrenceBound, t, i, None);
        });
        (latency, rendered)
    }

    fn same_bytes(&self, i: usize, rendered: &str) -> Result<(), String> {
        ensure(rendered == self.reference[i], || {
            format!("analyze op {i}: report bytes differ from the warm-up pass")
        })
    }
}

/// The certificate (or the rejection) followed by the analysis report.
fn render(
    dfg: &Dfg,
    cert: &Result<rotsched_verify::Certificate, Vec<rotsched_verify::Diagnostic>>,
    report: &rotsched_verify::AnalysisReport,
) -> String {
    let mut out = match cert {
        Ok(cert) => cert.render_json(),
        Err(bad) => render_json_array(bad, dfg),
    };
    out.push('\n');
    out.push_str(&report.render_json(dfg));
    out
}

impl Workload for AnalyzeWorkload {
    fn ops(&self) -> usize {
        self.items.len()
    }

    fn root_layer(&self) -> Layer {
        Layer::VerifyOp
    }

    fn spans_per_op(&self) -> usize {
        11
    }

    fn warm_up(&mut self, checks: &mut Checks) -> Quality {
        self.reference.clear();
        for i in 0..self.items.len() {
            let (rendered, clean) = self.op(i);
            checks.op(ensure(clean, || {
                format!(
                    "analyze op {i} ({}): kernel not certified or analysis reports errors",
                    self.items[i].dfg.name()
                )
            }));
            self.reference.push(rendered);
        }
        self.quality
    }

    fn pass(&mut self, times: &mut [u64], checks: &mut Checks, tracer: Option<&mut Tracer>) {
        match tracer {
            Some(tracer) => {
                for (i, time) in times.iter_mut().enumerate() {
                    let (latency, rendered) = self.traced_op(i, tracer);
                    *time = latency;
                    checks.op(self.same_bytes(i, &rendered));
                }
            }
            None => {
                for (i, time) in times.iter_mut().enumerate() {
                    let start = Instant::now();
                    let (rendered, _) = black_box(self.op(i));
                    *time = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    checks.op(self.same_bytes(i, &rendered));
                }
            }
        }
    }

    fn layer_metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        // A pass's own cost: analysis with only that pass, minus the
        // analysis with none (traversal cache and lint), per op.
        let pass_s = |layer: Layer| {
            let ns: u64 = tracer
                .minima
                .iter()
                .map(|row| row[layer as usize].saturating_sub(row[Layer::AnalysisBase as usize]))
                .sum();
            ns as f64 / 1e9
        };
        vec![
            ("verify.certify_s", tracer.layer_s(Layer::Certify)),
            ("verify.analysis_s", tracer.layer_s(Layer::Analysis)),
            (
                "verify.analysis.base_s",
                tracer.layer_s(Layer::AnalysisBase),
            ),
            ("verify.lint_s", tracer.layer_s(Layer::Lint)),
            (
                "verify.analysis.critical_cycle_s",
                pass_s(Layer::CriticalCycle),
            ),
            ("verify.analysis.saturation_s", pass_s(Layer::Saturation)),
            (
                "verify.analysis.register_pressure_s",
                pass_s(Layer::RegisterPressure),
            ),
            ("verify.analysis.chain_depth_s", pass_s(Layer::ChainDepth)),
            (
                "verify.recurrence_bound_ns_p50",
                tracer.layer_p(Layer::RecurrenceBound, 50.0) as f64,
            ),
            ("verify.render_s", tracer.layer_s(Layer::Render)),
        ]
    }
}
