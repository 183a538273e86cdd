//! What every workload provides to the runner, plus the shared
//! correctness and kernel-quality bookkeeping.

use rotsched_dfg::Dfg;
use rotsched_sched::{register_pressure, LoopSchedule};

use crate::trace::{Layer, Tracer};

/// The benchmark's workloads, in round-robin order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Random64,
    Analyze256,
    ServeMix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Paper,
        Kind::Random64,
        Kind::Analyze256,
        Kind::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Random64 => "random-64",
            Kind::Analyze256 => "analyze-256",
            Kind::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Builds the workload's inputs for `seed`: a pure function of the
    /// seed, so equal seeds give byte-identical inputs. Each workload's
    /// content is drawn once from a fixed seed and the run's seed orders
    /// it, so every seed measures the same work (see README.md).
    pub fn build(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::Paper => Box::new(crate::solve::SolveWorkload::paper(seed)),
            Kind::Random64 => Box::new(crate::solve::SolveWorkload::random64(seed)),
            Kind::Analyze256 => Box::new(crate::analyze::AnalyzeWorkload::build(seed)?),
            Kind::ServeMix => Box::new(crate::serve::ServeWorkload::build(seed)?),
        })
    }
}

/// One workload: a fixed, seeded pass of operations.
pub trait Workload {
    /// Operations per pass.
    fn ops(&self) -> usize;

    /// The root span of one op in a traced pass.
    fn root_layer(&self) -> Layer;

    /// Spans one op records at most in a traced pass (reserved up front).
    fn spans_per_op(&self) -> usize;

    /// Whether a pass runs on the calling thread alone (then its
    /// allocation count must repeat exactly from pass to pass).
    fn single_threaded(&self) -> bool {
        true
    }

    /// The untimed first pass: runs every op once, checks each output
    /// against the oracle, and keeps the references later passes must
    /// reproduce. Returns the quality of the kernels the workload yields.
    fn warm_up(&mut self, checks: &mut Checks) -> Quality;

    /// One pass: each op's latency in nanoseconds goes to `times`, and
    /// each output is checked against its warm-up reference. With a
    /// tracer, the pass also records spans, layer times and counts.
    fn pass(&mut self, times: &mut [u64], checks: &mut Checks, tracer: Option<&mut Tracer>);

    /// The per-layer metrics this workload exercises, from its traced
    /// passes. Layers it bypasses are reported as 0 by the runner.
    fn layer_metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64)>;
}

/// Correctness bookkeeping: every checked op counts as attempted, every
/// op whose output fails a check as failed. A failure is reported,
/// never a panic.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    reported: usize,
}

impl Checks {
    /// How many failures are described on stderr before going quiet.
    const REPORT_LIMIT: usize = 20;

    /// Records one checked op.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records a failed check that is not tied to a single op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reported < Self::REPORT_LIMIT {
            eprintln!("check failed: {why}");
            self.reported += 1;
        }
    }
}

/// Fisher–Yates with a seeded generator: how a run's seed orders a
/// workload's fixed content.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = rotsched_dfg::rng::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Turns a false condition into a check failure with a message.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Quality of the loops a workload generates, summed over its kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Σ kernel length (initiation interval).
    pub ii: u64,
    /// Σ combined recurrence + resource lower bound.
    pub lower_bound: u64,
    /// Σ MAXLIVE register count.
    pub registers: u64,
    /// Σ prologue + epilogue operations.
    pub code_ops: u64,
    /// Σ graph nodes.
    pub nodes: u64,
}

impl Quality {
    pub fn add(&mut self, dfg: &Dfg, kernel: &LoopSchedule, lower_bound: u64) {
        self.ii += u64::from(kernel.kernel_length());
        self.lower_bound += lower_bound;
        self.registers += u64::from(register_pressure(dfg, kernel).max_live);
        self.code_ops += rotsched_core::objective::code_size(dfg, kernel.retiming());
        self.nodes += dfg.node_count() as u64;
    }
}
