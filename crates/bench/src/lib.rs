//! Experiment harness for the rotation-scheduling reproduction.
//!
//! The binaries in `src/bin/` regenerate each table and figure of the
//! paper, and `perf_report` measures and gates the runtime claims. This
//! library hosts the measurement helpers the table binaries share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

use rotsched_baselines::lower_bound;
use rotsched_core::RotationScheduler;
use rotsched_dfg::Dfg;
use rotsched_sched::ResourceSet;

/// One measured row: rotation scheduling on a benchmark under a
/// resource configuration.
#[derive(Clone, Debug)]
pub struct MeasuredRow {
    /// Resource label, e.g. `"3A 2Mp"`.
    pub resources: String,
    /// Our computed lower bound (max of iteration and resource bounds).
    pub lb: u64,
    /// The schedule length rotation scheduling achieved.
    pub rs: u32,
    /// The minimized pipeline depth of the winning schedule.
    pub depth: u32,
    /// Number of distinct best schedules retained.
    pub optima: usize,
    /// Whether the end-to-end simulation of the winning pipeline passed.
    pub verified: bool,
    /// Steady-state register requirement (MAXLIVE) of the winning
    /// pipeline.
    pub registers: u32,
}

/// Runs rotation scheduling (Heuristic 2, paper defaults) on `dfg` under
/// `adders`/`multipliers` and returns the measured row.
///
/// The winning pipeline is additionally expanded and simulated for 25
/// iterations against sequential semantics; `verified` records the
/// outcome.
///
/// # Panics
///
/// Panics if the benchmark graph cannot be scheduled at all (never
/// happens for the suite's graphs).
#[must_use]
pub fn measure_rs(dfg: &Dfg, adders: u32, multipliers: u32, pipelined: bool) -> MeasuredRow {
    let resources = ResourceSet::adders_multipliers(adders, multipliers, pipelined);
    let lb = lower_bound(dfg, &resources).expect("valid benchmark graph");
    let scheduler = RotationScheduler::new(dfg, resources.clone());
    let solved = scheduler.solve().expect("benchmarks are schedulable");
    let verified = scheduler.verify(&solved.state, 25).is_ok();
    let registers = scheduler
        .loop_schedule(&solved.state)
        .map_or(0, |ls| rotsched_sched::register_pressure(dfg, &ls).max_live);
    MeasuredRow {
        resources: resources.label(),
        lb,
        rs: solved.length,
        depth: solved.depth,
        optima: solved.outcome.best.len(),
        verified,
        registers,
    }
}

/// Parses `--jobs N` (or `--jobs=N`) from the process arguments;
/// defaults to 1. Every experiment binary accepts this flag and fans
/// its benchmark × resource-config cells out over
/// [`rotsched_core::parallel_indexed`] — output is collected and
/// printed in a fixed order, so the tables are byte-identical for every
/// `--jobs` value.
#[must_use]
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or(1);
        }
        if let Some(v) = arg.strip_prefix("--jobs=") {
            return v.parse().unwrap_or(1);
        }
    }
    1
}

/// Formats a measured row against published numbers for table printing.
#[must_use]
pub fn format_row(row: &MeasuredRow, paper_lb: u32, paper_rs: u32, paper_depth: u32) -> String {
    format!(
        "{:<8} | LB {:>2} (paper {:>2}) | RS {:>2}({}) (paper {:>2}({})) | optima {:>2} | regs {:>2} | {}",
        row.resources,
        row.lb,
        paper_lb,
        row.rs,
        row.depth,
        paper_rs,
        paper_depth,
        row.optima,
        row.registers,
        if row.verified { "verified" } else { "VERIFY-FAILED" }
    )
}
