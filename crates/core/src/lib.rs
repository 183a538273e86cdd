//! # rotsched-core — rotation scheduling
//!
//! A from-scratch implementation of **Rotation Scheduling: A Loop
//! Pipelining Algorithm** (Chao, LaPaugh, Sha — DAC 1993):
//! resource-constrained scheduling of loops with inter-iteration
//! dependencies, modeled as cyclic data-flow graphs.
//!
//! The central idea: a legal schedule's first `i` control steps always
//! form a *down-rotatable* set (Property 1). Rotating them down — an
//! implicit retiming recorded in a single node-labeling function — and
//! *incrementally rescheduling only those nodes* on the implicitly
//! retimed DAG compacts the schedule step by step, naturally producing a
//! loop pipeline. No retimed graph is ever constructed; precedence is
//! read through the rotation function.
//!
//! ## Quick start
//!
//! ```
//! use rotsched_core::RotationScheduler;
//! use rotsched_dfg::{DfgBuilder, OpKind};
//! use rotsched_sched::ResourceSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = DfgBuilder::new("recurrence")
//!     .nodes("v", 4, OpKind::Add, 1)
//!     .chain(&["v0", "v1", "v2", "v3"])
//!     .edge("v3", "v0", 2)
//!     .build()?;
//!
//! let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
//! let solved = rs.solve()?;
//! assert_eq!(solved.length, 2);           // = the iteration bound
//! let report = rs.verify(&solved.state, 100)?; // end-to-end simulation
//! assert!(report.speedup() > 1.5);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! * [`rotate`] — down-/up-rotation operators, rotatability checks
//!   (Property 1), and the `DownRotate` procedure (Section 3.1).
//! * [`cycle`] — [`CycleLog`]: the states a rotation phase visits, so
//!   a phase that repeats a state replays its period instead of
//!   rotating again; Heuristic 2 logs its phase starts the same way and
//!   replays the rest of a sweep once a phase start repeats.
//! * [`engine`] — the unified [`SearchDriver`]: one instrumented loop
//!   (step mode × prune × budget × observer) behind every phase,
//!   heuristic, and portfolio worker. Its production step mode,
//!   [`IncrementalStep`], runs each rotation through the scheduling
//!   crate's persistent
//!   [`SchedContext::down_rotate`](rotsched_sched::SchedContext::down_rotate),
//!   so a step costs `O(|R|·deg)` instead of `O(V+E)` (Section 3.3's
//!   complexity claim).
//! * [`trace`] — [`TraceRecorder`]/[`SearchTrace`]: ring-buffered
//!   convergence telemetry over driver events (`rotsched solve
//!   --trace`).
//! * [`phase`] — rotation phases with best-set tracking (Section 5).
//! * [`heuristics`] — the configuration and outcome of Heuristic 1
//!   (independent phases) and Heuristic 2 (chained, decreasing sizes),
//!   the sweeps behind the paper's tables.
//! * [`portfolio`] — deterministic parallel portfolio search over many
//!   independent configurations, with lower-bound-based pruning.
//! * [`depth`] — pipeline-depth minimization via the shortest-path dual
//!   (Section 3.2, Theorem 2, Lemma 3) and loop-schedule expansion.
//! * [`RotationScheduler`] — the high-level facade.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod budget;
pub mod cycle;
pub mod depth;
pub mod engine;
mod error;
pub mod heuristics;
pub mod nested;
pub mod objective;
pub mod phase;
pub mod portfolio;
pub mod rotate;
mod scheduler;
pub mod trace;
pub mod wire;

pub use budget::{Budget, BudgetMeter, CancelToken, StopReason};
pub use cycle::{Cycle, CycleLog};
pub use engine::{
    IncrementalStep, NoopObserver, ScratchStep, SearchDriver, SearchEvent, SearchObserver, StepMode,
};
pub use error::RotationError;
pub use heuristics::{HeuristicConfig, HeuristicOutcome};
pub use objective::{Objective, Score};
pub use phase::{BestSet, PhaseStats};
pub use portfolio::{
    effective_jobs, parallel_indexed, parallel_indexed_isolated, IsolatedResult, Portfolio,
    PortfolioOutcome, PruneSignal, SearchTask, SharedBound, TaskOutcome, TaskReport,
};
pub use rotate::{
    down_rotate, initial_state, is_down_rotatable, up_rotate, DownRotateOutcome, RotationState,
};
pub use scheduler::{ProblemSpec, RotationScheduler, SolveOutcome, SolveQuality, SolveStats};
pub use trace::{
    PhaseCounters, SearchTrace, TaskTrace, TraceEvent, TraceRecorder, DEFAULT_TRACE_EVENTS,
    TRACE_SCHEMA,
};
pub use wire::{
    cache_fingerprint, cache_key_text, fingerprint_text, parse_problem, render_problem, WireError,
};
