//! # rotsched — rotation scheduling for cyclic data-flow graphs
//!
//! A production-grade Rust reproduction of **"Rotation Scheduling: A
//! Loop Pipelining Algorithm"** (Liang-Fang Chao, Andrea LaPaugh, Edwin
//! Hsing-Mean Sha — DAC 1993): resource-constrained scheduling of loops
//! with inter-iteration dependencies, by incrementally *rotating* the
//! first control steps of a schedule down (an implicit retiming) and
//! rescheduling only those operations.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`dfg`] — the data-flow-graph model, retiming, and cyclic-graph
//!   analyses (critical path, iteration bound, SCCs, cycles, shortest
//!   paths, FEAS retiming, unfolding).
//! * [`sched`] — the scheduling substrate: resource/unit models
//!   (multi-cycle, pipelined), list scheduling (full + incremental),
//!   schedule validation, wrapped schedules, prologue/kernel/epilogue
//!   expansion, and a cycle-accurate pipeline simulator.
//! * [`core`] — rotation scheduling itself: the rotation operators,
//!   the instrumented search engine ([`SearchDriver`] with
//!   [`SearchObserver`] events), rotation phases, Heuristics 1 and 2,
//!   depth minimization, and the high-level [`RotationScheduler`].
//! * [`baselines`] — lower bounds, DAG-only scheduling, unfold-and-
//!   schedule, iterative modulo scheduling, and the paper's published
//!   comparison numbers.
//! * [`verify`] — the independent static analyzer: a DFG lint engine
//!   with stable diagnostic codes, and a certifying verifier that
//!   re-checks retimings, wrapped kernels, and pipeline expansions
//!   while sharing no scheduling code with the solver.
//! * [`serve`] — the warm-path solve service: a sharded fingerprint
//!   cache, single-flight coalescing, deadline admission control, and
//!   a length-prefixed TCP protocol (`rotsched serve`).
//! * [`benchmarks`] — the five DSP benchmarks of Table 1 and random DFG
//!   generators.
//!
//! ## Quick start
//!
//! ```
//! use rotsched::{diffeq, ResourceSet, RotationScheduler, TimingModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's differential-equation solver, with 1 adder and 2
//! // non-pipelined multipliers (Table 3, row "1A 2M").
//! let graph = diffeq(&TimingModel::paper());
//! let scheduler = RotationScheduler::new(
//!     &graph,
//!     ResourceSet::adders_multipliers(1, 2, false),
//! );
//!
//! let solved = scheduler.solve()?;
//! assert_eq!(solved.length, 6); // the iteration bound — a 6-step kernel
//!
//! // Execute the pipeline for 100 iterations and check it against
//! // sequential loop semantics, cycle by cycle.
//! let report = scheduler.verify(&solved.state, 100)?;
//! assert!(report.speedup() > 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use rotsched_baselines as baselines;
pub use rotsched_core as core;
pub use rotsched_dfg as dfg;
pub use rotsched_sched as sched;
pub use rotsched_serve as serve;
pub use rotsched_verify as verify;

/// The benchmark suite (re-exported crate).
pub mod benchmarks {
    pub use rotsched_benchmarks::*;
}

// The most commonly used items, flattened for convenience.
pub use rotsched_baselines::{lower_bound, modulo_schedule, ModuloConfig};
pub use rotsched_benchmarks::{
    all_benchmarks, allpole, biquad, diffeq, elliptic, lattice4, TimingModel,
};
pub use rotsched_core::{
    Budget, CancelToken, HeuristicConfig, Objective, ProblemSpec, RotationError, RotationScheduler,
    RotationState, Score, SearchDriver, SearchEvent, SearchObserver, SearchTrace, SolveOutcome,
    SolveQuality, SolveStats, StopReason, TraceRecorder, DEFAULT_TRACE_EVENTS,
};
pub use rotsched_dfg::{Dfg, DfgBuilder, DfgError, NodeId, OpKind, Retiming};
pub use rotsched_sched::{
    ListScheduler, LoopSchedule, PriorityPolicy, ResourceSet, SchedError, Schedule,
};
