//! # rotsched-sched — resource-constrained scheduling substrate
//!
//! Everything rotation scheduling needs underneath it, reusable on its
//! own:
//!
//! * [`ResourceSet`] / [`ResourceClass`] — functional-unit models:
//!   single-cycle, multi-cycle, and pipelined units (the paper's `A`,
//!   `M`, `Mp` classes).
//! * [`ReservationTable`] — per-class, per-control-step unit tracking,
//!   linear and cyclic (for wrapped schedules).
//! * [`Schedule`] — node → control-step maps with lengths, shifting,
//!   prefix extraction, and Figure-2-style table rendering.
//! * [`ListScheduler`] — the paper's `FullSchedule` and
//!   `PartialSchedule` (incremental rescheduling that never moves fixed
//!   nodes), with pluggable [`PriorityPolicy`] weights.
//! * [`validate`] — DAG-schedule checking and the Lemma 1 / Theorem 2
//!   static-schedule certification via shortest paths.
//! * [`wrapping`] — wrapped schedules for multi-cycle tails (Section 4).
//! * [`LoopSchedule`] — prologue / kernel / epilogue expansion
//!   (Figure 4).
//! * [`executor`] — cycle-accurate functional replay of the pipeline
//!   against sequential loop semantics.
//!
//! ## Quick start
//!
//! ```
//! use rotsched_dfg::{DfgBuilder, OpKind};
//! use rotsched_sched::{ListScheduler, ResourceSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = DfgBuilder::new("two-mults")
//!     .nodes("m", 2, OpKind::Mul, 2)
//!     .build()?;
//! let pipelined = ResourceSet::adders_multipliers(1, 1, true);
//! let s = ListScheduler::default().schedule(&g, None, &pipelined)?;
//! // A pipelined multiplier issues back-to-back: steps 1 and 2.
//! assert_eq!(s.length(&g), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod asap_alap;
pub mod binding;
pub mod chaining;
pub mod diagnostics;
mod error;
pub mod executor;
mod incremental;
mod list;
mod priority;
pub mod prologue;
pub mod registers;
mod reservation;
mod resources;
mod schedule;
pub mod validate;
pub mod wrapping;

pub use asap_alap::{timing_bounds, TimingBounds};
pub use binding::{bind_datapath, DatapathBinding};
pub use chaining::{ChainTiming, ChainedSchedule, ChainedScheduler};
pub use diagnostics::{analyze_loop_schedule, verify_spec, verify_starts};
pub use error::SchedError;
pub use executor::{simulate, SimulationError, SimulationReport};
pub use incremental::{CacheStats, SchedContext};
pub use list::{ListScheduler, ZeroSet};
pub use priority::PriorityPolicy;
pub use prologue::{LoopEvent, LoopPhase, LoopSchedule};
pub use registers::{register_pressure, RegisterReport};
pub use reservation::ReservationTable;
pub use resources::{ResourceClass, ResourceClassId, ResourceSet};
pub use schedule::Schedule;
pub use wrapping::{minimal_wrap, wrap_to_length, wrapped_length, WrapScratch, WrappedSchedule};
