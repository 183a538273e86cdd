//! # rotsched-baselines — comparators and bounds for rotation scheduling
//!
//! The evaluation of the rotation paper needs three kinds of reference
//! points, all provided here:
//!
//! * [`bounds`] — lower bounds (`LB` columns): iteration bound, resource
//!   bound, and their combination.
//! * Executable baselines:
//!   [`dag_only`](crate::dag_only::dag_only) (no pipelining),
//!   [`unfold_sched`] (unroll-and-schedule, loop-winding style), and
//!   [`modulo`] (Rau-style iterative modulo scheduling — the classic
//!   software-pipelining alternative).
//! * [`published`] — the PBS / MARS / Lee et al. numbers quoted by the
//!   paper, as cited constants.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod bounds;
pub mod dag_only;
pub mod modulo;
pub mod published;
pub mod retime_first;
pub mod unfold_sched;

pub use bounds::{lower_bound, resource_bound};
pub use dag_only::{dag_only, DagOnlyResult};
pub use modulo::{minimum_ii, modulo_schedule, ModuloConfig, ModuloResult};
pub use published::{resource_label, PublishedRow, TABLE_2, TABLE_3};
pub use retime_first::{retime_then_schedule, RetimeFirstResult};
pub use unfold_sched::{unfold_and_schedule, unfold_sweep, UnfoldResult};
