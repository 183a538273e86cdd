//! Graph analyses over data-flow graphs.
//!
//! * [`topo`] — topological order of the zero-delay subgraph (optionally
//!   under a retiming), the DAG every static schedule must obey.
//! * [`critical_path`] — longest zero-delay path; the iteration period of
//!   a DFG without resource constraints.
//! * [`paths`] — Bellman–Ford shortest paths with negative-cycle
//!   extraction, used by the depth-minimization LP dual (Section 3.2).
//! * [`scc`] — strongly connected components (Tarjan).
//! * [`cycles`] — simple-cycle enumeration (Johnson), for MARS-style
//!   analyses and exact cross-checks.
//! * [`mod@iteration_bound`] — exact maximum cycle ratio and the iteration
//!   bound `IB` of Table 1.
//! * [`retime_feasibility`] — FEAS retiming to a target period
//!   (Cathedral-II-style preprocessing, and the floor rotation converges
//!   toward).

pub mod critical_path;
pub mod cycles;
pub mod iteration_bound;
pub mod paths;
pub mod retime_feasibility;
pub mod scc;
pub mod topo;

pub use critical_path::{arrival_times, critical_path_length, ArrivalTimes};
pub use cycles::{simple_cycles, Cycle, CycleEnumeration};
pub use iteration_bound::{
    iteration_bound, max_cycle_ratio, max_cycle_ratio_counted, Ratio, RatioWork,
};
pub use paths::{bellman_ford, NegativeCycle, ShortestPaths, WeightedEdge};
pub use retime_feasibility::retime_to_period;
pub use scc::{strongly_connected_components, SccDecomposition};
pub use topo::zero_delay_topological_order;
