//! # rotsched-dfg — data-flow graphs for loop scheduling
//!
//! This crate implements the data-flow-graph substrate of the rotation
//! scheduling paper (Chao, LaPaugh, Sha — *Rotation Scheduling: A Loop
//! Pipelining Algorithm*, DAC 1993): the graph model `G = (V, E, d, t)`,
//! retiming functions with the paper's sign convention, and the cyclic
//! graph analyses the scheduler and its evaluation rely on (critical
//! path, iteration bound, SCCs, cycle enumeration, shortest paths,
//! feasibility retiming, unfolding).
//!
//! A loop is modeled as a directed graph whose nodes are computations and
//! whose edges carry *delay* counts: an edge `u → v` with `d` delays means
//! iteration `j` of `v` consumes what iteration `j − d` of `u` produced.
//! Edges without delays are intra-iteration precedences and must form a
//! DAG; that DAG is what a static schedule has to obey, and its longest
//! path is the iteration period.
//!
//! ## Quick start
//!
//! ```
//! use rotsched_dfg::{analysis, Dfg, DfgBuilder, OpKind, Retiming};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // y[j] = a * y[j-1] + x[j] — a first-order IIR section.
//! let g = DfgBuilder::new("iir")
//!     .node("mul", OpKind::Mul, 2)
//!     .node("add", OpKind::Add, 1)
//!     .wire("mul", "add")      // product used this iteration
//!     .edge("add", "mul", 1)   // y fed back through one register
//!     .build()?;
//!
//! // Without pipelining the loop takes the critical path every iteration…
//! assert_eq!(analysis::critical_path_length(&g, None)?, 3);
//! // …and no pipeline can beat the iteration bound.
//! assert_eq!(analysis::iteration_bound(&g)?, Some(3));
//!
//! // Retiming the multiplier changes which precedences bind:
//! let r = Retiming::from_set(&g, [g.node_by_name("mul").unwrap()]);
//! assert!(r.is_legal(&g));
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate map
//!
//! * [`Dfg`], [`DfgBuilder`] — the graph and its fluent builder.
//! * [`Retiming`] — retiming functions: legality, composition,
//!   normalization, pipeline depth (Property 2 of the paper).
//! * [`analysis`] — critical path, iteration bound (exact max cycle
//!   ratio), SCCs, simple cycles, Bellman–Ford, FEAS retiming.
//! * [`dot`] / [`text`] — Graphviz export and a plain-text fixture
//!   format.
//! * [`json`] — the byte-stable JSON string quoting every JSON renderer
//!   shares, and the reader for the JSON the workspace writes.
//! * [`unfold`] — loop unfolding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod analysis;
mod builder;
mod csr;
pub mod dot;
mod edge;
mod error;
mod graph;
mod ids;
pub mod json;
mod node;
mod op;
mod retiming;
pub mod rng;
pub mod text;
pub mod unfold;

pub use builder::DfgBuilder;
pub use csr::CsrGraph;
pub use edge::Edge;
pub use error::DfgError;
pub use graph::Dfg;
pub use ids::{EdgeId, NodeId, NodeMap};
pub use node::Node;
pub use op::{OpKind, ParseOpKindError};
pub use retiming::Retiming;
