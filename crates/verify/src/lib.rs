//! Independent static analysis for rotation scheduling: a DFG lint
//! engine and a certifying verifier.
//!
//! This crate deliberately shares **no scheduling code** with the
//! scheduler crates — its only dependency is the `rotsched-dfg` data
//! model. Retimed delays, reservation folding, precedence rules, and
//! lower bounds are all re-derived here from the paper's definitions,
//! so a certificate is evidence from an implementation diverse from
//! the optimizer that produced the schedule:
//!
//! * [`lint`](crate::lint::lint) — a registry of total analysis passes
//!   over a graph (plus optional resource spec and retiming), emitting
//!   structured [`Diagnostic`]s with stable `E0xx`/`W0xx` codes;
//! * [`certify`](crate::certify::certify) — proves a concrete
//!   (graph, resources, retiming, schedule) quadruple is a legal
//!   wrapped kernel, or returns every violation (`E1xx`);
//! * [`certify_pipeline`] — checks
//!   the prologue/kernel/epilogue expansion against the plain unrolled
//!   loop over a bounded iteration window;
//! * [`analyze`] — the static-analysis
//!   framework: critical-cycle extraction, resource saturation,
//!   register pressure, and chain depths over a shared traversal
//!   cache, rendered as a byte-stable `A0xx` bottleneck report.
//!
//! # Example
//!
//! ```
//! use rotsched_dfg::{Dfg, OpKind};
//! use rotsched_verify::{certify, ResourceSpec, StartTimes};
//!
//! let mut g = Dfg::new("iir");
//! let m = g.add_node("m", OpKind::Mul, 2);
//! let a = g.add_node("a", OpKind::Add, 1);
//! g.add_edge(m, a, 0).unwrap();
//! g.add_edge(a, m, 1).unwrap();
//!
//! let spec = ResourceSpec::adders_multipliers(1, 1, false);
//! let mut s = StartTimes::empty(&g);
//! s.set(m, 1);
//! s.set(a, 3);
//! let cert = certify(&g, &spec, None, &s, 3).expect("legal kernel");
//! assert!(cert.proves_optimal());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod analysis;
pub mod bound;
pub mod certify;
pub mod diag;
mod fold;
pub mod lint;
pub mod pipeline;
pub mod spec;
mod sweep;

pub use analysis::{
    analyze, analyze_in_order, AnalysisContext, AnalysisPass, AnalysisReport, ScheduleView,
    TraversalCache, ANALYSIS_PASSES,
};
pub use bound::{recurrence_bound, recurrence_forces};
pub use certify::{certify, certify_claim, Certificate, Claim, StartTimes};
pub use diag::{render_json_array, sort_canonical, Code, Diagnostic, Locus, Severity};
pub use lint::{has_errors, lint, lint_in_order, LintContext, LintOptions, LintPass, PASSES};
pub use pipeline::{certify_pipeline, expand, ExecEvent, PipelineCertificate};
pub use spec::{ResourceSpec, UnitClass};
