//! # rotsched-serve — the warm-path solve service
//!
//! A long-lived serving layer over [`rotsched_core`]: clients send a
//! problem (graph + resources + policy + budget, in the
//! [`rotsched_core::wire`] text format) and receive the solved kernel,
//! its quality verdict, and key metrics as byte-stable JSON.
//!
//! Most production request streams are heavily repetitive — the same
//! loop kernels under the same resource allocations, over and over.
//! This crate makes the repeated case nearly free:
//!
//! * [`cache`] — a sharded, fingerprint-keyed LRU under a byte budget.
//!   A warm hit returns the cached bytes without ever invoking the
//!   solver (the counters prove it; the perf gates assert on them).
//! * [`flight`] — single-flight coalescing: K concurrent requests for
//!   one cache key trigger exactly one solve; the other K−1 block
//!   briefly and share the leader's byte-exact response.
//! * [`admission`] — deadline admission control: requests carrying a
//!   `deadline-ms` budget are shed (a distinct `shed` status) when the
//!   projected queue wait already exceeds the deadline, instead of
//!   burning a solve that cannot arrive in time.
//! * [`service`] — the verbs (`solve`/`stats`/`ping`/`shutdown`), the
//!   determinism-preserving warm path, and response rendering. Fully
//!   usable in-process, no socket required.
//! * [`protocol`] / [`server`] — length-prefixed text framing over
//!   TCP, a thread-per-connection accept loop with per-frame read
//!   deadlines, an idle-connection reaper, and structured rejection of
//!   over-cap or empty frames.
//! * [`client`] — a reconnecting client with deadline-aware
//!   exponential backoff and seeded jitter; never retries past the
//!   request deadline, never retries `shutdown`.
//! * [`fault`] — seeded, deterministic fault injection (read stalls,
//!   connection resets, short writes, solver panics, cache-insert
//!   drops, clock skew) behind a zero-cost `NoopFaults` default; every
//!   chaos run is replayable from its seed.
//!
//! ## Determinism
//!
//! For a given request payload, the `solve` response is byte-identical
//! regardless of thread count, cache state, or arrival order. The
//! mechanism: only *completed* solves (no budget stop, no panicked
//! worker) enter the cache — a completed-under-budget search is
//! bit-identical to the unlimited search — and requests whose budget
//! makes truncation part of the contract bypass the cache lookup. See
//! [`service`] for the full case analysis.
//!
//! ## Failure model
//!
//! Any fault — an I/O failure, a slow or hostile peer, a solver-thread
//! death — degrades the affected request to a well-defined status
//! (`error`, `shed`, or the fixed-byte `faulted`), never a hang, a
//! wedged single-flight key, or a wrong-bytes response. Every solve
//! request lands in exactly one terminal counter, preserving
//! `cache_hits + coalesced + solver_invocations + shed + faulted ==
//! requests`; the chaos soak suite drives every fault class against
//! the invariant. DESIGN.md §12 has the full fault-class table.
//!
//! ## Quick start
//!
//! ```
//! use rotsched_serve::{Handled, ServeConfig, SolveService};
//!
//! let service = SolveService::new(ServeConfig::default());
//! let payload = "solve\n\
//!     dfg ring\n\
//!     node a add 1\n\
//!     node b add 1\n\
//!     edge a b 0\n\
//!     edge b a 2\n";
//! let cold = service.handle(payload);
//! let warm = service.handle(payload);
//! assert_eq!(cold, warm);                       // byte-identical
//! assert_eq!(service.counters().solver_invocations, 1); // solved once
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod corpus;
pub mod fault;
pub mod flight;
pub mod protocol;
pub mod server;
pub mod service;

pub use admission::{admit_decision, AdmissionGauge, SolvePermit};
pub use cache::{CacheReport, SolveCache};
pub use client::{RetryClient, RetryPolicy, RetryStats};
pub use corpus::seeded_corpus;
pub use fault::{FaultPlan, FaultSite, FaultTrace, Faults, InjectedFaults, NoopFaults, WriteFault};
pub use flight::{FlightOutcome, FlightTable, FlightTicket, Leader};
pub use protocol::{
    read_frame, read_frame_limited, request, write_frame, Connection, FrameError, MAX_FRAME_BYTES,
};
pub use server::Server;
pub use service::{
    faulted_response, quality_status, CounterSnapshot, Handled, ServeConfig, ServeCounters,
    SolveService, RESPONSE_SCHEMA,
};
