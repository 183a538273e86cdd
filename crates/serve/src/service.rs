//! The solve service: the warm path assembled from the cache, the
//! flight table, and the admission gauge. Usable fully in-process —
//! the TCP layer in [`server`](crate::server) is a thin framing shell
//! around [`SolveService::handle`].
//!
//! ## Request verbs
//!
//! The first line of a payload is the verb:
//!
//! * `solve` — the rest of the payload is a problem in the
//!   [`rotsched_core::wire`] format; the response is the solve JSON.
//! * `stats` — counter and cache snapshot (diagnostic; load-dependent).
//! * `ping` — liveness check.
//! * `shutdown` — acknowledge, then stop the server.
//!
//! ## Determinism
//!
//! Responses to `solve` are byte-identical for a given request payload
//! regardless of thread count, cache state, or arrival order:
//!
//! * Only *completed* outcomes — no budget limit fired, no worker
//!   panicked — enter the cache. A completed-under-budget search is
//!   bit-identical to the unlimited search of the same problem, so a
//!   cached response is exactly what a fresh solve would produce.
//! * A canonical payload is its own key: the problem text is looked up
//!   as a key before it is parsed. Keys are a fixed point of the wire
//!   format (see [`rotsched_core::wire`]) and carry no budget line, so
//!   a payload that equals a cached key is an unlimited request whose
//!   parsed path would hit that same entry; a payload with a budget
//!   line never equals a key. A miss falls through to the paths below
//!   unchanged.
//! * Unlimited requests use the full warm path (cache lookup →
//!   single-flight → insert).
//! * Requests with only a rotation budget bypass the cache *lookup*:
//!   their deterministic truncated response must never be shadowed by
//!   a canonical cached answer. Their outcome is still inserted when
//!   the budget never fired (then it *is* the canonical answer).
//! * Requests with a deadline are inherently time-dependent (the same
//!   contract as the CLI's `--deadline-ms`): they get admission
//!   control and, when admitted, the cache lookup plus a solo solve.
//!   A `shed` response is a fixed byte string carrying no load data.
//!
//! ## Graceful degradation
//!
//! A solve whose solver thread dies — a real panic or one injected by
//! the [`fault`](crate::fault) plane — degrades to a fixed-byte
//! `faulted` response instead of poisoning the service: the panic is
//! caught at the solve boundary, the single-flight leadership is
//! *abandoned* (never published, so followers can requeue and re-solve
//! rather than inherit the failure), and the admission permit is
//! released so no phantom load accumulates. Every solve request
//! therefore lands in exactly one terminal bucket, which is the serve
//! invariant the chaos suite asserts:
//!
//! ```text
//! cache_hits + coalesced + solver_invocations + shed + faulted == requests
//! ```
//!
//! (over parse-clean `solve` requests; `parse_errors` and the other
//! verbs are accounted separately).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rotsched_core::wire::{cache_key_text, fingerprint_text, parse_problem};
use rotsched_core::{Objective, ProblemSpec, RotationScheduler, SolveOutcome, SolveQuality};
use rotsched_dfg::json::push_json_string;

use crate::admission::AdmissionGauge;
use crate::cache::{CacheReport, SolveCache};
use crate::fault::{FaultTrace, Faults, NoopFaults};
use crate::flight::{FlightOutcome, FlightTable, FlightTicket};

/// How many times a follower whose leader died re-enters the warm path
/// before giving up with a `faulted` response. Each requeue re-probes
/// the cache and rejoins the flight table, so one healthy re-solve
/// satisfies every waiting follower.
const MAX_REQUEUES: u32 = 3;

/// Schema tag carried by every response.
pub const RESPONSE_SCHEMA: &str = "rotsched-serve-v1";

/// Tuning knobs for a [`SolveService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Total cache byte budget across all shards.
    pub cache_bytes: usize,
    /// Cache shard count (rounded up to a power of two).
    pub shards: usize,
    /// Per-frame transfer deadline in milliseconds (0 = none): once a
    /// request frame's first byte arrives, the whole frame must land
    /// within this window or the connection is dropped — the slowloris
    /// defense for in-flight frames.
    pub read_timeout_ms: u64,
    /// Idle-connection deadline in milliseconds (0 = none): a
    /// connection that completes no frame for this long is reaped.
    pub idle_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_bytes: 8 << 20,
            shards: 8,
            read_timeout_ms: 0,
            idle_timeout_ms: 0,
        }
    }
}

/// Monotone event counters, readable while the service runs.
#[derive(Debug, Default)]
pub struct ServeCounters {
    requests: AtomicU64,
    parse_errors: AtomicU64,
    solve_errors: AtomicU64,
    solver_invocations: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    faulted: AtomicU64,
    cache_insert_drops: AtomicU64,
}

/// A point-in-time copy of [`ServeCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Payloads handled (all verbs).
    pub requests: u64,
    /// Solve payloads rejected by the wire parser.
    pub parse_errors: u64,
    /// Solver or expansion failures (including abandoned flights).
    pub solve_errors: u64,
    /// Times the solver actually ran. The warm-hit and coalesced
    /// paths never increment this — the perf gates assert on it.
    pub solver_invocations: u64,
    /// Responses served straight from the cache.
    pub cache_hits: u64,
    /// Cache probes that found nothing.
    pub cache_misses: u64,
    /// Requests that received another request's in-flight result.
    pub coalesced: u64,
    /// Deadline requests refused by admission control.
    pub shed: u64,
    /// Requests degraded to the fixed `faulted` response because their
    /// solve died (a caught solver panic) or every requeue after a
    /// leader death found another dead leader.
    pub faulted: u64,
    /// Completed responses not cached because the fault plane dropped
    /// the insert (diagnostic; always 0 without injection).
    pub cache_insert_drops: u64,
}

impl ServeCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            solve_errors: self.solve_errors.load(Ordering::Relaxed),
            solver_invocations: self.solver_invocations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
            cache_insert_drops: self.cache_insert_drops.load(Ordering::Relaxed),
        }
    }
}

/// What the transport should do with a handled payload. The response
/// bytes are shared: a warm hit hands out the cache entry's own bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Handled {
    /// Send the response and keep serving.
    Reply(Arc<str>),
    /// Send the response, then stop accepting connections.
    Shutdown(Arc<str>),
}

impl Handled {
    /// The response payload regardless of the transport directive.
    #[must_use]
    pub fn response(&self) -> &str {
        match self {
            Handled::Reply(r) | Handled::Shutdown(r) => r,
        }
    }
}

/// The warm-path solve service. Thread-safe: wrap it in an [`Arc`] and
/// call [`SolveService::handle`] from any number of threads.
///
/// The `F` parameter is the fault-injection plane. The default,
/// [`NoopFaults`], is a zero-sized type whose hooks are constant `None`
/// / `false` answers — the compiler monomorphizes every injection
/// check out of the production hot path (guarded by the
/// `fault_overhead` arm of `perf_report`). Chaos tests instantiate
/// [`SolveService::with_faults`] with an armed
/// [`InjectedFaults`](crate::fault::InjectedFaults) plane instead.
#[derive(Debug)]
pub struct SolveService<F: Faults = NoopFaults> {
    cache: SolveCache,
    flights: Arc<FlightTable>,
    gauge: Arc<AdmissionGauge>,
    counters: ServeCounters,
    faults: F,
}

impl SolveService {
    /// Builds a fault-free service from its tuning knobs.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        SolveService::with_faults(config, NoopFaults)
    }
}

impl<F: Faults> SolveService<F> {
    /// Builds a service with an explicit fault-injection plane.
    #[must_use]
    pub fn with_faults(config: ServeConfig, faults: F) -> Self {
        SolveService {
            cache: SolveCache::new(config.shards, config.cache_bytes),
            flights: Arc::new(FlightTable::new()),
            // Seeded with the admission module's default per-solve cost.
            gauge: Arc::new(AdmissionGauge::new(0)),
            counters: ServeCounters::default(),
            faults,
        }
    }

    /// The fault plane, for transport-layer hooks (read/write faults
    /// live in the server, not the service).
    #[must_use]
    pub fn faults(&self) -> &F {
        &self.faults
    }

    /// The realized fault trace, when the plane records one.
    #[must_use]
    pub fn fault_trace(&self) -> Option<FaultTrace> {
        self.faults.trace()
    }

    /// Cache keys with a solve currently in flight. A quiescent
    /// service must report 0; anything else is a wedged key.
    #[must_use]
    pub fn in_flight_keys(&self) -> usize {
        self.flights.in_flight_keys()
    }

    /// The live counters.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// The live cache summary.
    #[must_use]
    pub fn cache_report(&self) -> CacheReport {
        self.cache.report()
    }

    /// Handles one request payload and produces the response payload
    /// plus the transport directive.
    #[must_use]
    pub fn handle(&self, payload: &str) -> Handled {
        ServeCounters::bump(&self.counters.requests);
        let (verb, rest) = match payload.split_once('\n') {
            Some((first, rest)) => (first.trim(), rest),
            None => (payload.trim(), ""),
        };
        match verb {
            "solve" => Handled::Reply(self.solve(rest)),
            "stats" => Handled::Reply(self.stats().into()),
            "ping" => Handled::Reply(ok_response().into()),
            "shutdown" => Handled::Shutdown(ok_response().into()),
            other => Handled::Reply(error_response(&format!("unknown verb `{other}`")).into()),
        }
    }

    fn solve(&self, problem: &str) -> Arc<str> {
        // A payload already in canonical form is its own cache key (the
        // wire format's fixed point), so a hit needs no parse and no key
        // rendering. A miss is silent and falls through to the parsed
        // path, which re-derives the key and does its own bookkeeping.
        if let Some(hit) = self.cache.get(fingerprint_text(problem), problem) {
            ServeCounters::bump(&self.counters.cache_hits);
            return hit;
        }
        let spec = match parse_problem(problem) {
            Ok(spec) => spec,
            Err(e) => {
                ServeCounters::bump(&self.counters.parse_errors);
                return error_response(&format!("{e}")).into();
            }
        };
        let key = cache_key_text(&spec);
        let fingerprint = fingerprint_text(&key);

        if let Some(deadline) = spec.budget.deadline() {
            // Deadline requests: a warm hit beats any deadline, so probe
            // the cache before deciding to shed.
            if let Some(hit) = self.cache.get(fingerprint, &key) {
                ServeCounters::bump(&self.counters.cache_hits);
                return hit;
            }
            ServeCounters::bump(&self.counters.cache_misses);
            let deadline_ns = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
            if !self.gauge.admit(deadline_ns) {
                ServeCounters::bump(&self.counters.shed);
                return shed_response().into();
            }
            return self.run_solver(&spec, fingerprint, &key).response;
        }

        if spec.budget.max_rotations().is_some() {
            // Rotation-budget requests: deterministic *truncation* is
            // the contract, so the cache lookup is skipped — a cached
            // canonical answer must not shadow the truncated one. The
            // solve still feeds the cache when the budget never fires.
            return self.run_solver(&spec, fingerprint, &key).response;
        }

        // Unlimited requests: the full warm path. The loop is the
        // requeue path — a follower whose leader died re-enters at the
        // cache probe (a healthy leader may have published meanwhile)
        // and otherwise rejoins the flight, possibly as the new leader.
        let mut requeues = 0_u32;
        loop {
            if let Some(hit) = self.cache.get(fingerprint, &key) {
                ServeCounters::bump(&self.counters.cache_hits);
                return hit;
            }
            match self.flights.join(&key) {
                FlightTicket::Followed(FlightOutcome::Response(response)) => {
                    ServeCounters::bump(&self.counters.coalesced);
                    return response;
                }
                FlightTicket::Followed(FlightOutcome::Abandoned) => {
                    // The leader died without publishing. Requeue a
                    // bounded number of times, then degrade: no request
                    // ever hangs on a wedged key.
                    requeues += 1;
                    if requeues > MAX_REQUEUES {
                        ServeCounters::bump(&self.counters.faulted);
                        return faulted_response().into();
                    }
                }
                FlightTicket::Lead(leader) => {
                    // Double-checked: a previous leader may have inserted
                    // and retired between our lookup miss and our join —
                    // solving again would break exactly-one-solve-per-key.
                    if let Some(hit) = self.cache.get(fingerprint, &key) {
                        ServeCounters::bump(&self.counters.cache_hits);
                        leader.publish(Arc::clone(&hit));
                        return hit;
                    }
                    let run = self.run_solver(&spec, fingerprint, &key);
                    if run.faulted {
                        // Never share a faulted response: abandoning
                        // lets followers requeue and re-solve cleanly.
                        leader.abandon();
                    } else {
                        // Insert (done inside run_solver) strictly
                        // precedes publish-and-retire, so no later
                        // request can miss both the cache and the
                        // flight.
                        leader.publish(Arc::clone(&run.response));
                    }
                    return run.response;
                }
            }
        }
    }

    /// Invokes the real solver — the only call site — and caches the
    /// response when the outcome is completed (no budget stop, no
    /// panicked worker) and the fault plane does not drop the insert.
    ///
    /// The solve runs under `catch_unwind`: a solver-thread death (real
    /// or injected through the budget meter's panic hook) degrades to
    /// the fixed `faulted` response. The admission permit lives outside
    /// the protected region, so even a panicking solve releases its
    /// in-flight slot and feeds its elapsed time into the gauge.
    fn run_solver(&self, spec: &ProblemSpec, fingerprint: u64, key: &str) -> SolverRun {
        if spec.budget.deadline().is_none() && spec.budget.max_rotations().is_none() {
            ServeCounters::bump(&self.counters.cache_misses);
        }
        let mut budget = spec.budget.clone();
        if let Some(after) = self.faults.solver_panic_after() {
            budget = budget.with_panic_after(after);
        }
        let permit = self.gauge.start_solve();
        let rendered = catch_unwind(AssertUnwindSafe(|| {
            let scheduler = RotationScheduler::new(&spec.dfg, spec.resources.clone())
                .with_policy(spec.policy)
                .with_config(spec.config)
                .with_objective(spec.objective)
                .with_budget(budget);
            scheduler.solve().and_then(|solved| {
                let kernel = scheduler.loop_schedule(&solved.state)?;
                Ok(render_solved(spec, &solved, &kernel))
            })
        }));
        drop(permit);
        if let Some(skew_ns) = self.faults.clock_skew_ns() {
            // A skewed clock reading: fold the pathological observed
            // cost into the gauge exactly as a mis-measured solve
            // would. Admission sheds harder until the EWMA decays.
            self.gauge.observe(skew_ns);
        }
        match rendered {
            Ok(Ok((response, completed))) => {
                ServeCounters::bump(&self.counters.solver_invocations);
                let response: Arc<str> = response.into();
                if completed {
                    if self.faults.drop_cache_insert() {
                        ServeCounters::bump(&self.counters.cache_insert_drops);
                    } else {
                        self.cache
                            .insert(fingerprint, key.to_owned(), Arc::clone(&response));
                    }
                }
                SolverRun {
                    response,
                    faulted: false,
                }
            }
            Ok(Err(e)) => {
                ServeCounters::bump(&self.counters.solver_invocations);
                ServeCounters::bump(&self.counters.solve_errors);
                SolverRun {
                    response: error_response(&format!("{e}")).into(),
                    faulted: false,
                }
            }
            Err(_panic) => {
                ServeCounters::bump(&self.counters.faulted);
                SolverRun {
                    response: faulted_response().into(),
                    faulted: true,
                }
            }
        }
    }

    fn stats(&self) -> String {
        let c = self.counters.snapshot();
        let cache = self.cache.report();
        let mut out = String::with_capacity(512);
        out.push_str("{\"schema\": \"");
        out.push_str(RESPONSE_SCHEMA);
        out.push_str("\", \"status\": \"ok\"");
        for (name, value) in [
            ("requests", c.requests),
            ("parse_errors", c.parse_errors),
            ("solve_errors", c.solve_errors),
            ("solver_invocations", c.solver_invocations),
            ("cache_hits", c.cache_hits),
            ("cache_misses", c.cache_misses),
            ("coalesced", c.coalesced),
            ("shed", c.shed),
            ("faulted", c.faulted),
            ("cache_insert_drops", c.cache_insert_drops),
            ("in_flight_keys", self.in_flight_keys() as u64),
            ("cache_entries", cache.entries),
            ("cache_bytes", cache.bytes),
            ("cache_insertions", cache.insertions),
            ("cache_evictions", cache.evictions),
            ("cache_rejected", cache.rejected),
            ("in_flight", self.gauge.in_flight()),
            ("estimate_ns", self.gauge.estimate_ns()),
        ] {
            out.push_str(", \"");
            out.push_str(name);
            out.push_str("\": ");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }
}

/// The outcome of one real solver run: the response payload and
/// whether it came from a caught panic (faulted responses are never
/// published to followers or cached).
struct SolverRun {
    response: Arc<str>,
    faulted: bool,
}

/// Maps a solve quality to the wire status and the load generator's
/// exit code contribution. `shed` and `error` statuses exist only at
/// the serve layer and have no [`SolveQuality`].
#[must_use]
pub fn quality_status(quality: SolveQuality) -> &'static str {
    match quality {
        SolveQuality::Optimal | SolveQuality::Complete => "ok",
        SolveQuality::BudgetExhausted => "budget-exhausted",
        SolveQuality::Degraded => "degraded",
        // Non-exhaustive upstream: a new verdict must get an explicit
        // status rather than silently reading as a success.
        _ => unimplemented!("quality without a wire status"),
    }
}

fn ok_response() -> String {
    format!("{{\"schema\": \"{RESPONSE_SCHEMA}\", \"status\": \"ok\"}}")
}

fn shed_response() -> String {
    // Fixed bytes by design: a shed response must not leak
    // load-dependent data into an otherwise deterministic protocol.
    format!("{{\"schema\": \"{RESPONSE_SCHEMA}\", \"status\": \"shed\"}}")
}

/// The fixed-byte degraded response for a request whose solve died.
/// Like `shed`, it carries no failure details — panic payloads are
/// process-local and would break byte-determinism across runs.
#[must_use]
pub fn faulted_response() -> String {
    format!("{{\"schema\": \"{RESPONSE_SCHEMA}\", \"status\": \"faulted\"}}")
}

pub(crate) fn error_response(message: &str) -> String {
    let mut out = String::with_capacity(64 + message.len());
    out.push_str("{\"schema\": \"");
    out.push_str(RESPONSE_SCHEMA);
    out.push_str("\", \"status\": \"error\", \"message\": ");
    push_json_string(&mut out, message);
    out.push('}');
    out
}

/// Renders the solve response; the boolean is "completed" — cacheable.
fn render_solved(
    spec: &ProblemSpec,
    solved: &SolveOutcome,
    kernel: &rotsched_sched::LoopSchedule,
) -> (String, bool) {
    let completed = solved.stats.stopped.is_none() && solved.stats.panicked_tasks == 0;
    let mut out = String::with_capacity(256 + 32 * spec.dfg.node_count());
    out.push_str("{\"schema\": \"");
    out.push_str(RESPONSE_SCHEMA);
    out.push_str("\", \"status\": \"");
    out.push_str(quality_status(solved.quality));
    out.push_str("\", \"quality\": \"");
    out.push_str(&solved.quality.to_string());
    out.push_str("\", \"length\": ");
    out.push_str(&solved.length.to_string());
    out.push_str(", \"depth\": ");
    out.push_str(&solved.depth.to_string());
    out.push_str(", \"lower_bound\": ");
    out.push_str(&solved.stats.lower_bound.to_string());
    out.push_str(", \"rotations\": ");
    out.push_str(&solved.stats.total_rotations.to_string());
    // Non-default objectives report their secondary metrics; the
    // default emits nothing extra, so pre-objective responses stay
    // byte-identical (and so do their cache entries).
    if spec.objective != Objective::Length {
        out.push_str(", \"objective\": \"");
        out.push_str(spec.objective.mnemonic());
        out.push_str("\", \"registers\": ");
        out.push_str(
            &rotsched_core::objective::static_registers(&spec.dfg, kernel.retiming()).to_string(),
        );
        out.push_str(", \"code_size\": ");
        out.push_str(
            &rotsched_core::objective::code_size(&spec.dfg, kernel.retiming()).to_string(),
        );
    }
    out.push_str(", \"kernel\": {");
    let mut first = true;
    for (id, node) in spec.dfg.nodes() {
        if let Some(start) = kernel.schedule().start(id) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            push_json_string(&mut out, node.name());
            out.push_str(": ");
            out.push_str(&start.to_string());
        }
    }
    out.push_str("}, \"retiming\": {");
    let mut first = true;
    for (id, node) in spec.dfg.nodes() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        push_json_string(&mut out, node.name());
        out.push_str(": ");
        out.push_str(&kernel.retiming().of(id).to_string());
    }
    out.push_str("}}");
    (out, completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RING: &str = "dfg ring\nnode v0 add 1\nnode v1 add 1\nnode v2 add 1\nnode v3 add 1\nedge v0 v1 0\nedge v1 v2 0\nedge v2 v3 0\nedge v3 v0 2\n";

    fn solve_payload(extra: &str) -> String {
        format!("solve\n{RING}{extra}")
    }

    #[test]
    fn warm_hit_skips_the_solver_and_repeats_bytes() {
        let service = SolveService::new(ServeConfig::default());
        let cold = service.handle(&solve_payload("")).response().to_owned();
        assert!(cold.contains("\"status\": \"ok\""), "{cold}");
        let warm = service.handle(&solve_payload("")).response().to_owned();
        assert_eq!(cold, warm);
        let c = service.counters();
        assert_eq!(c.solver_invocations, 1);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
    }

    #[test]
    fn node_names_are_json_escaped_in_solve_responses() {
        // A quote, a backslash, and a control character (U+0001): the
        // text format splits only on whitespace, so all three reach the
        // renderer.
        let payload = "solve\ndfg esc\nnode a\"q add 1\nnode b\\s add 1\nnode c\u{1}x add 1\nedge a\"q b\\s 0\nedge b\\s c\u{1}x 0\nedge c\u{1}x a\"q 1\n";
        let service = SolveService::new(ServeConfig::default());
        let response = service.handle(payload).response().to_owned();
        assert!(response.contains("\"status\": \"ok\""), "{response}");
        for key in [r#""a\"q": "#, r#""b\\s": "#, r#""c\u0001x": "#] {
            assert_eq!(
                response.matches(key).count(),
                2,
                "{key} once in the kernel, once in the retiming: {response}"
            );
        }
        assert!(!response.contains('\u{1}'), "raw control character leaked");
    }

    #[test]
    fn rotation_budget_requests_bypass_the_cache_lookup() {
        let service = SolveService::new(ServeConfig::default());
        // Warm the cache with the canonical answer.
        let _ = service.handle(&solve_payload(""));
        // A 0-rotation budget must yield its own truncated solve, not
        // the cached canonical response.
        let truncated = service
            .handle(&solve_payload("budget max-rotations 0\n"))
            .response()
            .to_owned();
        assert!(
            truncated.contains("\"status\": \"budget-exhausted\""),
            "{truncated}"
        );
        assert_eq!(service.counters().solver_invocations, 2);
        // And it must not have poisoned the cache for unlimited requests.
        let warm = service.handle(&solve_payload("")).response().to_owned();
        assert!(warm.contains("\"status\": \"ok\""), "{warm}");
        assert_eq!(service.counters().solver_invocations, 2);
    }

    #[test]
    fn impossible_deadline_is_shed_with_fixed_bytes() {
        let service = SolveService::new(ServeConfig::default());
        let shed = service
            .handle(&solve_payload("budget deadline-ns 1\n"))
            .response()
            .to_owned();
        assert_eq!(
            shed,
            format!("{{\"schema\": \"{RESPONSE_SCHEMA}\", \"status\": \"shed\"}}")
        );
        let c = service.counters();
        assert_eq!(c.shed, 1);
        assert_eq!(c.solver_invocations, 0);
    }

    #[test]
    fn deadline_requests_prefer_a_warm_hit_over_shedding() {
        let service = SolveService::new(ServeConfig::default());
        let canonical = service.handle(&solve_payload("")).response().to_owned();
        // Same problem, impossible deadline: the cached answer wins.
        let warm = service
            .handle(&solve_payload("budget deadline-ns 1\n"))
            .response()
            .to_owned();
        assert_eq!(warm, canonical);
        let c = service.counters();
        assert_eq!(c.shed, 0);
        assert_eq!(c.cache_hits, 1);
    }

    #[test]
    fn parse_errors_and_unknown_verbs_report_cleanly() {
        let service = SolveService::new(ServeConfig::default());
        let bad = service.handle("solve\nnot a graph\n").response().to_owned();
        assert!(bad.contains("\"status\": \"error\""), "{bad}");
        assert_eq!(service.counters().parse_errors, 1);
        let unknown = service.handle("frobnicate").response().to_owned();
        assert!(unknown.contains("unknown verb"), "{unknown}");
    }

    #[test]
    fn verbs_ping_stats_shutdown() {
        let service = SolveService::new(ServeConfig::default());
        assert_eq!(service.handle("ping"), Handled::Reply(ok_response().into()));
        let stats = service.handle("stats").response().to_owned();
        assert!(stats.contains("\"requests\": 2"), "{stats}");
        assert!(stats.contains("\"faulted\": 0"), "{stats}");
        assert!(matches!(service.handle("shutdown"), Handled::Shutdown(_)));
    }

    /// A fault plane that kills exactly the first solve, then behaves.
    #[derive(Debug, Default)]
    struct PanicOnce {
        fired: std::sync::atomic::AtomicBool,
    }

    impl crate::fault::Faults for PanicOnce {
        fn solver_panic_after(&self) -> Option<u64> {
            (!self.fired.swap(true, Ordering::Relaxed)).then_some(0)
        }
    }

    #[test]
    fn solver_panic_degrades_to_faulted_and_the_service_recovers() {
        let service = SolveService::with_faults(ServeConfig::default(), PanicOnce::default());
        let dead = service.handle(&solve_payload("")).response().to_owned();
        assert_eq!(dead, faulted_response());
        let c = service.counters();
        assert_eq!(c.faulted, 1);
        assert_eq!(c.solver_invocations, 0, "a dead solve is not an invocation");
        assert_eq!(service.in_flight_keys(), 0, "no wedged key after a panic");
        // The very next request re-solves cleanly — the faulted bytes
        // were neither cached nor published.
        let healthy = service.handle(&solve_payload("")).response().to_owned();
        assert!(healthy.contains("\"status\": \"ok\""), "{healthy}");
        let c = service.counters();
        assert_eq!(c.solver_invocations, 1);
        // Terminal-bucket invariant over the two solve requests.
        assert_eq!(
            c.cache_hits + c.coalesced + c.solver_invocations + c.shed + c.faulted,
            c.requests
        );
    }

    #[test]
    fn dropped_cache_inserts_force_identical_resolves() {
        use crate::fault::{FaultPlan, FaultSite, InjectedFaults};
        let service = SolveService::with_faults(
            ServeConfig::default(),
            InjectedFaults::new(FaultPlan::only(5, FaultSite::CacheDrop)),
        );
        let first = service.handle(&solve_payload("")).response().to_owned();
        let second = service.handle(&solve_payload("")).response().to_owned();
        assert_eq!(first, second, "re-solves must be byte-identical");
        let c = service.counters();
        assert_eq!(c.solver_invocations, 2, "every insert was dropped");
        assert_eq!(c.cache_insert_drops, 2);
        assert_eq!(c.cache_hits, 0);
    }

    #[test]
    fn clock_skew_pins_the_gauge_and_deadline_requests_shed() {
        use crate::fault::{FaultPlan, FaultSite, InjectedFaults};
        let service = SolveService::with_faults(
            ServeConfig::default(),
            InjectedFaults::new(FaultPlan::only(9, FaultSite::ClockSkew)),
        );
        // The unlimited solve completes normally but poisons the gauge
        // with a pathological observed cost.
        let ok = service.handle(&solve_payload("")).response().to_owned();
        assert!(ok.contains("\"status\": \"ok\""), "{ok}");
        // A *different* problem with a finite deadline is now shed with
        // the fixed bytes (the skewed estimate projects past any
        // deadline); the cached first problem still warm-hits.
        let other = "solve\ndfg other\nnode a add 1\nnode b add 1\nedge a b 0\nedge b a 1\nbudget deadline-ms 100\n";
        let shed = service.handle(other).response().to_owned();
        assert_eq!(shed, shed_response());
        assert_eq!(service.counters().shed, 1);
    }
}
