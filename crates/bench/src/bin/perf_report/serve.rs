//! The serve arms: the warm-path serve layer in-process, and the fault
//! plane's default-path cost.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use rotsched_dfg::rng::SplitMix64;
use rotsched_serve::{seeded_corpus, FaultPlan, InjectedFaults, ServeConfig, SolveService};

use crate::report::{crossover_pct, elapsed_ns, info, interleave, ratio, Percentiles, Sheet};
use crate::Baseline;

/// Report path of the fault plane's overhead.
pub const FAULT_OVERHEAD: &str = "fault_overhead.fault_overhead_pct";
/// Seed for the serve-arm corpus.
const SERVE_SEED: u64 = 11;
/// Unique problems in the serve-arm corpus. Seven keeps every item
/// budget-free (`seeded_corpus` attaches a rotation budget to every
/// eighth item), so every request after a problem's first is a warm
/// hit.
const SERVE_UNIQUE: usize = 7;
/// Fresh-service repetitions of the cold-solve pass.
const SERVE_COLD_REPS: usize = 3;
/// Timed warm-hit samples.
const SERVE_WARM_SAMPLES: usize = 2000;
/// Concurrent identical requests in the coalescing burst.
const SERVE_BURST: usize = 32;
/// Closed-loop client threads in the sustained arm.
const SERVE_SUSTAIN_THREADS: usize = 4;
/// Requests per closed-loop client.
const SERVE_SUSTAIN_REQUESTS: usize = 200;
/// Smoke gate: a warm cache hit must be at least this many times
/// faster than a cold solve at p50.
///
/// Derived from measurement, not aspiration. The corpus' payloads are
/// canonical, so a warm hit is one cache probe on the payload bytes
/// (p50 0.57–0.70 µs) against cold solves of 0.35–0.67 ms. Ten
/// `--check` runs on a shared 2-vCPU VM read 662–1116x; a hit that
/// parsed the payload and rendered its key (0.02–0.04 ms) read 12–25x.
/// A warm path that solved again, or a cache that stopped hitting,
/// reads ~1x; a floor of 8 catches that with room below every measured
/// spread, so CPU contention does not trip it.
const SERVE_WARM_SPEEDUP_FLOOR: u64 = 8;
/// Smoke gate: the default `NoopFaults` warm path, where the fault
/// plane is monomorphized out, may cost at most this much more than a
/// service running an all-quiet plan.
const FAULT_OVERHEAD_LIMIT_PCT: f64 = 2.0;
/// Interleaved warm-hit samples per arm in the fault-overhead study.
const FAULT_OVERHEAD_SAMPLES: usize = 1200;

/// The serve corpus as `solve` request payloads.
fn payloads() -> Vec<String> {
    seeded_corpus(SERVE_SEED, SERVE_UNIQUE)
        .into_iter()
        .map(|doc| format!("solve\n{doc}"))
        .collect()
}

/// Everything the serve arm measures. `burst_followers` counts the
/// burst requests served without solving (coalesced or cache hits).
pub struct Serve {
    pub cold: Percentiles,
    pub warm: Percentiles,
    pub warm_extra_invocations: u64,
    pub warm_hits: u64,
    pub burst_solves: u64,
    pub burst_followers: u64,
    pub sustained_rps: f64,
    pub deterministic: bool,
}

impl Serve {
    /// Measures the warm-path serve layer in-process: cold-solve latency
    /// over fresh services, warm-hit latency with the solver provably
    /// idle, single-flight deduplication under an identical burst, and
    /// closed-loop sustained throughput, comparing every response's bytes.
    pub fn measure() -> Serve {
        let payloads = payloads();
        let mut deterministic = true;

        // Cold solves: a fresh service per repetition, so every request
        // misses. Responses across instances must agree byte-for-byte —
        // this is the "regardless of cache state" half of the determinism
        // contract.
        let mut cold_ns = Vec::with_capacity(SERVE_COLD_REPS * payloads.len());
        let mut reference: Vec<String> = Vec::with_capacity(payloads.len());
        for rep in 0..SERVE_COLD_REPS {
            let service = SolveService::new(ServeConfig::default());
            for (i, payload) in payloads.iter().enumerate() {
                let start = Instant::now();
                let handled = service.handle(payload);
                cold_ns.push(elapsed_ns(start));
                let response = handled.response();
                assert!(
                    response.contains("\"status\": \"ok\""),
                    "serve corpus item {i} did not solve: {response}"
                );
                if rep == 0 {
                    reference.push(response.to_owned());
                } else {
                    deterministic &= response == reference[i];
                }
            }
            assert_eq!(
                service.counters().solver_invocations,
                payloads.len() as u64,
                "every cold request must invoke the solver exactly once"
            );
        }

        // Warm hits: one service, fully warmed, then a long timed run of
        // pure cache hits. The counters prove the solver never ran.
        let service = SolveService::new(ServeConfig::default());
        for (i, payload) in payloads.iter().enumerate() {
            deterministic &= service.handle(payload).response() == reference[i];
        }
        let warmed = service.counters().solver_invocations;
        let mut warm_ns = Vec::with_capacity(SERVE_WARM_SAMPLES);
        for k in 0..SERVE_WARM_SAMPLES {
            let i = k % payloads.len();
            let start = Instant::now();
            let handled = service.handle(&payloads[i]);
            warm_ns.push(elapsed_ns(start));
            deterministic &= handled.response() == reference[i];
        }
        let after = service.counters();
        let warm_extra_invocations = after.solver_invocations - warmed;
        let warm_hits = after.cache_hits;

        // Coalescing: SERVE_BURST threads fire the identical request at a
        // cold service through a barrier. Exactly one solve; every thread
        // gets the same bytes (followers via the flight, late arrivals via
        // the cache the leader filled before retiring the flight).
        let burst_service = Arc::new(SolveService::new(ServeConfig::default()));
        let burst_payload = Arc::new(payloads[1].clone());
        let barrier = Arc::new(Barrier::new(SERVE_BURST));
        let workers: Vec<_> = (0..SERVE_BURST)
            .map(|_| {
                let service = Arc::clone(&burst_service);
                let payload = Arc::clone(&burst_payload);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.handle(&payload).response().to_owned()
                })
            })
            .collect();
        for worker in workers {
            deterministic &= worker.join().expect("burst worker") == reference[1];
        }
        let burst = burst_service.counters();
        let burst_solves = burst.solver_invocations;
        let burst_followers = burst.coalesced + burst.cache_hits;

        // Sustained closed loop: seeded clients hammering the corpus mix
        // against one service — the "regardless of thread count or arrival
        // order" half of the determinism contract, plus a requests/s
        // number dominated by the warm path, as production traffic is.
        let sustain_service = Arc::new(SolveService::new(ServeConfig::default()));
        let sustain_payloads = Arc::new(payloads);
        let sustain_reference = Arc::new(reference);
        let started = Instant::now();
        let clients: Vec<_> = (0..SERVE_SUSTAIN_THREADS)
            .map(|t| {
                let service = Arc::clone(&sustain_service);
                let payloads = Arc::clone(&sustain_payloads);
                let reference = Arc::clone(&sustain_reference);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(SERVE_SEED ^ (0x5EED + t as u64));
                    let mut ok = true;
                    for _ in 0..SERVE_SUSTAIN_REQUESTS {
                        let i = rng.index(payloads.len());
                        ok &= service.handle(&payloads[i]).response() == reference[i];
                    }
                    ok
                })
            })
            .collect();
        for client in clients {
            deterministic &= client.join().expect("sustain client");
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        Serve {
            cold: Percentiles::of(&mut cold_ns),
            warm: Percentiles::of(&mut warm_ns),
            warm_extra_invocations,
            warm_hits,
            burst_solves,
            burst_followers,
            sustained_rps: (SERVE_SUSTAIN_THREADS * SERVE_SUSTAIN_REQUESTS) as f64 / elapsed,
            deterministic,
        }
    }

    /// Gates byte-identical responses throughout, a warm path that is
    /// actually warm (no solver, a real multiple faster than solving) and
    /// a burst that collapses to one solve.
    pub fn record(&self, sheet: &mut Sheet) {
        let (cold, warm) = (self.cold, self.warm);
        info(&format!(
            "serve cold solve: p50 {} ns, p99 {} ns ({} samples)",
            cold.p50, cold.p99, cold.samples
        ));
        sheet.gate(
            self.warm_extra_invocations == 0,
            &format!(
                "serve warm hit: p50 {} ns, p99 {} ns ({} samples); {} solver invocations, must \
                 be 0",
                warm.p50, warm.p99, warm.samples, self.warm_extra_invocations
            ),
        );
        let speedup = cold.p50 / warm.p50.max(1);
        sheet.gate(
            speedup >= SERVE_WARM_SPEEDUP_FLOOR,
            &format!("serve warm speedup {speedup}x at p50, floor {SERVE_WARM_SPEEDUP_FLOOR}x"),
        );
        sheet.gate(
            self.burst_solves == 1,
            &format!(
                "serve coalescing: {SERVE_BURST} identical requests -> {} solve(s), must be 1 \
                 ({} followers)",
                self.burst_solves, self.burst_followers
            ),
        );
        sheet.gate(
            self.deterministic,
            "serve responses byte-identical across cache states, thread counts and arrival orders",
        );
        info(&format!(
            "serve sustained: {:.0} req/s over {SERVE_SUSTAIN_THREADS} threads",
            self.sustained_rps
        ));
        sheet.put("serve.unique", &SERVE_UNIQUE);
        sheet.put("serve.seed", &SERVE_SEED);
        sheet.put("serve.cold_solve_ns_p50", &cold.p50);
        sheet.put("serve.cold_solve_ns_p99", &cold.p99);
        sheet.put("serve.warm_hit_ns_p50", &warm.p50);
        sheet.put("serve.warm_hit_ns_p99", &warm.p99);
        sheet.put("serve.warm_samples", &warm.samples);
        sheet.fixed("serve.warm_speedup_p50", ratio(cold.p50, warm.p50), 1);
        sheet.put("serve.warm_extra_invocations", &self.warm_extra_invocations);
        sheet.put("serve.warm_hits", &self.warm_hits);
        sheet.put("serve.coalescing.burst", &SERVE_BURST);
        sheet.put("serve.coalescing.solves", &self.burst_solves);
        sheet.put("serve.coalescing.followers", &self.burst_followers);
        let dedup_ratio = ratio(SERVE_BURST as u64, self.burst_solves);
        sheet.fixed("serve.coalescing.dedup_ratio", dedup_ratio, 2);
        sheet.put("serve.sustained.threads", &SERVE_SUSTAIN_THREADS);
        let requests = SERVE_SUSTAIN_THREADS * SERVE_SUSTAIN_REQUESTS;
        sheet.put("serve.sustained.requests", &requests);
        sheet.fixed("serve.sustained.requests_per_sec", self.sustained_rps, 0);
        sheet.put("serve.deterministic", &self.deterministic);
    }
}

/// Measures the fault plane's cost on the serve hot path: interleaved
/// warm hits of the default service against one armed with
/// [`FaultPlan::quiet`] (every injection point consulted, nothing
/// fires), the arm that runs first alternating by sample; returns both
/// p50s and the default path's overhead ([`crossover_pct`]): a pair's
/// second call reads warmer, and the pooled p50s of ~300-ns hits differ
/// by more than the limit between runs of one build.
pub fn fault_overhead() -> (u64, u64, f64) {
    let payloads = payloads();
    let noop = SolveService::new(ServeConfig::default());
    let armed = SolveService::with_faults(
        ServeConfig::default(),
        InjectedFaults::new(FaultPlan::quiet(1)),
    );
    // Warm both caches fully, plus one untimed hit lap per arm.
    for payload in &payloads {
        assert_eq!(
            noop.handle(payload).response(),
            armed.handle(payload).response(),
            "a quiet plan must not change response bytes"
        );
    }
    for payload in &payloads {
        let _ = noop.handle(payload);
        let _ = armed.handle(payload);
    }
    let (mut noop_ns, mut armed_ns) = interleave(
        FAULT_OVERHEAD_SAMPLES,
        1,
        |k| drop(noop.handle(&payloads[k % payloads.len()])),
        |k| drop(armed.handle(&payloads[k % payloads.len()])),
    );
    assert_eq!(
        noop.counters().solver_invocations,
        payloads.len() as u64,
        "sampling must stay on the warm path"
    );
    let pct = crossover_pct(&noop_ns, &armed_ns, 1);
    (
        Percentiles::of(&mut noop_ns).p50,
        Percentiles::of(&mut armed_ns).p50,
        pct,
    )
}

/// Gates and records the fault arm from its noop and quiet-armed p50s
/// and the noop path's overhead (see [`Sheet::zero_cost`]).
pub fn record_fault(
    (noop_p50, armed_p50, pct): (u64, u64, f64),
    sheet: &mut Sheet,
    baseline: Option<&Baseline>,
) {
    sheet.zero_cost(
        "fault-plane",
        &format!(
            "fault-plane overhead: noop warm p50 {noop_p50} ns vs quiet-armed p50 {armed_p50} \
             ns, paired in both orders"
        ),
        pct,
        FAULT_OVERHEAD_LIMIT_PCT,
        baseline.map(|b| b.fault_overhead_pct),
    );
    sheet.put("fault_overhead.noop_warm_ns_p50", &noop_p50);
    sheet.put("fault_overhead.armed_quiet_warm_ns_p50", &armed_p50);
    sheet.put("fault_overhead.samples", &FAULT_OVERHEAD_SAMPLES);
    sheet.fixed(FAULT_OVERHEAD, pct, 2);
    sheet.fixed("fault_overhead.limit_pct", FAULT_OVERHEAD_LIMIT_PCT, 0);
}
