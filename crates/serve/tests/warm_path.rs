//! Concurrency and memory-pressure contracts of the warm-path solve
//! service, exercised through the public in-process API:
//!
//! * N threads hammering a mixed key set must read byte-identical
//!   responses per key, and the solver must run exactly once per
//!   unique problem — never once per request.
//! * A cache squeezed far below the working set must evict, and every
//!   post-eviction re-solve must still produce the bytes a fresh
//!   service produces (eviction changes cost, never answers).
//! * A canonical payload, served from its raw bytes without parsing,
//!   must answer and count exactly like its reformatted variants, which
//!   take the parsed path to the same cache entry.

use std::sync::{Arc, Barrier};
use std::thread;

use rotsched_serve::{seeded_corpus, CounterSnapshot, ServeConfig, SolveService};

/// A corpus slice with no budget directives, so every request takes
/// the full warm path (lookup → single-flight → insert).
fn solve_payloads(unique: usize) -> Vec<String> {
    seeded_corpus(23, unique)
        .into_iter()
        .map(|doc| format!("solve\n{doc}"))
        .collect()
}

/// Reference responses from a throwaway service, one per payload.
fn reference_responses(payloads: &[String]) -> Vec<String> {
    let service = SolveService::new(ServeConfig::default());
    payloads
        .iter()
        .map(|p| service.handle(p).response().to_owned())
        .collect()
}

#[test]
fn concurrent_mixed_load_is_byte_identical_and_solves_each_key_once() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    let payloads = Arc::new(solve_payloads(6));
    let reference = Arc::new(reference_responses(&payloads));
    let service = Arc::new(SolveService::new(ServeConfig::default()));
    let barrier = Arc::new(Barrier::new(THREADS));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let payloads = Arc::clone(&payloads);
            let reference = Arc::clone(&reference);
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Every thread walks the key set from a different
                    // offset, so first-arrival order varies per key and
                    // threads race leader/follower/hit roles.
                    for k in 0..payloads.len() {
                        let i = (t + round + k) % payloads.len();
                        let handled = service.handle(&payloads[i]);
                        assert_eq!(
                            handled.response(),
                            reference[i],
                            "thread {t} round {round} key {i}: response diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker panicked");
    }

    let counters = service.counters();
    assert_eq!(
        counters.solver_invocations,
        payloads.len() as u64,
        "each unique problem must be solved exactly once \
         (counters: {counters:?})"
    );
    assert_eq!(
        counters.requests,
        (THREADS * ROUNDS * payloads.len()) as u64
    );
    // Everything past the first solve per key was served warm.
    assert_eq!(
        counters.cache_hits + counters.coalesced + counters.solver_invocations,
        counters.requests,
        "every request must resolve as a hit, a coalesced follower, or \
         the one solve (counters: {counters:?})"
    );
}

#[test]
fn eviction_under_pressure_keeps_answers_identical_to_a_fresh_service() {
    let payloads = solve_payloads(10);
    let reference = reference_responses(&payloads);
    // A budget far below the working set: an entry costs roughly the
    // problem text twice over plus the response (1-2 KiB here), so
    // 8 KiB holds a handful of the ten problems at a time.
    let service = SolveService::new(ServeConfig {
        cache_bytes: 8 << 10,
        shards: 1,
        ..ServeConfig::default()
    });

    // Two sequential passes: the second re-requests keys the first
    // pass has since evicted, forcing re-solves through the same path.
    for pass in 0..2 {
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(
                service.handle(payload).response(),
                reference[i],
                "pass {pass} key {i}: post-eviction response diverged"
            );
        }
    }

    let report = service.cache_report();
    assert!(
        report.evictions > 0,
        "a {}-byte budget must evict under a {}-problem working set \
         (report: {report:?})",
        8 << 10,
        payloads.len()
    );
    assert!(
        report.bytes <= 8 << 10,
        "cache exceeded its byte budget: {report:?}"
    );
    let counters = service.counters();
    assert!(
        counters.solver_invocations > payloads.len() as u64,
        "evicted keys must re-solve on return (counters: {counters:?})"
    );
    assert_eq!(
        counters.cache_hits + counters.solver_invocations,
        counters.requests,
        "single-threaded requests are either hits or solves \
         (counters: {counters:?})"
    );
}

#[test]
fn rotation_budgeted_solve_that_freezes_first_completes_and_feeds_the_cache() {
    // A 4-add ring: the full sweep would take rounds × β × α = 4 × 4 × 32
    // = 512 rotations, past the 100-rotation budget, but with room for
    // one best schedule the set freezes at the bound (2) within a few
    // rotations. The budget never fires, so the solve completes, reports
    // `ok`, and is cached for the budget-free key.
    let problem = "dfg ring\nnode v0 add 1\nnode v1 add 1\nnode v2 add 1\nnode v3 add 1\n\
                   edge v0 v1 0\nedge v1 v2 0\nedge v2 v3 0\nedge v3 v0 2\n\
                   config keep-best 1\n";
    let service = SolveService::new(ServeConfig::default());
    let budgeted = service
        .handle(&format!("solve\n{problem}budget max-rotations 100\n"))
        .response()
        .to_owned();
    assert!(budgeted.contains("\"status\": \"ok\""), "{budgeted}");
    assert!(budgeted.contains("\"quality\": \"optimal\""), "{budgeted}");
    assert!(budgeted.contains("\"length\": 2"), "{budgeted}");
    assert_eq!(service.cache_report().insertions, 1);
    // The budget-free request reads the cached answer.
    let warm = service
        .handle(&format!("solve\n{problem}"))
        .response()
        .to_owned();
    assert_eq!(warm, budgeted);
    let counters = service.counters();
    assert_eq!(counters.solver_invocations, 1);
    assert_eq!(counters.cache_hits, 1);
}

#[test]
fn cache_disabled_service_still_answers_identically() {
    // cache_bytes 0 rejects every insert: all requests solve, and the
    // responses still match a cached service byte for byte.
    let payloads = solve_payloads(3);
    let reference = reference_responses(&payloads);
    let service = SolveService::new(ServeConfig {
        cache_bytes: 0,
        ..ServeConfig::default()
    });
    for pass in 0..2 {
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(
                service.handle(payload).response(),
                reference[i],
                "pass {pass} key {i}"
            );
        }
    }
    let counters = service.counters();
    assert_eq!(
        counters.solver_invocations,
        2 * payloads.len() as u64,
        "with no cache every request must solve (counters: {counters:?})"
    );
}

/// The terminal-bucket invariant over solve requests that all parsed.
fn assert_terminal_buckets(c: &CounterSnapshot) {
    assert_eq!(c.parse_errors, 0, "{c:?}");
    assert_eq!(
        c.cache_hits + c.coalesced + c.solver_invocations + c.shed + c.faulted,
        c.requests,
        "every solve request lands in exactly one terminal bucket ({c:?})"
    );
}

/// Spellings of a canonical document that parse to the same problem
/// but differ from it byte for byte, so none is its own cache key.
fn reformatted(doc: &str) -> Vec<(&'static str, String)> {
    let is_directive = |line: &&str| {
        ["resource ", "policy ", "config ", "objective "]
            .iter()
            .any(|d| line.starts_with(d))
    };
    let (directives, graph): (Vec<&str>, Vec<&str>) = doc.lines().partition(is_directive);
    // Resource classes keep their order (it is part of the problem);
    // the single-valued directives go first, reversed, then the graph.
    let (resources, knobs): (Vec<&str>, Vec<&str>) = directives
        .iter()
        .partition(|line| line.starts_with("resource "));
    let reordered: Vec<&str> = knobs
        .iter()
        .rev()
        .chain(&resources)
        .chain(&graph)
        .copied()
        .collect();
    vec![
        ("leading comment", format!("# the same problem\n{doc}")),
        ("blank lines", doc.replace('\n', "\n\n")),
        ("CRLF line ends", doc.replace('\n', "\r\n")),
        ("reordered directives", reordered.join("\n") + "\n"),
        ("doubled spaces", doc.replace(' ', "  ")),
    ]
}

#[test]
fn canonical_payloads_answer_like_their_reformatted_variants() {
    let docs = seeded_corpus(23, 7);
    let service = SolveService::new(ServeConfig::default());
    for (i, doc) in docs.iter().enumerate() {
        assert!(!doc.contains("budget"), "item {i} carries a budget");
        // Cold: the raw-payload probe misses silently, so the parsed
        // path records the one miss.
        let before = service.counters();
        let canonical = service
            .handle(&format!("solve\n{doc}"))
            .response()
            .to_owned();
        assert!(
            canonical.contains("\"status\": \"ok\""),
            "item {i}: {canonical}"
        );
        let after = service.counters();
        assert_eq!(
            after.cache_misses - before.cache_misses,
            1,
            "item {i}: a cold canonical request is one miss ({after:?})"
        );
        assert_eq!(after.solver_invocations - before.solver_invocations, 1);
        assert_terminal_buckets(&after);

        // Warm: the canonical payload and every reformatted variant
        // return the same bytes, one hit each, with no solve, miss or
        // parse error.
        for (what, payload) in std::iter::once(("canonical", doc.clone())).chain(reformatted(doc)) {
            assert!(
                what == "canonical" || payload != *doc,
                "item {i}: the {what} variant is not a reformatting"
            );
            let before = service.counters();
            let response = service.handle(&format!("solve\n{payload}"));
            assert_eq!(response.response(), canonical, "item {i}: {what}");
            let after = service.counters();
            let delta = CounterSnapshot {
                requests: after.requests - before.requests,
                cache_hits: after.cache_hits - before.cache_hits,
                ..after
            };
            assert_eq!(
                delta,
                CounterSnapshot {
                    requests: 1,
                    cache_hits: 1,
                    ..before
                },
                "item {i}: {what} must be exactly one hit"
            );
            assert_terminal_buckets(&after);
        }

        // A rotation budget still bypasses the lookup and re-solves.
        let before = service.counters();
        let budgeted = service
            .handle(&format!("solve\n{doc}budget max-rotations 1000000\n"))
            .response()
            .to_owned();
        assert_eq!(budgeted, canonical, "item {i}: the budget never fires");
        let after = service.counters();
        assert_eq!(after.solver_invocations - before.solver_invocations, 1);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_terminal_buckets(&after);

        // An impossible deadline is answered from the cache, not shed.
        let before = service.counters();
        let deadline = service
            .handle(&format!("solve\n{doc}budget deadline-ns 1\n"))
            .response()
            .to_owned();
        assert_eq!(deadline, canonical, "item {i}: the deadline variant");
        let after = service.counters();
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.shed, 0);
        assert_eq!(after.solver_invocations, before.solver_invocations);
        assert_terminal_buckets(&after);
    }
}
