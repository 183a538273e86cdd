//! Seeded randomized tests for the instrumented engine: observing a
//! search must never change it, the recorded trace must be identical
//! for every worker-thread count, the best-length trajectory must
//! replay budgeted runs exactly, and the trace's JSON form must carry
//! every counter of the trace it renders.

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    Budget, HeuristicConfig, Portfolio, RotationScheduler, SearchDriver, SearchTrace, StopReason,
    TraceEvent, TraceRecorder, TRACE_SCHEMA,
};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{json, Dfg};
use rotsched_sched::{ListScheduler, ResourceSet};

const CASES: u64 = 24;

fn random_graph(rng: &mut SplitMix64) -> Dfg {
    let seed = rng.next_u64() % 500;
    let nodes = rng.range_u32(4, 11) as usize;
    random_dfg(
        &RandomDfgConfig {
            nodes,
            forward_density: 0.2,
            feedback_density: 0.1,
            max_delays: 2,
            mult_fraction: 0.3,
            mult_steps: 2,
        },
        seed,
    )
}

fn config() -> HeuristicConfig {
    HeuristicConfig {
        rotations_per_phase: 8,
        max_size: None,
        keep_best: 4,
        rounds: 1,
    }
}

/// Observation is free of side effects: a traced solve returns the
/// bit-identical outcome of an untraced solve, for the single-sweep and
/// the portfolio paths alike.
#[test]
fn traced_solve_is_bit_identical_to_untraced() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x7ACE ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 2, false);
        for jobs in [1_usize, 4] {
            let scheduler = RotationScheduler::new(&g, res.clone())
                .with_config(config())
                .with_jobs(jobs);
            let (plain, traced) = if jobs > 1 {
                (
                    scheduler.solve_portfolio().expect("solves"),
                    scheduler.solve_portfolio_traced(64).expect("solves"),
                )
            } else {
                (
                    scheduler.solve().expect("solves"),
                    scheduler.solve_traced(64).expect("solves"),
                )
            };
            let (observed, _trace) = traced;
            let what = format!("case {case}, jobs {jobs}");
            assert_eq!(observed.length, plain.length, "{what}: length");
            assert_eq!(observed.depth, plain.depth, "{what}: depth");
            assert_eq!(observed.state, plain.state, "{what}: winning state");
            assert_eq!(observed.quality, plain.quality, "{what}: quality");
            assert_eq!(observed.stats, plain.stats, "{what}: stats");
            assert_eq!(
                observed.outcome.best_length, plain.outcome.best_length,
                "{what}: outcome best length"
            );
            assert_eq!(
                observed.outcome.best, plain.outcome.best,
                "{what}: best schedule set"
            );
            assert_eq!(
                observed.outcome.phases, plain.outcome.phases,
                "{what}: phase stats"
            );
            assert_eq!(
                observed.outcome.total_rotations, plain.outcome.total_rotations,
                "{what}: rotation count"
            );
            assert_eq!(
                observed.outcome.stopped, plain.outcome.stopped,
                "{what}: stop reason"
            );
        }
    }
}

/// The recorded portfolio trace — counters, trajectories, and the raw
/// event streams of the deterministic task prefix — is identical for
/// every worker-thread count, and so is the outcome it rode along with.
#[test]
fn portfolio_trace_is_deterministic_in_the_thread_count() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(
            rng.range_u32(1, 2),
            rng.range_u32(1, 2),
            rng.chance(0.5),
        );
        let p = Portfolio::standard(&g, &res, &config()).expect("schedulable");
        let (seq_out, seq_trace) = p
            .clone()
            .with_jobs(1)
            .run_traced(&g, &res, 128)
            .expect("runs");
        for jobs in [2_usize, 4] {
            let (out, trace) = p
                .clone()
                .with_jobs(jobs)
                .run_traced(&g, &res, 128)
                .expect("runs");
            let what = format!("case {case}, jobs {jobs}");
            assert_eq!(
                out.merged.best_length, seq_out.merged.best_length,
                "{what}: best length"
            );
            assert_eq!(
                out.merged.best, seq_out.merged.best,
                "{what}: canonical schedule set"
            );
            assert_eq!(
                out.canonical_task, seq_out.canonical_task,
                "{what}: canonical task"
            );
            assert_eq!(trace, seq_trace, "{what}: traced event streams diverged");
        }
    }
}

/// One traced, unlimited Heuristic-2 run replays the whole anytime
/// degradation table: `best_at_rotation(k)` equals the best length a
/// fresh solve under `Budget::with_max_rotations(k)` returns, at every
/// budget from zero through the unlimited run's rotation count.
#[test]
fn trajectory_replays_budgeted_runs_exactly() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0xB1D ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 1, false);
        let sched = ListScheduler::default();
        let config = config();
        let mut driver =
            SearchDriver::incremental(&g, &sched, &res).with_observer(TraceRecorder::new(0));
        let full = driver.heuristic2(&config).expect("schedulable");
        let trace = driver.observer.finish();
        for k in 0..=full.total_rotations {
            let meter = Budget::default().with_max_rotations(k as u64).arm();
            let budgeted = SearchDriver::incremental(&g, &sched, &res)
                .with_budget(Some(&meter))
                .heuristic2(&config)
                .expect("schedulable");
            assert_eq!(
                trace.best_at_rotation(k as u64),
                Some(budgeted.best_length),
                "case {case}: trajectory diverged from the budget-{k} run"
            );
        }
    }
}

/// The JSON form carries the whole trace: read back with the generic
/// JSON reader, its schema tag and every task's counters, trajectory and
/// events equal the trace it rendered, for single-sweep and portfolio
/// traces alike. (The bytes themselves are pinned by `trace_golden`.)
#[test]
fn trace_json_carries_every_counter() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0x15AB ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 2, false);
        for jobs in [1_usize, 4] {
            let scheduler = RotationScheduler::new(&g, res.clone())
                .with_config(config())
                .with_jobs(jobs);
            let (_, trace) = if jobs > 1 {
                scheduler.solve_portfolio_traced(32).expect("solves")
            } else {
                scheduler.solve_traced(32).expect("solves")
            };
            let doc = json::parse(&trace.render_json())
                .unwrap_or_else(|e| panic!("case {case}, jobs {jobs}: {e}"));
            assert_json_matches(&doc, &trace);
        }
    }
}

/// Asserts that `doc`, a rendered trace read back, holds exactly
/// `trace`'s schema tag, tasks, counters, trajectory and events.
fn assert_json_matches(doc: &json::Value, trace: &SearchTrace) {
    let at = |path: &str| doc.path(path).unwrap_or_else(|e| panic!("{e}"));
    let int = |path: &str| at(path).as_u64(path).unwrap_or_else(|e| panic!("{e}"));
    // `stopped` renders as null or as the reason's event token.
    let stopped = |path: &str, reason: Option<StopReason>| match reason {
        None => assert!(matches!(at(path), json::Value::Null), "{path}"),
        Some(r) => assert_eq!(
            format!(
                "stopped reason={}",
                at(path).as_str(path).expect("a reason")
            ),
            TraceEvent::Stopped(r).render(),
            "{path}"
        ),
    };
    assert_eq!(at("schema").as_str("schema"), Ok(TRACE_SCHEMA));
    assert_eq!(
        at("tasks").as_array("tasks").map(<[_]>::len),
        Ok(trace.tasks.len())
    );
    for (i, task) in trace.tasks.iter().enumerate() {
        let t = format!("tasks[{i}]");
        assert_eq!(int(&format!("{t}.rotations")), task.rotations);
        assert_eq!(int(&format!("{t}.prunes")), task.prunes);
        assert_eq!(int(&format!("{t}.dropped")), task.dropped);
        stopped(&format!("{t}.stopped"), task.stopped);
        let phases = format!("{t}.phases");
        assert_eq!(
            at(&phases).as_array(&phases).map(<[_]>::len),
            Ok(task.phases.len())
        );
        for (j, p) in task.phases.iter().enumerate() {
            let field = |key: &str| int(&format!("{phases}[{j}].{key}"));
            assert_eq!(
                [
                    field("size"),
                    field("alpha"),
                    field("rotations"),
                    field("cache_hits"),
                    field("cache_misses"),
                    field("prunes"),
                    field("improvements"),
                    field("best_length"),
                ],
                [
                    u64::from(p.size),
                    p.alpha,
                    p.rotations,
                    p.cache_hits,
                    p.cache_misses,
                    p.prunes,
                    p.improvements,
                    u64::from(p.best_length),
                ],
                "{phases}[{j}]"
            );
            stopped(&format!("{phases}[{j}].stopped"), p.stopped);
        }
        let trajectory: Vec<(u64, u32)> = at(&format!("{t}.trajectory"))
            .as_array("trajectory")
            .expect("an array")
            .iter()
            .map(|pair| {
                let pair = pair.as_array("point").expect("a pair");
                assert_eq!(pair.len(), 2);
                (
                    pair[0].as_u64("counter").expect("a counter"),
                    pair[1].as_u32("length").expect("a length"),
                )
            })
            .collect();
        assert_eq!(trajectory, task.trajectory, "{t}.trajectory");
        let events: Vec<&str> = at(&format!("{t}.events"))
            .as_array("events")
            .expect("an array")
            .iter()
            .map(|e| e.as_str("event").expect("a string"))
            .collect();
        let rendered: Vec<String> = task.events.iter().map(TraceEvent::render).collect();
        assert_eq!(events, rendered, "{t}.events");
    }
}

/// A tiny event ring never corrupts the exact side of the trace: the
/// counters, trajectory, and totals of a capacity-2 recording equal the
/// ones of a roomy recording; only the raw event replay is truncated.
#[test]
fn ring_capacity_only_bounds_the_raw_replay() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0x21C6 ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let scheduler = RotationScheduler::new(&g, res.clone()).with_config(config());
        let (_, roomy) = scheduler.solve_traced(4096).expect("solves");
        let (_, tiny) = scheduler.solve_traced(2).expect("solves");
        let (roomy, tiny) = (&roomy.tasks[0], &tiny.tasks[0]);
        assert_eq!(tiny.phases, roomy.phases, "case {case}: phase counters");
        assert_eq!(tiny.trajectory, roomy.trajectory, "case {case}: trajectory");
        assert_eq!(tiny.rotations, roomy.rotations, "case {case}: rotations");
        assert_eq!(tiny.prunes, roomy.prunes, "case {case}: prunes");
        assert_eq!(tiny.stopped, roomy.stopped, "case {case}: stop reason");
        assert!(tiny.events.len() <= 2, "case {case}: ring overflowed");
        assert_eq!(
            tiny.dropped + tiny.events.len() as u64,
            roomy.dropped + roomy.events.len() as u64,
            "case {case}: events went missing rather than dropped"
        );
    }
}
