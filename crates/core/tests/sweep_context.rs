//! One scheduling context per Heuristic-2 sweep is exact.
//!
//! The production step mode keeps one `SchedContext` for a whole
//! Heuristic-2 sweep: the initial state is scheduled through a new
//! context for the graph, which the first phase starts on, and each
//! chained `FullSchedule(G_R)` runs through the context, which re-derives its zero-delay set from the retiming (a
//! phase that ended in a cycle-replay restore rewrote the state behind
//! it), clears its table, cuts its weight memo back to the one entry a
//! new context holds, and so serves the next phase with no rebuild.
//! Every other phase start — `heuristic1`'s later phases — still builds
//! a context, and a new heuristic run on the same driver or the next
//! item of a `solve_batch` starts with a new one.
//!
//! The oracle is the same driver on a step mode that rebuilds its
//! context at every phase start and runs the initial state and each
//! `FullSchedule` through `ListScheduler::schedule`. Against it the suite checks `Q`, the
//! score, every `PhaseStats`, the whole event stream including each
//! phase end's memo counters, and the run under every rotation budget
//! `k`, for all four priority policies, a scalar and a three-criteria
//! objective, and one and four sweep rounds.

use rotsched_benchmarks::{biquad, diffeq, elliptic, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::{
    Budget, HeuristicConfig, HeuristicOutcome, IncrementalStep, Objective, ProblemSpec,
    RotationError, RotationScheduler, RotationState, Score, SearchDriver, SearchEvent,
    SearchObserver, StepMode, StopReason,
};
use rotsched_dfg::{Dfg, NodeId};
use rotsched_sched::{CacheStats, ListScheduler, PriorityPolicy, ResourceSet};

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

const OBJECTIVES: [Objective; 2] = [Objective::Length, Objective::LengthRegsCode];

/// The step mode of the oracle: the production rotation step, with a
/// context rebuilt at every phase start, the first included, and a
/// from-scratch initial state (the trait's default) and `FullSchedule`.
#[derive(Default)]
struct RebuildEveryPhase(IncrementalStep);

impl StepMode for RebuildEveryPhase {
    fn begin_phase(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
        _chained: bool,
    ) -> Result<(), RotationError> {
        self.0.begin_phase(dfg, scheduler, resources, state, false)
    }

    fn rotate(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError> {
        self.0.rotate(dfg, scheduler, resources, state, size)
    }

    fn full_schedule(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
    ) -> Result<(), RotationError> {
        state.schedule = scheduler.schedule(dfg, Some(&state.retiming), resources)?;
        Ok(())
    }

    fn cache_stats(&self) -> CacheStats {
        self.0.cache_stats()
    }
}

/// One search event with owned payloads, memo counters included.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    PhaseStart {
        size: u32,
        alpha: usize,
    },
    Rotated {
        node_set: Vec<NodeId>,
        length: u32,
    },
    Improved {
        length: u32,
        score: Score,
    },
    Rescheduled {
        length: u32,
    },
    Stopped(StopReason),
    PhaseEnd {
        rotations: usize,
        best_length: u32,
        cache: CacheStats,
    },
}

/// Records the driver's events.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl SearchObserver for Recorder {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        self.0.push(match event {
            SearchEvent::PhaseStart { size, alpha } => Event::PhaseStart { size, alpha },
            SearchEvent::Rotated { node_set, length } => Event::Rotated {
                node_set: node_set.to_vec(),
                length,
            },
            SearchEvent::IncumbentImproved { length, score } => Event::Improved { length, score },
            SearchEvent::Rescheduled { length } => Event::Rescheduled { length },
            SearchEvent::Stopped(reason) => Event::Stopped(reason),
            SearchEvent::PhaseEnd {
                rotations,
                best_length,
                cache,
            } => Event::PhaseEnd {
                rotations,
                best_length,
                cache,
            },
            other => panic!("no prune signal is attached, got {other:?}"),
        });
    }
}

/// A run's result and event stream.
type Run = (HeuristicOutcome, Vec<Event>);

/// Heuristic 2 on a driver over `step`, under an optional rotation
/// budget.
fn sweep<S: StepMode>(
    step: S,
    (g, scheduler, resources): (&Dfg, &ListScheduler, &ResourceSet),
    objective: Objective,
    config: &HeuristicConfig,
    budget: Option<usize>,
) -> Run {
    let meter = budget.map(|k| Budget::default().with_max_rotations(k as u64).arm());
    let mut driver = SearchDriver::new(g, scheduler, resources, step)
        .with_objective(objective)
        .with_budget(meter.as_ref())
        .with_observer(Recorder::default());
    let outcome = driver.heuristic2(config).expect("schedulable");
    (outcome, driver.observer.0)
}

fn assert_same(got: &Run, want: &Run, what: &str) {
    let ((got, got_events), (want, want_events)) = (got, want);
    assert_eq!(got.best, want.best, "{what}: Q");
    assert_eq!(got.best_score, want.best_score, "{what}: score");
    assert_eq!(got.phases, want.phases, "{what}: phase stats");
    assert_eq!(
        got.total_rotations, want.total_rotations,
        "{what}: rotations"
    );
    assert_eq!(got.stopped, want.stopped, "{what}: stop");
    assert_eq!(
        got.replayed_phases, want.replayed_phases,
        "{what}: replayed"
    );
    assert_eq!(got_events, want_events, "{what}: events");
}

/// How many executed phases of `run` ended in a cycle-replay restore
/// and were followed by another executed phase, whose context then
/// started on the reschedule of the restored state.
fn restores_before_executed_phases((outcome, _): &Run) -> usize {
    let executed = outcome.phases.len() - outcome.replayed_phases;
    outcome.phases[..executed.saturating_sub(1)]
        .iter()
        .filter(|p| p.replayed > 0)
        .count()
}

/// A graph of `random_dfg` with its default shape.
fn random_graph(nodes: usize, seed: u64) -> Dfg {
    random_dfg(
        &RandomDfgConfig {
            nodes,
            ..RandomDfgConfig::default()
        },
        seed,
    )
}

/// The fixtures: the biquad filter whose default sweep repeats, two
/// paper benchmarks, two small random graphs of `seeded_corpus(1, 256)`
/// and a 24-node random graph.
fn cases() -> Vec<(&'static str, Dfg, ResourceSet)> {
    let timing = TimingModel::paper();
    vec![
        (
            "biquad 2A 4M",
            biquad(&timing),
            ResourceSet::adders_multipliers(2, 4, false),
        ),
        (
            "diffeq 1A 2Mp",
            diffeq(&timing),
            ResourceSet::adders_multipliers(1, 2, true),
        ),
        (
            "elliptic 2A 1M",
            elliptic(&timing),
            ResourceSet::adders_multipliers(2, 1, false),
        ),
        (
            "corpus item 114",
            random_graph(10, 11_363_959_966_081_082_766),
            ResourceSet::adders_multipliers(3, 2, false),
        ),
        (
            "corpus item 146",
            random_graph(9, 6_826_325_285_633_248_363),
            ResourceSet::adders_multipliers(3, 2, true),
        ),
        (
            "random 24",
            random_graph(24, 0x5EED_C0DE),
            ResourceSet::adders_multipliers(2, 2, false),
        ),
    ]
}

fn config(rounds: usize) -> HeuristicConfig {
    HeuristicConfig {
        rounds,
        ..HeuristicConfig::default()
    }
}

#[test]
fn sweeps_match_the_rebuilding_oracle() {
    let mut restored = 0;
    for (name, g, res) in cases() {
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            let problem = (&g, &scheduler, &res);
            for objective in OBJECTIVES {
                for rounds in [1, 4] {
                    let what = format!(
                        "{name}, {policy:?}, {}, rounds {rounds}",
                        objective.mnemonic()
                    );
                    let config = config(rounds);
                    let want = sweep(
                        RebuildEveryPhase::default(),
                        problem,
                        objective,
                        &config,
                        None,
                    );
                    let got = sweep(
                        IncrementalStep::default(),
                        problem,
                        objective,
                        &config,
                        None,
                    );
                    assert_same(&got, &want, &what);
                    restored += restores_before_executed_phases(&got);
                }
            }
        }
    }
    assert!(restored > 0, "no executed phase started after a restore");
}

#[test]
fn budgeted_sweeps_match_the_rebuilding_oracle() {
    // The fixtures whose sweeps run longest before `Q` freezes. Release
    // builds try every budget; debug builds, where the context
    // cross-checks itself against full recomputation, every 32nd (and
    // the last two).
    let stride = if cfg!(debug_assertions) { 32 } else { 1 };
    let cases = cases();
    for (name, g, res) in [&cases[0], &cases[1], &cases[3], &cases[4]] {
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            let problem = (g, &scheduler, res);
            for objective in OBJECTIVES {
                for rounds in [1, 4] {
                    let config = config(rounds);
                    let full = sweep(
                        RebuildEveryPhase::default(),
                        problem,
                        objective,
                        &config,
                        None,
                    );
                    let total = full.0.total_rotations;
                    for k in (0..total).step_by(stride).chain([total, total + 1]) {
                        let what = format!(
                            "{name}, {policy:?}, {}, rounds {rounds}, budget {k}",
                            objective.mnemonic()
                        );
                        let want = sweep(
                            RebuildEveryPhase::default(),
                            problem,
                            objective,
                            &config,
                            Some(k),
                        );
                        let got = sweep(
                            IncrementalStep::default(),
                            problem,
                            objective,
                            &config,
                            Some(k),
                        );
                        assert_same(&got, &want, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn heuristic1_after_heuristic2_on_one_driver_rebuilds() {
    let config = HeuristicConfig {
        rotations_per_phase: 24,
        ..HeuristicConfig::default()
    };
    for (name, g, res) in cases() {
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            // One driver: a sweep leaves its context on its last
            // reschedule, then Heuristic 1 and a second sweep run on it.
            let mut runs = Vec::new();
            let mut shared =
                SearchDriver::incremental(&g, &scheduler, &res).with_observer(Recorder::default());
            let mut oracle = SearchDriver::new(&g, &scheduler, &res, RebuildEveryPhase::default())
                .with_observer(Recorder::default());
            for heuristic in ["heuristic 2", "heuristic 1", "second heuristic 2"] {
                let (got, want) = if heuristic == "heuristic 1" {
                    (shared.heuristic1(&config), oracle.heuristic1(&config))
                } else {
                    (shared.heuristic2(&config), oracle.heuristic2(&config))
                };
                let got = (
                    got.expect("schedulable"),
                    std::mem::take(&mut shared.observer.0),
                );
                let want = (
                    want.expect("schedulable"),
                    std::mem::take(&mut oracle.observer.0),
                );
                assert_same(&got, &want, &format!("{name}, {policy:?}, {heuristic}"));
                runs.push(got);
            }
            assert_eq!(runs[0].0.best, runs[2].0.best, "{name}, {policy:?}: reruns");
        }
    }
}

#[test]
fn batches_across_graphs_match_per_item_solves() {
    // Two random graphs of the same size next to each other, so a
    // context left over from one item would index the next one's nodes
    // without failing; the paper graphs interleave.
    let timing = TimingModel::paper();
    let graphs = [
        random_graph(12, 0xA11CE),
        random_graph(12, 0xB0B),
        diffeq(&timing),
        random_graph(12, 0x00C0_FFEE),
        elliptic(&timing),
        biquad(&timing),
    ];
    let mut specs = Vec::new();
    for (i, g) in graphs.iter().enumerate() {
        for policy in [PriorityPolicy::DescendantCount, PriorityPolicy::Mobility] {
            let res = ResourceSet::adders_multipliers(1 + i as u32 % 2, 2, i % 3 == 0);
            specs.push(
                ProblemSpec::new(g.clone(), res)
                    .with_policy(policy)
                    .with_config(config(1 + i % 2)),
            );
        }
    }
    // Reordered so consecutive items share a policy across graphs.
    specs.sort_by_key(|s| s.policy != PriorityPolicy::DescendantCount);
    let batch = RotationScheduler::solve_batch(&specs).expect("solvable");
    for (i, (spec, got)) in specs.iter().zip(&batch).enumerate() {
        let want = RotationScheduler::new(&spec.dfg, spec.resources.clone())
            .with_policy(spec.policy)
            .with_config(spec.config)
            .solve()
            .expect("solvable");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "item {i}");
    }
}
