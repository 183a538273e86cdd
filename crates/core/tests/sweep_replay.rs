//! Sweep replay is exact.
//!
//! Once a Heuristic-2 phase starts on the state an earlier phase of the
//! same size started on (same schedule, retiming shifted by a constant),
//! `SearchDriver::heuristic2` replays every remaining phase and its
//! reschedule from its sweep log instead of running them. This suite
//! checks that against an oracle that never replays — neither within a
//! phase nor across phases — built here from public pieces only: the
//! `down_rotate` operator, `WrapScratch::wrapped_length`,
//! `ListScheduler::schedule` and `BestSet::offer`. The oracle records
//! the event stream the driver emits, and one unbudgeted oracle run
//! yields every budgeted one: a `Budget::with_max_rotations(k)` run stops
//! at the first rotation top after `k` rotations that the frozen set
//! does not end.
//!
//! The fixtures are the graphs whose default sweeps repeat: the
//! biquad filter under 2 adders and 4 multipliers (phase 9 repeats
//! phase 2), the two small random graphs of `seeded_corpus(1, 256)`
//! that repeat (items 114 and 146, 10 and 9 nodes), and the 61-node
//! graph of the e2e `random-64` pool (phase 54 repeats phase 2). On the
//! small ones every priority policy under a scalar and a three-criteria
//! objective, unbudgeted and under every rotation budget, must leave
//! the oracle's `Q`, score, rotation count, stop reason, bound, phase
//! statistics and event stream (a phase end's memo counters aside); the
//! 61-node graph runs once, unbudgeted.

use rotsched_baselines::lower_bound;
use rotsched_benchmarks::{biquad, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::{
    down_rotate, initial_state, BestSet, Budget, HeuristicConfig, HeuristicOutcome, Objective,
    PhaseStats, RotationState, Score, SearchDriver, SearchEvent, SearchObserver, StopReason,
};
use rotsched_dfg::{Dfg, NodeId};
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet, WrapScratch};

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

const OBJECTIVES: [Objective; 2] = [Objective::Length, Objective::LengthRegsCode];

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

/// The small fixtures: name, graph and resources.
fn small_cases() -> Vec<(&'static str, Dfg, ResourceSet)> {
    vec![
        (
            "biquad 2A 4M",
            biquad(&TimingModel::paper()),
            ResourceSet::adders_multipliers(2, 4, false),
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
    ]
}

/// One search event with owned payloads. A phase end keeps its
/// rotation count and best length but not its memo counters, which
/// count work done and so fall with every replay.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Event {
    PhaseStart { size: u32, alpha: usize },
    Rotated { node_set: Vec<NodeId>, length: u32 },
    Improved { length: u32, score: Score },
    Rescheduled { length: u32 },
    Stopped(StopReason),
    PhaseEnd { rotations: usize, best_length: u32 },
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
                ..
            } => Event::PhaseEnd {
                rotations,
                best_length,
            },
            other => panic!("no prune signal is attached, got {other:?}"),
        });
    }
}

/// What a run leaves: `Q`, its phases and the prefix of the oracle's
/// event stream it emitted, followed by `tail`.
#[derive(Clone)]
struct Expected {
    best: BestSet,
    phases: Vec<PhaseStats>,
    prefix: usize,
    tail: Vec<Event>,
}

/// The oracle's unbudgeted run, and `cuts[k]`: the run under a budget
/// of `k` rotations, for every `k` whose budget fires.
struct Oracle {
    bound: u32,
    events: Vec<Event>,
    full: Expected,
    cuts: Vec<Expected>,
}

impl Oracle {
    /// The expected result of a run under budget `k` (`None`: no budget).
    fn under(&self, k: Option<usize>) -> &Expected {
        k.and_then(|k| self.cuts.get(k)).unwrap_or(&self.full)
    }

    fn check(&self, got: &HeuristicOutcome, events: &[Event], k: Option<usize>, what: &str) {
        let want = self.under(k);
        let stopped = want.phases.iter().find_map(|p| p.stopped);
        assert_eq!(got.best, want.best.schedules, "{what}: best set");
        assert_eq!(got.best_score, want.best.score, "{what}: best score");
        assert_eq!(
            got.total_rotations,
            want.phases.iter().map(|p| p.rotations).sum::<usize>(),
            "{what}: rotations"
        );
        assert_eq!(got.stopped, stopped, "{what}: stop reason");
        assert_eq!(got.lower_bound, Some(self.bound), "{what}: bound");
        let phases: Vec<PhaseStats> = got.phases.iter().map(unreplayed).collect();
        assert_eq!(phases, want.phases, "{what}: phase stats");
        let (head, tail) = events.split_at(want.prefix.min(events.len()));
        assert_eq!(head, &self.events[..want.prefix], "{what}: events");
        assert_eq!(tail, &want.tail[..], "{what}: closing events");
    }
}

/// Heuristic 2 with no replay of any kind: chained phases of decreasing
/// size, each rotation a `down_rotate`, a wrap probe and an offer, each
/// phase followed by its `FullSchedule(G_R)`, ending once `Q` is frozen
/// at the lower bound.
fn oracle(
    g: &Dfg,
    scheduler: ListScheduler,
    resources: &ResourceSet,
    objective: Objective,
    config: &HeuristicConfig,
) -> Oracle {
    let bound = u32::try_from(lower_bound(g, resources).expect("bound")).expect("small");
    let frozen =
        |best: &BestSet| best.count() >= best.capacity && best.score <= Score::from_length(bound);
    let offer =
        |best: &mut BestSet, events: &mut Vec<Event>, wrapped: u32, state: &RotationState| {
            if best.offer(objective.score(g, &state.retiming, wrapped), state) {
                events.push(Event::Improved {
                    length: best.length(),
                    score: best.score,
                });
            }
        };
    let mut wrap = WrapScratch::new(g, resources).expect("ops bind");
    let mut state = initial_state(g, &scheduler, resources).expect("schedulable");
    let mut best = BestSet::new(config.keep_best);
    let mut events = Vec::new();
    let mut cuts: Vec<Expected> = Vec::new();
    let wrapped = state.wrapped_length(g, resources).expect("wraps");
    offer(&mut best, &mut events, wrapped, &state);
    let beta = config.max_size.unwrap_or_else(|| state.length(g)).max(1);
    let alpha = config.rotations_per_phase;
    let mut phases = Vec::new();
    let mut spent = 0;
    'sweep: for _round in 0..config.rounds.max(1) {
        for size in (1..=beta).rev() {
            if frozen(&best) {
                break 'sweep;
            }
            events.push(Event::PhaseStart { size, alpha });
            let mut stats = PhaseStats {
                requested_size: size,
                ..PhaseStats::default()
            };
            let mut min_seen = u32::MAX;
            for j in 0..alpha {
                if frozen(&best) {
                    break;
                }
                if cuts.len() == spent {
                    // The first rotation top after `spent` rotations that
                    // the frozen set does not end: a budget of `spent`
                    // fires here.
                    let mut cut = phases.clone();
                    cut.push(PhaseStats {
                        stopped: Some(StopReason::RotationBudget),
                        ..stats.clone()
                    });
                    cuts.push(Expected {
                        best: best.clone(),
                        phases: cut,
                        prefix: events.len(),
                        tail: vec![
                            Event::Stopped(StopReason::RotationBudget),
                            Event::PhaseEnd {
                                rotations: stats.rotations,
                                best_length: best.length(),
                            },
                        ],
                    });
                }
                let length = state.length(g);
                if length <= 1 {
                    break;
                }
                let mut effective = size;
                while effective >= length {
                    effective = effective.div_ceil(2);
                }
                let rotated = down_rotate(g, &scheduler, resources, &mut state, effective)
                    .expect("legal rotation")
                    .rotated;
                spent += 1;
                let wrapped = wrap
                    .wrapped_length(g, Some(&state.retiming), &state.schedule, resources)
                    .expect("rotation states wrap");
                events.push(Event::Rotated {
                    node_set: rotated,
                    length: wrapped,
                });
                stats.rotations += 1;
                stats.lengths.push(wrapped);
                if wrapped < min_seen {
                    min_seen = wrapped;
                    stats.first_optimum_at = Some(j + 1);
                }
                offer(&mut best, &mut events, wrapped, &state);
            }
            events.push(Event::PhaseEnd {
                rotations: stats.rotations,
                best_length: best.length(),
            });
            phases.push(stats);
            state.schedule = scheduler
                .schedule(g, Some(&state.retiming), resources)
                .expect("schedulable");
            let wrapped = state.wrapped_length(g, resources).expect("wraps");
            events.push(Event::Rescheduled { length: wrapped });
            offer(&mut best, &mut events, wrapped, &state);
        }
    }
    let full = Expected {
        best,
        phases,
        prefix: events.len(),
        tail: Vec::new(),
    };
    Oracle {
        bound,
        events,
        full,
        cuts,
    }
}

/// `stats` with the replay counter cleared, for comparison with the
/// oracle (which never replays).
fn unreplayed(stats: &PhaseStats) -> PhaseStats {
    PhaseStats {
        replayed: 0,
        ..stats.clone()
    }
}

/// Heuristic 2 on the production driver at the default config, under
/// an optional rotation budget, with its events.
fn driver_run(
    g: &Dfg,
    scheduler: ListScheduler,
    resources: &ResourceSet,
    objective: Objective,
    budget: Option<usize>,
) -> (HeuristicOutcome, Vec<Event>) {
    let meter = budget.map(|k| Budget::default().with_max_rotations(k as u64).arm());
    let mut driver = SearchDriver::incremental(g, &scheduler, resources)
        .with_objective(objective)
        .with_budget(meter.as_ref())
        .with_observer(Recorder::default());
    let outcome = driver
        .heuristic2(&HeuristicConfig::default())
        .expect("schedulable");
    (outcome, driver.observer.0)
}

#[test]
fn sweeps_match_the_replay_free_oracle() {
    let config = HeuristicConfig::default();
    for (name, g, res) in small_cases() {
        let mut replayed_phases = 0;
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            for objective in OBJECTIVES {
                let what = format!("{name}, {policy:?}, {}", objective.mnemonic());
                let want = oracle(&g, scheduler, &res, objective, &config);
                let (got, events) = driver_run(&g, scheduler, &res, objective, None);
                want.check(&got, &events, None, &what);
                replayed_phases += got.replayed_phases;

                // The from-scratch step mode replays the same sweep.
                let mut reference = SearchDriver::reference(&g, &scheduler, &res)
                    .with_objective(objective)
                    .with_observer(Recorder::default());
                let slow = reference.heuristic2(&config).expect("schedulable");
                want.check(
                    &slow,
                    &reference.observer.0,
                    None,
                    &format!("{what}, reference"),
                );
                assert_eq!(slow.replayed_phases, got.replayed_phases, "{what}");
            }
        }
        assert!(replayed_phases > 0, "{name}: no sweep replayed a phase");
    }
}

#[test]
fn budgeted_sweeps_are_the_truncated_oracle() {
    let config = HeuristicConfig::default();
    // Release builds try every budget. Debug builds, where the driver
    // runs its self-checks, try every 8th (and the last two) to keep
    // the workspace test run short.
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let mut replayed_runs = 0;
    for (name, g, res) in small_cases() {
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            for objective in OBJECTIVES {
                let want = oracle(&g, scheduler, &res, objective, &config);
                let total = want.full.phases.iter().map(|p| p.rotations).sum::<usize>();
                let budgets = (0..total).step_by(stride).chain([total, total + 1]);
                for k in budgets {
                    let what = format!("{name}, {policy:?}, {}, budget {k}", objective.mnemonic());
                    let (got, events) = driver_run(&g, scheduler, &res, objective, Some(k));
                    want.check(&got, &events, Some(k), &what);
                    replayed_runs += usize::from(got.replayed_phases > 0);
                }
            }
        }
    }
    assert!(replayed_runs > 0, "no budgeted run replayed a phase");
}

#[test]
fn the_default_sweeps_repeat_where_measured() {
    // (phases run, phases replayed) under the policy each graph is
    // served with: biquad's phase 9 starts on phase 2's state (period
    // 7); the corpus items are solved under path-height priorities.
    let expected = [
        (PriorityPolicy::default(), 28, 19),
        (PriorityPolicy::PathHeight, 24, 14),
        (PriorityPolicy::PathHeight, 16, 8),
    ];
    for ((name, g, res), (policy, phases, replayed)) in small_cases().into_iter().zip(expected) {
        let scheduler = ListScheduler::new(policy);
        let (got, _) = driver_run(&g, scheduler, &res, Objective::Length, None);
        assert_eq!(
            (got.phases.len(), got.replayed_phases),
            (phases, replayed),
            "{name}"
        );
    }
}

#[test]
fn the_61_node_random_graph_replays_half_its_sweep() {
    // The largest graph of the e2e `random-64` pool: 104 phases of
    // β = 26, phase 54 starts on phase 2's state (period 52).
    let g = random_graph(61, 0x874b_1a12_7c49_523b);
    let res = ResourceSet::adders_multipliers(3, 2, false);
    let scheduler = ListScheduler::default();
    let want = oracle(
        &g,
        scheduler,
        &res,
        Objective::Length,
        &HeuristicConfig::default(),
    );
    let (got, events) = driver_run(&g, scheduler, &res, Objective::Length, None);
    want.check(&got, &events, None, "61-node random graph");
    assert_eq!((got.phases.len(), got.replayed_phases), (104, 50));
    assert_eq!(got.total_rotations, 3_328);
}
