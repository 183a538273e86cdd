//! Cycle replay is exact.
//!
//! Once a rotation phase returns to a state it already held (same
//! schedule, retiming shifted by a constant), `SearchDriver` replays the
//! rest of the phase from its `CycleLog` instead of rotating. This suite
//! checks that against an oracle that never replays, built here from
//! public pieces only — the `down_rotate` operator,
//! `WrapScratch::wrapped_length` and `BestSet::offer` — over the uniform
//! ring `ring(24, 3)` under 4 adders and seeded random graphs with
//! self-loops, for every priority policy under a scalar and a
//! three-criteria objective:
//!
//! * a single phase leaves the oracle's final state (schedule and
//!   absolute retiming), `PhaseStats` and best set;
//! * a Heuristic-2 sweep under every rotation budget `k` equals the
//!   oracle's sweep truncated at `k`;
//! * replay actually fires: in at least a third of the phases, and on
//!   the ring with period `n`, every node rotated `shift` times a period.

use rotsched_baselines::lower_bound;
use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    down_rotate, initial_state, BestSet, Budget, CycleLog, HeuristicConfig, HeuristicOutcome,
    Objective, PhaseStats, RotationState, Score, SearchDriver, StopReason,
};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, DfgBuilder, OpKind};
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet, SchedContext, WrapScratch};

const SEEDS: [u64; 4] = [3, 11, 42, 77];

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

const OBJECTIVES: [Objective; 2] = [Objective::Length, Objective::LengthRegsCode];

/// `n` unit adds in a chain closed by one edge carrying `delays`.
fn ring(n: usize, delays: u32) -> Dfg {
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    DfgBuilder::new("ring")
        .nodes("v", n, OpKind::Add, 1)
        .chain(&refs)
        .edge(&format!("v{}", n - 1), "v0", delays)
        .build()
        .expect("valid ring")
}

/// A seeded random graph; odd seeds also get delayed self-loops.
fn random_graph(seed: u64) -> Dfg {
    let mut g = random_dfg(
        &RandomDfgConfig {
            nodes: 12,
            ..RandomDfgConfig::default()
        },
        seed,
    );
    if seed % 2 == 1 {
        let mut rng = SplitMix64::new(seed);
        let ids: Vec<_> = g.nodes().map(|(id, _)| id).collect();
        for &v in &ids {
            if rng.chance(0.25) {
                g.add_edge(v, v, rng.range_u32(1, 2))
                    .expect("a delayed self-loop is valid");
            }
        }
    }
    g
}

/// Two independent rings, adds and multiplies: under 2 adders and 1
/// multiplier the add ring turns every 2 rotations and the multiply ring
/// every 3, so the schedule repeats every 12 rotations while the gap
/// between the rings' retimings keeps growing. A replay keyed on the
/// schedule alone would fire here; the right one never does.
fn drifting_rings() -> Dfg {
    DfgBuilder::new("drift")
        .nodes("a", 4, OpKind::Add, 1)
        .nodes("m", 3, OpKind::Mul, 1)
        .chain(&["a0", "a1", "a2", "a3"])
        .edge("a3", "a0", 2)
        .chain(&["m0", "m1", "m2"])
        .edge("m2", "m0", 1)
        .build()
        .expect("valid rings")
}

/// Every suite graph with the resources it is scheduled under.
fn cases() -> Vec<(String, Dfg, ResourceSet)> {
    let mut out = vec![
        (
            "ring(24, 3)".to_string(),
            ring(24, 3),
            ResourceSet::adders_multipliers(4, 0, false),
        ),
        (
            "drifting rings".to_string(),
            drifting_rings(),
            ResourceSet::adders_multipliers(2, 1, false),
        ),
    ];
    for seed in SEEDS {
        out.push((
            format!("random seed {seed}"),
            random_graph(seed),
            ResourceSet::adders_multipliers(2, 1, false),
        ));
    }
    out
}

/// One rotation phase with no replay: every rotation runs
/// `down_rotate`, the wrap probe and an offer — the loop as the paper
/// states it, with the driver's budget and frozen-set stops.
/// `allowance` holds the rotations a budget has left across phases
/// (`None`: no budget).
#[allow(clippy::too_many_arguments)]
fn oracle_phase(
    g: &Dfg,
    scheduler: ListScheduler,
    resources: &ResourceSet,
    objective: Objective,
    state: &mut RotationState,
    best: &mut BestSet,
    (size, alpha): (u32, usize),
    frozen_at: Option<u32>,
    allowance: &mut Option<usize>,
) -> PhaseStats {
    let mut wrap = WrapScratch::new(g, resources).expect("ops bind");
    let mut stats = PhaseStats {
        requested_size: size,
        ..PhaseStats::default()
    };
    let mut min_seen = u32::MAX;
    for j in 0..alpha {
        // A frozen set ends the phase before the budget is polled.
        let frozen =
            |bound: u32| best.count() >= best.capacity && best.score <= Score::from_length(bound);
        if frozen_at.is_some_and(frozen) {
            break;
        }
        if *allowance == Some(0) {
            stats.stopped = Some(StopReason::RotationBudget);
            break;
        }
        let length = state.length(g);
        if length <= 1 {
            break;
        }
        let mut effective = size;
        while effective >= length {
            effective = effective.div_ceil(2);
        }
        down_rotate(g, &scheduler, resources, state, effective).expect("legal rotation");
        if let Some(left) = allowance {
            *left -= 1;
        }
        let wrapped = wrap
            .wrapped_length(g, Some(&state.retiming), &state.schedule, resources)
            .expect("rotation states wrap");
        stats.rotations += 1;
        stats.lengths.push(wrapped);
        if wrapped < min_seen {
            min_seen = wrapped;
            stats.first_optimum_at = Some(j + 1);
        }
        let _ = best.offer(objective.score(g, &state.retiming, wrapped), state);
    }
    stats
}

/// Heuristic 2 with no replay, stopped after `budget` rotations when
/// given: chained phases of decreasing size, each followed by its
/// `FullSchedule(G_R)`, ending once `Q` is frozen at the lower bound.
fn oracle_heuristic2(
    g: &Dfg,
    scheduler: ListScheduler,
    resources: &ResourceSet,
    objective: Objective,
    config: &HeuristicConfig,
    budget: Option<usize>,
) -> HeuristicOutcome {
    let bound = u32::try_from(lower_bound(g, resources).expect("bound")).expect("small");
    let mut state = initial_state(g, &scheduler, resources).expect("schedulable");
    let mut best = BestSet::new(config.keep_best);
    let offer = |best: &mut BestSet, state: &RotationState| {
        let wrapped = state.wrapped_length(g, resources).expect("wraps");
        let _ = best.offer(objective.score(g, &state.retiming, wrapped), state);
    };
    offer(&mut best, &state);
    let beta = config.max_size.unwrap_or_else(|| state.length(g)).max(1);
    let mut allowance = budget;
    let mut phases = Vec::new();
    'sweep: for _round in 0..config.rounds.max(1) {
        for size in (1..=beta).rev() {
            if best.count() >= best.capacity && best.score <= Score::from_length(bound) {
                break 'sweep;
            }
            let stats = oracle_phase(
                g,
                scheduler,
                resources,
                objective,
                &mut state,
                &mut best,
                (size, config.rotations_per_phase),
                Some(bound),
                &mut allowance,
            );
            let stopped = stats.stopped.is_some();
            phases.push(stats);
            if stopped {
                break 'sweep;
            }
            state.schedule = scheduler
                .schedule(g, Some(&state.retiming), resources)
                .expect("schedulable");
            offer(&mut best, &state);
        }
    }
    HeuristicOutcome {
        lower_bound: Some(bound),
        ..HeuristicOutcome::from_parts(best, phases)
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

#[test]
fn phases_match_the_replay_free_oracle() {
    let (mut phases, mut replayed_phases, mut replayed) = (0, 0, 0);
    for (name, g, res) in cases() {
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            let init = initial_state(&g, &scheduler, &res).expect("schedulable");
            for objective in OBJECTIVES {
                for size in 1..=init.length(&g).min(4) {
                    // An empty `Q` leaves the phase's start state
                    // unoffered; a seeded one holds it.
                    for seeded in [false, true] {
                        let what = format!(
                            "{name}, {policy:?}, {}, size {size}, seeded {seeded}",
                            objective.mnemonic()
                        );
                        let start_best = || {
                            let mut best = BestSet::new(8);
                            if seeded {
                                let wrapped = init.wrapped_length(&g, &res).expect("wraps");
                                let score = objective.score(&g, &init.retiming, wrapped);
                                let _ = best.offer(score, &init);
                            }
                            best
                        };
                        let mut want_best = start_best();
                        let mut want_state = init.clone();
                        let want = oracle_phase(
                            &g,
                            scheduler,
                            &res,
                            objective,
                            &mut want_state,
                            &mut want_best,
                            (size, 80),
                            None,
                            &mut None,
                        );
                        for reference in [false, true] {
                            let mut state = init.clone();
                            let mut best = start_best();
                            let got = if reference {
                                SearchDriver::reference(&g, &scheduler, &res)
                                    .with_objective(objective)
                                    .run_phase(&mut state, &mut best, size, 80)
                            } else {
                                SearchDriver::incremental(&g, &scheduler, &res)
                                    .with_objective(objective)
                                    .run_phase(&mut state, &mut best, size, 80)
                            }
                            .expect("legal phase");
                            assert_eq!(unreplayed(&got), want, "{what}: phase stats");
                            assert_eq!(state, want_state, "{what}: final state");
                            assert_eq!(best.score, want_best.score, "{what}: best score");
                            assert_eq!(best.schedules, want_best.schedules, "{what}: best set");
                            phases += 1;
                            replayed_phases += usize::from(got.replayed > 0);
                            replayed += got.replayed;
                        }
                    }
                }
            }
        }
    }
    assert!(
        replayed_phases * 3 >= phases,
        "only {replayed_phases} of {phases} phases replayed: the suite lost its teeth"
    );
    assert!(replayed > 0);
}

#[test]
fn budgeted_heuristic2_is_the_truncated_oracle() {
    let config = HeuristicConfig {
        rotations_per_phase: 40,
        max_size: Some(3),
        keep_best: 4,
        rounds: 1,
    };
    let (mut runs, mut replayed) = (0, 0);
    for (name, g, res) in cases() {
        for policy in POLICIES {
            let scheduler = ListScheduler::new(policy);
            for objective in OBJECTIVES {
                let full = oracle_heuristic2(&g, scheduler, &res, objective, &config, None);
                for k in 0..=full.total_rotations + 1 {
                    let what = format!("{name}, {policy:?}, {}, budget {k}", objective.mnemonic());
                    let want = oracle_heuristic2(&g, scheduler, &res, objective, &config, Some(k));
                    let meter = Budget::default().with_max_rotations(k as u64).arm();
                    let got = SearchDriver::incremental(&g, &scheduler, &res)
                        .with_objective(objective)
                        .with_budget(Some(&meter))
                        .heuristic2(&config)
                        .expect("schedulable");
                    assert_eq!(got.best, want.best, "{what}: best set");
                    assert_eq!(got.best_score, want.best_score, "{what}: best score");
                    assert_eq!(
                        got.total_rotations, want.total_rotations,
                        "{what}: rotations"
                    );
                    assert_eq!(got.stopped, want.stopped, "{what}: stop reason");
                    assert_eq!(got.lower_bound, want.lower_bound, "{what}: bound");
                    let stats: Vec<PhaseStats> = got.phases.iter().map(unreplayed).collect();
                    assert_eq!(stats, want.phases, "{what}: phase stats");
                    runs += 1;
                    replayed += got.phases.iter().map(|p| p.replayed).sum::<usize>();
                }
            }
        }
    }
    assert!(runs > 0 && replayed > 0, "no budgeted run replayed");
}

#[test]
fn the_uniform_ring_repeats_with_period_n() {
    let g = ring(24, 3);
    let scheduler = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(4, 0, false);
    let mut state = initial_state(&g, &scheduler, &res).expect("schedulable");
    let mut ctx = SchedContext::new(&g, &scheduler, &res, Some(&state.retiming), &state.schedule)
        .expect("context");
    let (mut log, mut rotated) = (CycleLog::new(), Vec::new());
    log.begin(&state, 64);
    let mut k = 0;
    while log.cycle().is_none() {
        assert!(k < 64, "no repeat within 64 size-1 rotations");
        ctx.down_rotate(
            &g,
            &res,
            &mut state.retiming,
            &mut state.schedule,
            1,
            &mut rotated,
        )
        .expect("legal rotation");
        k += 1;
        let wrapped = state.wrapped_length(&g, &res).expect("wraps");
        log.record(&rotated, wrapped, &state);
    }
    let cycle = log.cycle().expect("found");
    assert_eq!(cycle.period, 24, "{cycle:?}");
    // Over one period every node is rotated `shift` times: the 3 delays
    // keep 3 iterations in flight, so each step rotates 3 nodes.
    let per_period: usize = (1..=cycle.period)
        .map(|t| log.replay(k + t).expect("past the repeat").0.len())
        .sum();
    assert_eq!(per_period, 24 * 3, "{cycle:?}");
    assert_eq!(cycle.shift, 3, "{cycle:?}");

    // The driver replays everything past the repeat.
    let mut state = initial_state(&g, &scheduler, &res).expect("schedulable");
    let mut best = BestSet::new(8);
    let stats = SearchDriver::incremental(&g, &scheduler, &res)
        .run_phase(&mut state, &mut best, 1, 200)
        .expect("legal phase");
    assert_eq!(stats.rotations, 200);
    assert_eq!(stats.replayed, 200 - k);
}

#[test]
fn phases_and_sweeps_past_the_log_cap_run_on_without_replay() {
    // `ring(n, 3)` under 4 adders returns to its start state after `n`
    // size-1 rotations, and each logged state takes `2n + 3` words. At
    // n = 300 the whole period fits in the log's 2 MiB and the phase
    // replays; at n = 400 the log passes its cap at rotation 324, before
    // the repeat at 400, so the phase runs on without replay.
    let scheduler = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(4, 0, false);
    let config = HeuristicConfig {
        rotations_per_phase: 800,
        max_size: Some(2),
        keep_best: 100_000, // never frozen: every phase runs to its end
        rounds: 2,
    };
    for (n, capped) in [(300, false), (400, true)] {
        let g = ring(n, 3);
        let what = format!("ring({n}, 3)");
        let init = initial_state(&g, &scheduler, &res).expect("schedulable");
        let (mut want_state, mut want_best) = (init.clone(), BestSet::new(8));
        let want = oracle_phase(
            &g,
            scheduler,
            &res,
            Objective::Length,
            &mut want_state,
            &mut want_best,
            (1, 2 * n),
            None,
            &mut None,
        );
        let (mut state, mut best) = (init, BestSet::new(8));
        let got = SearchDriver::incremental(&g, &scheduler, &res)
            .run_phase(&mut state, &mut best, 1, 2 * n)
            .expect("legal phase");
        assert_eq!(unreplayed(&got), want, "{what}: phase stats");
        assert_eq!(state, want_state, "{what}: final state");
        assert_eq!(best.schedules, want_best.schedules, "{what}: best set");
        assert_eq!(
            got.replayed == 0,
            capped,
            "{what}: {} replayed",
            got.replayed
        );

        // In a sweep, the capped size-1 phase stops the sweep's log: the
        // next size-2 phase starts on an empty log and replays within
        // itself, and the sweep replays no phase.
        let want = oracle_heuristic2(&g, scheduler, &res, Objective::Length, &config, None);
        let got = SearchDriver::incremental(&g, &scheduler, &res)
            .heuristic2(&config)
            .expect("schedulable");
        assert_eq!(got.best, want.best, "{what}: sweep best set");
        assert_eq!(got.total_rotations, want.total_rotations, "{what}");
        let stats: Vec<PhaseStats> = got.phases.iter().map(unreplayed).collect();
        assert_eq!(stats, want.phases, "{what}: sweep phase stats");
        let replayed: Vec<bool> = got.phases.iter().map(|p| p.replayed > 0).collect();
        assert_eq!(replayed, [true, !capped, true, !capped], "{what}");
        assert_eq!(got.replayed_phases, usize::from(!capped), "{what}");
    }
}
