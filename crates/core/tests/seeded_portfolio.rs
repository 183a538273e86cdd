//! Seeded randomized tests for the parallel portfolio: the result —
//! best length AND canonical schedule set — must be identical for every
//! worker-thread count, and pruning must never produce a length below
//! the combined lower bound.

use std::cmp::Ordering;

use rotsched_benchmarks::{all_benchmarks, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::{
    initial_state, BestSet, Budget, HeuristicConfig, Objective, PhaseStats, Portfolio,
    RotationScheduler, RotationState, Score, SearchDriver, SearchTask, SharedBound,
};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::Dfg;
use rotsched_sched::validate::realizing_retiming;
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

const CASES: u64 = 32;

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

/// The portfolio returns the identical best length and the identical
/// canonical schedule set for `jobs` in {1, 2, 8} on random cyclic
/// DFGs — the tentpole determinism property.
#[test]
fn portfolio_is_deterministic_in_the_thread_count() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(
            rng.range_u32(1, 2),
            rng.range_u32(1, 2),
            rng.chance(0.5),
        );
        let p = Portfolio::standard(&g, &res, &config()).expect("schedulable");
        let sequential = p.clone().with_jobs(1).run(&g, &res).expect("runs");
        for jobs in [2_usize, 8] {
            let parallel = p.clone().with_jobs(jobs).run(&g, &res).expect("runs");
            assert_eq!(
                parallel.merged.best_length, sequential.merged.best_length,
                "case {case}, jobs {jobs}: best length diverged"
            );
            assert_eq!(
                parallel.merged.best, sequential.merged.best,
                "case {case}, jobs {jobs}: canonical schedule set diverged"
            );
            assert_eq!(
                parallel.canonical_task, sequential.canonical_task,
                "case {case}, jobs {jobs}: canonical task diverged"
            );
            assert_eq!(
                parallel.merged.phases, sequential.merged.phases,
                "case {case}, jobs {jobs}: deterministic phase stats diverged"
            );
        }
    }
}

/// Pruning is sound: the portfolio's best length never beats the
/// combined recurrence + resource lower bound it prunes against, and a
/// claimed bound achievement really is at the bound.
#[test]
fn portfolio_never_beats_the_lower_bound() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(
            rng.range_u32(1, 3),
            rng.range_u32(1, 3),
            rng.chance(0.5),
        );
        let p = Portfolio::standard(&g, &res, &config()).expect("schedulable");
        let out = p.with_jobs(4).run(&g, &res).expect("runs");
        let lb = rotsched_baselines::lower_bound(&g, &res).expect("valid graph");
        assert_eq!(
            out.merged.lower_bound.map(u64::from),
            Some(lb),
            "case {case}"
        );
        assert!(
            u64::from(out.merged.best_length) >= lb,
            "case {case}: best {} beats LB {lb}",
            out.merged.best_length
        );
        if out.canonical_task.is_some() {
            assert_eq!(u64::from(out.merged.best_length), lb, "case {case}");
        }
    }
}

/// Every schedule the portfolio returns is a legal static schedule of
/// the original graph, and the facade's portfolio solve verifies
/// end-to-end by simulation.
#[test]
fn portfolio_schedules_are_legal_and_simulate() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0x5EED ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let scheduler = RotationScheduler::new(&g, res.clone())
            .with_config(config())
            .with_jobs(4);
        let solved = scheduler.solve_portfolio().expect("schedulable");
        for st in &solved.outcome.best {
            let r = realizing_retiming(&g, &st.schedule).expect("statically realizable");
            assert!(r.is_legal(&g), "case {case}");
        }
        let report = scheduler
            .verify(&solved.state, 5)
            .expect("pipeline is correct");
        assert_eq!(report.executions, g.node_count() * 5, "case {case}");
    }
}

/// The resilience layer's zero-cost guarantee at suite scale: arming an
/// *unlimited* budget changes nothing about a portfolio run — lengths,
/// canonical schedule sets, phase traces, and rotation counts are all
/// bit-identical, and no stop or panic is reported.
#[test]
fn unlimited_budget_portfolio_is_bit_identical() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0xB0D6 ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let p = Portfolio::standard(&g, &res, &config()).expect("schedulable");
        for jobs in [1_usize, 4] {
            let plain = p.clone().with_jobs(jobs).run(&g, &res).expect("runs");
            let budgeted = p
                .clone()
                .with_jobs(jobs)
                .with_budget(Budget::unlimited())
                .run(&g, &res)
                .expect("runs");
            let what = format!("case {case}, jobs {jobs}");
            assert_eq!(
                budgeted.merged.best_length, plain.merged.best_length,
                "{what}: length"
            );
            assert_eq!(budgeted.merged.best, plain.merged.best, "{what}: best set");
            assert_eq!(
                budgeted.canonical_task, plain.canonical_task,
                "{what}: canonical task"
            );
            assert_eq!(
                budgeted.merged.phases, plain.merged.phases,
                "{what}: phase stats"
            );
            assert_eq!(
                budgeted.merged.total_rotations, plain.merged.total_rotations,
                "{what}: rotation count"
            );
            assert_eq!(budgeted.merged.stopped, None, "{what}: phantom stop");
            assert_eq!(budgeted.panicked_tasks, 0, "{what}: phantom panic");
        }
    }
}

/// Panic isolation at suite scale: a crashing task injected into every
/// random portfolio degrades the run to the survivors' result — same
/// best length and schedules as the clean run, one panic counted — for
/// every job count, including the sequential path.
#[test]
fn injected_panic_degrades_to_the_survivors_best_everywhere() {
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0xDEAD ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let clean = Portfolio::standard(&g, &res, &config()).expect("schedulable");
        let baseline = clean.clone().with_jobs(1).run(&g, &res).expect("runs");
        let mut sabotaged = clean;
        // Injecting *first* gives the crash the best chance to poison
        // cross-task pruning state if isolation were leaky.
        sabotaged.tasks.insert(0, SearchTask::PanicForTest);
        for jobs in [1_usize, 2, 8] {
            let out = sabotaged
                .clone()
                .with_jobs(jobs)
                .run(&g, &res)
                .expect("survivors carry the run");
            let what = format!("case {case}, jobs {jobs}");
            assert_eq!(out.panicked_tasks, 1, "{what}: panic count");
            assert_eq!(
                out.merged.best_length, baseline.merged.best_length,
                "{what}: length"
            );
            assert_eq!(out.merged.best, baseline.merged.best, "{what}: best set");
            for st in &out.merged.best {
                let r = realizing_retiming(&g, &st.schedule).expect("legal");
                assert!(r.is_legal(&g), "{what}: illegal survivor schedule");
            }
        }
    }
}

/// The combined lower bound of `g` under `res` as a kernel length.
fn kernel_bound(g: &Dfg, res: &ResourceSet) -> u32 {
    u32::try_from(rotsched_baselines::lower_bound(g, res).expect("valid graph"))
        .expect("small bound")
}

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

/// What one task's search hands the merge: best score, best set,
/// phase statistics and replayed phases.
type TaskResult = (Score, Vec<RotationState>, Vec<PhaseStats>, usize);

/// The from-scratch driver's run of one portfolio task under
/// `objective` and the prune signal of a fresh shared bound:
/// `initial_state` → `offer` → `run_phase` for a phase task,
/// `heuristic2` for a sweep.
fn reference_run(
    task: &SearchTask,
    keep_best: usize,
    objective: Objective,
    g: &Dfg,
    res: &ResourceSet,
) -> TaskResult {
    let shared = SharedBound::new(kernel_bound(g, res));
    let signal = shared.signal(0);
    match *task {
        SearchTask::Phase {
            size,
            alpha,
            policy,
        } => {
            let scheduler = ListScheduler::new(policy);
            let mut driver = SearchDriver::reference(g, &scheduler, res)
                .with_prune(Some(&signal))
                .with_objective(objective);
            let mut state = initial_state(g, &scheduler, res).expect("schedulable");
            let mut best = BestSet::new(keep_best);
            let wrapped = state.wrapped_length(g, res).expect("wraps");
            driver.offer(&mut best, wrapped, &state);
            let stats = driver
                .run_phase(&mut state, &mut best, size, alpha)
                .expect("runs");
            (best.score, best.schedules, vec![stats], 0)
        }
        SearchTask::Sweep { config, policy } => {
            let scheduler = ListScheduler::new(policy);
            let out = SearchDriver::reference(g, &scheduler, res)
                .with_prune(Some(&signal))
                .with_objective(objective)
                .heuristic2(&config)
                .expect("runs");
            (out.best_score, out.best, out.phases, out.replayed_phases)
        }
        SearchTask::PanicForTest => unreachable!("no test task here"),
    }
}

/// A one-thread portfolio of `tasks` with the given merge capacity,
/// minimizing `objective`.
fn portfolio_of(tasks: Vec<SearchTask>, keep_best: usize, objective: Objective) -> Portfolio {
    Portfolio {
        tasks,
        jobs: 1,
        keep_best,
        budget: Budget::unlimited(),
        objective,
    }
}

/// Checks every policy and objective on `g` under `res`: a one-task
/// portfolio running a Heuristic-2 sweep hands over exactly the
/// from-scratch driver's `heuristic2` outcome under the same prune
/// signal. Returns the replayed phases seen, for coverage.
fn assert_sweep_task_matches_the_reference(what: &str, g: &Dfg, res: &ResourceSet) -> usize {
    let config = HeuristicConfig {
        rounds: 3,
        ..config()
    };
    let mut replayed = 0;
    for objective in Objective::ALL {
        for policy in POLICIES {
            let task = SearchTask::Sweep { config, policy };
            let out = portfolio_of(vec![task.clone()], config.keep_best, objective)
                .run(g, res)
                .expect("runs");
            let (score, best, phases, replayed_phases) =
                reference_run(&task, config.keep_best, objective, g, res);
            let what = format!("{what}, {policy:?}, {}", objective.mnemonic());
            assert_eq!(out.merged.best_score, score, "{what}: best score");
            assert_eq!(out.merged.best, best, "{what}: best set");
            assert_eq!(out.merged.phases, phases, "{what}: phase stats");
            assert_eq!(
                out.merged.replayed_phases, replayed_phases,
                "{what}: replayed phases"
            );
            replayed += replayed_phases;
        }
    }
    replayed
}

/// The inputs the one-task oracles run on: the five paper benchmarks
/// under two resource sets and random cyclic DFGs, each named.
fn oracle_inputs() -> Vec<(String, Dfg, ResourceSet)> {
    let mut inputs = Vec::new();
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        for (adders, mults, pipelined) in [(1, 1, false), (2, 2, true)] {
            let res = ResourceSet::adders_multipliers(adders, mults, pipelined);
            inputs.push((format!("{name} {adders}/{mults}"), g.clone(), res));
        }
    }
    for case in 0..CASES / 2 {
        let mut rng = SplitMix64::new(0x9A5E ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(
            rng.range_u32(1, 2),
            rng.range_u32(1, 2),
            rng.chance(0.5),
        );
        inputs.push((format!("case {case}"), g, res));
    }
    inputs
}

/// A portfolio sweep task returns its driver's outcome as is: on every
/// oracle input, under every policy and objective, it matches the
/// from-scratch `heuristic2`, replayed phases included. Only a
/// multi-criteria sweep replays under a prune signal (a length-only one
/// stops at the bound before it repeats), so the objectives are what
/// keep the count under test.
#[test]
fn sweep_task_matches_the_reference_heuristic2() {
    let replayed: usize = oracle_inputs()
        .iter()
        .map(|(what, g, res)| assert_sweep_task_matches_the_reference(what, g, res))
        .sum();
    assert!(replayed > 0, "no sweep replayed a phase");
}

/// How folding one task's set into the union went, for coverage.
#[derive(Default)]
struct UnionCoverage {
    /// A worse set left the union as it was.
    worse_skipped: usize,
    /// A tying set appended its new states after the union's own.
    ties_kept: usize,
    /// A tying set offered a state the union already held.
    duplicates_dropped: usize,
    /// A better set replaced a non-empty union.
    better_replaced: usize,
}

/// Folds `runs` in index order the way the merge must when no task
/// reached the bound, with plain vectors rather than `BestSet`: a worse
/// set is skipped, a tie appends its new states in insertion order (a
/// duplicate dropped, the capacity respected) and a better set replaces
/// the union. The phases and replay counts are every task's, in order.
fn union_of(runs: Vec<TaskResult>, keep_best: usize, seen: &mut UnionCoverage) -> TaskResult {
    let (mut score, mut union, mut phases, mut replayed) = (Score::NONE, Vec::new(), Vec::new(), 0);
    for (own_score, own_best, own_phases, own_replayed) in runs {
        phases.extend(own_phases);
        replayed += own_replayed;
        match own_score.cmp(&score) {
            Ordering::Greater => seen.worse_skipped += 1,
            Ordering::Less => {
                seen.better_replaced += usize::from(!union.is_empty());
                score = own_score;
                union = own_best;
                union.truncate(keep_best);
            }
            Ordering::Equal => {
                for state in own_best {
                    if union
                        .iter()
                        .any(|s: &RotationState| s.schedule == state.schedule)
                    {
                        seen.duplicates_dropped += 1;
                    } else if union.len() < keep_best {
                        seen.ties_kept += 1;
                        union.push(state);
                    }
                }
            }
        }
    }
    (score, union, phases, replayed)
}

/// When no task reaches the bound nothing is pruned, so the merged
/// result must be the in-index-order union of each task's own
/// from-scratch run ([`union_of`]), at every job count. A length-only
/// search reaches the bound on most graphs, so short phases keep it out
/// of reach on some; a multi-criteria score achieves the bound only with
/// zero secondaries, which only a graph with no delayed edge can give,
/// so those portfolios go unpruned on most graphs. Three rounds let
/// their sweeps replay, which keeps the summed replay count under test.
#[test]
fn unpruned_portfolio_merges_the_union_of_every_task_run() {
    let config = HeuristicConfig {
        rotations_per_phase: 2,
        rounds: 3,
        ..config()
    };
    let mut unpruned = [0; Objective::ALL.len()];
    let mut seen = UnionCoverage::default();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x0A11 ^ case);
        let g = random_graph(&mut rng);
        let res = ResourceSet::adders_multipliers(1, 1, rng.chance(0.5));
        let p = Portfolio::standard(&g, &res, &config).expect("schedulable");
        for (o, objective) in Objective::ALL.into_iter().enumerate() {
            let p = p.clone().with_objective(objective);
            let out = p.clone().run(&g, &res).expect("runs");
            if out.canonical_task.is_some() {
                continue;
            }
            unpruned[o] += 1;
            let runs = p
                .tasks
                .iter()
                .map(|task| reference_run(task, p.keep_best, objective, &g, &res))
                .collect();
            let (score, union, phases, replayed) = union_of(runs, p.keep_best, &mut seen);
            for jobs in [1, 2, 4] {
                let out = p.clone().with_jobs(jobs).run(&g, &res).expect("runs");
                let what = format!("case {case}, {}, jobs {jobs}", objective.mnemonic());
                assert_eq!(out.canonical_task, None, "{what}: canonical task");
                assert_eq!(out.merged.best_score, score, "{what}: best score");
                assert_eq!(out.merged.best, union, "{what}: best set");
                assert_eq!(out.merged.phases, phases, "{what}: phase stats");
                assert_eq!(out.merged.replayed_phases, replayed, "{what}: replayed");
                assert_eq!(out.panicked_tasks, 0, "{what}: phantom panic");
            }
        }
    }
    assert!(unpruned[0] > 0, "no length-only portfolio went unpruned");
    for (o, objective) in Objective::ALL.iter().enumerate().skip(1) {
        assert!(
            unpruned[o] >= CASES as usize * 3 / 4,
            "only {} unpruned {} portfolios",
            unpruned[o],
            objective.mnemonic()
        );
    }
    assert!(seen.worse_skipped > 0, "no worse set skipped");
    assert!(seen.ties_kept > 0, "no tie kept");
    assert!(seen.duplicates_dropped > 0, "no duplicate dropped");
    assert!(seen.better_replaced > 0, "no better set replaced the union");
}

/// Checks every phase size `1..=β` of `g` under `res`: a one-task
/// portfolio running the phase gives the best set and phase statistics
/// of the from-scratch driver running `initial_state` → `offer` →
/// `run_phase` under the same prune signal.
fn assert_phase_task_matches_the_reference(what: &str, g: &Dfg, res: &ResourceSet) {
    let (alpha, keep_best) = (8, 4);
    for policy in POLICIES {
        let init = initial_state(g, &ListScheduler::new(policy), res).expect("schedulable");
        for size in 1..=init.length(g).max(1) {
            let task = SearchTask::Phase {
                size,
                alpha,
                policy,
            };
            let out = portfolio_of(vec![task.clone()], keep_best, Objective::Length)
                .run(g, res)
                .expect("runs");
            let (score, best, phases, _) =
                reference_run(&task, keep_best, Objective::Length, g, res);
            let what = format!("{what}, {policy:?}, size {size}");
            assert_eq!(out.merged.best_score, score, "{what}: best score");
            assert_eq!(out.merged.best, best, "{what}: best set");
            assert_eq!(out.merged.phases, phases, "{what}: phase stats");
        }
    }
}

/// A portfolio phase task starts on the context its initial schedule
/// was built in, and that changes nothing it returns: on the five paper
/// benchmarks and on random cyclic DFGs, every size `1..=β` under every
/// policy matches the from-scratch reference.
#[test]
fn phase_task_matches_the_reference_phase_from_the_initial_state() {
    for (what, g, res) in oracle_inputs() {
        assert_phase_task_matches_the_reference(&what, &g, &res);
    }
}
