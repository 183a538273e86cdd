//! Seeded randomized tests for the parallel portfolio: the result —
//! best length AND canonical schedule set — must be identical for every
//! worker-thread count, and pruning must never produce a length below
//! the combined lower bound.

use rotsched_benchmarks::{all_benchmarks, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::{
    initial_state, BestSet, Budget, HeuristicConfig, Objective, Portfolio, RotationScheduler,
    SearchDriver, SearchTask, SharedBound,
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

/// Checks every phase size `1..=β` of `g` under `res`: a one-task
/// portfolio running the phase gives the best set and phase statistics
/// of the from-scratch driver running `initial_state` → `offer` →
/// `run_phase` under the same prune signal.
fn assert_phase_task_matches_the_reference(what: &str, g: &Dfg, res: &ResourceSet) {
    let (alpha, keep_best) = (8, 4);
    let bound = u32::try_from(rotsched_baselines::lower_bound(g, res).expect("valid graph"))
        .expect("small bound");
    for policy in [
        PriorityPolicy::DescendantCount,
        PriorityPolicy::PathHeight,
        PriorityPolicy::Mobility,
        PriorityPolicy::InputOrder,
    ] {
        let scheduler = ListScheduler::new(policy);
        let init = initial_state(g, &scheduler, res).expect("schedulable");
        let beta = init.length(g).max(1);
        for size in 1..=beta {
            let portfolio = Portfolio {
                tasks: vec![SearchTask::Phase {
                    size,
                    alpha,
                    policy,
                }],
                jobs: 1,
                keep_best,
                budget: Budget::unlimited(),
                objective: Objective::Length,
            };
            let out = portfolio.run(g, res).expect("runs");

            let shared = SharedBound::new(bound);
            let signal = shared.signal(0);
            let mut driver = SearchDriver::reference(g, &scheduler, res).with_prune(Some(&signal));
            let mut state = init.clone();
            let mut best = BestSet::new(keep_best);
            let wrapped = state.wrapped_length(g, res).expect("wraps");
            driver.offer(&mut best, wrapped, &state);
            let stats = driver
                .run_phase(&mut state, &mut best, size, alpha)
                .expect("runs");

            let what = format!("{what}, {policy:?}, size {size}");
            assert_eq!(out.merged.best_score, best.score, "{what}: best score");
            assert_eq!(out.merged.best, best.schedules, "{what}: best set");
            assert_eq!(out.merged.phases, vec![stats], "{what}: phase stats");
        }
    }
}

/// A portfolio phase task starts on the context its initial schedule
/// was built in, and that changes nothing it returns: on the five paper
/// benchmarks and on random cyclic DFGs, every size `1..=β` under every
/// policy matches the from-scratch reference.
#[test]
fn phase_task_matches_the_reference_phase_from_the_initial_state() {
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        for (adders, mults, pipelined) in [(1, 1, false), (2, 2, true)] {
            let res = ResourceSet::adders_multipliers(adders, mults, pipelined);
            assert_phase_task_matches_the_reference(&format!("{name} {adders}/{mults}"), &g, &res);
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
        assert_phase_task_matches_the_reference(&format!("case {case}"), &g, &res);
    }
}
