//! Cross-algorithm integration tests: rotation scheduling against the
//! executable baselines on the benchmark suite.

use rotsched::baselines::{dag_only, lower_bound, modulo_schedule, unfold_sweep, ModuloConfig};
use rotsched::dfg::analysis::max_cycle_ratio;
use rotsched::dfg::unfold::unfold;
use rotsched::sched::simulate;
use rotsched::{
    all_benchmarks, DfgBuilder, HeuristicConfig, OpKind, PriorityPolicy, ResourceSet,
    RotationScheduler, TimingModel,
};

fn configs() -> Vec<ResourceSet> {
    vec![
        ResourceSet::adders_multipliers(2, 2, false),
        ResourceSet::adders_multipliers(3, 2, true),
        ResourceSet::adders_multipliers(1, 1, false),
    ]
}

#[test]
fn rotation_always_improves_or_matches_the_dag_baseline() {
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        for res in configs() {
            let dag = dag_only(&g, &res, PriorityPolicy::DescendantCount).unwrap();
            let solved = RotationScheduler::new(&g, res.clone()).solve().unwrap();
            assert!(
                solved.length <= dag.length,
                "{name} {}: rotation {} vs DAG {}",
                res.label(),
                solved.length,
                dag.length
            );
        }
    }
}

#[test]
fn rotation_matches_or_beats_modulo_scheduling_on_the_suite() {
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        for res in configs() {
            let ims = modulo_schedule(&g, &res, &ModuloConfig::default()).unwrap();
            let solved = RotationScheduler::new(&g, res.clone()).solve().unwrap();
            assert!(
                solved.length <= ims.ii,
                "{name} {}: rotation {} vs IMS {}",
                res.label(),
                solved.length,
                ims.ii
            );
        }
    }
}

#[test]
fn modulo_schedules_simulate_correctly_on_the_suite() {
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let ims = modulo_schedule(&g, &res, &ModuloConfig::default()).unwrap();
        let ls = ims.to_loop_schedule(&g);
        simulate(&g, &ls, &res, 8).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn unfolding_converges_toward_but_never_beats_rotation() {
    // Rotation reaches the lower bound on the suite; unfolding can only
    // approach it asymptotically.
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let solved = RotationScheduler::new(&g, res.clone()).solve().unwrap();
        let sweep = unfold_sweep(&g, &res, PriorityPolicy::DescendantCount, 3).unwrap();
        for r in &sweep {
            assert!(
                r.per_iteration >= f64::from(solved.length) - 1e-9,
                "{name}: unfold x{} gives {} < rotation {}",
                r.factor,
                r.per_iteration,
                solved.length
            );
        }
        // And the sweep is non-increasing in the best-so-far sense.
        let best = sweep
            .iter()
            .map(|r| r.per_iteration)
            .fold(f64::INFINITY, f64::min);
        assert!(best <= sweep[0].per_iteration + 1e-9);
    }
}

/// Section 7 leaves unfolding to the front end: a loop whose maximum
/// cycle ratio is fractional (three unit adds around two delays, 3/2)
/// has no 1.5-step kernel, so rotation alone is stuck at the integer
/// bound of 2 steps. Unfolding by the ratio's denominator makes the
/// bound integral, and rotation scheduling the unfolded graph reaches
/// 3 steps per 2 iterations — the true rate.
#[test]
fn unfolding_by_the_ratio_denominator_lets_rotation_reach_the_fractional_rate() {
    let ring = DfgBuilder::new("frac")
        .nodes("v", 3, OpKind::Add, 1)
        .chain(&["v0", "v1", "v2"])
        .edge("v2", "v0", 2)
        .build()
        .unwrap();
    let ratio = max_cycle_ratio(&ring).unwrap().unwrap();
    assert_eq!((ratio.num(), ratio.den()), (3, 2));
    let config = HeuristicConfig {
        rotations_per_phase: 16,
        max_size: None,
        keep_best: 4,
        rounds: 2,
    };
    let solve = |factor: u32, adders: u32| {
        let unfolded = unfold(&ring, factor).unwrap();
        let res = ResourceSet::adders_multipliers(adders, 0, false);
        RotationScheduler::new(&unfolded.graph, res)
            .with_config(config)
            .solve()
            .unwrap()
            .length
    };
    assert_eq!(
        solve(1, 2),
        2,
        "plain rotation is stuck at the integer bound"
    );
    assert_eq!(
        solve(2, 2),
        3,
        "3 steps per 2 iterations beat the integer bound"
    );
    // Unfolding cannot beat the resources: one adder still needs 3 steps
    // per iteration.
    assert_eq!(solve(2, 1), 6);
}

#[test]
fn every_benchmark_reaches_our_lower_bound() {
    // The strongest statement this reproduction supports: rotation
    // scheduling achieves max(iteration bound, resource bound) on every
    // benchmark x configuration we run.
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        for res in configs() {
            let lb = lower_bound(&g, &res).unwrap();
            let solved = RotationScheduler::new(&g, res.clone()).solve().unwrap();
            assert_eq!(
                u64::from(solved.length),
                lb,
                "{name} {}: RS {} != LB {}",
                res.label(),
                solved.length,
                lb
            );
        }
    }
}
