//! Every legitimate solver output certifies clean: 4 priority policies
//! × both heuristics × the parallel portfolio × budget-truncated runs,
//! checked by the independent verifier (`rotsched-verify` shares no
//! scheduling code with the solver).

use rotsched::core::depth::into_loop_schedule;
use rotsched::core::heuristics::HeuristicConfig;
use rotsched::sched::{verify_spec, verify_starts};
use rotsched::verify::{certify_claim, certify_pipeline, expand, Claim};
use rotsched::{
    all_benchmarks, diffeq, Budget, Dfg, ListScheduler, PriorityPolicy, ResourceSet,
    RotationScheduler, SearchDriver, SolveQuality, TimingModel,
};

const POLICIES: [PriorityPolicy; 4] = [
    PriorityPolicy::DescendantCount,
    PriorityPolicy::PathHeight,
    PriorityPolicy::Mobility,
    PriorityPolicy::InputOrder,
];

/// Certifies one packaged solve outcome, including its quality verdict.
fn assert_certifies(
    dfg: &Dfg,
    resources: &ResourceSet,
    scheduler: &RotationScheduler<'_>,
    solved: &rotsched::core::SolveOutcome,
    what: &str,
) {
    let kernel = scheduler.loop_schedule(&solved.state).expect(what);
    let spec = verify_spec(resources);
    let starts = verify_starts(dfg, kernel.schedule());
    let claim = Claim {
        kernel_length: kernel.kernel_length(),
        depth: Some(kernel.retiming().depth()),
        optimal: matches!(solved.quality, SolveQuality::Optimal),
        registers: Some(rotsched::core::objective::static_registers(
            dfg,
            kernel.retiming(),
        )),
        code_size: Some(rotsched::core::objective::code_size(dfg, kernel.retiming())),
    };
    let cert =
        certify_claim(dfg, &spec, Some(kernel.retiming()), &starts, &claim).unwrap_or_else(|bad| {
            let report: Vec<String> = bad.iter().map(|d| d.render_text(dfg)).collect();
            panic!("{what}: rejected:\n{}", report.join("\n"));
        });
    assert_eq!(cert.kernel_length, kernel.kernel_length(), "{what}");
}

#[test]
fn all_policies_certify_on_diffeq() {
    let graph = diffeq(&TimingModel::paper());
    let resources = ResourceSet::adders_multipliers(1, 2, false);
    for policy in POLICIES {
        let scheduler = RotationScheduler::new(&graph, resources.clone()).with_policy(policy);
        let solved = scheduler.solve().expect("solves");
        assert_certifies(
            &graph,
            &resources,
            &scheduler,
            &solved,
            &format!("policy {policy:?}"),
        );
    }
}

#[test]
fn both_heuristics_certify_on_diffeq() {
    let graph = diffeq(&TimingModel::paper());
    let resources = ResourceSet::adders_multipliers(1, 2, false);
    let config = HeuristicConfig::default();
    let spec = verify_spec(&resources);
    let scheduler = ListScheduler::default();
    let mut driver = SearchDriver::incremental(&graph, &scheduler, &resources);
    for (name, outcome) in [
        ("heuristic1", driver.heuristic1(&config).expect("h1")),
        ("heuristic2", driver.heuristic2(&config).expect("h2")),
    ] {
        for (i, state) in outcome.best.iter().enumerate() {
            let kernel = into_loop_schedule(&graph, &resources, state).expect("expands");
            let starts = verify_starts(&graph, kernel.schedule());
            rotsched::verify::certify(
                &graph,
                &spec,
                Some(kernel.retiming()),
                &starts,
                kernel.kernel_length(),
            )
            .unwrap_or_else(|bad| {
                let report: Vec<String> = bad.iter().map(|d| d.render_text(&graph)).collect();
                panic!("{name} best[{i}] rejected:\n{}", report.join("\n"));
            });
        }
    }
}

#[test]
fn portfolio_outputs_certify_on_all_benchmarks() {
    for (name, graph) in all_benchmarks(&TimingModel::paper()) {
        let resources = ResourceSet::adders_multipliers(2, 2, false);
        let scheduler = RotationScheduler::new(&graph, resources.clone()).with_jobs(2);
        let solved = scheduler.solve_portfolio().expect("portfolio solves");
        assert_certifies(&graph, &resources, &scheduler, &solved, name);
    }
}

#[test]
fn budget_truncated_outputs_certify() {
    let graph = diffeq(&TimingModel::paper());
    let resources = ResourceSet::adders_multipliers(1, 2, false);
    for max_rotations in [0, 1, 3, 10] {
        let scheduler = RotationScheduler::new(&graph, resources.clone())
            .with_budget(Budget::unlimited().with_max_rotations(max_rotations));
        let solved = scheduler.solve().expect("truncated solve still returns");
        assert_certifies(
            &graph,
            &resources,
            &scheduler,
            &solved,
            &format!("budget {max_rotations}"),
        );
    }
}

#[test]
fn solved_pipelines_expand_and_certify_against_the_unrolled_loop() {
    let graph = diffeq(&TimingModel::paper());
    let resources = ResourceSet::adders_multipliers(1, 2, false);
    let scheduler = RotationScheduler::new(&graph, resources.clone());
    let solved = scheduler.solve().expect("solves");
    let kernel = scheduler.loop_schedule(&solved.state).expect("expands");
    let spec = verify_spec(&resources);
    let starts = verify_starts(&graph, kernel.schedule());
    for iterations in [1, 2, 7] {
        let events = expand(
            &graph,
            kernel.retiming(),
            &starts,
            kernel.kernel_length(),
            iterations,
        );
        let cert = certify_pipeline(&graph, &spec, &events, iterations)
            .expect("expansion matches the unrolled loop");
        assert_eq!(
            cert.executions,
            graph.node_count() * iterations as usize,
            "every iteration of every node executes exactly once"
        );
    }
}
