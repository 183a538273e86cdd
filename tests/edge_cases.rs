//! Edge cases and failure injection across the public API.

use rotsched::baselines::{modulo_schedule, ModuloConfig};
use rotsched::dfg::analysis;
use rotsched::sched::validate::check_dag_schedule;
use rotsched::{
    lower_bound, Dfg, DfgBuilder, DfgError, ListScheduler, OpKind, ResourceSet, Retiming,
    RotationScheduler, SchedError, Schedule,
};

#[test]
fn single_node_self_loop_solves() {
    // The smallest possible cyclic loop: one op feeding itself.
    let g = DfgBuilder::new("unit")
        .node("x", OpKind::Add, 1)
        .edge("x", "x", 1)
        .build()
        .unwrap();
    let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(1, 0, false));
    let solved = rs.solve().unwrap();
    assert_eq!(solved.length, 1);
    assert_eq!(solved.depth, 1);
    rs.verify(&solved.state, 5).unwrap();
}

#[test]
fn acyclic_dfg_pipelines_to_the_resource_bound() {
    // A pure chain with no recurrence: pipelining is only limited by
    // resources ("loop winding … theoretically the performance can be
    // made arbitrarily good" — with 4 adders, one op per unit per step).
    let g = DfgBuilder::new("chain")
        .nodes("a", 4, OpKind::Add, 1)
        .chain(&["a0", "a1", "a2", "a3"])
        .build()
        .unwrap();
    assert_eq!(analysis::iteration_bound(&g).unwrap(), None);
    let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(4, 0, false));
    let solved = rs.solve().unwrap();
    assert_eq!(solved.length, 1, "4 units, 4 ops, no recurrence: II = 1");
    rs.verify(&solved.state, 8).unwrap();
}

#[test]
fn acyclic_dfg_with_one_unit_is_resource_bound() {
    let g = DfgBuilder::new("chain")
        .nodes("a", 4, OpKind::Add, 1)
        .chain(&["a0", "a1", "a2", "a3"])
        .build()
        .unwrap();
    let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(1, 0, false));
    let solved = rs.solve().unwrap();
    assert_eq!(solved.length, 4);
}

#[test]
fn zero_time_node_is_rejected_everywhere() {
    let mut g = Dfg::new("bad");
    g.add_node("z", OpKind::Add, 0);
    assert!(matches!(g.validate(), Err(DfgError::ZeroTimeNode { .. })));
    let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(1, 0, false));
    assert!(rs.initial().is_err());
}

#[test]
fn zero_time_cycle_analyzes_at_a_one_step_bound() {
    // Checked-in reproducer: the critical cycle's ratio is 0, but the
    // analysis must report (and seed into lint) the kernel-length bound
    // max(1, ⌈ratio⌉) = 1 — in debug builds a seeded 0 trips lint's
    // consistency assertion.
    let g = unvalidated_regression("zero-time-cycle");
    assert!(matches!(g.validate(), Err(DfgError::ZeroTimeNode { .. })));
    let spec = rotsched::verify::ResourceSpec::unlimited();
    let report = rotsched::verify::analyze(&g, &spec, None);
    let cc = report
        .critical_cycle
        .as_ref()
        .expect("the graph has a cycle");
    assert_eq!(cc.ratio.num, 0);
    assert_eq!(cc.iteration_bound, 1);
    assert_eq!(rotsched::verify::recurrence_bound(&g), Some(1));
    let _ = report.render_json(&g);
}

#[test]
fn zero_time_zero_delay_cycle_has_no_recurrence_bound() {
    // Checked-in reproducer: a zero-delay cycle of zero-time ops weighs 0
    // under every positive-cycle probe, so the verifier used to miss it
    // and report a one-step bound. A cycle without delays excludes every
    // kernel length, as dfg (`ZeroDelayCycle`) and lint (`E001`) say.
    let g = unvalidated_regression("zero-delay-zero-time-cycle");
    assert!(matches!(
        analysis::iteration_bound(&g),
        Err(DfgError::ZeroDelayCycle { .. })
    ));
    assert_eq!(rotsched::verify::recurrence_bound(&g), None);
    for length in [1, 2, 1000, u32::MAX] {
        assert!(
            rotsched::verify::recurrence_forces(&g, length),
            "L = {length}"
        );
    }
    assert!(!rotsched::verify::recurrence_forces(&g, 0));
    // The analysis states no critical cycle, and the lints it runs with
    // whatever bound it seeded match an unhinted lint run.
    let spec = rotsched::verify::ResourceSpec::unlimited();
    let report = rotsched::verify::analyze(&g, &spec, None);
    assert!(report.critical_cycle.is_none());
    let options = rotsched::verify::LintOptions::default();
    let unhinted = rotsched::verify::LintContext {
        spec: Some(&spec),
        ..rotsched::verify::LintContext::bare(&options)
    };
    assert_eq!(report.lints, rotsched::verify::lint(&g, &unhinted));
    assert!(report
        .lints
        .iter()
        .any(|d| d.code == rotsched::verify::Code::ZeroDelayCycle));
}

/// Reads a checked-in reproducer line by line. `text::parse` validates,
/// and validation rejects zero-time ops, so the graph is rebuilt here:
/// the analyses must be total on graphs that were never validated.
fn unvalidated_regression(name: &str) -> Dfg {
    let path = format!(
        "{}/tests/regressions/{name}.dfg",
        env!("CARGO_MANIFEST_DIR")
    );
    let mut g = Dfg::new(name);
    let mut ids = std::collections::HashMap::new();
    for line in std::fs::read_to_string(path).unwrap().lines() {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["node", name, op, time] => {
                let id = g.add_node(name, op.parse().unwrap(), time.parse().unwrap());
                ids.insert(name.to_owned(), id);
            }
            ["edge", from, to, delays] => {
                g.add_edge(ids[from], ids[to], delays.parse().unwrap())
                    .unwrap();
            }
            _ => {}
        }
    }
    g
}

#[test]
fn zero_delay_cycle_is_rejected_everywhere() {
    let mut g = Dfg::new("bad");
    let a = g.add_node("a", OpKind::Add, 1);
    let b = g.add_node("b", OpKind::Add, 1);
    g.add_edge(a, b, 0).unwrap();
    g.add_edge(b, a, 0).unwrap();
    assert!(matches!(
        analysis::iteration_bound(&g),
        Err(DfgError::ZeroDelayCycle { .. })
    ));
    let res = ResourceSet::adders_multipliers(2, 0, false);
    assert!(RotationScheduler::new(&g, res.clone()).initial().is_err());
    assert!(modulo_schedule(&g, &res, &ModuloConfig::default()).is_err());
}

#[test]
fn zero_units_for_a_needed_class_never_schedules() {
    let g = DfgBuilder::new("m")
        .node("m", OpKind::Mul, 2)
        .build()
        .unwrap();
    let res = ResourceSet::adders_multipliers(1, 0, false);
    // class_for still binds Mul to the multiplier class with 0 units:
    // scheduling must fail cleanly, not loop.
    let err = ListScheduler::default()
        .schedule(&g, None, &res)
        .unwrap_err();
    assert!(matches!(err, SchedError::NoFeasibleSlot { .. }));
}

#[test]
fn corrupted_schedule_is_rejected_by_validation() {
    let g = DfgBuilder::new("g")
        .node("a", OpKind::Add, 1)
        .node("b", OpKind::Add, 1)
        .wire("a", "b")
        .build()
        .unwrap();
    let res = ResourceSet::adders_multipliers(2, 0, false);
    let mut s = Schedule::empty(&g);
    s.set(g.node_by_name("a").unwrap(), 2);
    s.set(g.node_by_name("b").unwrap(), 1); // violates a -> b
    assert!(check_dag_schedule(&g, None, &s, &res).is_err());
    // And no retiming can fix a violated FORWARD zero-delay edge when
    // there is no delay anywhere to push around the (acyclic) graph…
    // actually an acyclic graph admits any retiming; the violated edge
    // gains a delay from r(a)=1. Verify that static realization indeed
    // exists (this is loop pipelining in action):
    let r = rotsched::sched::validate::realizing_retiming(&g, &s).unwrap();
    assert!(r.is_legal(&g));
    assert!(r.of(g.node_by_name("a").unwrap()) > r.of(g.node_by_name("b").unwrap()));
}

#[test]
fn lower_bound_of_acyclic_graph_is_resource_driven() {
    let g = DfgBuilder::new("chain")
        .nodes("a", 6, OpKind::Add, 1)
        .chain(&["a0", "a1", "a2", "a3", "a4", "a5"])
        .build()
        .unwrap();
    assert_eq!(
        lower_bound(&g, &ResourceSet::adders_multipliers(2, 0, false)).unwrap(),
        3
    );
    assert_eq!(
        lower_bound(&g, &ResourceSet::adders_multipliers(6, 0, false)).unwrap(),
        1
    );
}

#[test]
fn rotation_state_survives_extreme_rotation_counts() {
    // Hammer one small loop with many rotations; invariants must hold
    // throughout and the schedule must stay at the optimum once found.
    let g = DfgBuilder::new("ring")
        .nodes("v", 3, OpKind::Add, 1)
        .chain(&["v0", "v1", "v2"])
        .edge("v2", "v0", 1)
        .build()
        .unwrap();
    let res = ResourceSet::adders_multipliers(1, 0, false);
    let rs = RotationScheduler::new(&g, res.clone());
    let mut st = rs.initial().unwrap();
    for _ in 0..200 {
        if st.length(&g) <= 1 {
            break;
        }
        rs.down_rotate(&mut st, 1).unwrap();
        assert!(st.retiming.is_legal(&g));
        check_dag_schedule(&g, Some(&st.retiming), &st.schedule, &res).unwrap();
        assert!(st.length(&g) >= 3, "1 adder bounds the kernel at 3");
    }
}

#[test]
fn unlimited_resources_reach_the_iteration_bound() {
    use rotsched::{all_benchmarks, TimingModel};
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        let ib = analysis::iteration_bound(&g).unwrap().unwrap();
        let res = ResourceSet::adders_multipliers(64, 64, true);
        let solved = RotationScheduler::new(&g, res).solve().unwrap();
        assert_eq!(
            u64::from(solved.length),
            ib,
            "{name}: unlimited resources must reach the iteration bound"
        );
    }
}

#[test]
fn retiming_composition_is_associative_and_commutative() {
    let g = DfgBuilder::new("g")
        .nodes("v", 4, OpKind::Add, 1)
        .chain(&["v0", "v1", "v2", "v3"])
        .edge("v3", "v0", 3)
        .build()
        .unwrap();
    let ids: Vec<_> = g.node_ids().collect();
    let r1 = Retiming::from_set(&g, [ids[0]]);
    let r2 = Retiming::from_set(&g, [ids[0], ids[1]]);
    let r3 = Retiming::from_set(&g, [ids[2]]);
    let left = r1.compose(&r2).compose(&r3);
    let right = r1.compose(&r2.compose(&r3));
    let swapped = r3.compose(&r2).compose(&r1);
    for v in g.node_ids() {
        assert_eq!(left.of(v), right.of(v));
        assert_eq!(left.of(v), swapped.of(v));
    }
}
