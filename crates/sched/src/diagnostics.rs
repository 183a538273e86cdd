//! Bridge from the scheduler's types to the verifier's structured
//! diagnostics, so the CLI and the certificate checker report
//! violations uniformly.
//!
//! The direction of the dependency matters: this crate translates its
//! own errors *into* `rotsched-verify`'s `Diagnostic` vocabulary; the
//! verifier never imports scheduler code (that independence is what
//! makes its certificates worth anything).

use rotsched_dfg::{Dfg, DfgError};
use rotsched_verify::{
    AnalysisReport, Code, Diagnostic, Locus, ResourceSpec, ScheduleView, StartTimes, UnitClass,
};

use crate::error::SchedError;
use crate::prologue::LoopSchedule;
use crate::resources::ResourceSet;
use crate::schedule::Schedule;
use crate::validate;

impl From<&SchedError> for Diagnostic {
    /// Maps every scheduler error onto its stable diagnostic code.
    fn from(e: &SchedError) -> Diagnostic {
        match e {
            SchedError::Graph(g) => graph_error_diag(g),
            SchedError::UnboundOp { node } => Diagnostic::new(
                Code::UnboundOp,
                Locus::Node(*node),
                "no resource class executes this node's operation",
            )
            .with_hint("add the operation kind to a unit class"),
            SchedError::Unscheduled { node } => Diagnostic::new(
                Code::Unscheduled,
                Locus::Node(*node),
                "node has no start step; the schedule must be complete",
            ),
            SchedError::PrecedenceViolated {
                from,
                to,
                finish,
                start,
            } => Diagnostic::new(
                Code::PrecedenceViolation,
                Locus::Edge {
                    from: *from,
                    to: *to,
                },
                format!(
                    "producer finishes at step {} but the consumer starts at {start}",
                    finish.saturating_sub(1)
                ),
            ),
            SchedError::ResourceOverflow {
                class,
                cs,
                used,
                limit,
            } => Diagnostic::new(
                Code::ResourceOverflow,
                Locus::Step(*cs),
                format!("class `{class}` needs {used} unit(s) in this step but has {limit}"),
            ),
            SchedError::NoFeasibleSlot { node } => Diagnostic::new(
                Code::StartPastKernel,
                Locus::Node(*node),
                "no feasible control step exists for this node in the kernel window",
            ),
        }
    }
}

fn graph_error_diag(e: &DfgError) -> Diagnostic {
    match e {
        DfgError::ZeroDelayCycle { cycle } => Diagnostic::new(
            Code::ZeroDelayCycle,
            cycle.first().map_or(Locus::Graph, |&v| Locus::Node(v)),
            format!("{e}"),
        )
        .with_hint("every cycle must carry at least one delay (register)"),
        DfgError::ZeroTimeNode { node } => Diagnostic::new(
            Code::ZeroTimeNode,
            Locus::Node(*node),
            "computation time is 0; every node must occupy at least one control step",
        )
        .with_hint("set the node's time to at least 1"),
        DfgError::IllegalRetiming { from, to, .. } => Diagnostic::new(
            Code::IllegalRetiming,
            Locus::Edge {
                from: *from,
                to: *to,
            },
            format!("{e}"),
        ),
        DfgError::ZeroDelaySelfLoop { node } => {
            Diagnostic::new(Code::MalformedInput, Locus::Node(*node), format!("{e}"))
        }
        other => Diagnostic::new(Code::MalformedInput, Locus::Graph, format!("{other}")),
    }
}

/// Re-expresses a [`ResourceSet`] in the verifier's own resource
/// vocabulary, class by class. The verifier deliberately has no
/// knowledge of this crate, so the translation lives on this side.
#[must_use]
pub fn verify_spec(resources: &ResourceSet) -> ResourceSpec {
    ResourceSpec::new(
        resources
            .classes()
            .iter()
            .map(|c| UnitClass::new(c.name(), c.count(), c.is_pipelined(), c.ops().to_vec()))
            .collect(),
    )
}

/// Re-expresses a [`Schedule`] as the verifier's [`StartTimes`].
#[must_use]
pub fn verify_starts(dfg: &Dfg, schedule: &Schedule) -> StartTimes {
    StartTimes::from_fn(dfg, |v| schedule.start(v))
}

/// Runs the verifier's static-analysis framework over a solved loop
/// schedule: the resources and the kernel are translated into the
/// verifier's own vocabulary (the verifier never sees this crate's
/// types) and profiled by every registered analysis pass.
#[must_use]
pub fn analyze_loop_schedule(
    dfg: &Dfg,
    resources: &ResourceSet,
    ls: &LoopSchedule,
) -> AnalysisReport {
    let spec = verify_spec(resources);
    let starts = verify_starts(dfg, ls.schedule());
    let view = ScheduleView {
        starts: &starts,
        retiming: ls.retiming(),
        kernel_length: ls.kernel_length(),
    };
    rotsched_verify::analyze(dfg, &spec, Some(&view))
}

/// [`validate::check_static_schedule`] with structured reporting: on
/// rejection, every violation is a [`Diagnostic`] with a stable code
/// instead of a single free-form error.
///
/// # Errors
///
/// The diagnostics for all violations found (at least one).
pub fn check_static_schedule_diag(
    dfg: &Dfg,
    schedule: &Schedule,
    resources: &ResourceSet,
) -> Result<rotsched_dfg::Retiming, Vec<Diagnostic>> {
    match validate::check_static_schedule(dfg, schedule, resources) {
        Ok(r) => Ok(r),
        Err(first) => {
            // The scheduler-side checker stops at the first violation;
            // the independent certifier enumerates the rest (using the
            // unwrapped schedule length so only genuinely linear
            // violations surface).
            let spec = verify_spec(resources);
            let starts = verify_starts(dfg, schedule);
            let length = schedule
                .iter()
                .map(|(v, cs)| cs.saturating_add(dfg.node(v).steps()) - 1)
                .max()
                .unwrap_or(1)
                .max(1);
            let mut diags = match rotsched_verify::certify(dfg, &spec, None, &starts, length) {
                Ok(_) => Vec::new(),
                Err(diags) => diags,
            };
            let own = Diagnostic::from(&first);
            if !diags.contains(&own) {
                diags.push(own);
            }
            rotsched_verify::sort_canonical(&mut diags);
            Err(diags)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, NodeId, OpKind};

    fn iir() -> Dfg {
        DfgBuilder::new("iir")
            .node("m", OpKind::Mul, 2)
            .node("a", OpKind::Add, 1)
            .wire("m", "a")
            .edge("a", "m", 1)
            .build()
            .unwrap()
    }

    #[test]
    fn every_sched_error_maps_to_a_stable_code() {
        let cases: Vec<(SchedError, Code)> = vec![
            (
                SchedError::UnboundOp {
                    node: NodeId::from_index(0),
                },
                Code::UnboundOp,
            ),
            (
                SchedError::Unscheduled {
                    node: NodeId::from_index(1),
                },
                Code::Unscheduled,
            ),
            (
                SchedError::PrecedenceViolated {
                    from: NodeId::from_index(0),
                    to: NodeId::from_index(1),
                    finish: 3,
                    start: 2,
                },
                Code::PrecedenceViolation,
            ),
            (
                SchedError::ResourceOverflow {
                    class: "adder".into(),
                    cs: 2,
                    used: 3,
                    limit: 2,
                },
                Code::ResourceOverflow,
            ),
            (
                SchedError::NoFeasibleSlot {
                    node: NodeId::from_index(0),
                },
                Code::StartPastKernel,
            ),
            (
                SchedError::Graph(DfgError::ZeroTimeNode {
                    node: NodeId::from_index(0),
                }),
                Code::ZeroTimeNode,
            ),
            (
                SchedError::Graph(DfgError::ZeroDelayCycle {
                    cycle: vec![NodeId::from_index(0)],
                }),
                Code::ZeroDelayCycle,
            ),
            (
                SchedError::Graph(DfgError::ZeroDelaySelfLoop {
                    node: NodeId::from_index(0),
                }),
                Code::MalformedInput,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(Diagnostic::from(&err).code, code, "{err}");
        }
    }

    #[test]
    fn spec_translation_preserves_class_semantics() {
        let rs = ResourceSet::adders_multipliers(3, 2, true);
        let spec = verify_spec(&rs);
        assert_eq!(spec.classes().len(), 2);
        assert_eq!(spec.classes()[0].units, 3);
        assert!(!spec.classes()[0].pipelined);
        assert_eq!(spec.classes()[1].units, 2);
        assert!(spec.classes()[1].pipelined);
        // First-match binding agrees with the scheduler's.
        for op in OpKind::ALL {
            assert_eq!(
                spec.class_of(op),
                rs.class_for(op).map(|id| id.index()),
                "{op:?}"
            );
        }
    }

    #[test]
    fn structured_check_reports_all_violations() {
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let res = ResourceSet::adders_multipliers(0, 1, false); // no adders
        let mut s = Schedule::empty(&g);
        s.set(m, 1);
        s.set(a, 1);
        let diags = check_static_schedule_diag(&g, &s, &res).unwrap_err();
        assert!(!diags.is_empty());
        assert!(diags.iter().any(|d| matches!(
            d.code,
            Code::EmptyClass | Code::ResourceOverflow | Code::UnboundOp
        )));
    }

    #[test]
    fn structured_check_passes_legal_schedules_through() {
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let mut s = Schedule::empty(&g);
        s.set(m, 1);
        s.set(a, 3);
        let r = check_static_schedule_diag(&g, &s, &res).unwrap();
        assert_eq!(r.depth(), 1);
    }
}
