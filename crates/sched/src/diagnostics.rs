//! Bridge from the scheduler's types to the verifier's vocabulary, so
//! the CLI can certify and analyze what the scheduler produced.
//!
//! The direction of the dependency matters: this crate translates its
//! own resources and schedules *into* `rotsched-verify`'s types; the
//! verifier never imports scheduler code (that independence is what
//! makes its certificates worth anything).

use rotsched_dfg::Dfg;
use rotsched_verify::{AnalysisReport, ResourceSpec, ScheduleView, StartTimes, UnitClass};

use crate::prologue::LoopSchedule;
use crate::resources::ResourceSet;
use crate::schedule::Schedule;

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

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

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
}
