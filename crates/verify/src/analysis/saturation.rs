//! Resource-saturation profile: per-class occupancy against capacity,
//! and the recurrence-vs-resource verdict.
//!
//! Statically the pass reports each class's total demand and the lower
//! bound it puts on the kernel length (`⌈occupancy / units⌉`). With a
//! complete schedule it additionally folds the per-step reservations
//! modulo the kernel length — the same split into whole wraps and at
//! most two ranges the certifier uses, in `O(|V| + L)` per class — to
//! report utilization (integer permille, no floats) and how many
//! kernel steps run every unit busy.
//!
//! Two findings come out of the comparison:
//! * `A002` on the **binding class** — the class whose bound is the
//!   resource floor; adding units anywhere else cannot help.
//! * `A005` on the graph — whether the recurrence bound or the
//!   resource bound is the binding constraint overall, i.e. whether
//!   further rotation or further hardware is the lever that can still
//!   shorten the kernel.

use crate::analysis::report::{AnalysisReport, ClassProfile, SaturationSection};
use crate::analysis::AnalysisContext;
use crate::diag::{Code, Diagnostic, Locus};
use crate::fold::StepProfile;

pub(crate) fn run(ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
    let dfg = ctx.dfg;
    let spec = ctx.spec;

    // Dynamic profiling needs a complete schedule with a real kernel.
    let view = ctx.schedule.filter(|s| {
        s.kernel_length >= 1
            && s.starts.len() == dfg.node_count()
            && dfg.node_ids().all(|v| s.starts.get(v).is_some())
    });

    let mut classes = Vec::with_capacity(spec.classes().len());
    for (c, class) in spec.classes().iter().enumerate() {
        let mut occupancy = 0_u64;
        let mut usage =
            view.map(|s| StepProfile::new(u64::from(s.kernel_length), dfg.node_count()));
        for (v, node) in dfg.nodes() {
            if spec.class_of(node.op()) != Some(c) {
                continue;
            }
            let busy = u64::from(class.busy_steps(node.time()));
            occupancy = occupancy.saturating_add(busy);
            if let (Some(usage), Some(s)) = (usage.as_mut(), view) {
                // Fold the reservation [start, start + busy) modulo L,
                // exactly like the certifier's occupancy replay.
                let start = u64::from(s.starts.get(v).unwrap_or(1));
                usage.add(start.saturating_sub(1), busy);
            }
        }
        let bound = if class.units > 0 {
            occupancy.div_ceil(u64::from(class.units))
        } else {
            0
        };
        let (utilization_permille, saturated_steps) = match (&mut usage, view) {
            (Some(usage), Some(s)) if class.units > 0 => {
                let capacity = u64::from(class.units) * u64::from(s.kernel_length);
                let permille = occupancy.saturating_mul(1000) / capacity.max(1);
                let saturated = usage.slots_at_least(u64::from(class.units));
                (
                    Some(u32::try_from(permille).unwrap_or(u32::MAX)),
                    Some(u32::try_from(saturated).unwrap_or(u32::MAX)),
                )
            }
            _ => (None, None),
        };
        classes.push(ClassProfile {
            name: class.name.clone(),
            units: class.units,
            occupancy,
            bound,
            utilization_permille,
            saturated_steps,
        });
    }

    // The binding class: largest lower bound, first by spec order on
    // ties; only classes that actually constrain (bound > 0) qualify.
    let binding = classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.bound > 0)
        .max_by(|&(i, a), &(j, b)| a.bound.cmp(&b.bound).then(j.cmp(&i)))
        .map(|(i, _)| i);
    let resource_floor = classes.iter().map(|c| c.bound).max().unwrap_or(0);
    let rb = ctx.recurrence_bound();

    if let Some(i) = binding {
        let c = &classes[i];
        report.findings.push(
            Diagnostic::new(
                Code::SaturatedClass,
                Locus::Class(c.name.clone()),
                format!(
                    "class \"{}\" is the resource floor: occupancy {} over {} unit(s) forces every kernel to at least {} step(s)",
                    c.name, c.occupancy, c.units, c.bound
                ),
            )
            .with_hint("only more units in this class can lower the resource bound"),
        );
    }
    if dfg.node_count() > 0 {
        if let Some(rb) = rb {
            let (verdict, hint) = match u64::from(rb).cmp(&resource_floor) {
                std::cmp::Ordering::Greater => (
                    format!(
                        "the recurrence bound {rb} exceeds the resource bound {resource_floor}: rotation, not hardware, is the binding constraint"
                    ),
                    "only restructuring the critical cycle can shorten the kernel further",
                ),
                std::cmp::Ordering::Less => (
                    format!(
                        "the resource bound {resource_floor} exceeds the recurrence bound {rb}: hardware, not rotation, is the binding constraint"
                    ),
                    "adding units to the binding class can still shorten the kernel",
                ),
                std::cmp::Ordering::Equal => (
                    format!("recurrence and resource bounds tie at {rb}: the kernel is balanced"),
                    "shortening the kernel needs both more units and a restructured critical cycle",
                ),
            };
            report.findings.push(
                Diagnostic::new(Code::BindingConstraint, Locus::Graph, verdict).with_hint(hint),
            );
        }
    }

    report.saturation = Some(SaturationSection {
        kernel_length: view.map(|s| s.kernel_length),
        binding_class: binding.map(|i| classes[i].name.clone()),
        recurrence_bound: rb,
        classes,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, ScheduleView};
    use crate::certify::StartTimes;
    use crate::spec::ResourceSpec;
    use rotsched_dfg::{Dfg, OpKind, Retiming};

    fn biquad() -> Dfg {
        let mut g = Dfg::new("biquad");
        let m0 = g.add_node("m0", OpKind::Mul, 2);
        let m1 = g.add_node("m1", OpKind::Mul, 2);
        let a0 = g.add_node("a0", OpKind::Add, 1);
        g.add_edge(m0, a0, 0).unwrap();
        g.add_edge(m1, a0, 0).unwrap();
        g.add_edge(a0, m0, 1).unwrap();
        g
    }

    #[test]
    fn static_profile_reports_bounds_and_binding_class() {
        let g = biquad();
        let spec = ResourceSpec::adders_multipliers(1, 1, false);
        let report = analyze(&g, &spec, None);
        let sat = report.saturation.expect("always present");
        assert_eq!(sat.kernel_length, None);
        assert_eq!(sat.classes.len(), 2);
        assert_eq!(sat.classes[0].name, "adder");
        assert_eq!(sat.classes[0].occupancy, 1);
        assert_eq!(sat.classes[0].bound, 1);
        assert_eq!(sat.classes[1].occupancy, 4);
        assert_eq!(sat.classes[1].bound, 4);
        assert_eq!(sat.binding_class.as_deref(), Some("multiplier"));
        assert!(sat.classes.iter().all(|c| c.utilization_permille.is_none()));
        assert!(report
            .findings
            .iter()
            .any(|d| d.code == Code::SaturatedClass && d.message.contains("multiplier")));
    }

    #[test]
    fn binding_constraint_compares_recurrence_and_resource() {
        let g = biquad();
        // Recurrence: cycle m0 -> a0 -> m0, T = 3, D = 1 -> rb = 3.
        // Unlimited resources -> resource floor is tiny -> resource < rb.
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let a005 = report
            .findings
            .iter()
            .find(|d| d.code == Code::BindingConstraint)
            .expect("emitted on nonempty graphs");
        assert!(a005.message.contains("recurrence bound 3"));
        assert!(a005.message.contains("rotation, not hardware"));

        // One non-pipelined multiplier -> resource floor 4 > rb 3.
        let report = analyze(&g, &ResourceSpec::adders_multipliers(1, 1, false), None);
        let a005 = report
            .findings
            .iter()
            .find(|d| d.code == Code::BindingConstraint)
            .unwrap();
        assert!(a005.message.contains("hardware, not rotation"));
    }

    #[test]
    fn scheduled_profile_folds_reservations_modulo_kernel() {
        let g = biquad();
        let spec = ResourceSpec::adders_multipliers(1, 2, false);
        let r = Retiming::zero(&g);
        let mut starts = StartTimes::empty(&g);
        // L = 3: m0 and m1 both start at 1 (2 units), a0 at 3.
        for (name, s) in [("m0", 1), ("m1", 1), ("a0", 3)] {
            starts.set(g.node_by_name(name).unwrap(), s);
        }
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 3,
        };
        let report = analyze(&g, &spec, Some(&view));
        let sat = report.saturation.expect("always present");
        assert_eq!(sat.kernel_length, Some(3));
        let mult = &sat.classes[1];
        // Occupancy 4 over 2 units x 3 steps = 666 permille; both
        // multipliers overlap in steps 1-2, so 2 of 3 steps saturate.
        assert_eq!(mult.utilization_permille, Some(666));
        assert_eq!(mult.saturated_steps, Some(2));
        let add = &sat.classes[0];
        assert_eq!(add.utilization_permille, Some(333));
        assert_eq!(add.saturated_steps, Some(1));
    }

    #[test]
    fn incomplete_schedule_degrades_to_static_profile() {
        let g = biquad();
        let spec = ResourceSpec::adders_multipliers(1, 1, false);
        let r = Retiming::zero(&g);
        let starts = StartTimes::empty(&g); // nothing scheduled
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 3,
        };
        let report = analyze(&g, &spec, Some(&view));
        let sat = report.saturation.expect("always present");
        assert_eq!(sat.kernel_length, None);
        assert!(sat.classes.iter().all(|c| c.saturated_steps.is_none()));
    }

    #[test]
    fn zero_unit_class_has_no_bound_and_no_utilization() {
        let mut g = Dfg::new("g");
        g.add_node("m", OpKind::Mul, 2);
        let spec = ResourceSpec::adders_multipliers(1, 0, false);
        let report = analyze(&g, &spec, None);
        let sat = report.saturation.expect("always present");
        assert_eq!(sat.classes[1].bound, 0);
        assert_eq!(sat.binding_class, None);
    }
}
