//! Pipeline certification: the wrapped kernel is equivalent to the
//! plain unrolled loop.
//!
//! A rotation-scheduled kernel only *means* anything through its
//! expansion (prologue, repeated kernel, epilogue — Figure 4 of the
//! paper). This module checks that expansion against the **original**
//! loop semantics, with the retiming deliberately out of the picture:
//! in the unrolled loop, iteration `j` of node `v` must run after
//! iteration `j − d(e)` of each producer `u`, for the *original* delays
//! `d(e)`. If the expansion of a retimed kernel satisfies those
//! constraints for every iteration in a bounded window, the retiming
//! and schedule together are observationally equivalent to the
//! sequential loop over that window.

use std::collections::BTreeMap;

use rotsched_dfg::{Dfg, NodeId, Retiming};

use crate::certify::StartTimes;
use crate::diag::{sort_canonical, Code, Diagnostic, Locus};
use crate::spec::ResourceSpec;

/// One node execution of the expanded loop, in absolute time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecEvent {
    /// The node being executed.
    pub node: NodeId,
    /// The loop iteration this execution computes (0-based).
    pub iteration: u32,
    /// Absolute start control step; non-positive in the prologue.
    pub start: i64,
}

/// First-principles expansion of a wrapped kernel over `iterations`
/// iterations: kernel instance `k ∈ [−max r, iterations)` runs node `v`
/// for iteration `k + r(v)` at absolute step `k·L + s(v)`, clipped to
/// the iterations that exist.
///
/// The retiming is normalized internally (normalization shifts every
/// kernel instance equally and changes nothing observable). Unscheduled
/// nodes are skipped — [`crate::certify::certify`] reports those.
#[must_use]
pub fn expand(
    dfg: &Dfg,
    retiming: &Retiming,
    starts: &StartTimes,
    kernel_length: u32,
    iterations: u32,
) -> Vec<ExecEvent> {
    if dfg.node_count() == 0 || iterations == 0 {
        return Vec::new();
    }
    let r = retiming.to_normalized();
    let max_r = r.max_value().max(0);
    let n = i64::from(iterations);
    let mut events = Vec::new();
    for k in -max_r..n {
        for v in dfg.node_ids() {
            let Some(s) = starts.get(v) else { continue };
            let iter = k + r.of(v);
            if (0..n).contains(&iter) {
                events.push(ExecEvent {
                    node: v,
                    iteration: u32::try_from(iter).unwrap_or(0),
                    start: k.saturating_mul(i64::from(kernel_length)) + i64::from(s),
                });
            }
        }
    }
    events.sort_by_key(|e| (e.start, e.node));
    events
}

/// Evidence that an expansion replayed clean over a bounded window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineCertificate {
    /// The verified iteration window.
    pub iterations: u32,
    /// Number of executions checked (`iterations · |V|` when clean).
    pub executions: usize,
    /// First absolute step used (non-positive with a prologue).
    pub first_start: i64,
    /// Last absolute step used, inclusive of tails.
    pub last_finish: i64,
}

impl PipelineCertificate {
    /// Total control steps the expanded window occupies.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        u64::try_from(self.last_finish - self.first_start + 1).unwrap_or(0)
    }
}

/// Certifies an expansion against the unrolled loop: multiplicity
/// (`E110`), original-delay dependencies in absolute time (`E111`), and
/// per-absolute-step resource usage (`E112`).
///
/// `events` may come from [`expand`] or from any external expander
/// (e.g. the scheduler's own prologue/epilogue generator) — certifying
/// the latter against this model is exactly the cross-implementation
/// equivalence check.
///
/// # Errors
///
/// Every violation found, in canonical order.
pub fn certify_pipeline(
    dfg: &Dfg,
    spec: &ResourceSpec,
    events: &[ExecEvent],
    iterations: u32,
) -> Result<PipelineCertificate, Vec<Diagnostic>> {
    let mut bad = Vec::new();

    // Multiplicity: every (node, iteration) pair exactly once.
    let mut occurrence: BTreeMap<(u32, u32), Vec<i64>> = BTreeMap::new();
    for e in events {
        if e.node.index() >= dfg.node_count() || e.iteration >= iterations {
            bad.push(Diagnostic::new(
                Code::ExecutionMultiplicity,
                Locus::AbsoluteStep(e.start),
                format!(
                    "event references node index {} / iteration {} outside the expansion window",
                    e.node.index(),
                    e.iteration
                ),
            ));
            continue;
        }
        occurrence
            .entry((
                u32::try_from(e.node.index()).unwrap_or(u32::MAX),
                e.iteration,
            ))
            .or_default()
            .push(e.start);
    }
    for v in dfg.node_ids() {
        for j in 0..iterations {
            let runs = occurrence
                .get(&(u32::try_from(v.index()).unwrap_or(u32::MAX), j))
                .map_or(0, Vec::len);
            if runs != 1 {
                bad.push(Diagnostic::new(
                    Code::ExecutionMultiplicity,
                    Locus::Node(v),
                    format!("iteration {j} executes {runs} time(s); the unrolled loop runs it exactly once"),
                ));
            }
        }
    }

    // Dependencies: original delays, absolute time. Only pairs whose
    // executions are unique and inside the window are comparable.
    let start_of = |v: NodeId, j: u32| -> Option<i64> {
        let runs = occurrence.get(&(u32::try_from(v.index()).ok()?, j))?;
        if runs.len() == 1 {
            Some(runs[0])
        } else {
            None
        }
    };
    for (_, edge) in dfg.edges() {
        let t_u = i64::from(dfg.node(edge.from()).steps());
        for j in edge.delays()..iterations {
            let (Some(su), Some(sv)) = (
                start_of(edge.from(), j - edge.delays()),
                start_of(edge.to(), j),
            ) else {
                continue;
            };
            if sv < su + t_u {
                bad.push(Diagnostic::new(
                    Code::UnrolledPrecedenceViolation,
                    Locus::Edge {
                        from: edge.from(),
                        to: edge.to(),
                    },
                    format!(
                        "iteration {j} starts at absolute step {sv}, before its producer (iteration {}) finishes at {}",
                        j - edge.delays(),
                        su + t_u - 1
                    ),
                ));
            }
        }
    }

    // Resources: absolute-time difference-array sweep per class.
    let mut class_events: Vec<Vec<(i64, i64)>> = vec![Vec::new(); spec.classes().len()];
    for e in events {
        if e.node.index() >= dfg.node_count() {
            continue;
        }
        let node = dfg.node(e.node);
        let Some(c) = spec.class_of(node.op()) else {
            continue; // certify() reports unbound ops
        };
        let busy = i64::from(spec.classes()[c].busy_steps(node.time()));
        class_events[c].push((e.start, 1));
        class_events[c].push((e.start.saturating_add(busy), -1));
    }
    for (c, class) in spec.classes().iter().enumerate() {
        let mut evs = core::mem::take(&mut class_events[c]);
        evs.sort_unstable();
        let mut running = 0_i64;
        let mut worst: Option<(i64, i64)> = None;
        let mut i = 0;
        while i < evs.len() {
            let step = evs[i].0;
            while i < evs.len() && evs[i].0 == step {
                running += evs[i].1;
                i += 1;
            }
            if running > i64::from(class.units) && worst.is_none_or(|(_, w)| running > w) {
                worst = Some((step, running));
            }
        }
        if let Some((step, used)) = worst {
            bad.push(Diagnostic::new(
                Code::UnrolledResourceOverflow,
                Locus::AbsoluteStep(step),
                format!(
                    "class `{}` needs {used} unit(s) at this absolute step but has {}",
                    class.name, class.units
                ),
            ));
        }
    }

    if !bad.is_empty() {
        sort_canonical(&mut bad);
        return Err(bad);
    }
    let first_start = events.iter().map(|e| e.start).min().unwrap_or(1);
    let last_finish = events
        .iter()
        .map(|e| e.start + i64::from(dfg.node(e.node).steps()) - 1)
        .max()
        .unwrap_or(0);
    Ok(PipelineCertificate {
        iterations,
        executions: events.len(),
        first_start,
        last_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    /// Depth-2 pipelined pair: m rotated one iteration up, kernel L=2.
    fn pipelined_pair() -> (Dfg, Retiming, StartTimes) {
        let mut g = Dfg::new("pair");
        let m = g.add_node("m", OpKind::Mul, 1);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        let r = Retiming::from_set(&g, [m]);
        let mut s = StartTimes::empty(&g);
        s.set(a, 1);
        s.set(m, 2);
        (g, r, s)
    }

    #[test]
    fn expansion_certifies_against_the_unrolled_loop() {
        let (g, r, s) = pipelined_pair();
        let events = expand(&g, &r, &s, 2, 5);
        assert_eq!(events.len(), 10);
        let cert = certify_pipeline(
            &g,
            &ResourceSpec::adders_multipliers(1, 1, false),
            &events,
            5,
        )
        .expect("equivalent");
        assert_eq!(cert.executions, 10);
        assert!(cert.first_start <= 0, "depth-2 pipeline has a prologue");
        assert!(cert.makespan() > 0);
    }

    #[test]
    fn dropped_execution_is_e110() {
        let (g, r, s) = pipelined_pair();
        let mut events = expand(&g, &r, &s, 2, 4);
        events.pop();
        let bad = certify_pipeline(&g, &ResourceSpec::unlimited(), &events, 4).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::ExecutionMultiplicity));
    }

    #[test]
    fn duplicated_execution_is_e110() {
        let (g, r, s) = pipelined_pair();
        let mut events = expand(&g, &r, &s, 2, 4);
        let dup = events[0];
        events.push(dup);
        let bad = certify_pipeline(&g, &ResourceSpec::unlimited(), &events, 4).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::ExecutionMultiplicity));
    }

    #[test]
    fn dependency_violation_in_absolute_time_is_e111() {
        let (g, r, s) = pipelined_pair();
        let mut events = expand(&g, &r, &s, 2, 4);
        // Drag one consumer before its producer.
        let a = g.node_by_name("a").unwrap();
        let victim = events
            .iter()
            .position(|e| e.node == a && e.iteration == 2)
            .unwrap();
        events[victim].start = -10;
        let bad = certify_pipeline(&g, &ResourceSpec::unlimited(), &events, 4).unwrap_err();
        assert!(bad
            .iter()
            .any(|d| d.code == Code::UnrolledPrecedenceViolation));
    }

    #[test]
    fn absolute_step_collision_is_e112() {
        let (g, r, s) = pipelined_pair();
        let mut events = expand(&g, &r, &s, 2, 4);
        // Move m@it1 onto m@it0's absolute step: one multiplier, two ops.
        let m = g.node_by_name("m").unwrap();
        let target = events
            .iter()
            .find(|e| e.node == m && e.iteration == 0)
            .unwrap()
            .start;
        let victim = events
            .iter()
            .position(|e| e.node == m && e.iteration == 1)
            .unwrap();
        events[victim].start = target;
        let bad = certify_pipeline(
            &g,
            &ResourceSpec::adders_multipliers(1, 1, false),
            &events,
            4,
        )
        .unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::UnrolledResourceOverflow));
    }

    #[test]
    fn out_of_window_event_is_flagged() {
        let (g, r, s) = pipelined_pair();
        let mut events = expand(&g, &r, &s, 2, 3);
        events[0].iteration = 99;
        let bad = certify_pipeline(&g, &ResourceSpec::unlimited(), &events, 3).unwrap_err();
        assert!(bad.iter().any(|d| d.code == Code::ExecutionMultiplicity));
    }

    #[test]
    fn unnormalized_retiming_expands_identically() {
        let (g, r, s) = pipelined_pair();
        let mut shifted = r.clone();
        for v in g.node_ids() {
            shifted.add(v, 3);
        }
        let a = expand(&g, &r, &s, 2, 4);
        let b = expand(&g, &shifted, &s, 2, 4);
        assert_eq!(a, b, "normalization is internal");
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let g = Dfg::new("empty");
        let r = Retiming::zero(&g);
        let s = StartTimes::empty(&g);
        assert!(expand(&g, &r, &s, 4, 3).is_empty());
        let cert = certify_pipeline(&g, &ResourceSpec::unlimited(), &[], 0).unwrap();
        assert_eq!(cert.executions, 0);
    }
}
