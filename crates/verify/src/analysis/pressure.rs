//! Lifetime and register-pressure analysis under the current retiming.
//!
//! Every retimed delay is a value that must survive at least one
//! iteration boundary, so `Σ_e max(d_r(e), 0)` — counting each fanout
//! edge separately — is the **static** register count and an upper
//! bound on any shared-register implementation. With a complete
//! schedule the pass also replays per-edge lifetimes against the
//! kernel: a value produced by `u` at `s(u) + t(u)` and consumed by
//! `v` at `s(v) + d_r(e)·L` is live for the steps in between, folded
//! modulo `L` arithmetically (whole wraps plus at most two ranges, in
//! `O(|E| + L)`); the per-step live counts give the pressure profile
//! and its peak (`A003`).
//!
//! The pass also prices the next move: for each candidate rotation
//! (the first control step's nodes when a schedule is given, otherwise
//! every down-rotatable node) it reports the static-register delta the
//! rotation would cause — out-degree minus in-degree, self-loops
//! excluded — so a search layer can weigh kernel length against
//! register cost before committing.

use crate::analysis::report::{AnalysisReport, CandidateDelta, PressureSection};
use crate::analysis::AnalysisContext;
use crate::diag::{Code, Diagnostic, Locus};
use crate::fold::StepProfile;
use rotsched_dfg::NodeId;

pub(crate) fn run(ctx: &AnalysisContext<'_>, report: &mut AnalysisReport) {
    let csr = ctx.cache.csr();
    if ctx.cache.has_negative_retimed_delay() {
        return; // illegal retiming: lifetimes are meaningless (E007)
    }
    let retimed = ctx.cache.retimed_delays();
    let n = csr.node_count();
    let m = csr.edge_count();

    let static_registers = retimed
        .iter()
        .fold(0_u64, |sum, &d| sum.saturating_add(d.max(0) as u64));

    // Dynamic profile and candidate set need a complete schedule.
    let view = ctx.schedule.filter(|s| {
        s.kernel_length >= 1
            && s.starts.len() == n
            && (0..n).all(|v| s.starts.get(NodeId::from_index(v)).is_some())
    });

    let (max_live, peak_step) = match view {
        Some(s) => {
            let l = i64::from(s.kernel_length);
            let mut live = StepProfile::new(l as u64, csr.edge_from().len());
            let endpoints = csr.edge_from().iter().zip(csr.edge_to());
            for ((&from, &to), &d_r) in endpoints.zip(retimed) {
                let u = NodeId::from_index(from as usize);
                let v = NodeId::from_index(to as usize);
                let (Some(su), Some(sv)) = (s.starts.get(u), s.starts.get(v)) else {
                    continue;
                };
                let produced = i64::from(su) + i64::from(csr.times()[u.index()]);
                let consumed = i64::from(sv).saturating_add(d_r.saturating_mul(l));
                let duration = consumed.saturating_sub(produced).max(0);
                // Fold [produced, consumed) onto the kernel steps;
                // 1-based step `produced` is slot (produced − 1) mod L.
                live.add((produced - 1).rem_euclid(l) as u64, duration as u64);
            }
            // The first step reaching the peak.
            let (max, peak) = live.peak();
            (Some(max), Some(peak as u32 + 1))
        }
        None => (None, None),
    };

    if let (Some(max), Some(step)) = (max_live, peak_step) {
        report.findings.push(
            Diagnostic::new(
                Code::RegisterPressurePeak,
                Locus::Step(step),
                format!(
                    "register pressure peaks at {max} live value(s) in kernel step {step} ({static_registers} static register(s) total)"
                ),
            )
            .with_hint("rotations with negative delta below reduce the static count"),
        );
    }

    // Per-node out − in degree, self-loops excluded, for the deltas.
    let mut out_deg = vec![0_i64; n];
    let mut in_deg = vec![0_i64; n];
    for e in 0..m {
        let u = csr.edge_from()[e] as usize;
        let v = csr.edge_to()[e] as usize;
        if u == v {
            continue;
        }
        out_deg[u] += 1;
        in_deg[v] += 1;
    }

    // Candidate set: the nodes one down-rotation would move.
    let in_set: Vec<bool> = (0..n)
        .map(|v| match view {
            Some(s) => s.starts.get(NodeId::from_index(v)) == Some(1),
            // Statically: down-rotatable, i.e. every in-edge carries a
            // (retimed) delay (vacuously true for source nodes).
            None => csr
                .in_range(v)
                .all(|i| retimed[csr.in_edge_ids()[i].index()] >= 1),
        })
        .collect();
    let candidates: Vec<CandidateDelta> = (0..n)
        .filter(|&v| in_set[v])
        .map(|v| CandidateDelta {
            node: v as u32,
            delta: out_deg[v] - in_deg[v],
        })
        .collect();

    // Rotating the whole first-step set at once only moves delays
    // across the set boundary; internal edges cancel.
    let rotation_set_delta = view.map(|_| {
        let mut delta = 0_i64;
        for e in 0..m {
            let u = csr.edge_from()[e] as usize;
            let v = csr.edge_to()[e] as usize;
            match (in_set[u], in_set[v]) {
                (true, false) => delta += 1,
                (false, true) => delta -= 1,
                _ => {}
            }
        }
        delta
    });

    report.pressure = Some(PressureSection {
        static_registers,
        max_live,
        peak_step,
        rotation_set_delta,
        candidates,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, ScheduleView};
    use crate::certify::StartTimes;
    use crate::spec::ResourceSpec;
    use rotsched_dfg::{Dfg, OpKind, Retiming};

    fn iir() -> Dfg {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        g
    }

    #[test]
    fn static_count_sums_retimed_delays() {
        let g = iir();
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let p = report.pressure.expect("legal retiming");
        assert_eq!(p.static_registers, 1);
        assert_eq!(p.max_live, None);
        assert_eq!(p.rotation_set_delta, None);
        // Statically only m is down-rotatable (its in-edge has d = 1);
        // a's in-edge m -> a has d = 0.
        assert_eq!(p.candidates.len(), 1);
        assert_eq!(p.candidates[0].node, 0);
        assert_eq!(p.candidates[0].delta, 0);
    }

    #[test]
    fn scheduled_profile_counts_live_values() {
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::zero(&g);
        let mut starts = StartTimes::empty(&g);
        starts.set(m, 1);
        starts.set(a, 3);
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 3,
        };
        let report = analyze(&g, &ResourceSpec::unlimited(), Some(&view));
        let p = report.pressure.expect("legal retiming");
        // m -> a (d_r 0): produced 1 + 2 = 3, consumed at 3 -> dead.
        // a -> m (d_r 1): produced 3 + 1 = 4, consumed 1 + 3 = 4 -> dead.
        // (Values handed off back-to-back never cross a step boundary.)
        assert_eq!(p.max_live, Some(0));
        assert_eq!(p.static_registers, 1);
        // First-step candidate set = {m}; rotating it moves the m -> a
        // delay forward (+1) and consumes a -> m's (-1): net 0.
        assert_eq!(p.candidates.len(), 1);
        assert_eq!(p.rotation_set_delta, Some(0));
        assert!(report
            .findings
            .iter()
            .any(|d| d.code == Code::RegisterPressurePeak));
    }

    #[test]
    fn long_lifetime_spans_kernel_steps() {
        let mut g = Dfg::new("span");
        let p = g.add_node("p", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Add, 1);
        g.add_edge(p, c, 2).unwrap();
        let r = Retiming::zero(&g);
        let mut starts = StartTimes::empty(&g);
        starts.set(p, 1);
        starts.set(c, 2);
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 2,
        };
        let report = analyze(&g, &ResourceSpec::unlimited(), Some(&view));
        let pr = report.pressure.expect("legal retiming");
        // Produced at 1 + 1 = 2, consumed at 2 + 2*2 = 6: live for 4
        // steps over a 2-step kernel -> 2 live copies in every step.
        assert_eq!(pr.max_live, Some(2));
        assert_eq!(pr.peak_step, Some(1));
    }

    #[test]
    fn illegal_retiming_suppresses_the_section() {
        let g = iir();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::from_set(&g, [a]); // a -> m drops to d_r = 0, m -> a to -1
        let starts = StartTimes::from_fn(&g, |_| Some(1));
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 1,
        };
        let report = analyze(&g, &ResourceSpec::unlimited(), Some(&view));
        assert!(report.pressure.is_none());
        assert!(!report
            .findings
            .iter()
            .any(|d| d.code == Code::RegisterPressurePeak));
    }

    #[test]
    fn self_loops_do_not_count_toward_deltas() {
        let mut g = Dfg::new("self");
        let v = g.add_node("v", OpKind::Add, 1);
        let w = g.add_node("w", OpKind::Add, 1);
        g.add_edge(v, v, 1).unwrap();
        g.add_edge(v, w, 1).unwrap();
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let p = report.pressure.expect("legal retiming");
        // v: self-loop excluded, out 1 / in 0 -> +1. w: in 1 -> -1.
        let v_cand = p.candidates.iter().find(|c| c.node == 0).unwrap();
        assert_eq!(v_cand.delta, 1);
        let w_cand = p.candidates.iter().find(|c| c.node == 1).unwrap();
        assert_eq!(w_cand.delta, -1);
    }
}
