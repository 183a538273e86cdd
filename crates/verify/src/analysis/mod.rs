//! The static-analysis framework: a pass registry over a shared
//! traversal cache, producing an [`AnalysisReport`] with stable `A0xx`
//! finding codes and byte-stable JSON.
//!
//! Where [`lint`](crate::lint::lint) answers "is this input sane?",
//! the analysis passes answer "*where* is this instance tight?" — the
//! facts the rotation heuristic (and the future adaptive-search layer)
//! needs to focus further search:
//!
//! * [`critical_cycle`] — the cycle achieving the maximum
//!   time-to-delay ratio, from the verifier's one exact max-cycle-ratio
//!   search (policy improvement over Bellman–Ford probes). Its ceiling
//!   is the iteration bound; its node set is the recurrence bottleneck.
//! * [`saturation`] — per-class occupancy and lower bounds, plus (when
//!   a schedule is given) per-step utilization and the binding class.
//! * [`pressure`] — per-edge value lifetimes under the current
//!   retiming, the register-pressure profile across kernel steps, and
//!   the pressure delta of each candidate rotation.
//! * [`chain_depth`] — the zero-delay chain depth histogram (the
//!   retimed graph's combinational profile).
//!
//! Every pass is **total**: arbitrary inputs (hostile parses, illegal
//! retimings, incomplete schedules) degrade a pass to an absent
//! section, never a panic. Findings are sorted canonically and the
//! report's sections render in a fixed schema order, so the output is
//! a function of the *inputs* alone — independent of pass registration
//! order (regression-tested by shuffling).

pub mod chain_depth;
pub mod critical_cycle;
pub mod pressure;
pub mod report;
pub mod saturation;

use rotsched_dfg::{CsrGraph, Dfg, Retiming};

use crate::certify::StartTimes;
use crate::diag::{sort_canonical, Code};
use crate::lint::{lint_with, LintContext, LintOptions, PASSES};
use crate::spec::ResourceSpec;
use crate::sweep::GraphFacts;

pub use report::{
    AnalysisReport, CandidateDelta, ChainSection, ClassProfile, CriticalCycleSection,
    PressureSection, RatioU64, SaturationSection,
};

/// A schedule handed to the analysis, in the verifier's own vocabulary
/// (the bridge from `rotsched-sched`'s `Schedule` lives on the
/// scheduler side, like the certify bridge).
#[derive(Clone, Copy, Debug)]
pub struct ScheduleView<'a> {
    /// Per-node start control steps (1-based).
    pub starts: &'a StartTimes,
    /// The realizing retiming (the rotation function).
    pub retiming: &'a Retiming,
    /// The kernel length `L` (initiation interval).
    pub kernel_length: u32,
}

/// Traversals shared by the passes, built once per [`analyze`] call:
/// the SoA CSR view and per-edge retimed delays. Passes read, never
/// rebuild. (Whether the graph has a cycle at all, the one fact an SCC
/// decomposition would add, comes from the critical-cycle search, or
/// from a Kahn sweep shared with the lint where that search cannot
/// run.)
#[derive(Debug)]
pub struct TraversalCache<'a> {
    csr: &'a CsrGraph,
    /// `d_r(e) = d(e) + r(u) − r(v)` per edge, by `EdgeId` index and by
    /// [`Retiming::shift_delay`]'s rule; the plain delays when no
    /// (usable) retiming is given.
    retimed: Vec<i64>,
}

impl<'a> TraversalCache<'a> {
    /// Builds the cache for `dfg` under the schedule's retiming (zero
    /// retiming when absent or of mismatched length — the lint engine
    /// reports the mismatch; the cache stays total).
    #[must_use]
    pub fn build(dfg: &'a Dfg, schedule: Option<&ScheduleView<'_>>) -> Self {
        let csr = dfg.csr();
        let retiming = schedule
            .map(|s| s.retiming)
            .filter(|r| r.len() == dfg.node_count());
        let delays = csr.edge_delays().iter().copied();
        let retimed = match retiming {
            Some(r) => {
                let r = r.as_slice();
                (csr.edge_from().iter().zip(csr.edge_to()))
                    .zip(delays)
                    .map(|((&u, &v), d)| Retiming::shift_delay(d, r[u as usize], r[v as usize]))
                    .collect()
            }
            None => delays.map(i64::from).collect(),
        };
        TraversalCache { csr, retimed }
    }

    /// The SoA CSR view of the analyzed graph.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        self.csr
    }

    /// Per-edge retimed delays, by `EdgeId` index.
    #[must_use]
    pub fn retimed_delays(&self) -> &[i64] {
        &self.retimed
    }

    /// Whether some edge has a negative retimed delay (illegal
    /// retiming; retiming-sensitive passes bail out).
    #[must_use]
    pub fn has_negative_retimed_delay(&self) -> bool {
        self.retimed.iter().any(|&d| d < 0)
    }
}

/// Everything an analysis pass may read.
#[derive(Debug)]
pub struct AnalysisContext<'a> {
    /// The graph under analysis.
    pub dfg: &'a Dfg,
    /// The resource allocation.
    pub spec: &'a ResourceSpec,
    /// The schedule to profile, if one exists yet.
    pub schedule: Option<ScheduleView<'a>>,
    /// The shared traversal cache.
    pub cache: &'a TraversalCache<'a>,
    /// The recurrence bound, computed at most once per run: the
    /// critical-cycle pass seeds it from its exact ratio (the two are
    /// equal by construction — the property suite proves it), other
    /// passes fall back to [`crate::bound::recurrence_bound`].
    recurrence: std::cell::OnceCell<Option<u32>>,
    /// The unretimed graph's sweeps, each run at most once per analysis
    /// and shared with the closing lint.
    pub(crate) facts: GraphFacts<'a>,
}

impl AnalysisContext<'_> {
    /// The graph's recurrence bound, shared across passes. Whichever
    /// pass asks first computes it; later passes reuse the value, so
    /// the cycle-ratio search runs at most once per analysis.
    #[must_use]
    pub fn recurrence_bound(&self) -> Option<u32> {
        *self
            .recurrence
            .get_or_init(|| crate::bound::recurrence_bound_after(self.dfg, self.facts.zero_delay()))
    }

    /// Seeds the shared recurrence bound (first writer wins). The
    /// value must equal what [`crate::bound::recurrence_bound`] would
    /// return — seeding is a cache fill, never an override.
    pub(crate) fn seed_recurrence(&self, bound: Option<u32>) {
        let _ = self.recurrence.set(bound);
    }
}

/// One registered analysis pass.
pub struct AnalysisPass {
    /// Stable pass name (kebab-case).
    pub name: &'static str,
    /// The finding codes this pass can emit.
    pub codes: &'static [Code],
    run: fn(&AnalysisContext<'_>, &mut AnalysisReport),
}

/// The pass registry. Execution order is irrelevant to the output —
/// each pass fills its own report section and findings are sorted
/// canonically — which [`analyze_in_order`] lets tests prove.
pub const ANALYSIS_PASSES: &[AnalysisPass] = &[
    AnalysisPass {
        name: "critical-cycle",
        codes: &[Code::CriticalCycle],
        run: critical_cycle::run,
    },
    AnalysisPass {
        name: "saturation",
        codes: &[Code::SaturatedClass, Code::BindingConstraint],
        run: saturation::run,
    },
    AnalysisPass {
        name: "register-pressure",
        codes: &[Code::RegisterPressurePeak],
        run: pressure::run,
    },
    AnalysisPass {
        name: "chain-depth",
        codes: &[Code::DeepestChain],
        run: chain_depth::run,
    },
];

/// Runs the lint engine and every analysis pass over `dfg` and returns
/// the combined report. Total: never panics, whatever the input.
///
/// Without a schedule the passes report the static facts (critical
/// cycle, class occupancy bounds, per-retiming register count, chain
/// depths); with one they add the dynamic profile (per-step
/// utilization, live-value pressure, rotation candidates).
#[must_use]
pub fn analyze(
    dfg: &Dfg,
    spec: &ResourceSpec,
    schedule: Option<&ScheduleView<'_>>,
) -> AnalysisReport {
    let order: Vec<usize> = (0..ANALYSIS_PASSES.len()).collect();
    analyze_in_order(dfg, spec, schedule, &order)
}

/// [`analyze`] with an explicit pass execution order (a permutation of
/// `0..ANALYSIS_PASSES.len()`; out-of-range entries are skipped). The
/// report is byte-identical for every permutation — the hook exists so
/// the determinism suite can prove that, not to change behavior.
#[must_use]
pub fn analyze_in_order(
    dfg: &Dfg,
    spec: &ResourceSpec,
    schedule: Option<&ScheduleView<'_>>,
    order: &[usize],
) -> AnalysisReport {
    let cache = TraversalCache::build(dfg, schedule);
    let ctx = AnalysisContext {
        dfg,
        spec,
        schedule: schedule.copied(),
        cache: &cache,
        recurrence: std::cell::OnceCell::new(),
        facts: GraphFacts::new(dfg),
    };
    let mut report = AnalysisReport::new(dfg);
    for &i in order {
        if let Some(pass) = ANALYSIS_PASSES.get(i) {
            (pass.run)(&ctx, &mut report);
        }
    }
    // Lint last, so the engine can reuse whatever recurrence bound and
    // sweeps the passes already computed (both are cache fills — the
    // lints are byte-identical with or without them, whatever the pass
    // order).
    let options = LintOptions::default();
    let lint_ctx = LintContext {
        spec: Some(spec),
        retiming: schedule.map(|s| s.retiming),
        options: &options,
        recurrence_hint: ctx.recurrence.get().copied(),
    };
    let all: Vec<usize> = (0..PASSES.len()).collect();
    report.lints = lint_with(dfg, &lint_ctx, &all, &ctx.facts);
    sort_canonical(&mut report.findings);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    fn iir() -> Dfg {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        g
    }

    #[test]
    fn registry_names_and_codes_are_well_formed() {
        let mut names: Vec<&str> = ANALYSIS_PASSES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ANALYSIS_PASSES.len());
        for pass in ANALYSIS_PASSES {
            assert!(!pass.codes.is_empty());
            for code in pass.codes {
                assert!(
                    code.as_str().starts_with('A'),
                    "{} emits {}",
                    pass.name,
                    code
                );
            }
        }
    }

    #[test]
    fn shuffled_pass_order_yields_identical_reports() {
        let g = iir();
        let spec = ResourceSpec::adders_multipliers(1, 1, false);
        let baseline = analyze(&g, &spec, None);
        let orders: [[usize; 4]; 3] = [[3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]];
        for order in orders {
            let shuffled = analyze_in_order(&g, &spec, None, &order);
            assert_eq!(
                baseline.render_json(&g),
                shuffled.render_json(&g),
                "order {order:?}"
            );
            assert_eq!(baseline.render_text(&g), shuffled.render_text(&g));
        }
    }

    #[test]
    fn cache_applies_the_retiming_to_edge_delays() {
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let r = Retiming::from_set(&g, [m]);
        let starts = StartTimes::empty(&g);
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 3,
        };
        let cache = TraversalCache::build(&g, Some(&view));
        // m -> a gains a delay (m rotated), a -> m loses one.
        assert_eq!(cache.retimed_delays(), &[1, 0]);
        assert!(!cache.has_negative_retimed_delay());
    }

    #[test]
    fn analysis_is_total_on_hostile_inputs() {
        // Zero-delay cycle, zero-time node, empty class: every pass
        // must degrade gracefully, not panic.
        let mut g = Dfg::new("bad");
        let a = g.add_node("a", OpKind::Add, 0);
        let b = g.add_node("b", OpKind::Mul, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        let spec = ResourceSpec::adders_multipliers(0, 0, false);
        let report = analyze(&g, &spec, None);
        assert!(report.has_errors());
        assert!(report.critical_cycle.is_none());
        assert!(report.chains.is_none());
        let _ = report.render_json(&g);
        let _ = report.render_text(&g);

        // A legal retiming near the `i64` range: three fanout edges of
        // `a` carry nearly `i64::MAX` delays each. Their sum passes
        // `u64::MAX`, and `d_r · L` saturates before the consumer's
        // start is added: both clamp instead of overflowing.
        let mut g = Dfg::new("far");
        let a = g.add_node("a", OpKind::Add, 1);
        for name in ["b", "c", "d"] {
            let v = g.add_node(name, OpKind::Mul, 2);
            g.add_edge(a, v, 0).unwrap();
        }
        let mut r = Retiming::zero(&g);
        r.set(a, i64::MAX - 1);
        let starts = StartTimes::from_fn(&g, |v| Some(if v == a { 1 } else { 2 }));
        let view = ScheduleView {
            starts: &starts,
            retiming: &r,
            kernel_length: 2,
        };
        let report = analyze(
            &g,
            &ResourceSpec::adders_multipliers(1, 3, false),
            Some(&view),
        );
        let pressure = report.pressure.as_ref().unwrap();
        assert_eq!(pressure.static_registers, u64::MAX);
        let _ = report.render_json(&g);
        let _ = report.render_text(&g);
    }

    #[test]
    fn zero_time_cycle_seed() {
        let mut g = Dfg::new("zt");
        let a = g.add_node("a", OpKind::Add, 0);
        let b = g.add_node("b", OpKind::Add, 0);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        let report = analyze(&g, &ResourceSpec::unlimited(), None);
        let cc = report.critical_cycle.as_ref().unwrap();
        assert_eq!(cc.iteration_bound, 1, "a kernel has at least one step");
        assert_eq!(
            u32::try_from(cc.iteration_bound).ok(),
            crate::bound::recurrence_bound(&g)
        );
    }
}
