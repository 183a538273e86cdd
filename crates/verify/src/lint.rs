//! The DFG lint engine: a fixed registry of analysis passes over a
//! graph, an optional resource spec, and an optional retiming.
//!
//! Every pass is **total** — it returns diagnostics for arbitrary
//! inputs (including hostile ones straight out of the text parser) and
//! never panics. The engine runs all passes in registry order and
//! returns the findings in [canonical order](crate::diag::sort_canonical),
//! so equal inputs produce byte-identical reports.

use rotsched_dfg::{Dfg, NodeId, OpKind, Retiming};

use crate::bound::recurrence_bound_after;
use crate::diag::{sort_canonical, Code, Diagnostic, Locus};
use crate::spec::ResourceSpec;
use crate::sweep::{GraphFacts, Sweep};

/// Values at or above this trip the `E003` overflow lint: schedule
/// arithmetic on `u32` steps stays exact below `2³⁰` even across the
/// `2·L` tail bound and prologue expansion.
pub const OVERFLOW_LIMIT: u32 = 1 << 30;

/// Tunable thresholds for the warning passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintOptions {
    /// `W003` fires when the longest zero-delay chain (in computation
    /// time) exceeds this many control steps.
    pub max_chain_depth: u64,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            max_chain_depth: 64,
        }
    }
}

/// Everything a lint pass may look at besides the graph itself.
#[derive(Clone, Copy, Debug)]
pub struct LintContext<'a> {
    /// The resource allocation to check bindings against, if any.
    pub spec: Option<&'a ResourceSpec>,
    /// The retiming to check for legality/normalization, if any.
    pub retiming: Option<&'a Retiming>,
    /// Warning thresholds.
    pub options: &'a LintOptions,
    /// A precomputed recurrence bound, when the caller already ran the
    /// computation (the analysis framework shares one across passes).
    /// `None` means "compute it here"; the inner `Option` carries
    /// [`recurrence_bound`](crate::recurrence_bound)'s own verdict. A
    /// hint must equal what it would return — it is a cache, not a knob.
    pub recurrence_hint: Option<Option<u32>>,
}

impl<'a> LintContext<'a> {
    /// A context with no spec, no retiming, default options.
    #[must_use]
    pub fn bare(options: &'a LintOptions) -> Self {
        LintContext {
            spec: None,
            retiming: None,
            options,
            recurrence_hint: None,
        }
    }
}

/// One registered lint pass.
pub struct LintPass {
    /// Stable pass name (kebab-case), listed by `rotsched lint --passes`.
    pub name: &'static str,
    /// The diagnostic codes this pass can emit.
    pub codes: &'static [Code],
    run: fn(&Dfg, &LintContext<'_>, &GraphFacts<'_>, &mut Vec<Diagnostic>),
}

/// The pass registry, in execution order.
pub const PASSES: &[LintPass] = &[
    LintPass {
        name: "node-times",
        codes: &[Code::ZeroTimeNode, Code::OverflowHazard],
        run: pass_node_times,
    },
    LintPass {
        name: "edge-delays",
        codes: &[Code::OverflowHazard],
        run: pass_edge_delays,
    },
    LintPass {
        name: "zero-delay-cycles",
        codes: &[Code::ZeroDelayCycle],
        run: pass_zero_delay_cycles,
    },
    LintPass {
        name: "connectivity",
        codes: &[Code::IsolatedNode, Code::DeadEndNode],
        run: pass_connectivity,
    },
    LintPass {
        name: "resource-binding",
        codes: &[Code::UnboundOp, Code::EmptyClass, Code::UnusedClass],
        run: pass_resource_binding,
    },
    LintPass {
        name: "retiming",
        codes: &[Code::IllegalRetiming, Code::UnnormalizedRetiming],
        run: pass_retiming,
    },
    LintPass {
        name: "chain-depth",
        codes: &[Code::ChainDepthHazard],
        run: pass_chain_depth,
    },
    LintPass {
        name: "iteration-boundary",
        codes: &[Code::BoundaryCrossingOp],
        run: pass_iteration_boundary,
    },
];

/// Runs every registered pass and returns the findings in canonical
/// order. Total: never panics, whatever the input.
#[must_use]
pub fn lint(dfg: &Dfg, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
    let order: Vec<usize> = (0..PASSES.len()).collect();
    lint_in_order(dfg, ctx, &order)
}

/// [`lint`] with an explicit pass execution order (a permutation of
/// `0..PASSES.len()`; out-of-range entries are skipped). The canonical
/// sort makes the result identical for every permutation — the hook
/// exists so the determinism suite can prove that.
#[must_use]
pub fn lint_in_order(dfg: &Dfg, ctx: &LintContext<'_>, order: &[usize]) -> Vec<Diagnostic> {
    lint_with(dfg, ctx, order, &GraphFacts::new(dfg))
}

/// [`lint_in_order`] over `facts` the caller may already have filled
/// (the analysis framework shares its sweeps). Like the recurrence
/// hint, the facts are a cache: the findings never depend on them.
pub(crate) fn lint_with(
    dfg: &Dfg,
    ctx: &LintContext<'_>,
    order: &[usize],
    facts: &GraphFacts<'_>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for &i in order {
        if let Some(pass) = PASSES.get(i) {
            (pass.run)(dfg, ctx, facts, &mut diags);
        }
    }
    sort_canonical(&mut diags);
    diags
}

/// Whether any finding in `diags` is an error (as opposed to a warning).
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags
        .iter()
        .any(|d| d.severity() == crate::diag::Severity::Error)
}

fn pass_node_times(
    dfg: &Dfg,
    _ctx: &LintContext<'_>,
    _facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    for (v, node) in dfg.nodes() {
        if node.time() == 0 {
            out.push(
                Diagnostic::new(
                    Code::ZeroTimeNode,
                    Locus::Node(v),
                    "computation time is 0; every node must occupy at least one control step",
                )
                .with_hint("set the node's time to at least 1"),
            );
        } else if node.time() >= OVERFLOW_LIMIT {
            out.push(Diagnostic::new(
                Code::OverflowHazard,
                Locus::Node(v),
                format!(
                    "computation time {} is at or above 2^30; schedule arithmetic may saturate",
                    node.time()
                ),
            ));
        }
    }
}

fn pass_edge_delays(
    dfg: &Dfg,
    _ctx: &LintContext<'_>,
    _facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    for (_, edge) in dfg.edges() {
        if edge.delays() >= OVERFLOW_LIMIT {
            out.push(Diagnostic::new(
                Code::OverflowHazard,
                Locus::Edge {
                    from: edge.from(),
                    to: edge.to(),
                },
                format!(
                    "delay count {} is at or above 2^30; retiming arithmetic may saturate",
                    edge.delays()
                ),
            ));
        }
    }
}

fn pass_zero_delay_cycles(
    dfg: &Dfg,
    _ctx: &LintContext<'_>,
    facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let fwd = facts.zero_delay();
    if !fwd.is_cyclic() {
        return;
    }
    // A node lies on a zero-delay cycle iff it is stuck in both
    // directions (forward leftovers include cycle *descendants*,
    // backward leftovers cycle *ancestors*).
    let bwd = Sweep::run(dfg, false, true);
    let cyclic: Vec<NodeId> = (0..dfg.node_count())
        .filter(|&i| !fwd.ordered[i] && !bwd.ordered[i])
        .map(NodeId::from_index)
        .collect();
    let witness = cyclic.first().copied().unwrap_or(NodeId::from_index(0));
    out.push(
        Diagnostic::new(
            Code::ZeroDelayCycle,
            Locus::Node(witness),
            format!(
                "{} node(s) lie on cycles of zero-delay edges; no static schedule can order them",
                cyclic.len()
            ),
        )
        .with_hint("every cycle must carry at least one delay (register)"),
    );
}

fn pass_connectivity(
    dfg: &Dfg,
    _ctx: &LintContext<'_>,
    _facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    for v in dfg.node_ids() {
        let (ins, outs) = (dfg.in_edges(v).len(), dfg.out_edges(v).len());
        if ins == 0 && outs == 0 {
            out.push(
                Diagnostic::new(
                    Code::IsolatedNode,
                    Locus::Node(v),
                    "node has no edges; it constrains nothing and consumes a unit every iteration",
                )
                .with_hint("remove the node or wire it into the graph"),
            );
        } else if outs == 0 {
            out.push(Diagnostic::new(
                Code::DeadEndNode,
                Locus::Node(v),
                "node's result is never consumed (no outgoing edges)",
            ));
        }
    }
}

fn pass_resource_binding(
    dfg: &Dfg,
    ctx: &LintContext<'_>,
    _facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(spec) = ctx.spec else { return };
    // One finding per operation *kind*, at its first offending node.
    for op in OpKind::ALL {
        let mut nodes = dfg.nodes().filter(|(_, n)| n.op() == op);
        let Some((first, _)) = nodes.next() else {
            continue;
        };
        let count = 1 + nodes.count();
        match spec.class_of(op) {
            None => out.push(
                Diagnostic::new(
                    Code::UnboundOp,
                    Locus::Node(first),
                    format!(
                        "no resource class executes `{op:?}` ({count} node(s) affected)"
                    ),
                )
                .with_hint("add the operation kind to a unit class"),
            ),
            Some(c) if spec.classes()[c].units == 0 => out.push(
                Diagnostic::new(
                    Code::EmptyClass,
                    Locus::Class(spec.classes()[c].name.clone()),
                    format!(
                        "class has 0 units but {count} `{op:?}` node(s) demand it; no schedule exists"
                    ),
                )
                .with_hint("allocate at least one unit"),
            ),
            Some(_) => {}
        }
    }
    for (ci, class) in spec.classes().iter().enumerate() {
        let demanded = dfg.nodes().any(|(_, n)| spec.class_of(n.op()) == Some(ci));
        if !demanded && dfg.node_count() > 0 {
            out.push(Diagnostic::new(
                Code::UnusedClass,
                Locus::Class(class.name.clone()),
                "class executes no operation present in the graph",
            ));
        }
    }
}

fn pass_retiming(
    dfg: &Dfg,
    ctx: &LintContext<'_>,
    _facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(r) = ctx.retiming else { return };
    if r.len() != dfg.node_count() {
        // A mismatched retiming cannot be evaluated edge-by-edge
        // without indexing out of bounds; report it as illegal.
        out.push(Diagnostic::new(
            Code::IllegalRetiming,
            Locus::Graph,
            format!(
                "retiming covers {} node(s) but the graph has {}",
                r.len(),
                dfg.node_count()
            ),
        ));
        return;
    }
    for (id, edge) in dfg.edges() {
        let dr = r.retimed_delay(dfg, id);
        if dr < 0 {
            out.push(
                Diagnostic::new(
                    Code::IllegalRetiming,
                    Locus::Edge {
                        from: edge.from(),
                        to: edge.to(),
                    },
                    format!("retimed delay d_r = {dr} is negative"),
                )
                .with_hint("a legal retiming keeps every retimed delay non-negative"),
            );
        }
    }
    if !r.is_normalized() {
        out.push(
            Diagnostic::new(
                Code::UnnormalizedRetiming,
                Locus::Graph,
                format!(
                    "retiming minimum is {}, not 0; prologue/epilogue expansion assumes a normalized retiming",
                    r.min_value()
                ),
            )
            .with_hint("call Retiming::to_normalized before expansion"),
        );
    }
}

fn pass_chain_depth(
    _dfg: &Dfg,
    ctx: &LintContext<'_>,
    facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    // The longest zero-delay path in total computation time, from the
    // zero-delay sweep. Skipped when a zero-delay cycle exists (E001
    // already fired; there is no finite chain depth).
    let sweep = facts.zero_delay();
    if sweep.is_cyclic() {
        return;
    }
    if let Some((i, &d)) = sweep
        .depth
        .iter()
        .enumerate()
        .max_by_key(|&(i, &d)| (d, core::cmp::Reverse(i)))
    {
        if d > ctx.options.max_chain_depth {
            out.push(
                Diagnostic::new(
                    Code::ChainDepthHazard,
                    Locus::Node(NodeId::from_index(i)),
                    format!(
                        "a zero-delay chain of {d} control steps ends here (limit {}); every kernel is at least that long",
                        ctx.options.max_chain_depth
                    ),
                )
                .with_hint("break the chain with a delay or pipeline the operations"),
            );
        }
    }
}

fn pass_iteration_boundary(
    dfg: &Dfg,
    ctx: &LintContext<'_>,
    facts: &GraphFacts<'_>,
    out: &mut Vec<Diagnostic>,
) {
    // Only meaningful on cyclic graphs: on a DAG the recurrence bound is
    // 1 and "crossing the boundary" is the common case, not a hazard.
    if !facts.has_cycle() {
        return;
    }
    let Some(bound) = ctx
        .recurrence_hint
        .unwrap_or_else(|| recurrence_bound_after(dfg, facts.zero_delay()))
    else {
        return; // zero-delay cycle: covered by E001
    };
    for (v, node) in dfg.nodes() {
        if u64::from(node.time()) > u64::from(bound) {
            out.push(Diagnostic::new(
                Code::BoundaryCrossingOp,
                Locus::Node(v),
                format!(
                    "computation time {} exceeds the recurrence bound {bound}; in any bound-achieving kernel this operation must wrap across the iteration boundary",
                    node.time()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::rng::SplitMix64;

    fn ctx(options: &LintOptions) -> LintContext<'_> {
        LintContext::bare(options)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_loop_lints_clean() {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        let options = LintOptions::default();
        let spec = ResourceSpec::adders_multipliers(1, 1, false);
        let diags = lint(
            &g,
            &LintContext {
                spec: Some(&spec),
                retiming: None,
                options: &options,
                recurrence_hint: None,
            },
        );
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn zero_delay_cycle_is_e001() {
        let mut g = Dfg::new("bad");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        let options = LintOptions::default();
        let diags = lint(&g, &ctx(&options));
        assert!(codes(&diags).contains(&Code::ZeroDelayCycle));
        assert!(has_errors(&diags));
    }

    #[test]
    fn cycle_witness_is_on_the_cycle_not_downstream() {
        let mut g = Dfg::new("bad");
        let sink = g.add_node("sink", OpKind::Add, 1); // downstream only
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        g.add_edge(a, sink, 0).unwrap();
        let options = LintOptions::default();
        let diags = lint(&g, &ctx(&options));
        let e001 = diags
            .iter()
            .find(|d| d.code == Code::ZeroDelayCycle)
            .unwrap();
        assert!(matches!(e001.locus, Locus::Node(v) if v == a || v == b));
    }

    #[test]
    fn zero_time_and_overflow_are_flagged() {
        let mut g = Dfg::new("weird");
        let z = g.add_node("z", OpKind::Add, 0);
        let big = g.add_node("big", OpKind::Add, OVERFLOW_LIMIT);
        g.add_edge(z, big, OVERFLOW_LIMIT).unwrap();
        let options = LintOptions::default();
        let diags = lint(&g, &ctx(&options));
        let cs = codes(&diags);
        assert!(cs.contains(&Code::ZeroTimeNode));
        assert_eq!(
            cs.iter().filter(|&&c| c == Code::OverflowHazard).count(),
            2,
            "node time and edge delay each flagged"
        );
    }

    #[test]
    fn isolated_and_dead_end_nodes_warn() {
        let mut g = Dfg::new("g");
        let _lone = g.add_node("lone", OpKind::Add, 1);
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 1).unwrap();
        let options = LintOptions::default();
        let diags = lint(&g, &ctx(&options));
        let cs = codes(&diags);
        assert!(cs.contains(&Code::IsolatedNode));
        assert!(cs.contains(&Code::DeadEndNode));
        assert!(!has_errors(&diags), "connectivity findings are warnings");
    }

    #[test]
    fn unbound_and_empty_class_are_errors() {
        let mut g = Dfg::new("g");
        let m = g.add_node("m", OpKind::Mul, 1);
        let d = g.add_node("d", OpKind::Div, 1);
        g.add_edge(m, d, 1).unwrap();
        g.add_edge(d, m, 1).unwrap();
        let spec = ResourceSpec::new(vec![UnitClassNoMul::class()]);
        let options = LintOptions::default();
        let diags = lint(
            &g,
            &LintContext {
                spec: Some(&spec),
                retiming: None,
                options: &options,
                recurrence_hint: None,
            },
        );
        assert!(codes(&diags).contains(&Code::UnboundOp));
        // Zero-unit class demanded:
        let spec0 = ResourceSpec::adders_multipliers(1, 0, false);
        let diags = lint(
            &g,
            &LintContext {
                spec: Some(&spec0),
                retiming: None,
                options: &options,
                recurrence_hint: None,
            },
        );
        let cs = codes(&diags);
        assert!(cs.contains(&Code::EmptyClass));
        assert!(cs.contains(&Code::UnusedClass), "adder class is unused");
    }

    /// Helper: a spec whose single class skips multiplicative ops.
    struct UnitClassNoMul;
    impl UnitClassNoMul {
        fn class() -> crate::spec::UnitClass {
            crate::spec::UnitClass::new("adder", 1, false, vec![OpKind::Add, OpKind::Div])
        }
    }

    #[test]
    fn retiming_findings() {
        let mut g = Dfg::new("g");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 1).unwrap();
        let options = LintOptions::default();
        // Rotating b first is illegal (a -> b has no delay to take).
        let r = Retiming::from_set(&g, [b]);
        let diags = lint(
            &g,
            &LintContext {
                spec: None,
                retiming: Some(&r),
                options: &options,
                recurrence_hint: None,
            },
        );
        assert!(codes(&diags).contains(&Code::IllegalRetiming));
        // A shifted-but-legal retiming is only unnormalized.
        let mut r2 = Retiming::from_set(&g, [a]);
        r2.add(a, 1);
        r2.add(b, 1);
        let diags = lint(
            &g,
            &LintContext {
                spec: None,
                retiming: Some(&r2),
                options: &options,
                recurrence_hint: None,
            },
        );
        assert_eq!(codes(&diags), vec![Code::UnnormalizedRetiming]);
    }

    #[test]
    fn chain_depth_warns_past_the_limit() {
        let mut g = Dfg::new("chain");
        let mut prev = g.add_node("n0", OpKind::Add, 1);
        for i in 1..5 {
            let next = g.add_node(format!("n{i}"), OpKind::Add, 1);
            g.add_edge(prev, next, 0).unwrap();
            prev = next;
        }
        let options = LintOptions { max_chain_depth: 4 };
        let diags = lint(&g, &ctx(&options));
        let w003 = diags
            .iter()
            .find(|d| d.code == Code::ChainDepthHazard)
            .expect("5-step chain over limit 4");
        assert!(matches!(w003.locus, Locus::Node(v) if v == prev));
    }

    #[test]
    fn boundary_crossing_op_warns_only_on_cyclic_graphs() {
        let options = LintOptions::default();
        // Cyclic: bound 2 (4 time units over 2 delays), mult of time 3 wraps.
        let mut g = Dfg::new("cyc");
        let m = g.add_node("m", OpKind::Mul, 3);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 1).unwrap();
        g.add_edge(a, m, 1).unwrap();
        let diags = lint(&g, &ctx(&options));
        assert!(codes(&diags).contains(&Code::BoundaryCrossingOp));
        // Acyclic: same node times, no warning.
        let mut g2 = Dfg::new("dag");
        let m2 = g2.add_node("m", OpKind::Mul, 3);
        let a2 = g2.add_node("a", OpKind::Add, 1);
        g2.add_edge(m2, a2, 0).unwrap();
        let diags = lint(&g2, &ctx(&options));
        assert!(!codes(&diags).contains(&Code::BoundaryCrossingOp));
    }

    #[test]
    fn output_is_canonically_sorted_and_stable() {
        let mut g = Dfg::new("g");
        g.add_node("z", OpKind::Add, 0); // E002
        g.add_node("lone", OpKind::Add, 1); // W001
        let options = LintOptions::default();
        let a = lint(&g, &ctx(&options));
        let b = lint(&g, &ctx(&options));
        assert_eq!(a, b);
        assert_eq!(
            codes(&a),
            vec![Code::ZeroTimeNode, Code::IsolatedNode, Code::IsolatedNode],
            "both nodes are edge-less; errors sort before warnings"
        );
    }

    /// A seeded graph of 1–10 nodes with zero-time ops, delayed
    /// self-loops, and zero-delay edges in any direction (so zero-delay
    /// cycles), with a retiming (sometimes illegal or unnormalized) and
    /// a spec that may lack a class.
    fn seeded_case(seed: u64) -> (Dfg, Retiming, ResourceSpec) {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_u32(1, 10) as usize;
        let mut g = Dfg::new("seeded");
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                let op = if rng.chance(0.3) {
                    OpKind::Mul
                } else {
                    OpKind::Add
                };
                g.add_node(format!("v{i}"), op, rng.range_u32(0, 3))
            })
            .collect();
        for _ in 0..rng.range_u32(0, 3 * n as u32) {
            let (from, to) = (ids[rng.index(n)], ids[rng.index(n)]);
            let delays = if from == to || rng.chance(0.5) {
                rng.range_u32(1, 3)
            } else {
                0
            };
            g.add_edge(from, to, delays).expect("endpoints exist");
        }
        let mut r = Retiming::zero(&g);
        if rng.chance(0.5) {
            for &v in &ids {
                r.set(v, i64::from(rng.range_u32(0, 2)));
            }
        }
        let spec =
            ResourceSpec::adders_multipliers(rng.range_u32(0, 2), rng.range_u32(0, 2), false);
        (g, r, spec)
    }

    #[test]
    fn any_pass_order_and_every_single_pass_reproduce_lint() {
        let all: Vec<usize> = (0..PASSES.len()).collect();
        let mut shuffled = all.clone();
        let mut seen = Vec::new();
        for seed in 0..500 {
            let (g, r, spec) = seeded_case(seed);
            let options = LintOptions {
                max_chain_depth: seed % 4,
            };
            for ctx in [
                LintContext::bare(&options),
                LintContext {
                    spec: Some(&spec),
                    retiming: Some(&r),
                    options: &options,
                    recurrence_hint: None,
                },
            ] {
                let expected = lint(&g, &ctx);
                seen.extend(expected.iter().map(|d| d.code));
                // Every pass alone, the findings pooled.
                let mut pooled: Vec<Diagnostic> = all
                    .iter()
                    .flat_map(|&i| lint_in_order(&g, &ctx, &[i]))
                    .collect();
                sort_canonical(&mut pooled);
                assert_eq!(pooled, expected, "seed {seed}: single passes");
                // Reversed, and three seeded permutations.
                let reversed: Vec<usize> = all.iter().rev().copied().collect();
                assert_eq!(lint_in_order(&g, &ctx, &reversed), expected, "seed {seed}");
                let mut rng = SplitMix64::new(seed);
                for _ in 0..3 {
                    for i in (1..shuffled.len()).rev() {
                        shuffled.swap(i, rng.index(i + 1));
                    }
                    assert_eq!(
                        lint_in_order(&g, &ctx, &shuffled),
                        expected,
                        "seed {seed}: order {shuffled:?}"
                    );
                }
            }
        }
        // The cases reach both readers of the zero-delay sweep, and the
        // passes around them.
        for code in [
            Code::ZeroDelayCycle,
            Code::ChainDepthHazard,
            Code::ZeroTimeNode,
            Code::BoundaryCrossingOp,
            Code::IllegalRetiming,
            Code::EmptyClass,
        ] {
            assert!(seen.contains(&code), "{code} never fired");
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = PASSES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PASSES.len());
        assert!(PASSES.iter().all(|p| !p.codes.is_empty()));
    }
}
