//! Structured diagnostics with stable codes.
//!
//! Every finding the lint engine or the certificate checker produces is
//! a [`Diagnostic`]: a stable machine-readable [`Code`], a derived
//! [`Severity`], a [`Locus`] naming the graph element at fault, a
//! human-readable message, and an optional fix hint. The code space is
//! frozen — codes are never renumbered, only appended — so downstream
//! tooling can branch on them:
//!
//! * `E0xx` / `W0xx` — **input lints**: pathologies of the graph,
//!   resource spec, or retiming fed to the scheduler.
//! * `E1xx` — **certification violations**: a concrete (graph,
//!   resources, retiming, schedule) quadruple that is not a legal
//!   pipeline, or a claim about one that does not hold.
//! * `A0xx` — **analysis findings**: informational facts the static
//!   analysis passes extract (critical cycle, binding resource class,
//!   register-pressure peak); never failures.

use core::fmt;

use rotsched_dfg::json::push_json_string;
use rotsched_dfg::{Dfg, NodeId};

/// Stable diagnostic codes. The numeric part is frozen: a code, once
/// shipped, always means the same condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Code {
    /// `E001` — a cycle of zero-delay edges: no schedule of any kind can
    /// order the nodes within one iteration.
    ZeroDelayCycle,
    /// `E002` — a node with computation time 0: it occupies no control
    /// step and breaks precedence and reservation accounting.
    ZeroTimeNode,
    /// `E003` — a delay or computation time large enough that schedule
    /// arithmetic saturates (≥ 2³⁰); results past that point are
    /// clamped, not exact.
    OverflowHazard,
    /// `E004` — an operation kind no resource class executes.
    UnboundOp,
    /// `E005` — operations bound to a class with zero units: no schedule
    /// can ever place them.
    EmptyClass,
    /// `E006` — a reference to a graph element that does not exist
    /// (dangling node id, zero-delay self loop, malformed input).
    MalformedInput,
    /// `E007` — an illegal retiming: some edge's retimed delay is
    /// negative.
    IllegalRetiming,
    /// `W001` — an isolated node (no edges at all).
    IsolatedNode,
    /// `W002` — a dead-end node: its result is never consumed.
    DeadEndNode,
    /// `W003` — a zero-delay chain deeper than the configured limit
    /// (combinational-depth hazard when operations are chained).
    ChainDepthHazard,
    /// `W004` — a resource class that executes no operation present in
    /// the graph.
    UnusedClass,
    /// `W005` — a multi-cycle operation longer than the recurrence bound:
    /// every bound-achieving schedule must wrap it across the iteration
    /// boundary.
    BoundaryCrossingOp,
    /// `W006` — a retiming that is not normalized (`min r ≠ 0`).
    UnnormalizedRetiming,
    /// `E101` — a node missing from a schedule that must be complete.
    Unscheduled,
    /// `E102` — a start step outside `1..` (control steps are 1-based).
    InvalidStart,
    /// `E103` — the certificate's retiming is illegal (negative retimed
    /// delay), so the schedule proves nothing about the original graph.
    CertIllegalRetiming,
    /// `E104` — a zero-retimed-delay precedence violated: the producer
    /// finishes after the consumer starts.
    PrecedenceViolation,
    /// `E105` — more units of a class demanded in one control step than
    /// exist (independent reservation replay).
    ResourceOverflow,
    /// `E107` — a node *starting* past the kernel boundary (only tails
    /// may wrap).
    StartPastKernel,
    /// `E108` — a tail spanning more than two kernel instances.
    TailTooLong,
    /// `E109` — a one-delay consumer of a wrapped node starting before
    /// the wrapped tail ends.
    WrapPrecedenceViolation,
    /// `E110` — the expanded loop executes some (node, iteration) pair
    /// zero or multiple times.
    ExecutionMultiplicity,
    /// `E111` — a cross-iteration dependency violated in absolute time
    /// in the expanded loop.
    UnrolledPrecedenceViolation,
    /// `E112` — an absolute control step of the expanded loop
    /// over-subscribes a resource class.
    UnrolledResourceOverflow,
    /// `E113` — a claimed schedule length that does not match the
    /// certified kernel length.
    LengthClaimMismatch,
    /// `E114` — a claimed optimality verdict that neither the recurrence
    /// bound nor the resource bound supports.
    ForgedOptimality,
    /// `E115` — a claimed secondary score component (static register
    /// count or prologue/epilogue code size) that does not match the
    /// value re-derived from the certified retiming.
    ScoreClaimMismatch,
    /// `A001` — a critical cycle: a cycle achieving the maximum
    /// time-to-delay ratio, i.e. the recurrence bottleneck every further
    /// rotation is limited by.
    CriticalCycle,
    /// `A002` — a saturated resource class: the class whose utilization
    /// binds the kernel length under the given spec (and schedule, when
    /// one is analyzed).
    SaturatedClass,
    /// `A003` — the register-pressure peak: the kernel step holding the
    /// maximum number of simultaneously live values.
    RegisterPressurePeak,
    /// `A004` — the deepest zero-delay chain in the graph (the
    /// combinational critical path under the current retiming).
    DeepestChain,
    /// `A005` — which lower bound binds the schedule: the recurrence
    /// bound (critical cycle) or the resource bound (saturated class).
    BindingConstraint,
}

impl Code {
    /// The stable textual code, e.g. `"E001"`.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::ZeroDelayCycle => "E001",
            Code::ZeroTimeNode => "E002",
            Code::OverflowHazard => "E003",
            Code::UnboundOp => "E004",
            Code::EmptyClass => "E005",
            Code::MalformedInput => "E006",
            Code::IllegalRetiming => "E007",
            Code::IsolatedNode => "W001",
            Code::DeadEndNode => "W002",
            Code::ChainDepthHazard => "W003",
            Code::UnusedClass => "W004",
            Code::BoundaryCrossingOp => "W005",
            Code::UnnormalizedRetiming => "W006",
            Code::Unscheduled => "E101",
            Code::InvalidStart => "E102",
            Code::CertIllegalRetiming => "E103",
            Code::PrecedenceViolation => "E104",
            Code::ResourceOverflow => "E105",
            Code::StartPastKernel => "E107",
            Code::TailTooLong => "E108",
            Code::WrapPrecedenceViolation => "E109",
            Code::ExecutionMultiplicity => "E110",
            Code::UnrolledPrecedenceViolation => "E111",
            Code::UnrolledResourceOverflow => "E112",
            Code::LengthClaimMismatch => "E113",
            Code::ForgedOptimality => "E114",
            Code::ScoreClaimMismatch => "E115",
            Code::CriticalCycle => "A001",
            Code::SaturatedClass => "A002",
            Code::RegisterPressurePeak => "A003",
            Code::DeepestChain => "A004",
            Code::BindingConstraint => "A005",
        }
    }

    /// The severity implied by the code (`E` = error, `W` = warning,
    /// `A` = informational analysis finding).
    #[must_use]
    pub const fn severity(self) -> Severity {
        match self.as_str().as_bytes()[0] {
            b'W' => Severity::Warning,
            b'A' => Severity::Info,
            _ => Severity::Error,
        }
    }

    /// A stable one-line summary of the condition, suitable for a code
    /// reference table.
    #[must_use]
    pub const fn summary(self) -> &'static str {
        match self {
            Code::ZeroDelayCycle => "cycle of zero-delay edges",
            Code::ZeroTimeNode => "node with zero computation time",
            Code::OverflowHazard => "delay or time large enough to saturate arithmetic",
            Code::UnboundOp => "operation with no resource class",
            Code::EmptyClass => "operations bound to a zero-unit class",
            Code::MalformedInput => "reference to a nonexistent graph element",
            Code::IllegalRetiming => "retiming with a negative retimed delay",
            Code::IsolatedNode => "node with no edges",
            Code::DeadEndNode => "node whose result is never consumed",
            Code::ChainDepthHazard => "zero-delay chain deeper than the limit",
            Code::UnusedClass => "resource class executing no operation of the graph",
            Code::BoundaryCrossingOp => "operation longer than the recurrence bound",
            Code::UnnormalizedRetiming => "retiming with nonzero minimum",
            Code::Unscheduled => "node missing from the schedule",
            Code::InvalidStart => "start step outside 1-based range",
            Code::CertIllegalRetiming => "certificate retiming is illegal",
            Code::PrecedenceViolation => "zero-delay precedence violated",
            Code::ResourceOverflow => "reservation replay over-subscribes a class",
            Code::StartPastKernel => "node starts past the kernel boundary",
            Code::TailTooLong => "tail spans more than two kernel instances",
            Code::WrapPrecedenceViolation => "one-delay consumer starts inside a wrapped tail",
            Code::ExecutionMultiplicity => "expanded loop misses or repeats an execution",
            Code::UnrolledPrecedenceViolation => "unrolled-loop dependency violated",
            Code::UnrolledResourceOverflow => "unrolled-loop step over-subscribes a class",
            Code::LengthClaimMismatch => "claimed length differs from the certified kernel",
            Code::ForgedOptimality => "optimality claim unsupported by any bound",
            Code::ScoreClaimMismatch => "claimed score component differs from the re-derived value",
            Code::CriticalCycle => "cycle achieving the maximum time-to-delay ratio",
            Code::SaturatedClass => "resource class whose utilization binds the kernel",
            Code::RegisterPressurePeak => "kernel step with the most simultaneously live values",
            Code::DeepestChain => "deepest zero-delay chain under the current retiming",
            Code::BindingConstraint => "which lower bound limits the schedule length",
        }
    }

    /// Every code, in code order. The reference table the documentation
    /// and the JSON schema tests iterate.
    pub const ALL: [Code; 32] = [
        Code::ZeroDelayCycle,
        Code::ZeroTimeNode,
        Code::OverflowHazard,
        Code::UnboundOp,
        Code::EmptyClass,
        Code::MalformedInput,
        Code::IllegalRetiming,
        Code::IsolatedNode,
        Code::DeadEndNode,
        Code::ChainDepthHazard,
        Code::UnusedClass,
        Code::BoundaryCrossingOp,
        Code::UnnormalizedRetiming,
        Code::Unscheduled,
        Code::InvalidStart,
        Code::CertIllegalRetiming,
        Code::PrecedenceViolation,
        Code::ResourceOverflow,
        Code::StartPastKernel,
        Code::TailTooLong,
        Code::WrapPrecedenceViolation,
        Code::ExecutionMultiplicity,
        Code::UnrolledPrecedenceViolation,
        Code::UnrolledResourceOverflow,
        Code::LengthClaimMismatch,
        Code::ForgedOptimality,
        Code::ScoreClaimMismatch,
        Code::CriticalCycle,
        Code::SaturatedClass,
        Code::RegisterPressurePeak,
        Code::DeepestChain,
        Code::BindingConstraint,
    ];
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The input or schedule is unusable as-is.
    Error,
    /// Suspicious but not fatal; the scheduler will still run.
    Warning,
    /// An extracted fact, not a problem (analysis findings).
    Info,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The graph element a diagnostic points at.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Locus {
    /// The whole input (no single element at fault).
    Graph,
    /// One node.
    Node(NodeId),
    /// One edge, identified by its endpoints (parallel edges share a
    /// locus; the message disambiguates).
    Edge {
        /// Producer endpoint.
        from: NodeId,
        /// Consumer endpoint.
        to: NodeId,
    },
    /// One control step of the kernel (reservation-replay findings).
    Step(u32),
    /// One absolute control step of the expanded loop (may be
    /// non-positive during the prologue).
    AbsoluteStep(i64),
    /// One resource class, by name.
    Class(String),
}

/// One structured finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// What the finding points at.
    pub locus: Locus,
    /// Human-readable explanation with concrete values.
    pub message: String,
    /// A suggested fix, when one is mechanical.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a hint.
    #[must_use]
    pub fn new(code: Code, locus: Locus, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            locus,
            message: message.into(),
            hint: None,
        }
    }

    /// Attaches a fix hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// The severity derived from the code.
    #[must_use]
    pub const fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the locus with human-readable node names from `dfg`.
    #[must_use]
    pub fn locus_text(&self, dfg: &Dfg) -> String {
        match &self.locus {
            Locus::Graph => "graph".to_owned(),
            Locus::Node(v) => format!("node {}", node_label(dfg, *v)),
            Locus::Edge { from, to } => format!(
                "edge {} -> {}",
                node_label(dfg, *from),
                node_label(dfg, *to)
            ),
            Locus::Step(cs) => format!("control step {cs}"),
            Locus::AbsoluteStep(t) => format!("absolute step {t}"),
            Locus::Class(name) => format!("class {name}"),
        }
    }

    /// One text line: `E001 error [locus] message (hint: ...)`.
    #[must_use]
    pub fn render_text(&self, dfg: &Dfg) -> String {
        let mut line = format!(
            "{} {} [{}] {}",
            self.code,
            self.severity(),
            self.locus_text(dfg),
            self.message
        );
        if let Some(hint) = &self.hint {
            line.push_str(&format!(" (hint: {hint})"));
        }
        line
    }

    /// One JSON object with a fixed key order:
    /// `{"code":…,"severity":…,"locus":…,"message":…,"hint":…}`.
    /// The output is byte-stable for equal inputs.
    #[must_use]
    pub fn render_json(&self, dfg: &Dfg) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"code\":\"{}\"", self.code));
        out.push_str(&format!(",\"severity\":\"{}\"", self.severity()));
        out.push_str(",\"locus\":");
        match &self.locus {
            Locus::Graph => out.push_str("{\"kind\":\"graph\"}"),
            Locus::Node(v) => {
                out.push_str(&format!(
                    "{{\"kind\":\"node\",\"index\":{},\"name\":",
                    v.index()
                ));
                push_json_string(&mut out, dfg.node(*v).name());
                out.push('}');
            }
            Locus::Edge { from, to } => {
                out.push_str("{\"kind\":\"edge\",\"from\":");
                push_json_string(&mut out, dfg.node(*from).name());
                out.push_str(",\"to\":");
                push_json_string(&mut out, dfg.node(*to).name());
                out.push('}');
            }
            Locus::Step(cs) => out.push_str(&format!("{{\"kind\":\"step\",\"cs\":{cs}}}")),
            Locus::AbsoluteStep(t) => {
                out.push_str(&format!("{{\"kind\":\"absolute-step\",\"t\":{t}}}"));
            }
            Locus::Class(name) => {
                out.push_str("{\"kind\":\"class\",\"name\":");
                push_json_string(&mut out, name);
                out.push('}');
            }
        }
        out.push_str(",\"message\":");
        push_json_string(&mut out, &self.message);
        out.push_str(",\"hint\":");
        match &self.hint {
            Some(hint) => push_json_string(&mut out, hint),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// `name` when it is unique enough, otherwise `name#index`.
fn node_label(dfg: &Dfg, v: NodeId) -> String {
    format!("{}#{}", dfg.node(v).name(), v.index())
}

/// Renders a diagnostic list as one stable JSON array (sorted by the
/// caller; this function preserves order).
#[must_use]
pub fn render_json_array(diags: &[Diagnostic], dfg: &Dfg) -> String {
    let items: Vec<String> = diags.iter().map(|d| d.render_json(dfg)).collect();
    format!("[{}]", items.join(","))
}

/// Sorts diagnostics into the canonical report order: errors before
/// warnings before info, then by code, then by locus, then by message
/// and hint. The full key makes the order a function of the finding
/// *set* alone — independent of pass registration order — so rendered
/// reports are byte-stable however the findings were produced.
pub fn sort_canonical(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.severity(), a.code, &a.locus, &a.message, &a.hint).cmp(&(
            b.severity(),
            b.code,
            &b.locus,
            &b.message,
            &b.hint,
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    fn graph() -> Dfg {
        let mut g = Dfg::new("g");
        g.add_node("a", OpKind::Add, 1);
        g.add_node("b", OpKind::Mul, 2);
        g
    }

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for code in Code::ALL {
            let s = code.as_str();
            assert!(seen.insert(s), "duplicate code {s}");
            assert_eq!(s.len(), 4);
            assert!(s.starts_with('E') || s.starts_with('W') || s.starts_with('A'));
            assert!(s[1..].chars().all(|c| c.is_ascii_digit()));
            assert!(!code.summary().is_empty());
        }
    }

    #[test]
    fn severity_follows_the_code_letter() {
        assert_eq!(Code::ZeroDelayCycle.severity(), Severity::Error);
        assert_eq!(Code::IsolatedNode.severity(), Severity::Warning);
        assert_eq!(Code::CriticalCycle.severity(), Severity::Info);
    }

    #[test]
    fn canonical_sort_is_total_on_equal_loci() {
        // Two findings with the same (severity, code, locus) still have
        // a deterministic order: the message tie-breaks.
        let mk = |msg: &str| Diagnostic::new(Code::CriticalCycle, Locus::Graph, msg);
        let mut a = vec![mk("beta"), mk("alpha")];
        let mut b = vec![mk("alpha"), mk("beta")];
        sort_canonical(&mut a);
        sort_canonical(&mut b);
        assert_eq!(a, b);
        assert_eq!(a[0].message, "alpha");
    }

    #[test]
    fn json_is_escaped_and_ordered() {
        let g = graph();
        let d = Diagnostic::new(
            Code::ZeroTimeNode,
            Locus::Node(NodeId::from_index(0)),
            "has \"zero\" time",
        )
        .with_hint("set time >= 1");
        let json = d.render_json(&g);
        assert!(json.starts_with("{\"code\":\"E002\",\"severity\":\"error\",\"locus\":"));
        assert!(json.contains("\\\"zero\\\""));
        assert!(json.contains("\"hint\":\"set time >= 1\""));
    }

    #[test]
    fn canonical_sort_puts_errors_first() {
        let mut diags = vec![
            Diagnostic::new(Code::IsolatedNode, Locus::Node(NodeId::from_index(1)), "w"),
            Diagnostic::new(Code::ZeroTimeNode, Locus::Node(NodeId::from_index(0)), "e"),
        ];
        sort_canonical(&mut diags);
        assert_eq!(diags[0].code, Code::ZeroTimeNode);
    }

    #[test]
    fn text_rendering_names_the_locus() {
        let g = graph();
        let d = Diagnostic::new(
            Code::DeadEndNode,
            Locus::Node(NodeId::from_index(1)),
            "never consumed",
        );
        let text = d.render_text(&g);
        assert!(text.contains("W002 warning [node b#1]"), "{text}");
    }
}
