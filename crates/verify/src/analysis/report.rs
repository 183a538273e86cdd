//! The [`AnalysisReport`]: every pass's section plus the combined
//! findings, with text and byte-stable JSON renderings.
//!
//! The JSON discipline matches the trace layer (`rotsched-trace-v1`):
//! hand-rolled, fixed key order, no floats (ratios are exact
//! numerator/denominator pairs, utilizations are integer permille), so
//! equal inputs produce byte-identical output on every platform. The
//! schema string is `rotsched-analysis-v1`; key order is frozen —
//! fields are only ever appended.
//!
//! Sections always render in schema order regardless of the order the
//! passes ran in; absent sections render as `null` (a pass bailed on a
//! degenerate input) rather than being omitted, so consumers can
//! distinguish "not computed" from "schema too old".

use rotsched_dfg::json::push_json_string;
use rotsched_dfg::{Dfg, NodeId};

use crate::diag::{render_json_array, Diagnostic, Severity};

/// An exact non-negative rational in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RatioU64 {
    /// Numerator.
    pub num: u64,
    /// Denominator (never 0).
    pub den: u64,
}

impl RatioU64 {
    /// Builds the reduced form of `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is 0.
    #[must_use]
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "ratio denominator must be nonzero");
        let g = gcd(num.max(1), den);
        RatioU64 {
            num: num / g,
            den: den / g,
        }
    }

    /// The ceiling `⌈num / den⌉`.
    #[must_use]
    pub fn ceil(self) -> u64 {
        self.num.div_ceil(self.den)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// The critical-cycle pass's section: the cycle achieving the maximum
/// time-to-delay ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalCycleSection {
    /// The cycle's nodes in traversal order, starting at its smallest
    /// node index.
    pub nodes: Vec<u32>,
    /// The cycle's edges as `(from, to)` node-index pairs, parallel to
    /// `nodes` (edge `i` leaves `nodes[i]`).
    pub edges: Vec<(u32, u32)>,
    /// Total computation time `T(C)` around the cycle.
    pub total_time: u64,
    /// Total (retimed) delay count `D(C)` around the cycle.
    pub total_delays: u64,
    /// The maximum cycle ratio `max_C T(C)/D(C)`, exact and reduced.
    pub ratio: RatioU64,
    /// `max(1, ⌈ratio⌉)` — the iteration bound as a kernel length (a
    /// cycle of zero-time ops still needs a one-step kernel).
    pub iteration_bound: u64,
}

/// One resource class's row in the saturation profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassProfile {
    /// Class name.
    pub name: String,
    /// Units allocated.
    pub units: u32,
    /// Total computation-time demand of the operations bound to the
    /// class (one step per operation for pipelined classes).
    pub occupancy: u64,
    /// The class's lower bound on the kernel length, `⌈occupancy /
    /// units⌉` (0 when the class has no units or no demand).
    pub bound: u64,
    /// Used-slot share of `kernel_length × units`, in permille
    /// (`None` without a schedule or for zero-unit classes).
    pub utilization_permille: Option<u32>,
    /// Kernel steps where every unit is busy (`None` without a
    /// schedule or for zero-unit classes).
    pub saturated_steps: Option<u32>,
}

/// The resource-saturation pass's section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SaturationSection {
    /// The profiled kernel length (`None` when analyzing statically).
    pub kernel_length: Option<u32>,
    /// The binding class: the one with the largest lower bound (ties
    /// to the first by spec order), when any class binds at all.
    pub binding_class: Option<String>,
    /// The independent recurrence bound (`None` on zero-delay-cycle
    /// inputs), for the recurrence-vs-resource comparison.
    pub recurrence_bound: Option<u32>,
    /// Per-class profiles, in spec order.
    pub classes: Vec<ClassProfile>,
}

/// One candidate rotation and its register-pressure delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CandidateDelta {
    /// The candidate node's index.
    pub node: u32,
    /// The change in the static register count (`Σ d_r`) rotating the
    /// node alone would cause: out-degree minus in-degree, self-loops
    /// excluded.
    pub delta: i64,
}

/// The lifetime / register-pressure pass's section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PressureSection {
    /// `Σ_e max(d_r(e), 0)` — the registers the current retiming
    /// implies, counting each fanout edge separately (an upper bound
    /// on shared-register implementations).
    pub static_registers: u64,
    /// Maximum simultaneously live values over the kernel steps
    /// (`None` without a complete schedule).
    pub max_live: Option<u64>,
    /// First kernel step (1-based) achieving `max_live`.
    pub peak_step: Option<u32>,
    /// The static-register delta of rotating the whole candidate set
    /// at once (`None` without a schedule).
    pub rotation_set_delta: Option<i64>,
    /// Candidate rotations in node-index order: the first control
    /// step's nodes when a schedule is given, otherwise every
    /// down-rotatable singleton.
    pub candidates: Vec<CandidateDelta>,
}

/// The zero-delay chain-depth pass's section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSection {
    /// The deepest zero-delay chain, in total computation time — the
    /// retimed graph's critical path.
    pub max_depth: u64,
    /// The node the deepest chain ends at (smallest index on ties);
    /// `None` only for empty graphs.
    pub tail: Option<u32>,
    /// `(depth, node count)` pairs, ascending by depth: how many nodes
    /// terminate a chain of each depth.
    pub histogram: Vec<(u64, u32)>,
}

/// The full analysis report: one optional section per pass, the lint
/// findings for the same input, and the analysis findings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The analyzed graph's name.
    pub graph: String,
    /// The analyzed graph's structure fingerprint.
    pub fingerprint: u64,
    /// Node count.
    pub nodes: u32,
    /// Edge count.
    pub edges: u32,
    /// Whether the graph has any cycle at all.
    pub acyclic: bool,
    /// The critical-cycle section (`None` when acyclic or degenerate).
    pub critical_cycle: Option<CriticalCycleSection>,
    /// The resource-saturation section.
    pub saturation: Option<SaturationSection>,
    /// The register-pressure section (`None` under an illegal
    /// retiming).
    pub pressure: Option<PressureSection>,
    /// The chain-depth section (`None` when a zero-delay cycle makes
    /// depth infinite).
    pub chains: Option<ChainSection>,
    /// The lint engine's findings for the same input.
    pub lints: Vec<Diagnostic>,
    /// The analysis findings (`A0xx`), in canonical order.
    pub findings: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report for `dfg`, to be filled by the passes.
    #[must_use]
    pub fn new(dfg: &Dfg) -> Self {
        AnalysisReport {
            graph: dfg.name().to_owned(),
            fingerprint: dfg.structure_fingerprint(),
            nodes: dfg.node_count() as u32,
            edges: dfg.edge_count() as u32,
            acyclic: true,
            critical_cycle: None,
            saturation: None,
            pressure: None,
            chains: None,
            lints: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Whether the lint findings include any error — the input is not
    /// a sane scheduling instance and the sections may be partial.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.lints.iter().any(|d| d.severity() == Severity::Error)
    }

    /// The human-readable multi-line rendering.
    #[must_use]
    pub fn render_text(&self, dfg: &Dfg) -> String {
        let label = |i: u32| {
            let v = NodeId::from_index(i as usize);
            format!("{}#{}", dfg.node(v).name(), v.index())
        };
        let mut out = format!(
            "analysis: {} ({} nodes, {} edges)\n",
            self.graph, self.nodes, self.edges
        );
        if let Some(chains) = &self.chains {
            out.push_str(&format!(
                "  critical path: {} control steps{}\n",
                chains.max_depth,
                chains
                    .tail
                    .map_or_else(String::new, |t| format!(" (tail {})", label(t)))
            ));
        }
        match &self.critical_cycle {
            Some(cc) => {
                out.push_str(&format!(
                    "  iteration bound: {} (critical cycle ratio {}/{})\n",
                    cc.iteration_bound, cc.ratio.num, cc.ratio.den
                ));
                let path: Vec<String> = cc.nodes.iter().map(|&v| label(v)).collect();
                out.push_str(&format!(
                    "  critical cycle: {} (T={}, D={})\n",
                    path.join(" -> "),
                    cc.total_time,
                    cc.total_delays
                ));
            }
            None if self.acyclic => {
                out.push_str("  iteration bound: 1 (acyclic)\n");
            }
            None => {}
        }
        if let Some(sat) = &self.saturation {
            let resource_bound = sat.classes.iter().map(|c| c.bound).max().unwrap_or(0);
            let binding = match (&sat.binding_class, sat.recurrence_bound) {
                (Some(class), Some(rb)) => {
                    let verdict = match u64::from(rb).cmp(&resource_bound) {
                        std::cmp::Ordering::Greater => "recurrence".to_owned(),
                        std::cmp::Ordering::Less => format!("resource ({class})"),
                        std::cmp::Ordering::Equal => "tie".to_owned(),
                    };
                    format!(
                        "  recurrence bound: {rb}, resource bound: {resource_bound} -> binding: {verdict}\n"
                    )
                }
                _ => String::new(),
            };
            out.push_str(&binding);
            if !sat.classes.is_empty() {
                out.push_str("  classes:\n");
                for c in &sat.classes {
                    let mut line = format!(
                        "    {}: {} unit(s), occupancy {}, bound {}",
                        c.name, c.units, c.occupancy, c.bound
                    );
                    if let Some(p) = c.utilization_permille {
                        line.push_str(&format!(", utilization {}.{}%", p / 10, p % 10));
                    }
                    if let (Some(s), Some(l)) = (c.saturated_steps, sat.kernel_length) {
                        line.push_str(&format!(", saturated {s}/{l} step(s)"));
                    }
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
        if let Some(p) = &self.pressure {
            let mut line = format!(
                "  register pressure: {} static register(s)",
                p.static_registers
            );
            if let (Some(max), Some(step)) = (p.max_live, p.peak_step) {
                line.push_str(&format!(", max {max} live at step {step}"));
            }
            out.push_str(&line);
            out.push('\n');
            if !p.candidates.is_empty() {
                let cands: Vec<String> = p
                    .candidates
                    .iter()
                    .map(|c| format!("{} (delta {:+})", label(c.node), c.delta))
                    .collect();
                out.push_str(&format!("  rotation candidates: {}\n", cands.join(", ")));
            }
        }
        if let Some(chains) = &self.chains {
            let hist: Vec<String> = chains
                .histogram
                .iter()
                .map(|(d, c)| format!("{d}:{c}"))
                .collect();
            out.push_str(&format!(
                "  zero-delay chains: max depth {}, histogram {}\n",
                chains.max_depth,
                if hist.is_empty() {
                    "-".to_owned()
                } else {
                    hist.join(" ")
                }
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("findings:\n");
            for d in &self.findings {
                out.push_str(&format!("  {}\n", d.render_text(dfg)));
            }
        }
        if !self.lints.is_empty() {
            out.push_str("lints:\n");
            for d in &self.lints {
                out.push_str(&format!("  {}\n", d.render_text(dfg)));
            }
        }
        out
    }

    /// The byte-stable JSON rendering (schema `rotsched-analysis-v1`).
    #[must_use]
    pub fn render_json(&self, dfg: &Dfg) -> String {
        let node_ref = |i: u32| {
            let mut s = format!("{{\"index\":{i},\"name\":");
            push_json_string(&mut s, dfg.node(NodeId::from_index(i as usize)).name());
            s.push('}');
            s
        };
        let mut out = String::from("{\"schema\":\"rotsched-analysis-v1\"");
        out.push_str(",\"graph\":");
        push_json_string(&mut out, &self.graph);
        out.push_str(&format!(",\"fingerprint\":\"{:016x}\"", self.fingerprint));
        out.push_str(&format!(
            ",\"nodes\":{},\"edges\":{}",
            self.nodes, self.edges
        ));
        out.push_str(&format!(",\"acyclic\":{}", self.acyclic));

        out.push_str(",\"critical_cycle\":");
        match &self.critical_cycle {
            None => out.push_str("null"),
            Some(cc) => {
                let nodes: Vec<String> = cc.nodes.iter().map(|&v| node_ref(v)).collect();
                let edges: Vec<String> = cc
                    .edges
                    .iter()
                    .map(|&(f, t)| format!("{{\"from\":{f},\"to\":{t}}}"))
                    .collect();
                out.push_str(&format!(
                    "{{\"nodes\":[{}],\"edges\":[{}],\"total_time\":{},\"total_delays\":{},\"ratio\":{{\"num\":{},\"den\":{}}},\"iteration_bound\":{}}}",
                    nodes.join(","),
                    edges.join(","),
                    cc.total_time,
                    cc.total_delays,
                    cc.ratio.num,
                    cc.ratio.den,
                    cc.iteration_bound,
                ));
            }
        }

        out.push_str(",\"saturation\":");
        match &self.saturation {
            None => out.push_str("null"),
            Some(sat) => {
                let classes: Vec<String> = sat
                    .classes
                    .iter()
                    .map(|c| {
                        let mut s = String::from("{\"name\":");
                        push_json_string(&mut s, &c.name);
                        s.push_str(&format!(
                            ",\"units\":{},\"occupancy\":{},\"bound\":{},\"utilization_permille\":{},\"saturated_steps\":{}}}",
                            c.units,
                            c.occupancy,
                            c.bound,
                            opt_num(c.utilization_permille),
                            opt_num(c.saturated_steps),
                        ));
                        s
                    })
                    .collect();
                out.push_str(&format!(
                    "{{\"kernel_length\":{},\"binding_class\":",
                    opt_num(sat.kernel_length)
                ));
                match sat.binding_class.as_deref() {
                    Some(name) => push_json_string(&mut out, name),
                    None => out.push_str("null"),
                }
                out.push_str(&format!(
                    ",\"recurrence_bound\":{},\"classes\":[{}]}}",
                    opt_num(sat.recurrence_bound),
                    classes.join(","),
                ));
            }
        }

        out.push_str(",\"register_pressure\":");
        match &self.pressure {
            None => out.push_str("null"),
            Some(p) => {
                let cands: Vec<String> = p
                    .candidates
                    .iter()
                    .map(|c| {
                        let mut s = format!("{{\"index\":{},\"name\":", c.node);
                        push_json_string(
                            &mut s,
                            dfg.node(NodeId::from_index(c.node as usize)).name(),
                        );
                        s.push_str(&format!(",\"delta\":{}}}", c.delta));
                        s
                    })
                    .collect();
                out.push_str(&format!(
                    "{{\"static_registers\":{},\"max_live\":{},\"peak_step\":{},\"rotation_set_delta\":{},\"candidates\":[{}]}}",
                    p.static_registers,
                    opt_num(p.max_live),
                    opt_num(p.peak_step),
                    p.rotation_set_delta
                        .map_or_else(|| "null".to_owned(), |d| d.to_string()),
                    cands.join(","),
                ));
            }
        }

        out.push_str(",\"zero_delay_chains\":");
        match &self.chains {
            None => out.push_str("null"),
            Some(chains) => {
                let hist: Vec<String> = chains
                    .histogram
                    .iter()
                    .map(|(d, c)| format!("{{\"depth\":{d},\"count\":{c}}}"))
                    .collect();
                out.push_str(&format!(
                    "{{\"max_depth\":{},\"tail\":{},\"histogram\":[{}]}}",
                    chains.max_depth,
                    chains.tail.map_or_else(|| "null".to_owned(), node_ref),
                    hist.join(","),
                ));
            }
        }

        out.push_str(",\"lints\":");
        out.push_str(&render_json_array(&self.lints, dfg));
        out.push_str(",\"findings\":");
        out.push_str(&render_json_array(&self.findings, dfg));
        out.push('}');
        out
    }
}

fn opt_num<T: core::fmt::Display>(v: Option<T>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    #[test]
    fn ratio_reduces_and_ceils() {
        let r = RatioU64::new(16, 4);
        assert_eq!((r.num, r.den), (4, 1));
        assert_eq!(r.ceil(), 4);
        let r = RatioU64::new(16, 3);
        assert_eq!((r.num, r.den), (16, 3));
        assert_eq!(r.ceil(), 6);
        let r = RatioU64::new(0, 7);
        assert_eq!(r.ceil(), 0);
    }

    #[test]
    fn empty_report_renders_all_sections_null() {
        let g = Dfg::new("empty");
        let report = AnalysisReport::new(&g);
        let json = report.render_json(&g);
        assert!(json.starts_with("{\"schema\":\"rotsched-analysis-v1\""));
        assert!(json.contains("\"critical_cycle\":null"));
        assert!(json.contains("\"saturation\":null"));
        assert!(json.contains("\"register_pressure\":null"));
        assert!(json.contains("\"zero_delay_chains\":null"));
        assert!(json.ends_with("\"lints\":[],\"findings\":[]}"));
    }

    #[test]
    fn graph_name_is_escaped() {
        let g = Dfg::new("we\"ird");
        let report = AnalysisReport::new(&g);
        assert!(report.render_json(&g).contains("\"graph\":\"we\\\"ird\""));
    }

    #[test]
    fn text_rendering_includes_the_cycle_path() {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        let mut report = AnalysisReport::new(&g);
        report.acyclic = false;
        report.critical_cycle = Some(CriticalCycleSection {
            nodes: vec![m.index() as u32, a.index() as u32],
            edges: vec![(0, 1), (1, 0)],
            total_time: 3,
            total_delays: 1,
            ratio: RatioU64::new(3, 1),
            iteration_bound: 3,
        });
        let text = report.render_text(&g);
        assert!(text.contains("iteration bound: 3"));
        assert!(text.contains("critical cycle: m#0 -> a#1 (T=3, D=1)"));
    }
}
