//! The wire form of a [`ProblemSpec`] — the serve protocol's request
//! payload, and the derivation of warm-path cache keys from it.
//!
//! A problem travels as a small line-oriented text document: the graph
//! in the [`rotsched_dfg::text`] format, followed by directives for the
//! resource allocation, the list-scheduling policy, the heuristic
//! configuration, the solve objective (omitted for the default
//! length-only objective, keeping pre-objective payloads and cache
//! keys byte-identical), and the solve budget:
//!
//! ```text
//! dfg my-loop
//! node m mul 2
//! node a add 1
//! edge m a 0
//! edge a m 1
//! resource adder 2 non-pipelined add sub cmp shl other
//! resource multiplier 2 non-pipelined mul div
//! policy descendant-count
//! config rotations-per-phase 32
//! config max-size none
//! config keep-best 16
//! config rounds 4
//! budget deadline-ms 100
//! budget max-rotations 100000
//! ```
//!
//! Every directive is optional: a payload that is nothing but a graph
//! solves under [`ProblemSpec::new`]'s defaults (the CLI's `2A 2M`
//! resource allocation, descendant-count priorities, the standard
//! Heuristic-2 sweep, an unlimited budget).
//!
//! ## Round-trip guarantee
//!
//! [`parse_problem`] inverts [`render_problem`]:
//! `parse_problem(&render_problem(&spec)) == spec` for every spec whose
//! node, graph, and resource-class names are whitespace-free and whose
//! budget carries no [`CancelToken`](crate::CancelToken) (tokens are
//! process-local flags and have no wire form). The `wire_roundtrip`
//! suite enforces this over a seeded corpus.
//!
//! ## Cache keys
//!
//! [`cache_key_text`] is the canonical budget-free rendering of a spec:
//! two requests get the same key exactly when they describe the same
//! graph (including names — responses render names, so distinct names
//! must never share a cached response), resource allocation, policy,
//! and heuristic configuration, regardless of how the client formatted
//! the payload. [`cache_fingerprint`] hashes that text with
//! [`fingerprint_text`] for sharding and prefiltering; exact-text
//! comparison on the full key makes a fingerprint collision cost a
//! string compare, never a wrong reuse.
//!
//! A key is a fixed point of the wire format: for every key `K`,
//! `cache_key_text(&parse_problem(K)?) == K`, and `K` carries no budget
//! line, so it parses with an unlimited budget. This is load-bearing:
//! the serve tier looks a request's raw problem text up as a key
//! *before* parsing it, and the fixed point is what makes that hit the
//! same entry the parsed path would. The `wire_roundtrip` suite
//! enforces it over seeded corpora.

use core::fmt;
use core::fmt::Write as _;
use core::time::Duration;

use rotsched_dfg::text::{self, ParseDfgError};
use rotsched_sched::{PriorityPolicy, ResourceClass, ResourceSet};

use crate::budget::Budget;
use crate::heuristics::HeuristicConfig;
use crate::objective::Objective;
use crate::scheduler::ProblemSpec;

/// Error produced when parsing the wire form of a problem.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// A directive line was malformed.
    Syntax {
        /// 1-based line number within the payload.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The embedded graph failed to parse or validate.
    Dfg(ParseDfgError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            WireError::Dfg(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Dfg(e) => Some(e),
            WireError::Syntax { .. } => None,
        }
    }
}

impl From<ParseDfgError> for WireError {
    fn from(e: ParseDfgError) -> Self {
        WireError::Dfg(e)
    }
}

/// The stable wire mnemonic of a priority policy.
#[must_use]
pub fn policy_mnemonic(policy: PriorityPolicy) -> &'static str {
    match policy {
        PriorityPolicy::DescendantCount => "descendant-count",
        PriorityPolicy::PathHeight => "path-height",
        PriorityPolicy::Mobility => "mobility",
        PriorityPolicy::InputOrder => "input-order",
        // `PriorityPolicy` is non-exhaustive; a policy added without a
        // mnemonic must fail loudly rather than silently alias another.
        _ => unimplemented!("policy without a wire mnemonic"),
    }
}

fn policy_from_mnemonic(s: &str) -> Option<PriorityPolicy> {
    Some(match s {
        "descendant-count" => PriorityPolicy::DescendantCount,
        "path-height" => PriorityPolicy::PathHeight,
        "mobility" => PriorityPolicy::Mobility,
        "input-order" => PriorityPolicy::InputOrder,
        _ => return None,
    })
}

/// Names may not contain whitespace in the format; replace offenders.
fn sanitize(name: &str) -> String {
    name.split_whitespace().collect::<Vec<_>>().join("_")
}

fn render_directives(out: &mut String, spec: &ProblemSpec, include_budget: bool) {
    for class in spec.resources.classes() {
        let _ = write!(
            out,
            "resource {} {} {}",
            sanitize(class.name()),
            class.count(),
            if class.is_pipelined() {
                "pipelined"
            } else {
                "non-pipelined"
            }
        );
        for op in class.ops() {
            let _ = write!(out, " {}", op.mnemonic());
        }
        out.push('\n');
    }
    let _ = writeln!(out, "policy {}", policy_mnemonic(spec.policy));
    let _ = writeln!(
        out,
        "config rotations-per-phase {}",
        spec.config.rotations_per_phase
    );
    match spec.config.max_size {
        Some(beta) => {
            let _ = writeln!(out, "config max-size {beta}");
        }
        None => {
            let _ = writeln!(out, "config max-size none");
        }
    }
    let _ = writeln!(out, "config keep-best {}", spec.config.keep_best);
    let _ = writeln!(out, "config rounds {}", spec.config.rounds);
    // The default length-only objective is rendered implicitly: payloads
    // and cache keys from pre-objective clients stay byte-identical.
    if spec.objective != Objective::Length {
        let _ = writeln!(out, "objective {}", spec.objective.mnemonic());
    }
    if include_budget {
        if let Some(deadline) = spec.budget.deadline() {
            // Whole milliseconds render as the human-friendly unit; any
            // finer deadline falls back to nanoseconds so the value
            // round-trips exactly.
            let nanos = deadline.as_nanos();
            if nanos % 1_000_000 == 0 {
                let _ = writeln!(out, "budget deadline-ms {}", nanos / 1_000_000);
            } else {
                let _ = writeln!(out, "budget deadline-ns {nanos}");
            }
        }
        if let Some(max) = spec.budget.max_rotations() {
            let _ = writeln!(out, "budget max-rotations {max}");
        }
    }
}

/// Serializes a problem in the wire format; [`parse_problem`] inverts
/// this. Cancel tokens are process-local and are not rendered.
#[must_use]
pub fn render_problem(spec: &ProblemSpec) -> String {
    let mut out = text::to_text(&spec.dfg);
    render_directives(&mut out, spec, true);
    out
}

/// The canonical cache key of a problem: its wire rendering *minus the
/// budget directives*, re-rendered from the parsed spec so client
/// formatting (comments, blank lines, directive order) never splits
/// identical problems across cache entries. Budgets are excluded
/// because a budget never changes what the canonical answer *is* — only
/// whether one request's search ran long enough to find it.
#[must_use]
pub fn cache_key_text(spec: &ProblemSpec) -> String {
    let mut out = text::to_text(&spec.dfg);
    render_directives(&mut out, spec, false);
    out
}

/// The [`fingerprint_text`] of [`cache_key_text`], for shard selection
/// and probe prefiltering. Collisions are harmless as long as the
/// consumer confirms with an exact comparison of the full key text.
#[must_use]
pub fn cache_fingerprint(spec: &ProblemSpec) -> u64 {
    fingerprint_text(&cache_key_text(spec))
}

/// The 64-bit hash of arbitrary key text (what [`cache_fingerprint`]
/// applies to [`cache_key_text`]). It absorbs eight bytes per step —
/// little-endian words, the zero-padded tail last, seeded with the
/// length — and ends in the splitmix64 finalizer, so the low bits that
/// pick a cache shard depend on every byte. Deterministic across runs
/// and platforms; not collision-resistant against adversaries, which
/// the exact key comparison makes harmless.
#[must_use]
pub fn fingerprint_text(key: &str) -> u64 {
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    let mut words = key.as_bytes().chunks_exact(8);
    let mut h = (&mut words).fold(key.len() as u64, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    let mut tail = [0_u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(tail));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Parses a problem from the wire format.
///
/// Graph lines (`dfg`/`node`/`edge`, plus comments and blank lines) are
/// delegated to [`rotsched_dfg::text::parse`] with directive lines
/// blanked out in place, so its error line numbers match the original
/// payload.
///
/// # Errors
///
/// [`WireError::Syntax`] for malformed directive lines (with the line
/// number), [`WireError::Dfg`] when the embedded graph is rejected.
pub fn parse_problem(input: &str) -> Result<ProblemSpec, WireError> {
    let syntax = |line: usize, message: String| WireError::Syntax { line, message };

    let mut graph_text = String::with_capacity(input.len());
    let mut classes: Vec<ResourceClass> = Vec::new();
    let mut policy = PriorityPolicy::default();
    let mut config = HeuristicConfig::default();
    let mut objective = Objective::default();
    let mut budget = Budget::unlimited();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let fields: Vec<&str> = raw.split_whitespace().collect();
        let directive = fields.first().copied().unwrap_or("");
        match directive {
            "resource" => {
                if fields.len() < 4 {
                    return Err(syntax(
                        line_no,
                        "expected `resource <name> <count> <pipelined|non-pipelined> <op>...`"
                            .to_owned(),
                    ));
                }
                let count: u32 = fields[2]
                    .parse()
                    .map_err(|_| syntax(line_no, "count must be a non-negative integer".into()))?;
                let pipelined = match fields[3] {
                    "pipelined" => true,
                    "non-pipelined" => false,
                    other => {
                        return Err(syntax(
                            line_no,
                            format!("expected `pipelined` or `non-pipelined`, got `{other}`"),
                        ))
                    }
                };
                let mut ops = Vec::with_capacity(fields.len() - 4);
                for op in &fields[4..] {
                    ops.push(op.parse().map_err(|e| syntax(line_no, format!("{e}")))?);
                }
                classes.push(ResourceClass::new(fields[1], count, ops, pipelined));
            }
            "policy" => {
                if fields.len() != 2 {
                    return Err(syntax(line_no, "expected `policy <mnemonic>`".to_owned()));
                }
                policy = policy_from_mnemonic(fields[1])
                    .ok_or_else(|| syntax(line_no, format!("unknown policy `{}`", fields[1])))?;
            }
            "config" => {
                if fields.len() != 3 {
                    return Err(syntax(
                        line_no,
                        "expected `config <knob> <value>`".to_owned(),
                    ));
                }
                let value = fields[2];
                let number = |what: &str| {
                    value.parse::<usize>().map_err(|_| {
                        syntax(line_no, format!("{what} must be a non-negative integer"))
                    })
                };
                match fields[1] {
                    "rotations-per-phase" => {
                        config.rotations_per_phase = number("rotations-per-phase")?;
                    }
                    "max-size" => {
                        config.max_size = if value == "none" {
                            None
                        } else {
                            Some(value.parse().map_err(|_| {
                                syntax(line_no, "max-size must be `none` or an integer".into())
                            })?)
                        };
                    }
                    "keep-best" => config.keep_best = number("keep-best")?,
                    "rounds" => config.rounds = number("rounds")?,
                    other => return Err(syntax(line_no, format!("unknown config knob `{other}`"))),
                }
            }
            "objective" => {
                if fields.len() != 2 {
                    return Err(syntax(
                        line_no,
                        "expected `objective <mnemonic>`".to_owned(),
                    ));
                }
                objective = Objective::parse(fields[1])
                    .ok_or_else(|| syntax(line_no, format!("unknown objective `{}`", fields[1])))?;
            }
            "budget" => {
                if fields.len() != 3 {
                    return Err(syntax(
                        line_no,
                        "expected `budget <limit> <value>`".to_owned(),
                    ));
                }
                let value: u64 = fields[2].parse().map_err(|_| {
                    syntax(
                        line_no,
                        "budget value must be a non-negative integer".into(),
                    )
                })?;
                budget = match fields[1] {
                    "deadline-ms" => budget.with_deadline(Duration::from_millis(value)),
                    "deadline-ns" => budget.with_deadline(Duration::from_nanos(value)),
                    "max-rotations" => budget.with_max_rotations(value),
                    other => {
                        return Err(syntax(line_no, format!("unknown budget limit `{other}`")))
                    }
                };
            }
            // Graph lines, comments, and blanks go to the graph parser;
            // directive lines are blanked to keep line numbers aligned.
            _ => graph_text.push_str(raw),
        }
        graph_text.push('\n');
    }

    let dfg = text::parse(&graph_text)?;
    let resources = if classes.is_empty() {
        ResourceSet::adders_multipliers(2, 2, false)
    } else {
        ResourceSet::new(classes)
    };
    Ok(ProblemSpec {
        dfg,
        resources,
        policy,
        config,
        objective,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn sample_spec() -> ProblemSpec {
        let g = DfgBuilder::new("ring")
            .nodes("v", 4, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3"])
            .edge("v3", "v0", 2)
            .build()
            .unwrap();
        ProblemSpec::new(g, ResourceSet::adders_multipliers(2, 1, true))
            .with_policy(PriorityPolicy::PathHeight)
            .with_config(HeuristicConfig {
                rotations_per_phase: 8,
                max_size: Some(3),
                keep_best: 4,
                rounds: 2,
            })
            .with_budget(Budget::unlimited().with_max_rotations(500))
    }

    #[test]
    fn roundtrip_is_exact() {
        let spec = sample_spec();
        let back = parse_problem(&render_problem(&spec)).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn bare_graph_parses_with_defaults() {
        let spec = parse_problem("dfg g\nnode a add 1\n").unwrap();
        assert_eq!(spec.resources, ResourceSet::adders_multipliers(2, 2, false));
        assert_eq!(spec.policy, PriorityPolicy::default());
        assert_eq!(spec.config, HeuristicConfig::default());
        assert!(spec.budget.is_unlimited());
    }

    #[test]
    fn cache_key_excludes_budget() {
        let spec = sample_spec();
        let mut unlimited = spec.clone();
        unlimited.budget = Budget::unlimited();
        assert_eq!(cache_key_text(&spec), cache_key_text(&unlimited));
        assert_eq!(cache_fingerprint(&spec), cache_fingerprint(&unlimited));
        assert_ne!(render_problem(&spec), render_problem(&unlimited));
    }

    #[test]
    fn cache_key_is_canonical_over_formatting() {
        let spec = sample_spec();
        let noisy = format!("# a comment\n\n{}", render_problem(&spec));
        let reparsed = parse_problem(&noisy).unwrap();
        assert_eq!(cache_key_text(&reparsed), cache_key_text(&spec));
    }

    #[test]
    fn objective_directive_roundtrips_and_defaults_render_nothing() {
        let spec = sample_spec();
        assert!(
            !render_problem(&spec).contains("objective"),
            "the default objective must keep pre-objective payload bytes"
        );
        for objective in Objective::ALL {
            let multi = spec.clone().with_objective(objective);
            let back = parse_problem(&render_problem(&multi)).unwrap();
            assert_eq!(back, multi);
        }
    }

    #[test]
    fn cache_key_distinguishes_objectives() {
        let spec = sample_spec();
        let regs = spec.clone().with_objective(Objective::LengthRegs);
        assert_ne!(cache_key_text(&spec), cache_key_text(&regs));
        assert_ne!(cache_fingerprint(&spec), cache_fingerprint(&regs));
    }

    #[test]
    fn sub_millisecond_deadlines_roundtrip() {
        let mut spec = sample_spec();
        spec.budget = Budget::unlimited().with_deadline(Duration::from_micros(1500));
        let back = parse_problem(&render_problem(&spec)).unwrap();
        assert_eq!(back.budget.deadline(), Some(Duration::from_micros(1500)));
    }

    #[test]
    fn directive_errors_carry_line_numbers() {
        let err = parse_problem("dfg g\nnode a add 1\npolicy frobnicate\n").unwrap_err();
        assert_eq!(
            err,
            WireError::Syntax {
                line: 3,
                message: "unknown policy `frobnicate`".into()
            }
        );
    }

    #[test]
    fn graph_errors_keep_original_line_numbers() {
        let err = parse_problem("policy mobility\ndfg g\nnode a add\n").unwrap_err();
        match err {
            WireError::Dfg(ParseDfgError::Syntax { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected graph syntax error, got {other}"),
        }
    }
}
