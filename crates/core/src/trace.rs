//! Search tracing: turning [`SearchDriver`](crate::engine::SearchDriver)
//! events into convergence telemetry.
//!
//! [`TraceRecorder`] is a [`SearchObserver`] that aggregates the event
//! stream into per-phase counters (rotations tried, weight-memo cache
//! hits, prunes, improvements) and a best-length trajectory, while
//! keeping a bounded ring of the most recent raw events (older events
//! are dropped and counted, never reallocated). Tracing never steers
//! the search — a traced run returns the bit-identical result of an
//! untraced one — and the untraced path pays nothing: the driver's
//! default [`NoopObserver`](crate::engine::NoopObserver) monomorphizes
//! every emission away.
//!
//! The finished [`SearchTrace`] renders as text (`rotsched solve
//! --trace`) or as canonical JSON (`--trace=json`) with the same
//! hand-rolled, byte-stable discipline as `rotsched-verify`: the output
//! of [`SearchTrace::render_json`] parses back via
//! [`SearchTrace::parse_json`] and re-renders to the identical bytes
//! (enforced in CI).
//!
//! [`SearchObserver`]: crate::engine::SearchObserver

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::budget::StopReason;
use crate::engine::{SearchEvent, SearchObserver};
use crate::objective::Score;
use rotsched_dfg::json;

/// Default event-ring capacity used by the traced solve entry points.
pub const DEFAULT_TRACE_EVENTS: usize = 256;

/// An owned, compact copy of one [`SearchEvent`] as kept in the trace
/// ring. Rotated node sets are recorded by cardinality only — the trace
/// is telemetry, not a replay log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A phase began.
    PhaseStart {
        /// Requested rotation size.
        size: u32,
        /// Rotations the phase was allowed (`α`).
        alpha: u64,
    },
    /// One down-rotation completed.
    Rotated {
        /// How many nodes the rotated set contained.
        nodes: u64,
        /// The wrapped schedule length after the rotation.
        length: u32,
    },
    /// The incumbent best score strictly improved.
    Improved {
        /// The new best length (the score's primary component).
        length: u32,
        /// The full packed score. Under the default length-only
        /// objective this is exactly `Score::from_length(length)` and
        /// the rendered encoding omits it, keeping trace bytes
        /// identical to pre-objective releases.
        score: Score,
    },
    /// An inter-phase `FullSchedule(G_R)` reschedule (Heuristic 2).
    Rescheduled {
        /// The wrapped length of the fresh schedule.
        length: u32,
    },
    /// A prune signal ended the phase or sweep.
    Pruned,
    /// A budget limit fired.
    Stopped(StopReason),
    /// A phase ended.
    PhaseEnd {
        /// Rotations the phase performed.
        rotations: u64,
        /// The incumbent best length at phase end.
        best_length: u32,
        /// Weight-memo hits accumulated by the phase: memo work actually
        /// done, so rotations replayed from the phase's cycle log add
        /// none.
        cache_hits: u64,
        /// Weight-memo misses accumulated by the phase.
        cache_misses: u64,
    },
}

/// Aggregated counters for one rotation phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Requested rotation size.
    pub size: u32,
    /// Rotations the phase was allowed (`α`).
    pub alpha: u64,
    /// Rotations the phase performed, replayed ones included.
    pub rotations: u64,
    /// Weight-memo cache hits in the phase's incremental context. This
    /// counts memo work actually done: a rotation replayed from the
    /// driver's replay log runs no rotation step and adds no hit, so the
    /// count falls with the replays. A phase Heuristic 2 replays whole
    /// builds no context and reports 0.
    pub cache_hits: u64,
    /// Weight-memo cache misses in the phase's incremental context.
    /// Within a phase no miss is replayed (every state past a repeat was
    /// already rotated once), but a phase replayed whole builds no
    /// context and reports 0 where executing it, on a fresh memo,
    /// missed: sweep replay lowers the count.
    pub cache_misses: u64,
    /// Prune-signal stops observed inside the phase.
    pub prunes: u64,
    /// Strict incumbent improvements inside the phase.
    pub improvements: u64,
    /// The incumbent best length when the phase ended.
    pub best_length: u32,
    /// The budget stop recorded inside the phase, if one fired.
    pub stopped: Option<StopReason>,
}

/// The finished trace of one search task (one driver run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskTrace {
    /// Per-phase counters in execution order.
    pub phases: Vec<PhaseCounters>,
    /// The best-length trajectory: `(rotation counter, new best)` at
    /// every strict improvement. The initial offer appears at counter 0.
    pub trajectory: Vec<(u64, u32)>,
    /// Total rotations performed by the task.
    pub rotations: u64,
    /// Total prune-signal stops (including sweep-level ones outside any
    /// phase).
    pub prunes: u64,
    /// The first budget stop observed, if any fired.
    pub stopped: Option<StopReason>,
    /// The most recent raw events, oldest first (bounded ring).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring (capacity overflow).
    pub dropped: u64,
}

impl TaskTrace {
    /// The incumbent best length after exactly `k` rotations: the last
    /// trajectory improvement recorded at a counter `<= k`. `None` only
    /// for a trace that never admitted a schedule.
    ///
    /// For a deterministically budgeted run this equals the best length
    /// a fresh solve under `Budget::with_max_rotations(k)` returns — one
    /// traced run replays the whole degradation table (enforced by the
    /// `trace_determinism` suite).
    #[must_use]
    pub fn best_at_rotation(&self, k: u64) -> Option<u32> {
        self.trajectory
            .iter()
            .take_while(|&&(counter, _)| counter <= k)
            .last()
            .map(|&(_, length)| length)
    }

    /// The final incumbent best length, if any schedule was admitted.
    #[must_use]
    pub fn best_length(&self) -> Option<u32> {
        self.trajectory.last().map(|&(_, length)| length)
    }
}

/// A complete solve trace: one [`TaskTrace`] per deterministic search
/// task.
///
/// For a single-sweep solve there is exactly one task. For a portfolio
/// solve the trace keeps the **deterministic prefix** of the task list:
/// tasks `0..=canonical_task` when the lower bound was achieved, all
/// tasks otherwise — the same rule [`PortfolioOutcome::merged`]'s
/// phases follow. Tasks above the canonical achiever are cross-pruned at
/// timing-dependent points, so their streams are discarded rather than
/// reported; everything kept is identical for every `--jobs` value.
///
/// [`PortfolioOutcome::merged`]: crate::portfolio::PortfolioOutcome::merged
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchTrace {
    /// Per-task traces, in task-index order.
    pub tasks: Vec<TaskTrace>,
}

/// The ring-buffered [`SearchObserver`] behind `rotsched solve --trace`.
///
/// Counters and the trajectory live outside the ring, so they are exact
/// regardless of capacity; only the raw event replay is bounded. A
/// capacity of 0 keeps no raw events (every event counts as dropped).
///
/// [`SearchObserver`]: crate::engine::SearchObserver
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    rotation_counter: u64,
    trajectory: Vec<(u64, u32)>,
    phases: Vec<PhaseCounters>,
    current: Option<PhaseCounters>,
    prunes: u64,
    stopped: Option<StopReason>,
}

impl TraceRecorder {
    /// A fresh recorder keeping at most `capacity` raw events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
            rotation_counter: 0,
            trajectory: Vec::new(),
            phases: Vec::new(),
            current: None,
            prunes: 0,
            stopped: None,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Finishes the recording and returns the assembled task trace.
    #[must_use]
    pub fn finish(self) -> TaskTrace {
        TaskTrace {
            phases: self.phases,
            trajectory: self.trajectory,
            rotations: self.rotation_counter,
            prunes: self.prunes,
            stopped: self.stopped,
            events: self.events.into_iter().collect(),
            dropped: self.dropped,
        }
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(DEFAULT_TRACE_EVENTS)
    }
}

impl SearchObserver for TraceRecorder {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        match event {
            SearchEvent::PhaseStart { size, alpha } => {
                self.current = Some(PhaseCounters {
                    size,
                    alpha: alpha as u64,
                    ..PhaseCounters::default()
                });
                self.push(TraceEvent::PhaseStart {
                    size,
                    alpha: alpha as u64,
                });
            }
            SearchEvent::Rotated { node_set, length } => {
                self.rotation_counter += 1;
                if let Some(c) = self.current.as_mut() {
                    c.rotations += 1;
                }
                self.push(TraceEvent::Rotated {
                    nodes: node_set.len() as u64,
                    length,
                });
            }
            SearchEvent::IncumbentImproved { length, score } => {
                self.trajectory.push((self.rotation_counter, length));
                if let Some(c) = self.current.as_mut() {
                    c.improvements += 1;
                }
                self.push(TraceEvent::Improved { length, score });
            }
            SearchEvent::Rescheduled { length } => {
                self.push(TraceEvent::Rescheduled { length });
            }
            SearchEvent::Pruned => {
                self.prunes += 1;
                if let Some(c) = self.current.as_mut() {
                    c.prunes += 1;
                }
                self.push(TraceEvent::Pruned);
            }
            SearchEvent::Stopped(reason) => {
                if self.stopped.is_none() {
                    self.stopped = Some(reason);
                }
                if let Some(c) = self.current.as_mut() {
                    c.stopped = Some(reason);
                }
                self.push(TraceEvent::Stopped(reason));
            }
            SearchEvent::PhaseEnd {
                rotations,
                best_length,
                cache,
            } => {
                if let Some(mut c) = self.current.take() {
                    c.cache_hits = cache.weight_memo_hits;
                    c.cache_misses = cache.weight_memo_misses;
                    c.best_length = best_length;
                    debug_assert_eq!(c.rotations, rotations as u64);
                    self.phases.push(c);
                }
                self.push(TraceEvent::PhaseEnd {
                    rotations: rotations as u64,
                    best_length,
                    cache_hits: cache.weight_memo_hits,
                    cache_misses: cache.weight_memo_misses,
                });
            }
        }
    }
}

fn stop_reason_str(reason: StopReason) -> &'static str {
    match reason {
        StopReason::Cancelled => "cancelled",
        StopReason::RotationBudget => "rotation-budget",
        StopReason::Deadline => "deadline",
    }
}

fn parse_stop_reason(s: &str) -> Result<StopReason, String> {
    match s {
        "cancelled" => Ok(StopReason::Cancelled),
        "rotation-budget" => Ok(StopReason::RotationBudget),
        "deadline" => Ok(StopReason::Deadline),
        other => Err(format!("unknown stop reason `{other}`")),
    }
}

impl TraceEvent {
    /// The canonical single-token-stream encoding used in JSON (and
    /// inverted by [`TraceEvent::parse`]).
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            TraceEvent::PhaseStart { size, alpha } => {
                format!("phase-start size={size} alpha={alpha}")
            }
            TraceEvent::Rotated { nodes, length } => {
                format!("rotated nodes={nodes} length={length}")
            }
            TraceEvent::Improved { length, score } => {
                if *score == Score::from_length(*length) {
                    format!("improved length={length}")
                } else {
                    format!("improved length={length} score={}", score.to_bits())
                }
            }
            TraceEvent::Rescheduled { length } => format!("rescheduled length={length}"),
            TraceEvent::Pruned => "pruned".to_string(),
            TraceEvent::Stopped(reason) => format!("stopped reason={}", stop_reason_str(*reason)),
            TraceEvent::PhaseEnd {
                rotations,
                best_length,
                cache_hits,
                cache_misses,
            } => format!(
                "phase-end rotations={rotations} best={best_length} hits={cache_hits} misses={cache_misses}"
            ),
        }
    }

    /// Parses the encoding produced by [`TraceEvent::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse(s: &str) -> Result<TraceEvent, String> {
        let mut parts = s.split(' ');
        let head = parts.next().ok_or_else(|| "empty event".to_string())?;
        let mut fields = Vec::new();
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed event field `{part}`"))?;
            fields.push((key, value));
        }
        let field = |name: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("event `{head}` missing field `{name}`"))
        };
        let num_u64 = |name: &str| -> Result<u64, String> {
            field(name)?
                .parse::<u64>()
                .map_err(|_| format!("event `{head}` field `{name}` is not a number"))
        };
        let num_u32 = |name: &str| -> Result<u32, String> {
            field(name)?
                .parse::<u32>()
                .map_err(|_| format!("event `{head}` field `{name}` is not a number"))
        };
        match head {
            "phase-start" => Ok(TraceEvent::PhaseStart {
                size: num_u32("size")?,
                alpha: num_u64("alpha")?,
            }),
            "rotated" => Ok(TraceEvent::Rotated {
                nodes: num_u64("nodes")?,
                length: num_u32("length")?,
            }),
            "improved" => {
                let length = num_u32("length")?;
                let score = match field("score") {
                    Ok(bits) => Score::from_bits(bits.parse::<u64>().map_err(|_| {
                        "event `improved` field `score` is not a number".to_string()
                    })?),
                    Err(_) => Score::from_length(length),
                };
                Ok(TraceEvent::Improved { length, score })
            }
            "rescheduled" => Ok(TraceEvent::Rescheduled {
                length: num_u32("length")?,
            }),
            "pruned" => Ok(TraceEvent::Pruned),
            "stopped" => Ok(TraceEvent::Stopped(parse_stop_reason(field("reason")?)?)),
            "phase-end" => Ok(TraceEvent::PhaseEnd {
                rotations: num_u64("rotations")?,
                best_length: num_u32("best")?,
                cache_hits: num_u64("hits")?,
                cache_misses: num_u64("misses")?,
            }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------
// Canonical JSON (hand-rolled, byte-stable; same discipline as
// rotsched-verify — no serde, render ∘ parse ∘ render is the identity
// on the byte level).
// ---------------------------------------------------------------------

/// The schema tag embedded in every rendered trace.
pub const TRACE_SCHEMA: &str = "rotsched-trace-v1";

fn render_stopped(out: &mut String, stopped: Option<StopReason>) {
    match stopped {
        Some(reason) => {
            out.push('"');
            out.push_str(stop_reason_str(reason));
            out.push('"');
        }
        None => out.push_str("null"),
    }
}

impl SearchTrace {
    /// A single-task trace (the shape every non-portfolio solve
    /// produces).
    #[must_use]
    pub fn single(task: TaskTrace) -> Self {
        SearchTrace { tasks: vec![task] }
    }

    /// Renders the trace as canonical JSON. The rendering is total and
    /// deterministic: equal traces render to equal bytes, and
    /// [`SearchTrace::parse_json`] inverts it exactly.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{TRACE_SCHEMA}\",");
        out.push_str("  \"tasks\": [");
        for (i, task) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"rotations\": {},", task.rotations);
            let _ = writeln!(out, "      \"prunes\": {},", task.prunes);
            out.push_str("      \"stopped\": ");
            render_stopped(&mut out, task.stopped);
            out.push_str(",\n");
            let _ = writeln!(out, "      \"dropped\": {},", task.dropped);
            out.push_str("      \"phases\": [");
            for (j, p) in task.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {");
                let _ = write!(
                    out,
                    "\"size\": {}, \"alpha\": {}, \"rotations\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"prunes\": {}, \"improvements\": {}, \"best_length\": {}, \"stopped\": ",
                    p.size,
                    p.alpha,
                    p.rotations,
                    p.cache_hits,
                    p.cache_misses,
                    p.prunes,
                    p.improvements,
                    p.best_length
                );
                render_stopped(&mut out, p.stopped);
                out.push('}');
            }
            if task.phases.is_empty() {
                out.push_str("],\n");
            } else {
                out.push_str("\n      ],\n");
            }
            out.push_str("      \"trajectory\": [");
            for (j, &(counter, length)) in task.trajectory.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{counter}, {length}]");
            }
            out.push_str("],\n");
            out.push_str("      \"events\": [");
            for (j, event) in task.events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        \"");
                out.push_str(&event.render());
                out.push('"');
            }
            if task.events.is_empty() {
                out.push_str("]\n");
            } else {
                out.push_str("\n      ]\n");
            }
            out.push_str("    }");
        }
        if self.tasks.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Parses JSON produced by [`SearchTrace::render_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural or schema
    /// violation.
    pub fn parse_json(input: &str) -> Result<SearchTrace, String> {
        let value = json::parse(input)?;
        let root = value.as_object("trace root")?;
        let schema = json::get(root, "schema")?.as_str("schema")?;
        if schema != TRACE_SCHEMA {
            return Err(format!("unsupported trace schema `{schema}`"));
        }
        let mut tasks = Vec::new();
        for (i, tv) in json::get(root, "tasks")?
            .as_array("tasks")?
            .iter()
            .enumerate()
        {
            let t = tv.as_object(&format!("tasks[{i}]"))?;
            let mut phases = Vec::new();
            for (j, pv) in json::get(t, "phases")?
                .as_array("phases")?
                .iter()
                .enumerate()
            {
                let p = pv.as_object(&format!("phases[{j}]"))?;
                phases.push(PhaseCounters {
                    size: json::get(p, "size")?.as_u32("size")?,
                    alpha: json::get(p, "alpha")?.as_u64("alpha")?,
                    rotations: json::get(p, "rotations")?.as_u64("rotations")?,
                    cache_hits: json::get(p, "cache_hits")?.as_u64("cache_hits")?,
                    cache_misses: json::get(p, "cache_misses")?.as_u64("cache_misses")?,
                    prunes: json::get(p, "prunes")?.as_u64("prunes")?,
                    improvements: json::get(p, "improvements")?.as_u64("improvements")?,
                    best_length: json::get(p, "best_length")?.as_u32("best_length")?,
                    stopped: parse_stopped(json::get(p, "stopped")?)?,
                });
            }
            let mut trajectory = Vec::new();
            for (j, point) in json::get(t, "trajectory")?
                .as_array("trajectory")?
                .iter()
                .enumerate()
            {
                let pair = point.as_array(&format!("trajectory[{j}]"))?;
                if pair.len() != 2 {
                    return Err(format!("trajectory[{j}] is not a pair"));
                }
                trajectory.push((pair[0].as_u64("counter")?, pair[1].as_u32("length")?));
            }
            let mut events = Vec::new();
            for (j, ev) in json::get(t, "events")?
                .as_array("events")?
                .iter()
                .enumerate()
            {
                events.push(TraceEvent::parse(ev.as_str(&format!("events[{j}]"))?)?);
            }
            tasks.push(TaskTrace {
                phases,
                trajectory,
                rotations: json::get(t, "rotations")?.as_u64("rotations")?,
                prunes: json::get(t, "prunes")?.as_u64("prunes")?,
                stopped: parse_stopped(json::get(t, "stopped")?)?,
                events,
                dropped: json::get(t, "dropped")?.as_u64("dropped")?,
            });
        }
        Ok(SearchTrace { tasks })
    }

    /// Renders the trace as the human-readable report behind
    /// `rotsched solve --trace`.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "search trace: {} task(s)", self.tasks.len());
        for (i, task) in self.tasks.iter().enumerate() {
            let best = task
                .best_length()
                .map_or_else(|| "-".to_string(), |l| l.to_string());
            let stopped = task
                .stopped
                .map_or_else(|| "ran to completion".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "task {i}: {} rotations, best length {best}, {} prune stop(s), {stopped}",
                task.rotations, task.prunes
            );
            for p in &task.phases {
                let stop = p.stopped.map_or(String::new(), |r| format!(", {r}"));
                let _ = writeln!(
                    out,
                    "  phase size={}: {}/{} rotations, {} hit(s)/{} miss(es), {} improvement(s), best {}{stop}",
                    p.size,
                    p.rotations,
                    p.alpha,
                    p.cache_hits,
                    p.cache_misses,
                    p.improvements,
                    p.best_length
                );
            }
            if !task.trajectory.is_empty() {
                out.push_str("  trajectory:");
                for &(counter, length) in &task.trajectory {
                    let _ = write!(out, " {counter}:{length}");
                }
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "  events kept: {} (dropped {})",
                task.events.len(),
                task.dropped
            );
        }
        out
    }
}

fn parse_stopped(value: &json::Value) -> Result<Option<StopReason>, String> {
    match value {
        json::Value::Null => Ok(None),
        json::Value::Str(s) => parse_stop_reason(s).map(Some),
        _ => Err("`stopped` must be a string or null".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchDriver;
    use crate::heuristics::HeuristicConfig;
    use rotsched_dfg::{DfgBuilder, OpKind};
    use rotsched_sched::{ListScheduler, ResourceSet};

    fn traced_run() -> SearchTrace {
        let g = DfgBuilder::new("ring")
            .nodes("v", 6, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3", "v4", "v5"])
            .edge("v5", "v0", 3)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut driver =
            SearchDriver::incremental(&g, &sched, &res).with_observer(TraceRecorder::default());
        let config = HeuristicConfig {
            rotations_per_phase: 16,
            max_size: None,
            keep_best: 8,
            rounds: 1,
        };
        driver.heuristic2(&config).unwrap();
        SearchTrace::single(driver.observer.finish())
    }

    #[test]
    fn json_round_trips_byte_stably() {
        let trace = traced_run();
        let rendered = trace.render_json();
        let parsed = SearchTrace::parse_json(&rendered).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.render_json(), rendered, "render ∘ parse is identity");
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = SearchTrace::default();
        let parsed = SearchTrace::parse_json(&trace.render_json()).unwrap();
        assert_eq!(parsed, trace);
        let one = SearchTrace::single(TaskTrace::default());
        let parsed = SearchTrace::parse_json(&one.render_json()).unwrap();
        assert_eq!(parsed, one);
        assert_eq!(parsed.render_json(), one.render_json());
    }

    #[test]
    fn counters_are_exact_even_with_a_tiny_ring() {
        let g = DfgBuilder::new("ring")
            .nodes("v", 5, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3", "v4"])
            .edge("v4", "v0", 2)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let config = HeuristicConfig {
            rotations_per_phase: 8,
            max_size: None,
            keep_best: 4,
            rounds: 1,
        };
        let mut full = SearchDriver::incremental(&g, &sched, &res)
            .with_observer(TraceRecorder::new(usize::MAX >> 1));
        full.heuristic2(&config).unwrap();
        let full = full.observer.finish();
        let mut tiny =
            SearchDriver::incremental(&g, &sched, &res).with_observer(TraceRecorder::new(3));
        tiny.heuristic2(&config).unwrap();
        let tiny = tiny.observer.finish();
        assert_eq!(full.rotations, tiny.rotations);
        assert_eq!(full.phases, tiny.phases);
        assert_eq!(full.trajectory, tiny.trajectory);
        assert_eq!(tiny.events.len(), 3);
        assert!(tiny.dropped > 0);
        assert_eq!(
            tiny.dropped + tiny.events.len() as u64,
            full.events.len() as u64
        );
        let zero = TraceRecorder::new(0);
        let zero = {
            let mut d = SearchDriver::incremental(&g, &sched, &res).with_observer(zero);
            d.heuristic2(&config).unwrap();
            d.observer.finish()
        };
        assert!(zero.events.is_empty());
        assert_eq!(zero.phases, full.phases);
    }

    #[test]
    fn trajectory_prefix_queries() {
        let task = TaskTrace {
            trajectory: vec![(0, 6), (2, 4), (7, 3)],
            ..TaskTrace::default()
        };
        assert_eq!(task.best_at_rotation(0), Some(6));
        assert_eq!(task.best_at_rotation(1), Some(6));
        assert_eq!(task.best_at_rotation(2), Some(4));
        assert_eq!(task.best_at_rotation(6), Some(4));
        assert_eq!(task.best_at_rotation(7), Some(3));
        assert_eq!(task.best_at_rotation(u64::MAX), Some(3));
        assert_eq!(task.best_length(), Some(3));
        assert_eq!(TaskTrace::default().best_at_rotation(5), None);
    }

    #[test]
    fn event_encoding_round_trips() {
        let events = [
            TraceEvent::PhaseStart { size: 3, alpha: 32 },
            TraceEvent::Rotated {
                nodes: 2,
                length: 5,
            },
            TraceEvent::Improved {
                length: 4,
                score: Score::from_length(4),
            },
            TraceEvent::Improved {
                length: 4,
                score: Score::new(4, 2, 7),
            },
            TraceEvent::Rescheduled { length: 4 },
            TraceEvent::Pruned,
            TraceEvent::Stopped(StopReason::RotationBudget),
            TraceEvent::Stopped(StopReason::Cancelled),
            TraceEvent::Stopped(StopReason::Deadline),
            TraceEvent::PhaseEnd {
                rotations: 32,
                best_length: 4,
                cache_hits: 10,
                cache_misses: 3,
            },
        ];
        for event in events {
            assert_eq!(TraceEvent::parse(&event.render()), Ok(event));
        }
        assert_eq!(
            TraceEvent::Improved {
                length: 4,
                score: Score::from_length(4),
            }
            .render(),
            "improved length=4",
            "default-objective improvements keep the pre-objective encoding"
        );
        assert!(TraceEvent::parse("nonsense").is_err());
        assert!(TraceEvent::parse("rotated nodes=x length=1").is_err());
        assert!(TraceEvent::parse("stopped reason=whatever").is_err());
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        for bad in [
            "{\"schema\": \"wrong\", \"tasks\": []}",
            "{\"schema\": \"rotsched-trace-v1\"}",
            "{\"schema\": \"rotsched-trace-v1\", \"tasks\": [{}]}",
            "{\"schema\": \"rotsched-trace-v1\", \"tasks\": [1]}",
        ] {
            assert!(SearchTrace::parse_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn text_report_mentions_the_key_counters() {
        let trace = traced_run();
        let text = trace.render_text();
        assert!(text.contains("search trace: 1 task(s)"));
        assert!(text.contains("task 0:"));
        assert!(text.contains("phase size="));
        assert!(text.contains("trajectory:"));
    }
}
