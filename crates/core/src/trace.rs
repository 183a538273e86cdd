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
//! hand-rolled, byte-stable discipline as `rotsched-verify` (the bytes
//! are pinned by the `trace_golden` suite).
//!
//! [`SearchObserver`]: crate::engine::SearchObserver

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::budget::StopReason;
use crate::engine::{SearchEvent, SearchObserver};
use crate::objective::Score;

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

impl TraceEvent {
    /// The canonical single-token-stream encoding used in JSON.
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
}

// ---------------------------------------------------------------------
// Canonical JSON (hand-rolled, byte-stable; same discipline as
// rotsched-verify — no serde).
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
    /// deterministic: equal traces render to equal bytes.
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
    fn empty_traces_render_their_fixed_shape() {
        assert_eq!(
            SearchTrace::default().render_json(),
            "{\n  \"schema\": \"rotsched-trace-v1\",\n  \"tasks\": []\n}\n"
        );
        let one = SearchTrace::single(TaskTrace::default()).render_json();
        assert!(one.contains("\"phases\": [],\n"), "{one}");
        assert!(one.contains("\"events\": []\n"), "{one}");
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
    fn event_encoding_is_one_token_stream() {
        let events = [
            (
                TraceEvent::PhaseStart { size: 3, alpha: 32 },
                "phase-start size=3 alpha=32",
            ),
            (
                TraceEvent::Rotated {
                    nodes: 2,
                    length: 5,
                },
                "rotated nodes=2 length=5",
            ),
            (
                TraceEvent::Improved {
                    length: 4,
                    score: Score::from_length(4),
                },
                // Default-objective improvements keep the pre-objective
                // encoding.
                "improved length=4",
            ),
            (
                TraceEvent::Improved {
                    length: 4,
                    score: Score::new(4, 2, 7),
                },
                &format!("improved length=4 score={}", Score::new(4, 2, 7).to_bits()),
            ),
            (
                TraceEvent::Rescheduled { length: 4 },
                "rescheduled length=4",
            ),
            (TraceEvent::Pruned, "pruned"),
            (
                TraceEvent::Stopped(StopReason::RotationBudget),
                "stopped reason=rotation-budget",
            ),
            (
                TraceEvent::Stopped(StopReason::Cancelled),
                "stopped reason=cancelled",
            ),
            (
                TraceEvent::Stopped(StopReason::Deadline),
                "stopped reason=deadline",
            ),
            (
                TraceEvent::PhaseEnd {
                    rotations: 32,
                    best_length: 4,
                    cache_hits: 10,
                    cache_misses: 3,
                },
                "phase-end rotations=32 best=4 hits=10 misses=3",
            ),
        ];
        for (event, encoding) in events {
            assert_eq!(event.render(), encoding);
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
