//! Expansion of a static schedule into the full loop execution:
//! prologue, repeated kernel, epilogue (Figure 4).
//!
//! With a normalized retiming `R`, kernel instance `k` executes node `v`
//! on behalf of loop iteration `k + R(v)` — a node with `R(v) = ρ` was
//! rotated `ρ` iterations "up". Running the loop for `N` iterations
//! therefore takes kernel instances `k ∈ [−max R, N)` clipped to the
//! iterations that exist:
//!
//! * `k < 0` — **prologue** instances executing only high-`R` nodes;
//! * `0 ≤ k < N − max R` — **steady-state kernel** instances executing
//!   every node;
//! * `k ≥ N − max R` — **epilogue** instances executing only low-`R`
//!   nodes.
//!
//! The expansion is exact: each of the `N·|V|` node executions appears
//! exactly once, at absolute time `k · L + s(v)` for kernel length `L`.

use rotsched_dfg::{Dfg, NodeId, Retiming};

use crate::schedule::Schedule;

/// One node execution in the expanded loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopEvent {
    /// The node being executed.
    pub node: NodeId,
    /// The loop iteration this execution belongs to (0-based).
    pub iteration: u32,
    /// Kernel instance index (negative during the prologue).
    pub kernel: i64,
    /// Absolute start control step; the prologue occupies non-positive
    /// steps so that kernel instance 0 starts at step 1.
    pub start: i64,
}

/// Which phase of the expanded loop an event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopPhase {
    /// Before the steady state (partial kernel instances).
    Prologue,
    /// The repeated static schedule.
    Kernel,
    /// Draining partial instances at the end.
    Epilogue,
}

/// A static schedule plus the retiming that realizes it, expanded on
/// demand into the full loop execution.
#[derive(Clone, Debug)]
pub struct LoopSchedule {
    kernel_length: u32,
    schedule: Schedule,
    retiming: Retiming,
    max_r: i64,
}

impl LoopSchedule {
    /// Bundles a kernel (static schedule of length `kernel_length`,
    /// normalized to start at step 1) with its realizing retiming.
    ///
    /// # Panics
    ///
    /// Panics if the retiming is not normalized (run
    /// [`Retiming::to_normalized`] first) or the schedule starts before
    /// step 1.
    #[must_use]
    pub fn new(kernel_length: u32, schedule: Schedule, retiming: Retiming) -> Self {
        assert!(
            retiming.is_normalized(),
            "loop expansion requires a normalized retiming"
        );
        assert!(
            schedule.first_step().is_none_or(|f| f >= 1),
            "kernel schedule must start at control step 1"
        );
        let max_r = retiming.max_value();
        LoopSchedule {
            kernel_length,
            schedule,
            retiming,
            max_r,
        }
    }

    /// The kernel length `L` (initiation interval).
    #[must_use]
    pub fn kernel_length(&self) -> u32 {
        self.kernel_length
    }

    /// The pipeline depth (Property 2): `1 + max R`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        u32::try_from(1 + self.max_r).expect("normalized retiming has non-negative depth")
    }

    /// The kernel schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The realizing retiming.
    #[must_use]
    pub fn retiming(&self) -> &Retiming {
        &self.retiming
    }

    /// Expands the loop over `iterations` iterations into the exact list
    /// of node executions, sorted by start time (ties by node id).
    ///
    /// Each node executes once per iteration; an event's `start` is
    /// `kernel · L + s(v)` with prologue instances at negative kernel
    /// indices.
    #[must_use]
    pub fn events(&self, dfg: &Dfg, iterations: u32) -> Vec<LoopEvent> {
        let mut events = Vec::with_capacity(dfg.node_count() * iterations as usize);
        let n = i64::from(iterations);
        for k in -self.max_r..n {
            for (v, s) in self.schedule.iter() {
                let iter = k + self.retiming.of(v);
                if (0..n).contains(&iter) {
                    events.push(LoopEvent {
                        node: v,
                        iteration: u32::try_from(iter).expect("0 <= iter < n"),
                        kernel: k,
                        start: k * i64::from(self.kernel_length) + i64::from(s),
                    });
                }
            }
        }
        events.sort_by_key(|e| (e.start, e.node));
        events
    }

    /// Classifies a kernel instance index for `iterations` iterations.
    #[must_use]
    pub fn phase(&self, kernel: i64, iterations: u32) -> LoopPhase {
        if kernel < 0 {
            LoopPhase::Prologue
        } else if kernel + self.max_r >= i64::from(iterations) {
            LoopPhase::Epilogue
        } else {
            LoopPhase::Kernel
        }
    }

    /// The total number of control steps the expanded loop occupies
    /// (makespan), from the first prologue step through the last finish.
    #[must_use]
    pub fn makespan(&self, dfg: &Dfg, iterations: u32) -> u64 {
        let events = self.events(dfg, iterations);
        let first = events.iter().map(|e| e.start).min().unwrap_or(0);
        let last = events
            .iter()
            .map(|e| e.start + i64::from(dfg.node(e.node).steps()) - 1)
            .max()
            .unwrap_or(0);
        u64::try_from(last - first + 1).unwrap_or(0)
    }

    /// Renders the expanded loop like Figure 4: one line per absolute
    /// step, listing the executions that start there with their
    /// iteration numbers and phase markers.
    #[must_use]
    pub fn format_expansion(&self, dfg: &Dfg, iterations: u32) -> String {
        use core::fmt::Write as _;
        let events = self.events(dfg, iterations);
        let mut out = String::new();
        let mut idx = 0;
        while idx < events.len() {
            let start = events[idx].start;
            let mut line = Vec::new();
            let mut phase = LoopPhase::Kernel;
            while idx < events.len() && events[idx].start == start {
                let e = &events[idx];
                phase = self.phase(e.kernel, iterations);
                line.push(format!("{}@it{}", dfg.node(e.node).name(), e.iteration));
                idx += 1;
            }
            let marker = match phase {
                LoopPhase::Prologue => "P",
                LoopPhase::Kernel => " ",
                LoopPhase::Epilogue => "E",
            };
            let _ = writeln!(out, "{marker} t={start:>4}  {}", line.join("  "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    /// Two-node loop pipelined to depth 2: m rotated one iteration up.
    fn pipelined_pair() -> (Dfg, LoopSchedule) {
        let g = DfgBuilder::new("pair")
            .node("m", OpKind::Mul, 1)
            .node("a", OpKind::Add, 1)
            .wire("m", "a")
            .edge("a", "m", 1)
            .build()
            .unwrap();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::from_set(&g, [m]);
        let mut s = Schedule::empty(&g);
        // In G_r the edge m -> a carries one delay and a -> m none, so a
        // legal kernel runs both in one step: a of iteration j and m of
        // iteration j+1 — wait, a -> m is zero-delay in G_r, so m follows
        // a. Use a 1-step kernel anyway: a at 1, m at 1 is illegal; keep
        // a at 1, m at 1 staggered over 2 steps for clarity.
        s.set(a, 1);
        s.set(m, 2);
        (g, LoopSchedule::new(2, s, r))
    }

    #[test]
    fn every_iteration_executes_every_node_once() {
        let (g, ls) = pipelined_pair();
        let events = ls.events(&g, 4);
        assert_eq!(events.len(), 8);
        for v in g.node_ids() {
            for it in 0..4 {
                assert_eq!(
                    events
                        .iter()
                        .filter(|e| e.node == v && e.iteration == it)
                        .count(),
                    1,
                    "node {v} iteration {it}"
                );
            }
        }
    }

    #[test]
    fn prologue_runs_high_r_nodes_early() {
        let (g, ls) = pipelined_pair();
        let m = g.node_by_name("m").unwrap();
        let events = ls.events(&g, 3);
        let first = &events[0];
        assert_eq!(first.node, m);
        assert_eq!(first.iteration, 0);
        assert_eq!(ls.phase(first.kernel, 3), LoopPhase::Prologue);
        assert!(first.start <= 0, "prologue occupies non-positive steps");
    }

    #[test]
    fn epilogue_runs_low_r_nodes_last() {
        let (g, ls) = pipelined_pair();
        let a = g.node_by_name("a").unwrap();
        let events = ls.events(&g, 3);
        let last = events.last().unwrap();
        assert_eq!(last.node, a);
        assert_eq!(last.iteration, 2);
        assert_eq!(ls.phase(last.kernel, 3), LoopPhase::Epilogue);
    }

    #[test]
    fn depth_matches_retiming() {
        let (_, ls) = pipelined_pair();
        assert_eq!(ls.depth(), 2);
    }

    #[test]
    fn makespan_grows_linearly_with_iterations() {
        let (g, ls) = pipelined_pair();
        let m10 = ls.makespan(&g, 10);
        let m20 = ls.makespan(&g, 20);
        assert_eq!(m20 - m10, 10 * u64::from(ls.kernel_length()));
    }

    #[test]
    fn zero_retiming_has_no_prologue() {
        let g = DfgBuilder::new("flat")
            .node("x", OpKind::Add, 1)
            .build()
            .unwrap();
        let x = g.node_by_name("x").unwrap();
        let mut s = Schedule::empty(&g);
        s.set(x, 1);
        let ls = LoopSchedule::new(1, s, Retiming::zero(&g));
        let events = ls.events(&g, 3);
        assert!(events.iter().all(|e| e.start >= 1));
        assert_eq!(ls.depth(), 1);
    }

    #[test]
    fn format_expansion_marks_phases() {
        let (g, ls) = pipelined_pair();
        let text = ls.format_expansion(&g, 3);
        assert!(text.contains("P t="));
        assert!(text.contains("E t="));
        assert!(text.contains("m@it0"));
    }

    #[test]
    #[should_panic(expected = "normalized")]
    fn unnormalized_retiming_is_rejected() {
        let g = DfgBuilder::new("g")
            .node("x", OpKind::Add, 1)
            .build()
            .unwrap();
        let x = g.node_by_name("x").unwrap();
        let mut r = Retiming::zero(&g);
        r.set(x, -1);
        let mut s = Schedule::empty(&g);
        s.set(x, 1);
        let _ = LoopSchedule::new(1, s, r);
    }
}
