//! Parallel portfolio rotation search with bound-based pruning.
//!
//! Rotation scheduling explores many independent search configurations:
//! Heuristic 1 runs one phase per rotation size, Heuristic 2 can be
//! re-run under different priority policies, and experiment sweeps
//! evaluate many benchmark × resource-config cells. All of these are
//! embarrassingly parallel — no configuration reads another's state —
//! so this module fans them out across scoped worker threads
//! ([`std::thread::scope`]; no external runtime) while keeping the
//! result **bit-for-bit deterministic** in the thread count.
//!
//! ## The determinism protocol
//!
//! Tasks are indexed `0..n`. One shared atomic coordinates pruning:
//! `achiever`, the lowest task index whose own best reached the
//! combined recurrence + resource lower bound
//! ([`rotsched_baselines::lower_bound`]), lowered by `fetch_min`.
//!
//! A task stops early in exactly two cases, both safe:
//!
//! 1. **Self-prune** — its own best equals the lower bound. This
//!    depends only on task-local state, so it fires at the same point
//!    regardless of the thread count.
//! 2. **Cross-prune** — `achiever` holds a *strictly lower* task
//!    index. Such a task's result is discarded by the merge rule below,
//!    so truncating its search cannot change the outcome.
//!
//! Every task yields a [`HeuristicOutcome`]; a task skipped because a
//! lower one already reached the bound, or one that panicked, yields an
//! empty placeholder, which can never be canonical. Merge rule: let `c`
//! be the lowest-indexed task whose final best equals the bound. If `c`
//! exists, the portfolio result is task `c`'s best set alone; otherwise
//! it is the capacity-capped union of every task's best set, folded in
//! index order. An induction over task indices shows `c` (and its
//! entire search trajectory) is independent of scheduling: a task can
//! only record itself as achiever if its untruncated run would reach
//! the bound, and it can only be truncated by a strictly lower achiever
//! — so every task below and including the first true achiever runs
//! exactly as it would sequentially.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::thread;

use rotsched_baselines::lower_bound;
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet};

use crate::budget::{Budget, BudgetMeter};
use crate::engine::{NoopObserver, SearchDriver, SearchObserver};
use crate::error::RotationError;
use crate::heuristics::{HeuristicConfig, HeuristicOutcome};
use crate::objective::{Objective, Score};
use crate::phase::{BestSet, PhaseStats};
use crate::rotate::initial_state;
use crate::trace::{SearchTrace, TaskTrace, TraceRecorder};

/// The combined recurrence + resource lower bound
/// ([`rotsched_baselines::lower_bound`]) as a kernel length; bounds
/// past `u32` saturate to `u32::MAX - 1`, which no real kernel reaches.
pub(crate) fn kernel_lower_bound(dfg: &Dfg, resources: &ResourceSet) -> Result<u32, RotationError> {
    Ok(u32::try_from(lower_bound(dfg, resources)?).unwrap_or(u32::MAX - 1))
}

/// The shared pruning state of one portfolio run: the proven lower
/// bound and the lowest index of a task that achieved it.
#[derive(Debug)]
pub struct SharedBound {
    bound: u32,
    achiever: AtomicU32,
}

impl SharedBound {
    /// A fresh shared state for the given combined lower bound.
    #[must_use]
    pub fn new(bound: u32) -> Self {
        SharedBound {
            bound,
            achiever: AtomicU32::new(u32::MAX),
        }
    }

    /// The combined recurrence + resource lower bound in effect. The
    /// bound constrains only the length component: a task achieves it
    /// exactly when its score is at most [`Score::from_length`] of the
    /// bound (for the default objective: its length reached the bound).
    #[must_use]
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// A pruning handle for the task with the given index.
    #[must_use]
    pub fn signal(&self, task_index: u32) -> PruneSignal<'_> {
        PruneSignal {
            shared: self,
            task_index,
        }
    }
}

/// A task's handle onto the shared pruning state.
#[derive(Clone, Copy, Debug)]
pub struct PruneSignal<'a> {
    shared: &'a SharedBound,
    task_index: u32,
}

impl PruneSignal<'_> {
    /// The combined lower bound of the shared state (see
    /// [`SharedBound::bound`]).
    #[must_use]
    pub(crate) fn bound(&self) -> u32 {
        self.shared.bound
    }

    /// Reports the task's current best score: marks this task as a
    /// bound achiever when the score reaches the packed lower bound
    /// (length at the bound, zero secondaries) — never for scores above it, and
    /// lengths *below* the bound cannot occur (the bound is proven; see
    /// the pruning test).
    pub fn record(&self, own_best: Score) {
        if own_best.achieves_bound(self.shared.bound) {
            self.shared
                .achiever
                .fetch_min(self.task_index, Ordering::Relaxed);
        }
    }

    /// Should this task stop searching? True on self-prune (own best
    /// reached the lower bound — deterministic, because it reads only
    /// task-local state) or cross-prune (a strictly lower-indexed task
    /// reached it — result discarded by the canonical merge, so stopping
    /// is unobservable).
    #[must_use]
    pub fn should_stop(&self, own_best: Score) -> bool {
        own_best.achieves_bound(self.shared.bound) || self.lost_to_lower_task()
    }

    /// True when a strictly lower-indexed task has achieved the bound.
    #[must_use]
    pub fn lost_to_lower_task(&self) -> bool {
        self.shared.achiever.load(Ordering::Relaxed) < self.task_index
    }
}

/// One independent search configuration of a portfolio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchTask {
    /// One Heuristic-1 rotation phase: `alpha` rotations of size `size`
    /// starting from the initial list schedule.
    Phase {
        /// Rotation size `i`.
        size: u32,
        /// Down-rotations to perform (`α`).
        alpha: usize,
        /// Priority policy for the list scheduler.
        policy: PriorityPolicy,
    },
    /// A full Heuristic-2 descending sweep with its own knobs.
    Sweep {
        /// The heuristic configuration (`α`, `β`, rounds, retention).
        config: HeuristicConfig,
        /// Priority policy for the list scheduler.
        policy: PriorityPolicy,
    },
    /// Test-only: a task that panics on entry, exercising the panic
    /// isolation path. Never produced by [`Portfolio::standard`].
    #[doc(hidden)]
    PanicForTest,
}

/// The deterministic result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The merged search result, identical for every thread count:
    ///
    /// * `best` is the canonical best set — the lowest-indexed bound
    ///   achiever's `Q` when the bound was reached, else the
    ///   capacity-capped union of all tasks' sets in index order;
    ///   `best[0]` is the canonical winner;
    /// * `phases` holds the deterministic part of the run: tasks
    ///   `0..=canonical_task` when the bound was achieved, all tasks
    ///   otherwise (`total_rotations` sums them);
    /// * `stopped` is set when a [`Budget`] limit fired in any worker;
    /// * `lower_bound` is always the combined recurrence + resource
    ///   lower bound used for pruning.
    pub merged: HeuristicOutcome,
    /// Index of the canonical achiever task: the lowest-indexed task
    /// whose best score reached the packed lower bound (length at the
    /// bound, zero secondaries).
    pub canonical_task: Option<usize>,
    /// How many tasks panicked (each isolated; the portfolio degraded
    /// to the survivors).
    pub panicked_tasks: usize,
}

/// A portfolio: an indexed task list plus execution knobs.
#[derive(Clone, Debug)]
pub struct Portfolio {
    /// The search configurations, in canonical (tie-break) order.
    pub tasks: Vec<SearchTask>,
    /// Worker threads (`0` or `1` runs on the caller's thread).
    pub jobs: usize,
    /// Capacity of the merged best set.
    pub keep_best: usize,
    /// The solve budget, armed once per [`Portfolio::run`] and shared by
    /// every worker (a rotation budget is global across tasks). Defaults
    /// to unlimited.
    pub budget: Budget,
    /// The objective every task minimizes. Defaults to
    /// [`Objective::Length`], under which the run is bit-identical to
    /// the scalar-length portfolio.
    pub objective: Objective,
}

impl Portfolio {
    /// The standard portfolio for a problem instance: Heuristic 1's
    /// phases of sizes `1..=β` under the paper's policy, then one
    /// Heuristic-2 sweep per priority policy. Task order fixes the
    /// canonical tie-break.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures from the initial list
    /// schedule (needed to determine `β`).
    pub fn standard(
        dfg: &Dfg,
        resources: &ResourceSet,
        config: &HeuristicConfig,
    ) -> Result<Self, RotationError> {
        let init = initial_state(dfg, &ListScheduler::default(), resources)?;
        let beta = config.max_size.unwrap_or_else(|| init.length(dfg)).max(1);
        let mut tasks = Vec::new();
        for size in 1..=beta {
            tasks.push(SearchTask::Phase {
                size,
                alpha: config.rotations_per_phase,
                policy: PriorityPolicy::default(),
            });
        }
        for policy in [
            PriorityPolicy::DescendantCount,
            PriorityPolicy::PathHeight,
            PriorityPolicy::Mobility,
            PriorityPolicy::InputOrder,
        ] {
            tasks.push(SearchTask::Sweep {
                config: *config,
                policy,
            });
        }
        Ok(Portfolio {
            tasks,
            jobs: 1,
            keep_best: config.keep_best,
            budget: Budget::unlimited(),
            objective: Objective::Length,
        })
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the solve budget (see [`Budget`]). Unlimited by default —
    /// and an unlimited budget leaves the run bit-identical to one
    /// without any budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the objective every task minimizes (see [`Objective`]).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Runs every task and merges the results deterministically.
    ///
    /// Each worker's phases run through their own
    /// [`SchedContext`](rotsched_sched::SchedContext) (built inside its
    /// [`SearchDriver`]), so the incremental state is never
    /// shared across threads and the merged outcome is identical for
    /// every job count.
    ///
    /// Workers are panic-isolated: a task that panics is counted in
    /// [`PortfolioOutcome::panicked_tasks`] and the portfolio degrades
    /// to the surviving workers' best rather than unwinding. The configured
    /// [`Budget`] is armed once here and shared by every worker.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed task failure, lower-bound
    /// computation failures, and [`RotationError::WorkerPanicked`] when
    /// *every* task panicked (nothing left to degrade to).
    pub fn run(
        &self,
        dfg: &Dfg,
        resources: &ResourceSet,
    ) -> Result<PortfolioOutcome, RotationError> {
        // The untraced path monomorphizes over `NoopObserver`, so it is
        // the pre-observer loop, instruction for instruction.
        self.run_with(dfg, resources, |_| NoopObserver)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`Portfolio::run`], but every worker records its driver
    /// events into a [`TraceRecorder`] with the given ring capacity.
    ///
    /// The returned trace keeps the **deterministic prefix** of the
    /// task list — tasks `0..=canonical_task` when the bound was
    /// achieved, all tasks otherwise (the same rule
    /// [`PortfolioOutcome::merged`]'s phases follow). Tasks above the
    /// canonical achiever are cross-pruned at timing-dependent points,
    /// so their streams are discarded; everything kept, and the outcome
    /// itself, is bit-identical for every job count (tasks at or below
    /// the canonical achiever can never observe a cross-prune, because
    /// any recorded achiever index is at least the canonical one). A
    /// panicked task leaves an empty placeholder trace.
    ///
    /// # Errors
    ///
    /// Exactly [`Portfolio::run`]'s errors.
    pub fn run_traced(
        &self,
        dfg: &Dfg,
        resources: &ResourceSet,
        capacity: usize,
    ) -> Result<(PortfolioOutcome, SearchTrace), RotationError> {
        let (outcome, observers) =
            self.run_with(dfg, resources, |_| TraceRecorder::new(capacity))?;
        let keep = outcome.canonical_task.map_or(observers.len(), |c| c + 1);
        let tasks = observers
            .into_iter()
            .take(keep)
            .map(|o| o.map_or_else(TaskTrace::default, TraceRecorder::finish))
            .collect();
        Ok((outcome, SearchTrace { tasks }))
    }

    /// The generic engine under [`Portfolio::run`] and
    /// [`Portfolio::run_traced`]: one observer per task, returned in
    /// index order (`None` for a panicked task).
    fn run_with<O, F>(
        &self,
        dfg: &Dfg,
        resources: &ResourceSet,
        make_observer: F,
    ) -> Result<(PortfolioOutcome, Vec<Option<O>>), RotationError>
    where
        O: SearchObserver + Send,
        F: Fn(usize) -> O + Sync,
    {
        let bound = kernel_lower_bound(dfg, resources)?;
        let shared = SharedBound::new(bound);
        // Arm only when limited so the unlimited path provably does no
        // budget work at all (bit-identical to the pre-budget API).
        let meter = (!self.budget.is_unlimited()).then(|| self.budget.arm());
        let runs = parallel_indexed_isolated(self.jobs, self.tasks.len(), |i| {
            let index = u32::try_from(i).unwrap_or(u32::MAX);
            self.run_task(
                dfg,
                resources,
                &self.tasks[i],
                &shared.signal(index),
                meter.as_ref(),
                make_observer(i),
            )
        });

        // Unpack the isolation layer: a panicked worker degrades to an
        // empty placeholder (it can never be the canonical achiever); a
        // worker that returned an error propagates it, lowest index
        // first, exactly as the sequential path would.
        let mut outcomes: Vec<HeuristicOutcome> = Vec::with_capacity(runs.len());
        let mut observers: Vec<Option<O>> = Vec::with_capacity(runs.len());
        let mut first_panic: Option<(usize, String)> = None;
        let mut panicked_tasks = 0;
        for (i, run) in runs.into_iter().enumerate() {
            match run {
                Ok(result) => {
                    let (outcome, observer) = result?;
                    outcomes.push(outcome);
                    observers.push(Some(observer));
                }
                Err(payload) => {
                    panicked_tasks += 1;
                    first_panic.get_or_insert_with(|| (i, panic_message(payload.as_ref())));
                    outcomes.push(no_result());
                    observers.push(None);
                }
            }
        }
        if panicked_tasks == self.tasks.len() && panicked_tasks > 0 {
            let (task, message) = first_panic.unwrap_or((0, String::new()));
            return Err(RotationError::WorkerPanicked { task, message });
        }

        let stopped = outcomes.iter().find_map(|o| o.stopped);
        let canonical_task = outcomes
            .iter()
            .position(|o| o.best_score.achieves_bound(bound));
        outcomes.truncate(canonical_task.map_or(outcomes.len(), |c| c + 1));
        let (best_score, best) = if canonical_task.is_some() {
            // The canonical achiever ran exactly as it would have
            // sequentially; its set IS the portfolio result.
            let winner = outcomes.last_mut().expect("the canonical task is kept");
            (winner.best_score, std::mem::take(&mut winner.best))
        } else {
            // No pruning ever fired, so every task completed its full
            // deterministic search: union in index order.
            let mut union = BestSet::new(self.keep_best);
            for outcome in &mut outcomes {
                for state in outcome.best.drain(..) {
                    let _ = union.offer_owned(outcome.best_score, state);
                }
            }
            (union.score, union.schedules)
        };
        let replayed_phases = outcomes.iter().map(|o| o.replayed_phases).sum();
        let phases: Vec<PhaseStats> = outcomes.into_iter().flat_map(|o| o.phases).collect();
        Ok((
            PortfolioOutcome {
                merged: HeuristicOutcome {
                    best_length: best_score.length(),
                    best_score,
                    best,
                    total_rotations: phases.iter().map(|p| p.rotations).sum(),
                    phases,
                    stopped,
                    lower_bound: Some(bound),
                    replayed_phases,
                },
                canonical_task,
                panicked_tasks,
            },
            observers,
        ))
    }

    /// Runs one task through a [`SearchDriver`] monomorphized over the
    /// worker's observer, returning the observer alongside the outcome
    /// so traced runs can reclaim their recorders.
    fn run_task<O: SearchObserver>(
        &self,
        dfg: &Dfg,
        resources: &ResourceSet,
        task: &SearchTask,
        signal: &PruneSignal<'_>,
        budget: Option<&BudgetMeter>,
        observer: O,
    ) -> Result<(HeuristicOutcome, O), RotationError> {
        if signal.lost_to_lower_task() {
            // A lower-indexed task already proved the bound: this task's
            // result would be discarded, so skip the work entirely.
            return Ok((no_result(), observer));
        }
        let (SearchTask::Phase { policy, .. } | SearchTask::Sweep { policy, .. }) = *task else {
            panic!("injected test panic");
        };
        let scheduler = ListScheduler::new(policy);
        let mut driver = SearchDriver::incremental(dfg, &scheduler, resources)
            .with_prune(Some(signal))
            .with_budget(budget)
            .with_objective(self.objective)
            .with_observer(observer);
        let outcome = match task {
            SearchTask::Phase { size, alpha, .. } => {
                let (best, stats) = driver.initial_phase(self.keep_best, *size, *alpha)?;
                HeuristicOutcome::from_parts(best, vec![stats])
            }
            SearchTask::Sweep { config, .. } => driver.heuristic2(config)?,
            SearchTask::PanicForTest => unreachable!("the test task panicked above"),
        };
        Ok((outcome, driver.observer))
    }
}

/// The outcome of a task that produced nothing — skipped, or panicked:
/// an empty set whose score never achieves a bound, so it is never
/// canonical and adds nothing to a union.
fn no_result() -> HeuristicOutcome {
    HeuristicOutcome::from_parts(BestSet::new(1), Vec::new())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `count` independent jobs `run(0), …, run(count - 1)` on up to
/// `jobs` scoped worker threads and returns the results **in index
/// order**. With `jobs <= 1` (or a single job) everything runs on the
/// caller's thread — byte-identical to the parallel path for
/// deterministic `run` functions.
///
/// Workers claim indices from a shared atomic counter, so long and
/// short jobs balance without any up-front partitioning. This is the
/// engine under the portfolio and under the experiment sweeps'
/// benchmark × resource-config cells.
///
/// A panicking job does not tear down its worker thread or the other
/// jobs: every remaining index still runs. The first (lowest-index)
/// panic is re-raised on the caller's thread after all results are
/// collected, preserving the sequential path's observable behavior.
/// Callers that want to *survive* panics use
/// [`parallel_indexed_isolated`] instead.
pub fn parallel_indexed<T, F>(jobs: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut results = Vec::with_capacity(count);
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    for run in parallel_indexed_isolated(jobs, count, run) {
        match run {
            Ok(value) => results.push(value),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    results
}

/// One isolated job's outcome: the job's value, or the panic payload it
/// unwound with.
pub type IsolatedResult<T> = Result<T, Box<dyn Any + Send>>;

/// The worker-thread count a request for `jobs` threads over `count`
/// tasks actually runs with: at least 1, at most `count`, and never
/// more than [`std::thread::available_parallelism`] — oversubscribing a
/// smaller machine only adds context-switch overhead (the outcome is
/// deterministic in the thread count, so the clamp never changes
/// results). Benchmarks report this next to the requested value.
#[must_use]
pub fn effective_jobs(jobs: usize, count: usize) -> usize {
    let hardware =
        std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
    jobs.max(1).min(count.max(1)).min(hardware)
}

/// The panic-isolating core of [`parallel_indexed`]: identical
/// scheduling, but each job runs under
/// [`catch_unwind`] and its slot reports
/// `Err(payload)` instead of unwinding. Job-count-independent: the
/// sequential (`jobs <= 1`) path isolates exactly like the parallel one.
///
/// Isolation is sound here because jobs are independent by contract —
/// a job observes no other job's state, so a panicked job leaves
/// nothing half-mutated that a survivor could read (the portfolio's
/// shared pruning atomic is monotone and single-word, safe to observe
/// at any point).
pub fn parallel_indexed_isolated<T, F>(jobs: usize, count: usize, run: F) -> Vec<IsolatedResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs, count);
    let isolated = |i: usize| catch_unwind(AssertUnwindSafe(|| run(i)));
    if jobs <= 1 {
        return (0..count).map(isolated).collect();
    }
    let next = AtomicUsize::new(0);
    let isolated = &isolated;
    let mut indexed: Vec<(usize, IsolatedResult<T>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, isolated(i)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker loop itself never panics"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn ring(n: usize, delays: u32) -> Dfg {
        let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        DfgBuilder::new("ring")
            .nodes("v", n, OpKind::Add, 1)
            .chain(&refs)
            .edge(&format!("v{}", n - 1), "v0", delays)
            .build()
            .unwrap()
    }

    fn config() -> HeuristicConfig {
        HeuristicConfig {
            rotations_per_phase: 16,
            max_size: None,
            keep_best: 8,
            rounds: 1,
        }
    }

    #[test]
    fn parallel_indexed_returns_results_in_index_order() {
        for jobs in [0, 1, 2, 7, 64] {
            let out = parallel_indexed(jobs, 33, |i| i * i);
            assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn effective_jobs_clamps_to_tasks_and_hardware() {
        let hardware =
            std::thread::available_parallelism().map_or(usize::MAX, std::num::NonZeroUsize::get);
        assert_eq!(effective_jobs(0, 5), 1);
        assert_eq!(effective_jobs(1, 0), 1);
        assert_eq!(effective_jobs(8, 3), 3.min(hardware));
        assert!(effective_jobs(usize::MAX, usize::MAX) <= hardware);
        // Requests within both limits pass through unchanged.
        assert_eq!(effective_jobs(1, 100), 1);
    }

    #[test]
    fn parallel_indexed_handles_empty_and_single() {
        assert!(parallel_indexed(4, 0, |i| i).is_empty());
        assert_eq!(parallel_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn pruning_never_fires_below_the_lower_bound() {
        let shared = SharedBound::new(3);
        let sig = shared.signal(5);
        // Above the bound: no stop, no achiever.
        sig.record(Score::from_length(4));
        assert!(!sig.should_stop(Score::from_length(4)));
        assert!(!sig.lost_to_lower_task());
        assert!(!shared.signal(6).lost_to_lower_task());
        // Unachieved sentinel never registers.
        assert!(!sig.should_stop(Score::NONE));
        // At the bound: self-prune fires and the achiever is recorded.
        sig.record(Score::from_length(3));
        assert!(sig.should_stop(Score::from_length(3)));
        // Higher-indexed tasks cross-prune; lower-indexed ones do not.
        assert!(shared.signal(6).lost_to_lower_task());
        assert!(!shared.signal(5).lost_to_lower_task());
        assert!(!shared.signal(2).lost_to_lower_task());
        assert!(
            shared.signal(2).should_stop(Score::from_length(3)),
            "self-prune still applies"
        );
    }

    #[test]
    fn multi_criteria_scores_only_achieve_the_bound_with_zero_secondaries() {
        let shared = SharedBound::new(3);
        let sig = shared.signal(0);
        // Bound-length kernel with a nonzero secondary: no self-prune
        // (conservative — the search keeps hunting for fewer registers).
        sig.record(Score::new(3, 2, 0));
        assert!(!sig.should_stop(Score::new(3, 2, 0)));
        assert!(!shared.signal(1).lost_to_lower_task());
        // Zero secondaries at the bound: the scalar rule again.
        sig.record(Score::new(3, 0, 0));
        assert!(sig.should_stop(Score::new(3, 0, 0)));
        assert!(shared.signal(1).lost_to_lower_task());
    }

    #[test]
    fn achiever_takes_the_minimum_task_index() {
        let shared = SharedBound::new(2);
        shared.signal(9).record(Score::from_length(2));
        shared.signal(4).record(Score::from_length(2));
        shared.signal(7).record(Score::from_length(2));
        assert!(shared.signal(5).lost_to_lower_task());
        assert!(!shared.signal(4).lost_to_lower_task());
    }

    #[test]
    fn standard_portfolio_reaches_the_bound_on_a_ring() {
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(3, 0, false);
        let p = Portfolio::standard(&g, &res, &config()).unwrap();
        let out = p.run(&g, &res).unwrap();
        assert_eq!(out.merged.best_length, 2, "IB = 6/3 = 2");
        assert_eq!(out.merged.lower_bound, Some(2));
        assert!(out.canonical_task.is_some());
        assert!(!out.merged.best.is_empty());
    }

    #[test]
    fn outcome_is_identical_across_thread_counts() {
        let g = ring(7, 2);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let p = Portfolio::standard(&g, &res, &config()).unwrap();
        let baseline = p.clone().with_jobs(1).run(&g, &res).unwrap();
        for jobs in [2, 3, 8] {
            let out = p.clone().with_jobs(jobs).run(&g, &res).unwrap();
            assert_eq!(out.merged.best_length, baseline.merged.best_length);
            assert_eq!(out.merged.best, baseline.merged.best, "jobs={jobs}");
            assert_eq!(out.canonical_task, baseline.canonical_task);
            assert_eq!(out.merged.phases, baseline.merged.phases);
        }
    }

    #[test]
    fn portfolio_never_worsens_heuristic2() {
        for delays in 1..=3 {
            let g = ring(6, delays);
            let res = ResourceSet::adders_multipliers(2, 0, false);
            let solo = SearchDriver::incremental(&g, &ListScheduler::default(), &res)
                .heuristic2(&config())
                .unwrap();
            let p = Portfolio::standard(&g, &res, &config()).unwrap();
            let out = p.with_jobs(4).run(&g, &res).unwrap();
            assert!(out.merged.best_length <= solo.best_length);
            assert!(
                Some(out.merged.best_length) >= out.merged.lower_bound,
                "bound is sound"
            );
        }
    }

    #[test]
    fn panicked_task_is_counted_and_never_canonical() {
        let g = ring(5, 2);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let clean = Portfolio::standard(&g, &res, &config()).unwrap();
        assert_eq!(clean.run(&g, &res).unwrap().panicked_tasks, 0);
        let mut p = clean;
        // First, so no lower-indexed achiever can skip it.
        p.tasks.insert(0, SearchTask::PanicForTest);
        for jobs in [1, 2, 4] {
            let out = p.clone().with_jobs(jobs).run(&g, &res).unwrap();
            assert_eq!(out.panicked_tasks, 1, "jobs={jobs}");
            assert_ne!(out.canonical_task, Some(0), "jobs={jobs}");
        }
    }

    #[test]
    fn isolated_engine_survives_panicking_jobs() {
        for jobs in [1, 2, 8] {
            let out = parallel_indexed_isolated(jobs, 9, |i| {
                assert!(i % 3 != 1, "boom at {i}");
                i * 10
            });
            assert_eq!(out.len(), 9);
            for (i, slot) in out.iter().enumerate() {
                if i % 3 == 1 {
                    assert!(slot.is_err(), "jobs={jobs} index {i} should panic");
                } else {
                    assert_eq!(*slot.as_ref().unwrap(), i * 10);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom at 4")]
    fn non_isolated_engine_reraises_the_lowest_index_panic() {
        // Indices 4 and 7 both panic; the re-raise must pick 4.
        let _ = parallel_indexed(3, 9, |i| {
            assert!(i != 4 && i != 7, "boom at {i}");
            i
        });
    }

    #[test]
    fn panicking_task_degrades_the_portfolio() {
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let clean = Portfolio::standard(&g, &res, &config()).unwrap();
        let mut p = clean.clone();
        // Inject the crash *first* so it cannot hide behind cross-pruning.
        p.tasks.insert(0, SearchTask::PanicForTest);
        for jobs in [1, 2, 4] {
            let out = p.clone().with_jobs(jobs).run(&g, &res).unwrap();
            assert_eq!(out.panicked_tasks, 1, "jobs={jobs}");
            let baseline = clean.clone().with_jobs(jobs).run(&g, &res).unwrap();
            assert_eq!(
                out.canonical_task,
                baseline.canonical_task.map(|c| c + 1),
                "the placeholder is never canonical, jobs={jobs}"
            );
            assert_eq!(
                out.merged.best_length, baseline.merged.best_length,
                "survivors' best is unaffected"
            );
            assert_eq!(out.merged.best, baseline.merged.best, "jobs={jobs}");
        }
    }

    #[test]
    fn all_tasks_panicking_is_an_error_not_an_abort() {
        let g = ring(4, 2);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let p = Portfolio {
            tasks: vec![SearchTask::PanicForTest, SearchTask::PanicForTest],
            jobs: 2,
            keep_best: 4,
            budget: Budget::unlimited(),
            objective: Objective::Length,
        };
        match p.run(&g, &res) {
            Err(RotationError::WorkerPanicked { task, message }) => {
                assert_eq!(task, 0);
                assert!(message.contains("injected test panic"));
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn zero_rotation_budget_still_returns_the_initial_incumbent() {
        let g = ring(6, 3);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let p = Portfolio::standard(&g, &res, &config())
            .unwrap()
            .with_budget(Budget::default().with_max_rotations(0));
        let out = p.run(&g, &res).unwrap();
        assert_eq!(out.merged.total_rotations, 0);
        assert!(out.merged.stopped.is_some());
        assert!(
            !out.merged.best.is_empty(),
            "initial list schedules are the incumbents"
        );
    }

    #[test]
    fn unlimited_budget_matches_the_budgetless_run() {
        let g = ring(7, 2);
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let p = Portfolio::standard(&g, &res, &config()).unwrap();
        let plain = p.clone().run(&g, &res).unwrap();
        let budgeted = p.with_budget(Budget::unlimited()).run(&g, &res).unwrap();
        assert_eq!(plain.merged.best_length, budgeted.merged.best_length);
        assert_eq!(plain.merged.best, budgeted.merged.best);
        assert_eq!(plain.merged.phases, budgeted.merged.phases);
        assert_eq!(budgeted.merged.stopped, None);
    }
}
