//! The high-level rotation-scheduling API.
//!
//! [`RotationScheduler`] bundles a graph reference, a resource set, a
//! DAG scheduler and a [`HeuristicConfig`], and exposes the whole
//! pipeline — initial schedule, individual rotations, both heuristics,
//! depth minimization, loop expansion, and end-to-end simulation — as
//! methods. It is the type downstream users interact with; the
//! lower-level functions remain available for research code that wants
//! to compose its own heuristics.

use rotsched_dfg::Dfg;
use rotsched_sched::{
    simulate, ListScheduler, LoopSchedule, PriorityPolicy, ResourceSet, SimulationReport,
};

use crate::budget::{Budget, StopReason};
use crate::depth::{into_loop_schedule, minimized_depth};
use crate::engine::{NoopObserver, SearchDriver, SearchObserver};
use crate::error::RotationError;
use crate::heuristics::{HeuristicConfig, HeuristicOutcome};
use crate::objective::{Objective, Score};
use crate::portfolio::{Portfolio, PortfolioOutcome};
use crate::rotate::{down_rotate, initial_state, up_rotate, DownRotateOutcome, RotationState};
use crate::trace::{SearchTrace, TraceRecorder};

/// How good a solved pipeline is — the structured verdict carried by
/// every [`SolveOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SolveQuality {
    /// The schedule length equals the proven combined lower bound.
    Optimal,
    /// The search ran to completion without proving optimality (the
    /// bound may simply be unattainable).
    Complete,
    /// A [`Budget`] limit fired; the result is the incumbent best of a
    /// truncated search. Still a legal schedule.
    BudgetExhausted,
    /// At least one portfolio worker panicked; the result is the best of
    /// the surviving workers. Still a legal schedule.
    Degraded,
}

impl core::fmt::Display for SolveQuality {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            SolveQuality::Optimal => "optimal",
            SolveQuality::Complete => "complete",
            SolveQuality::BudgetExhausted => "budget-exhausted",
            SolveQuality::Degraded => "degraded",
        })
    }
}

/// Search-effort accounting carried by every [`SolveOutcome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total down-rotations performed, counting the ones replayed from
    /// a phase's cycle log or a sweep's phase log (see
    /// [`HeuristicOutcome::total_rotations`]). A single-sweep solve
    /// counts the rotations until its best set froze at the lower bound (see
    /// [`SearchDriver::heuristic2`]); a portfolio solve counts its
    /// deterministic task prefix.
    pub total_rotations: usize,
    /// Why the search stopped early, when a budget limit fired.
    pub stopped: Option<StopReason>,
    /// Portfolio workers that panicked (always 0 for single-sweep
    /// solves).
    pub panicked_tasks: usize,
    /// The combined recurrence + resource lower bound of the instance.
    pub lower_bound: u32,
}

/// A solved instance: the best pipeline found plus its key metrics and
/// the structured quality verdict.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The wrapped schedule length (initiation interval).
    pub length: u32,
    /// The best packed score under the solve's [`Objective`]. Under the
    /// default length-only objective this is exactly
    /// `Score::from_length(length)`.
    pub score: Score,
    /// The minimized pipeline depth (the parenthesized numbers in the
    /// paper's tables).
    pub depth: u32,
    /// The winning state (schedule + rotation function).
    pub state: RotationState,
    /// The full heuristic outcome (all best schedules, per-phase stats).
    pub outcome: HeuristicOutcome,
    /// The quality verdict: optimal / complete / budget-exhausted /
    /// degraded.
    pub quality: SolveQuality,
    /// Search-effort accounting.
    pub stats: SolveStats,
}

impl SolveOutcome {
    /// The winning rotation function (how far each node was rotated).
    #[must_use]
    pub fn retiming(&self) -> &rotsched_dfg::Retiming {
        &self.state.retiming
    }

    /// The winning flat schedule (per-node start steps before
    /// wrapping).
    #[must_use]
    pub fn schedule(&self) -> &rotsched_sched::Schedule {
        &self.state.schedule
    }
}

/// One item of a [`RotationScheduler::solve_batch`] run: an owned
/// problem instance plus its solver configuration.
///
/// Defaults mirror [`RotationScheduler::new`]: descendant-count list
/// scheduling, the standard Heuristic-2 sweep, an unlimited budget.
///
/// # Examples
///
/// ```
/// use rotsched_core::{ProblemSpec, RotationScheduler};
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::ResourceSet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("ring")
///     .nodes("v", 4, OpKind::Add, 1)
///     .chain(&["v0", "v1", "v2", "v3"])
///     .edge("v3", "v0", 2)
///     .build()?;
/// let batch = vec![
///     ProblemSpec::new(g.clone(), ResourceSet::adders_multipliers(2, 0, false)),
///     ProblemSpec::new(g, ResourceSet::adders_multipliers(1, 0, false)),
/// ];
/// let solved = RotationScheduler::solve_batch(&batch)?;
/// assert_eq!(solved[0].length, 2);
/// assert_eq!(solved[1].length, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ProblemSpec {
    /// The loop's data-flow graph.
    pub dfg: Dfg,
    /// The functional units available to it.
    pub resources: ResourceSet,
    /// The list-scheduling priority policy.
    pub policy: PriorityPolicy,
    /// The heuristic configuration.
    pub config: HeuristicConfig,
    /// The solve objective (length-only by default).
    pub objective: Objective,
    /// The solve budget (unlimited by default).
    pub budget: Budget,
}

impl ProblemSpec {
    /// A spec with the default policy, configuration, and budget.
    #[must_use]
    pub fn new(dfg: Dfg, resources: ResourceSet) -> Self {
        ProblemSpec {
            dfg,
            resources,
            policy: PriorityPolicy::default(),
            config: HeuristicConfig::default(),
            objective: Objective::default(),
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the solve objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replaces the priority policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PriorityPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the heuristic configuration.
    #[must_use]
    pub fn with_config(mut self, config: HeuristicConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the solve budget. Budget-limited items are exempt from
    /// batch deduplication (see [`RotationScheduler::solve_batch`]).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Whether `other` is guaranteed to solve to the same outcome, so a
    /// batch may reuse this spec's result for it. Exact equality of
    /// graph, resources, policy, and configuration — the cheap
    /// [`Dfg::structure_fingerprint`] prefilter happens before this
    /// confirm, so a fingerprint collision costs a comparison, never a
    /// wrong reuse. Budget-limited specs never deduplicate: a deadline
    /// makes the outcome time-dependent.
    #[must_use]
    fn dedup_matches(&self, other: &ProblemSpec) -> bool {
        self.budget.is_unlimited()
            && other.budget.is_unlimited()
            && self.policy == other.policy
            && self.config == other.config
            && self.objective == other.objective
            && self.resources == other.resources
            && self.dfg == other.dfg
    }
}

/// Rotation scheduling, end to end.
///
/// # Examples
///
/// ```
/// use rotsched_core::RotationScheduler;
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::ResourceSet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 4-op recurrence with 2 registers: iteration bound 2.
/// let g = DfgBuilder::new("ring")
///     .nodes("v", 4, OpKind::Add, 1)
///     .chain(&["v0", "v1", "v2", "v3"])
///     .edge("v3", "v0", 2)
///     .build()?;
/// let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
/// let solved = rs.solve()?;
/// assert_eq!(solved.length, 2); // pipelined down from the 4-step DAG
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RotationScheduler<'a> {
    dfg: &'a Dfg,
    resources: ResourceSet,
    scheduler: ListScheduler,
    config: HeuristicConfig,
    objective: Objective,
    jobs: usize,
    budget: Budget,
}

impl<'a> RotationScheduler<'a> {
    /// Creates a scheduler for `dfg` under `resources` with the paper's
    /// defaults (descendant-count list scheduling, Heuristic 2 with
    /// phase sizes down from the initial schedule length).
    #[must_use]
    pub fn new(dfg: &'a Dfg, resources: ResourceSet) -> Self {
        RotationScheduler {
            dfg,
            resources,
            scheduler: ListScheduler::default(),
            config: HeuristicConfig::default(),
            objective: Objective::default(),
            jobs: 1,
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the solve objective. The default length-only objective
    /// reproduces the paper's scalar search bit for bit; the
    /// lexicographic objectives break length ties by static register
    /// count (and code size).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the solve budget (deadline, rotation budget, and/or cancel
    /// token; see [`Budget`]) applied by the heuristic and solve entry
    /// points. Unlimited by default — and an unlimited budget leaves
    /// every result bit-identical to a budget-free run.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the list-scheduling priority policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PriorityPolicy) -> Self {
        self.scheduler = ListScheduler::new(policy);
        self
    }

    /// Sets the worker-thread count used by [`RotationScheduler::portfolio`]
    /// and [`RotationScheduler::solve_portfolio`]. The result is
    /// deterministic in this knob; `1` (the default) runs on the
    /// caller's thread.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Replaces the heuristic configuration.
    #[must_use]
    pub fn with_config(mut self, config: HeuristicConfig) -> Self {
        self.config = config;
        self
    }

    /// The resource set in use.
    #[must_use]
    pub fn resources(&self) -> &ResourceSet {
        &self.resources
    }

    /// The initial (unpipelined) list schedule of the DAG — the paper's
    /// `FullSchedule(G)` starting point.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn initial(&self) -> Result<RotationState, RotationError> {
        initial_state(self.dfg, &self.scheduler, &self.resources)
    }

    /// Performs one down-rotation of `size` steps on `state`.
    ///
    /// # Errors
    ///
    /// See [`down_rotate`].
    pub fn down_rotate(
        &self,
        state: &mut RotationState,
        size: u32,
    ) -> Result<DownRotateOutcome, RotationError> {
        down_rotate(self.dfg, &self.scheduler, &self.resources, state, size)
    }

    /// Performs one up-rotation of `size` steps on `state`.
    ///
    /// # Errors
    ///
    /// See [`up_rotate`].
    pub fn up_rotate(
        &self,
        state: &mut RotationState,
        size: u32,
    ) -> Result<DownRotateOutcome, RotationError> {
        up_rotate(self.dfg, &self.scheduler, &self.resources, state, size)
    }

    /// Runs Heuristic 1 (independent phases).
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn heuristic1(&self) -> Result<HeuristicOutcome, RotationError> {
        let meter = (!self.budget.is_unlimited()).then(|| self.budget.arm());
        SearchDriver::incremental(self.dfg, &self.scheduler, &self.resources)
            .with_objective(self.objective)
            .with_budget(meter.as_ref())
            .heuristic1(&self.config)
    }

    /// Runs Heuristic 2 (chained phases of decreasing size) — the
    /// heuristic behind the paper's reported results.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn heuristic2(&self) -> Result<HeuristicOutcome, RotationError> {
        self.sweep(NoopObserver).map(|(outcome, _)| outcome)
    }

    /// Runs Heuristic 2 and packages the best schedule with its
    /// minimized pipeline depth and quality verdict.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures;
    /// [`RotationError::Unrealizable`] cannot occur for states produced
    /// by rotation.
    pub fn solve(&self) -> Result<SolveOutcome, RotationError> {
        package(self.dfg, &self.resources, self.heuristic2()?, 0)
    }

    /// Like [`RotationScheduler::solve`], but records the search's
    /// driver events into a [`TraceRecorder`] keeping at most
    /// `capacity` raw events, and returns the finished [`SearchTrace`]
    /// alongside the outcome. Tracing never steers the search: the
    /// outcome is bit-identical to [`RotationScheduler::solve`]'s
    /// (enforced by the `trace_determinism` suite).
    ///
    /// # Errors
    ///
    /// Exactly [`RotationScheduler::solve`]'s errors.
    pub fn solve_traced(
        &self,
        capacity: usize,
    ) -> Result<(SolveOutcome, SearchTrace), RotationError> {
        let (outcome, recorder) = self.sweep(TraceRecorder::new(capacity))?;
        let solved = package(self.dfg, &self.resources, outcome, 0)?;
        Ok((solved, SearchTrace::single(recorder.finish())))
    }

    /// This scheduler's Heuristic-2 sweep on a fresh incremental step.
    fn sweep<O: SearchObserver>(
        &self,
        observer: O,
    ) -> Result<(HeuristicOutcome, O), RotationError> {
        run_sweep(
            self.dfg,
            self.scheduler,
            &self.resources,
            &self.config,
            self.objective,
            &self.budget,
            observer,
        )
    }

    /// Solves a whole batch of problem instances, each on the path
    /// [`RotationScheduler::solve`] runs, with request deduplication:
    /// items whose graph fingerprint and exact spec match an earlier
    /// unlimited-budget item reuse its outcome instead of re-solving.
    ///
    /// Every outcome is byte-identical to what a per-item
    /// `RotationScheduler::new(&spec.dfg, spec.resources)` configured
    /// the same way would return from [`RotationScheduler::solve`]
    /// (enforced by the `seeded_batch` suite); caches and pools never
    /// steer decisions.
    ///
    /// # Errors
    ///
    /// The first item that fails aborts the batch with its error (a
    /// batch of valid specs cannot fail partway).
    pub fn solve_batch(specs: &[ProblemSpec]) -> Result<Vec<SolveOutcome>, RotationError> {
        // `(graph fingerprint, spec index)` of every solved representative.
        let mut seen: Vec<(u64, usize)> = Vec::new();
        let mut outcomes: Vec<SolveOutcome> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let fingerprint = spec.dfg.structure_fingerprint();
            if let Some(&(_, j)) = seen
                .iter()
                .find(|&&(f, j)| f == fingerprint && spec.dedup_matches(&specs[j]))
            {
                let reused = outcomes[j].clone();
                outcomes.push(reused);
                continue;
            }
            let (outcome, _) = run_sweep(
                &spec.dfg,
                ListScheduler::new(spec.policy),
                &spec.resources,
                &spec.config,
                spec.objective,
                &spec.budget,
                NoopObserver,
            )?;
            outcomes.push(package(&spec.dfg, &spec.resources, outcome, 0)?);
            seen.push((fingerprint, i));
        }
        Ok(outcomes)
    }

    /// Runs the standard search portfolio (Heuristic 1's phases plus a
    /// Heuristic-2 sweep per priority policy) on the configured number
    /// of worker threads, with lower-bound-based pruning. The outcome
    /// is identical for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn portfolio(&self) -> Result<PortfolioOutcome, RotationError> {
        self.standard_portfolio()?.run(self.dfg, &self.resources)
    }

    /// Like [`RotationScheduler::solve`], but searches with the full
    /// parallel portfolio instead of a single Heuristic-2 sweep. Never
    /// worse than `solve()` on the same configuration, and
    /// deterministic in the thread count.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn solve_portfolio(&self) -> Result<SolveOutcome, RotationError> {
        self.solve_with_portfolio(&self.standard_portfolio()?)
    }

    /// Like [`RotationScheduler::solve_portfolio`], but traced: every
    /// worker records its driver events, and the returned
    /// [`SearchTrace`] keeps the deterministic task prefix (see
    /// [`Portfolio::run_traced`] for the worker interleave ordering
    /// rule). Both the outcome and the trace are identical for every
    /// `--jobs` value.
    ///
    /// # Errors
    ///
    /// Exactly [`RotationScheduler::solve_portfolio`]'s errors.
    pub fn solve_portfolio_traced(
        &self,
        capacity: usize,
    ) -> Result<(SolveOutcome, SearchTrace), RotationError> {
        let (outcome, trace) =
            self.standard_portfolio()?
                .run_traced(self.dfg, &self.resources, capacity)?;
        let solved = package(
            self.dfg,
            &self.resources,
            outcome.merged,
            outcome.panicked_tasks,
        )?;
        Ok((solved, trace))
    }

    /// Like [`RotationScheduler::solve_portfolio`], but runs a
    /// caller-supplied [`Portfolio`] (custom task list, jobs, budget)
    /// instead of the standard one. This is the hook behind the
    /// panic-injection tests: a portfolio containing a crashing task
    /// packages into a [`SolveQuality::Degraded`] outcome here.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures, and
    /// [`RotationError::WorkerPanicked`] when every task panicked.
    pub(crate) fn solve_with_portfolio(
        &self,
        portfolio: &Portfolio,
    ) -> Result<SolveOutcome, RotationError> {
        let outcome = portfolio.run(self.dfg, &self.resources)?;
        package(
            self.dfg,
            &self.resources,
            outcome.merged,
            outcome.panicked_tasks,
        )
    }

    /// The standard portfolio under this scheduler's objective, jobs,
    /// and budget.
    fn standard_portfolio(&self) -> Result<Portfolio, RotationError> {
        Ok(
            Portfolio::standard(self.dfg, &self.resources, &self.config)?
                .with_objective(self.objective)
                .with_jobs(self.jobs)
                .with_budget(self.budget.clone()),
        )
    }

    /// Expands a state into an executable [`LoopSchedule`] (wrapped
    /// kernel + shallow retiming).
    ///
    /// # Errors
    ///
    /// See [`into_loop_schedule`].
    pub fn loop_schedule(&self, state: &RotationState) -> Result<LoopSchedule, RotationError> {
        into_loop_schedule(self.dfg, &self.resources, state)
    }

    /// Simulates a state end-to-end for `iterations` iterations,
    /// verifying operand availability, resource limits, and functional
    /// equivalence with sequential execution.
    ///
    /// # Errors
    ///
    /// Returns the first simulation violation; a passing run certifies
    /// the pipeline.
    pub fn verify(
        &self,
        state: &RotationState,
        iterations: u32,
    ) -> Result<SimulationReport, RotationError> {
        let ls = self.loop_schedule(state)?;
        Ok(simulate(self.dfg, &ls, &self.resources, iterations)?)
    }
}

/// The one Heuristic-2 sweep runner behind [`RotationScheduler::solve`],
/// [`RotationScheduler::solve_traced`], and every
/// [`RotationScheduler::solve_batch`] item: arms the budget, sets the
/// objective, and attaches the observer, then hands the observer back
/// alongside the outcome.
fn run_sweep<O: SearchObserver>(
    dfg: &Dfg,
    scheduler: ListScheduler,
    resources: &ResourceSet,
    config: &HeuristicConfig,
    objective: Objective,
    budget: &Budget,
    observer: O,
) -> Result<(HeuristicOutcome, O), RotationError> {
    // Arm only when limited so the unlimited path does no budget work.
    let meter = (!budget.is_unlimited()).then(|| budget.arm());
    let mut driver = SearchDriver::incremental(dfg, &scheduler, resources)
        .with_objective(objective)
        .with_budget(meter.as_ref())
        .with_observer(observer);
    let outcome = driver.heuristic2(config)?;
    Ok((outcome, driver.observer))
}

/// Packages a search result — a single sweep's or a portfolio's merged
/// one — into a [`SolveOutcome`]: the winner, its minimized depth, and
/// the quality verdict. The verdict reads the length criterion alone
/// (the tie-break secondaries of a multi-criteria objective never
/// decide it): [`SolveQuality::Degraded`] if any portfolio task
/// panicked, else [`SolveQuality::BudgetExhausted`] if a budget stopped
/// the search, else [`SolveQuality::Optimal`] if the best length meets
/// the lower bound, else [`SolveQuality::Complete`].
fn package(
    dfg: &Dfg,
    resources: &ResourceSet,
    outcome: HeuristicOutcome,
    panicked_tasks: usize,
) -> Result<SolveOutcome, RotationError> {
    let bound = outcome
        .lower_bound
        .expect("Heuristic 2 and the portfolio record the lower bound they proved against");
    let state = outcome
        .best
        .first()
        .cloned()
        .expect("searches always retain at least the initial schedule");
    let depth = minimized_depth(dfg, &state)?;
    let quality = if panicked_tasks > 0 {
        SolveQuality::Degraded
    } else if outcome.stopped.is_some() {
        SolveQuality::BudgetExhausted
    } else if outcome.best_length <= bound {
        SolveQuality::Optimal
    } else {
        SolveQuality::Complete
    };
    let stats = SolveStats {
        total_rotations: outcome.total_rotations,
        stopped: outcome.stopped,
        panicked_tasks,
        lower_bound: bound,
    };
    debug_certify(dfg, resources, &outcome.best, quality);
    Ok(SolveOutcome {
        length: outcome.best_length,
        score: outcome.best_score,
        depth,
        state,
        outcome,
        quality,
        stats,
    })
}

/// Debug-build safety net: every incumbent a solve is about to hand
/// back is re-checked by the independent certifier (`rotsched-verify`
/// shares no scheduling code with this crate). A failure here is always
/// a scheduler bug, never a bad input, so it asserts rather than
/// returning an error. Compiled to a no-op in release builds.
fn debug_certify(
    dfg: &Dfg,
    resources: &ResourceSet,
    incumbents: &[RotationState],
    quality: SolveQuality,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let spec = rotsched_sched::verify_spec(resources);
    for state in incumbents {
        let ls = into_loop_schedule(dfg, resources, state)
            .expect("accepted incumbents must expand into loop schedules");
        let starts = rotsched_sched::verify_starts(dfg, ls.schedule());
        let claim = rotsched_verify::Claim {
            kernel_length: ls.kernel_length(),
            depth: Some(ls.retiming().depth()),
            optimal: matches!(quality, SolveQuality::Optimal),
            registers: Some(crate::objective::static_registers(dfg, ls.retiming())),
            code_size: Some(crate::objective::code_size(dfg, ls.retiming())),
        };
        if let Err(bad) =
            rotsched_verify::certify_claim(dfg, &spec, Some(ls.retiming()), &starts, &claim)
        {
            let report: Vec<String> = bad.iter().map(|d| d.render_text(dfg)).collect();
            panic!(
                "scheduler produced an uncertifiable incumbent for `{}`:\n{}",
                dfg.name(),
                report.join("\n")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn ring() -> Dfg {
        DfgBuilder::new("ring")
            .nodes("v", 4, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3"])
            .edge("v3", "v0", 2)
            .build()
            .unwrap()
    }

    #[test]
    fn solve_finds_the_iteration_bound() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let solved = rs.solve().unwrap();
        assert_eq!(solved.length, 2);
        assert!(solved.depth <= 2);
    }

    #[test]
    fn verify_passes_on_the_solved_pipeline() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let solved = rs.solve().unwrap();
        let report = rs.verify(&solved.state, 10).unwrap();
        assert_eq!(report.iterations, 10);
        assert!(report.speedup() >= 1.0);
    }

    #[test]
    fn builder_style_configuration() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(1, 0, false))
            .with_policy(PriorityPolicy::PathHeight)
            .with_config(HeuristicConfig {
                rotations_per_phase: 4,
                max_size: Some(2),
                keep_best: 2,
                rounds: 1,
            });
        let out = rs.heuristic1().unwrap();
        assert_eq!(out.phases.len(), 2);
        assert!(out.best.len() <= 2);
    }

    #[test]
    fn solve_portfolio_matches_solve_on_easy_instances() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let solo = rs.solve().unwrap();
        for jobs in [1, 4] {
            let par = rs.clone().with_jobs(jobs).solve_portfolio().unwrap();
            assert_eq!(par.length, solo.length);
            assert!(par.depth <= 2);
        }
    }

    #[test]
    fn solve_reports_optimal_quality_at_the_bound() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let solved = rs.solve().unwrap();
        assert_eq!(solved.quality, SolveQuality::Optimal);
        assert_eq!(solved.stats.lower_bound, 2);
        assert_eq!(solved.stats.stopped, None);
        assert_eq!(solved.stats.panicked_tasks, 0);
    }

    #[test]
    fn exhausted_budget_is_reported_and_still_yields_a_pipeline() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false))
            .with_budget(Budget::default().with_max_rotations(0));
        let solved = rs.solve().unwrap();
        assert_eq!(solved.quality, SolveQuality::BudgetExhausted);
        assert_eq!(solved.stats.total_rotations, 0);
        assert_eq!(solved.length, 4, "incumbent is the initial schedule");
        // The incumbent is executable end to end.
        let report = rs.verify(&solved.state, 5).unwrap();
        assert_eq!(report.iterations, 5);
    }

    #[test]
    fn budget_beyond_the_frozen_point_completes_optimally() {
        // An 80-add ring on 2 adders: the initial schedule is the 80-step
        // chain, so the full sweep would run rounds × β × α = 4 × 80 × 32
        // = 10,240 rotations — past the budget. The best set freezes at
        // the bound (40) long before, so the budget never fires.
        let names: Vec<String> = (0..80).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let g = DfgBuilder::new("ring80")
            .nodes("v", 80, OpKind::Add, 1)
            .chain(&refs)
            .edge("v79", "v0", 40)
            .build()
            .unwrap();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false))
            .with_budget(Budget::default().with_max_rotations(10_000));
        let config = HeuristicConfig::default();
        let full_sweep =
            config.rounds * rs.initial().unwrap().length(&g) as usize * config.rotations_per_phase;
        assert!(full_sweep > 10_000);
        let solved = rs.solve().unwrap();
        assert_eq!(solved.quality, SolveQuality::Optimal);
        assert_eq!(solved.stats.stopped, None);
        assert_eq!(solved.length, 40);
        assert!(solved.stats.total_rotations < 10_000);
        assert_eq!(solved.outcome.best.len(), config.keep_best, "Q is full");
    }

    #[test]
    fn injected_worker_panic_degrades_the_portfolio_solve() {
        use crate::portfolio::SearchTask;
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let mut p = Portfolio::standard(&g, rs.resources(), &HeuristicConfig::default()).unwrap();
        p.tasks.insert(0, SearchTask::PanicForTest);
        for jobs in [1, 3] {
            let solved = rs.solve_with_portfolio(&p.clone().with_jobs(jobs)).unwrap();
            assert_eq!(solved.quality, SolveQuality::Degraded, "jobs={jobs}");
            assert_eq!(solved.stats.panicked_tasks, 1);
            assert_eq!(solved.length, 2, "survivors still find the optimum");
        }
    }

    #[test]
    fn unlimited_budget_solve_matches_the_default_solve() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let plain = rs.solve().unwrap();
        let budgeted = rs.clone().with_budget(Budget::unlimited()).solve().unwrap();
        assert_eq!(plain.length, budgeted.length);
        assert_eq!(plain.state, budgeted.state);
        assert_eq!(plain.quality, budgeted.quality);
        assert_eq!(plain.outcome.phases, budgeted.outcome.phases);
    }

    #[test]
    fn manual_rotation_through_the_facade() {
        let g = ring();
        let rs = RotationScheduler::new(&g, ResourceSet::adders_multipliers(2, 0, false));
        let mut st = rs.initial().unwrap();
        let before = st.length(&g);
        rs.down_rotate(&mut st, 1).unwrap();
        assert!(st.length(&g) <= before);
    }
}
