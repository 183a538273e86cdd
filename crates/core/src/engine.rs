//! The unified rotation-search engine: one instrumented loop behind
//! every heuristic, phase, and portfolio worker.
//!
//! Four generations of growth (pruning, incremental contexts, budgets,
//! certification) each threaded their concern through a separate copy of
//! the paper's core loop. [`SearchDriver`] collapses them: a single
//! generic driver parameterized over the composable concerns —
//!
//! * a **step mode** ([`StepMode`]): how one down-rotation executes —
//!   through a persistent incremental [`SchedContext`]
//!   ([`IncrementalStep`], the production path) or the from-scratch
//!   operator ([`ScratchStep`], the reference/ablation path);
//! * a **prune source**: `None` or a portfolio [`PruneSignal`];
//! * a **budget**: `None` or an armed [`BudgetMeter`];
//! * an **observer** ([`SearchObserver`]): a monomorphized event sink.
//!   The default [`NoopObserver`] compiles to nothing — the untraced
//!   driver is the pre-refactor loop, instruction for instruction —
//!   while a [`TraceRecorder`](crate::trace::TraceRecorder) turns the
//!   same run into convergence telemetry.
//!
//! The paper's Heuristic 1 and Heuristic 2 (DAC 1993 §5) are sweep
//! policies *over* this one loop; [`SearchDriver::heuristic1`] and
//! [`SearchDriver::heuristic2`] implement them, and every phase,
//! heuristic, portfolio worker, and [`RotationScheduler`] solve runs
//! through a driver. The incremental and reference step modes are
//! bit-identical — enforced by the `seeded_incremental`,
//! `seeded_portfolio`, and `seeded_anytime` suites and the byte-stable
//! bench tables.
//!
//! [`RotationScheduler`]: crate::RotationScheduler

use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{CacheStats, ListScheduler, ResourceSet, SchedContext, Schedule, WrapScratch};

use crate::budget::{BudgetMeter, StopReason};
use crate::cycle::CycleLog;
use crate::error::RotationError;
use crate::heuristics::{HeuristicConfig, HeuristicOutcome};
use crate::objective::{Objective, Score};
use crate::phase::{BestSet, PhaseStats};
use crate::portfolio::{kernel_lower_bound, PruneSignal};
use crate::rotate::{check_size, down_rotate, initial_state, RotationState};

/// A structured event emitted by the [`SearchDriver`] at every decision
/// point of the search. Borrowed payloads keep emission allocation-free;
/// observers that need to retain data copy what they keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SearchEvent<'a> {
    /// A rotation phase began: `alpha` rotations of requested `size`.
    PhaseStart {
        /// Requested rotation size `i`.
        size: u32,
        /// Down-rotations the phase will attempt (`α`).
        alpha: usize,
    },
    /// One down-rotation completed, executed or replayed from the
    /// driver's [`CycleLog`] (a replayed rotation carries the logged
    /// node set and length of the rotation it repeats).
    Rotated {
        /// The rotated node set (the old schedule's first steps).
        node_set: &'a [NodeId],
        /// The *wrapped* schedule length after the rotation — the
        /// paper's length metric, the one the search optimizes.
        length: u32,
    },
    /// The incumbent best score strictly improved.
    IncumbentImproved {
        /// The new best (wrapped) length — the length component of the
        /// new best score.
        length: u32,
        /// The new best packed score. Under the default length-only
        /// objective this is exactly `Score::from_length(length)`.
        score: Score,
    },
    /// Heuristic 2 rescheduled the retimed graph between phases
    /// (`FullSchedule(G_R)`), or replayed the reschedule of the phase
    /// the last phase repeated.
    Rescheduled {
        /// The wrapped length of the fresh full schedule.
        length: u32,
    },
    /// The portfolio prune signal ended the phase (the bound was
    /// reached, here or by a lower-indexed task).
    Pruned,
    /// A budget limit fired; the phase stopped at its cancellation
    /// point with the incumbent intact.
    Stopped(StopReason),
    /// A rotation phase ended (by exhausting `alpha`, pruning,
    /// stopping, running out of schedule to rotate, or — in Heuristic
    /// 2 — the best set freezing at the lower bound).
    PhaseEnd {
        /// Down-rotations performed, replayed ones included.
        rotations: usize,
        /// The incumbent best (wrapped) length at phase end.
        best_length: u32,
        /// Weight-memo hit/miss delta accumulated by this phase's
        /// incremental context (zeros on the reference path). Replayed
        /// rotations run no step, so they add no hits; a phase replayed
        /// whole builds no context either, so it reports zeros.
        cache: CacheStats,
    },
}

/// An event sink for [`SearchDriver`] runs.
///
/// Implementations observe, they do not steer: the driver's control
/// flow never depends on the observer, so a traced run returns the
/// bit-identical result of an untraced one (enforced by the
/// `trace_determinism` suite).
pub trait SearchObserver {
    /// Receives one search event.
    fn on_event(&mut self, event: SearchEvent<'_>);
}

/// The zero-cost observer: every event monomorphizes to nothing, so a
/// driver over `NoopObserver` is the uninstrumented loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {
    #[inline(always)]
    fn on_event(&mut self, _event: SearchEvent<'_>) {}
}

impl<O: SearchObserver + ?Sized> SearchObserver for &mut O {
    #[inline]
    fn on_event(&mut self, event: SearchEvent<'_>) {
        (**self).on_event(event);
    }
}

/// How the driver executes one down-rotation.
///
/// Both modes funnel into the same placement core, so their results are
/// bit-identical; they differ only in per-step cost (see DESIGN.md §6).
pub trait StepMode {
    /// The starting state of a heuristic run: `FullSchedule(G)` under
    /// the zero rotation function, after [`Dfg::validate`]. The default
    /// is [`initial_state`]; the incremental mode schedules through a
    /// new context for the graph instead, which the run's first phase
    /// then starts on.
    ///
    /// # Errors
    ///
    /// See [`initial_state`].
    fn initial_state(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
    ) -> Result<RotationState, RotationError> {
        initial_state(dfg, scheduler, resources)
    }

    /// Called once at the start of every executed phase, before any
    /// rotation of `state`; the incremental mode (re)builds its context
    /// here. `chained` says that `state` is exactly what this mode's
    /// last [`StepMode::initial_state`] or [`StepMode::full_schedule`]
    /// produced, untouched since — a run's first phase (a portfolio
    /// phase task's only one), or the next phase of a Heuristic-2
    /// sweep — so the incremental mode keeps the context that schedule
    /// left instead of rebuilding it.
    ///
    /// # Errors
    ///
    /// Propagates scheduling-substrate failures from the context build.
    fn begin_phase(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
        chained: bool,
    ) -> Result<(), RotationError>;

    /// `FullSchedule(G_R)` between the phases of a Heuristic-2 sweep:
    /// replaces `state`'s schedule with a fresh full schedule of the
    /// graph retimed by `state`'s rotation function. Called only right
    /// after an executed phase of this mode, whose state the phase end
    /// may have rewritten (see [`CycleLog::restore`]).
    ///
    /// # Errors
    ///
    /// See [`ListScheduler::schedule`].
    fn full_schedule(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
    ) -> Result<(), RotationError>;

    /// Performs one down-rotation of `size` on `state`, returning the
    /// rotated node set as a borrow of the mode's internal buffer (valid
    /// until the next call) — the steady-state step never allocates an
    /// owned set.
    ///
    /// # Errors
    ///
    /// See [`down_rotate`].
    fn rotate(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError>;

    /// Running cache counters of the mode's scheduling state (zeros
    /// when the mode keeps none).
    fn cache_stats(&self) -> CacheStats;
}

/// The production step mode: rotations run through a persistent
/// [`SchedContext`], so per-step work is proportional to the rotated
/// prefix rather than the graph. A heuristic run builds its context for
/// the initial state, and a Heuristic-2 sweep keeps it throughout: its
/// `FullSchedule`s run through the context, which leaves it ready for the
/// next phase. Every other phase start rebuilds it.
#[derive(Debug, Default)]
pub struct IncrementalStep {
    /// The current phase's context.
    ctx: Option<SchedContext>,
    /// The latest rotated set. It outlives every rebuild (and, when a
    /// batch solve hands the step from driver to driver, every item), so
    /// only the first phase of the first solve grows it.
    rotated: Vec<NodeId>,
}

impl IncrementalStep {
    /// Builds a new context for `state`, dropping the retired one.
    fn rebuild(
        &mut self,
        dfg: &Dfg,
        scheduler: ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
    ) -> Result<&mut SchedContext, RotationError> {
        self.ctx = None;
        let ctx = SchedContext::new(
            dfg,
            &scheduler,
            resources,
            Some(&state.retiming),
            &state.schedule,
        )?;
        Ok(self.ctx.insert(ctx))
    }
}

impl StepMode for IncrementalStep {
    fn initial_state(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
    ) -> Result<RotationState, RotationError> {
        dfg.validate()?;
        let mut state = RotationState {
            retiming: Retiming::zero(dfg),
            schedule: Schedule::empty(dfg),
        };
        self.rebuild(dfg, *scheduler, resources, &state)?
            .full_schedule(dfg, Some(&state.retiming), resources, &mut state.schedule)?;
        Ok(state)
    }

    fn begin_phase(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &RotationState,
        chained: bool,
    ) -> Result<(), RotationError> {
        if !(chained && self.ctx.is_some()) {
            self.rebuild(dfg, *scheduler, resources, state)?;
        }
        Ok(())
    }

    fn rotate(
        &mut self,
        dfg: &Dfg,
        _scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError> {
        check_size(dfg, &state.schedule, size)?;
        let ctx = self.ctx.as_mut().expect("begin_phase precedes rotate");
        ctx.down_rotate(
            dfg,
            resources,
            &mut state.retiming,
            &mut state.schedule,
            size,
            &mut self.rotated,
        )?;
        Ok(&self.rotated)
    }

    fn full_schedule(
        &mut self,
        dfg: &Dfg,
        _scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
    ) -> Result<(), RotationError> {
        self.ctx
            .as_mut()
            .expect("an executed phase precedes the reschedule")
            .full_schedule(dfg, Some(&state.retiming), resources, &mut state.schedule)?;
        Ok(())
    }

    fn cache_stats(&self) -> CacheStats {
        self.ctx
            .as_ref()
            .map(SchedContext::cache_stats)
            .unwrap_or_default()
    }
}

/// The reference step mode: every rotation uses the non-incremental
/// [`down_rotate`] operator. Kept as the ablation arm for equivalence
/// tests; `perf_report`'s "rotation step (from scratch)" arm times the
/// same operator.
#[derive(Clone, Debug, Default)]
pub struct ScratchStep {
    /// Retains the last rotated set so the trait can hand out a borrow.
    last: Vec<NodeId>,
}

impl StepMode for ScratchStep {
    fn begin_phase(
        &mut self,
        _dfg: &Dfg,
        _scheduler: &ListScheduler,
        _resources: &ResourceSet,
        _state: &RotationState,
        _chained: bool,
    ) -> Result<(), RotationError> {
        Ok(())
    }

    fn rotate(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
        size: u32,
    ) -> Result<&[NodeId], RotationError> {
        self.last = down_rotate(dfg, scheduler, resources, state, size)?.rotated;
        Ok(&self.last)
    }

    fn full_schedule(
        &mut self,
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        state: &mut RotationState,
    ) -> Result<(), RotationError> {
        state.schedule = scheduler.schedule(dfg, Some(&state.retiming), resources)?;
        Ok(())
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// The unified search driver: one `(graph, scheduler, resources)`
/// binding plus the composable concerns, exposing the paper's phase
/// loop and both heuristics as methods.
///
/// Construct with [`SearchDriver::incremental`] (the production step
/// mode) or [`SearchDriver::reference`] (the from-scratch ablation),
/// attach concerns with the `with_*` builders, then run.
///
/// # Examples
///
/// ```
/// use rotsched_core::engine::SearchDriver;
/// use rotsched_core::{BestSet, HeuristicConfig};
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::{ListScheduler, ResourceSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("ring")
///     .nodes("v", 4, OpKind::Add, 1)
///     .chain(&["v0", "v1", "v2", "v3"])
///     .edge("v3", "v0", 2)
///     .build()?;
/// let scheduler = ListScheduler::default();
/// let resources = ResourceSet::adders_multipliers(2, 0, false);
/// let mut driver = SearchDriver::incremental(&g, &scheduler, &resources);
/// let outcome = driver.heuristic2(&HeuristicConfig::default())?;
/// assert_eq!(outcome.best_length, 2); // the iteration bound
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SearchDriver<'a, S, O = NoopObserver> {
    dfg: &'a Dfg,
    scheduler: &'a ListScheduler,
    resources: &'a ResourceSet,
    prune: Option<&'a PruneSignal<'a>>,
    budget: Option<&'a BudgetMeter>,
    step: S,
    /// What the search minimizes; [`Objective::Length`] reproduces the
    /// paper's scalar search bit for bit.
    objective: Objective,
    /// Reusable buffers for the wrapped-length probe of every rotation
    /// and every offered schedule, built on first use and recycled for
    /// the driver's lifetime.
    wrap: Option<WrapScratch>,
    /// The replay log of the running phase and Heuristic-2 sweep;
    /// cleared, not freed, at each phase or sweep start.
    log: CycleLog,
    /// The attached observer; public so callers can reclaim a recorder
    /// after the run.
    pub observer: O,
}

impl<'a, S: StepMode> SearchDriver<'a, S, NoopObserver> {
    /// A driver on the given step mode — one of the crate's or a
    /// caller's own [`StepMode`].
    #[must_use]
    pub fn new(
        dfg: &'a Dfg,
        scheduler: &'a ListScheduler,
        resources: &'a ResourceSet,
        step: S,
    ) -> Self {
        SearchDriver {
            dfg,
            scheduler,
            resources,
            prune: None,
            budget: None,
            step,
            objective: Objective::Length,
            wrap: None,
            log: CycleLog::new(),
            observer: NoopObserver,
        }
    }
}

impl<'a> SearchDriver<'a, IncrementalStep, NoopObserver> {
    /// A driver on the incremental step mode (the production path).
    #[must_use]
    pub fn incremental(
        dfg: &'a Dfg,
        scheduler: &'a ListScheduler,
        resources: &'a ResourceSet,
    ) -> Self {
        Self::new(dfg, scheduler, resources, IncrementalStep::default())
    }
}

impl<'a> SearchDriver<'a, ScratchStep, NoopObserver> {
    /// A driver on the from-scratch step mode (the reference arm).
    #[must_use]
    pub fn reference(
        dfg: &'a Dfg,
        scheduler: &'a ListScheduler,
        resources: &'a ResourceSet,
    ) -> Self {
        Self::new(dfg, scheduler, resources, ScratchStep::default())
    }
}

impl<'a, S: StepMode, O: SearchObserver> SearchDriver<'a, S, O> {
    /// Attaches a portfolio pruning signal.
    #[must_use]
    pub fn with_prune(mut self, prune: Option<&'a PruneSignal<'a>>) -> Self {
        self.prune = prune;
        self
    }

    /// Attaches an armed budget meter.
    #[must_use]
    pub fn with_budget(mut self, budget: Option<&'a BudgetMeter>) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the objective the search minimizes (default:
    /// [`Objective::Length`], the paper's scalar).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Replaces the observer, keeping every other concern.
    #[must_use]
    pub fn with_observer<P: SearchObserver>(self, observer: P) -> SearchDriver<'a, S, P> {
        SearchDriver {
            dfg: self.dfg,
            scheduler: self.scheduler,
            resources: self.resources,
            prune: self.prune,
            budget: self.budget,
            step: self.step,
            objective: self.objective,
            wrap: self.wrap,
            log: self.log,
            observer,
        }
    }

    /// Runs `RotationPhase(S_init, L_opt, Q, G, i, α)` — `alpha`
    /// rotations of size `size` on `state`, halving the effective size
    /// whenever it reaches the schedule length, recording improvements
    /// into `best`. This is the paper's one core loop; both heuristics
    /// and every portfolio task reduce to runs of it.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures. Invalid sizes cannot occur: the
    /// size is halved below the schedule length first, and a schedule of
    /// length 1 terminates the phase early.
    pub fn run_phase(
        &mut self,
        state: &mut RotationState,
        best: &mut BestSet,
        size: u32,
        alpha: usize,
    ) -> Result<PhaseStats, RotationError> {
        self.phase(state, best, size, alpha, None, false)
    }

    /// The loop behind [`SearchDriver::run_phase`]. `sweep = None` runs
    /// the plain phase on an empty log. With `sweep = Some((bound, _))`
    /// it is a phase of a Heuristic-2 sweep (see
    /// [`SearchDriver::heuristic2`]): it also ends, at the top of a
    /// rotation, once `best` is frozen at `bound`, and its rotations
    /// stay in the sweep's log.
    ///
    /// Once a rotation lands on a state the phase already held (up to a
    /// constant retiming shift, see [`CycleLog`]), the remaining rotations
    /// are replayed from the log: each keeps its budget poll
    /// and charge, prune and frozen checks, [`SearchEvent::Rotated`]
    /// and length record, but runs no rotation step, wrap probe or
    /// offer — every replayed state repeats an offered one, which `Q`
    /// rejects. The exact final state is rebuilt at phase end.
    ///
    /// With `sweep = Some((_, Some(exec)))` the whole phase is replayed
    /// from the sweep's log instead: rotation `k` carries executed phase
    /// `exec`'s node set and wrapped length, the phase ends where phase
    /// `exec` did, and `state` is left as it was.
    ///
    /// `chained` passes through to [`StepMode::begin_phase`]: `state` is
    /// what the step mode's last full schedule, initial or not, left.
    fn phase(
        &mut self,
        state: &mut RotationState,
        best: &mut BestSet,
        size: u32,
        alpha: usize,
        sweep: Option<(u32, Option<usize>)>,
        chained: bool,
    ) -> Result<PhaseStats, RotationError> {
        let (frozen_at, exec) = sweep.unzip();
        let exec = exec.flatten();
        if exec.is_none() {
            self.step
                .begin_phase(self.dfg, self.scheduler, self.resources, state, chained)?;
            if sweep.is_some() {
                self.log.begin_in_sweep(state, alpha);
            } else {
                self.log.begin(state, alpha);
            }
        }
        // With no context build, a replayed phase's delta is zero.
        let cache_before = self.step.cache_stats();
        self.observer
            .on_event(SearchEvent::PhaseStart { size, alpha });
        let mut stats = PhaseStats {
            requested_size: size,
            lengths: Vec::with_capacity(exec.map_or(0, |e| self.log.rotations_of(e))),
            ..PhaseStats::default()
        };
        let mut min_seen = u32::MAX;
        for j in 0..alpha {
            if self.prune.is_some_and(|p| p.should_stop(best.score)) {
                self.observer.on_event(SearchEvent::Pruned);
                break;
            }
            if frozen_at.is_some_and(|bound| best.is_frozen(bound)) {
                break; // every further offer would be rejected
            }
            // A logged rotation: its node set, its wrapped length, and
            // whether it repeats an earlier rotation of its own phase.
            let logged = match exec {
                Some(e) => match self.log.replay_phase(e, j + 1) {
                    Some(logged) => Some(logged),
                    None => break, // where the repeated phase ended
                },
                None => self
                    .log
                    .replay(j + 1)
                    .map(|(rotated, wrapped)| (rotated, wrapped, true)),
            };
            let mut effective = size;
            if logged.is_none() {
                let length = state.schedule.length(self.dfg);
                if length <= 1 {
                    break; // nothing left to rotate
                }
                while effective >= length {
                    effective = effective.div_ceil(2);
                }
                if effective == 0 {
                    break;
                }
            }
            // The cancellation point: polled only where a rotation would
            // otherwise run (after the prune, frozen and end-of-schedule
            // exits, a replayed phase's included), so a fired budget
            // never abandons a rotation halfway, the state always holds
            // a complete legal schedule, and a budget that cuts no
            // rotation reports no stop.
            if let Some(reason) = self.budget.and_then(BudgetMeter::check) {
                stats.stopped = Some(reason);
                self.observer.on_event(SearchEvent::Stopped(reason));
                break;
            }
            if let Some((rotated, wrapped, repeat)) = logged {
                if let Some(meter) = self.budget {
                    meter.charge_rotation();
                }
                self.observer.on_event(SearchEvent::Rotated {
                    node_set: rotated,
                    length: wrapped,
                });
                stats.rotations += 1;
                stats.replayed += usize::from(repeat);
                stats.lengths.push(wrapped);
                // Within a phase a repeated length never beats
                // `min_seen`; a phase replayed whole tracks its own.
                if wrapped < min_seen {
                    min_seen = wrapped;
                    stats.first_optimum_at = Some(j + 1);
                }
                continue;
            }
            let rotated =
                self.step
                    .rotate(self.dfg, self.scheduler, self.resources, state, effective)?;
            if let Some(meter) = self.budget {
                meter.charge_rotation();
            }
            let wrapped = wrapped_length(&mut self.wrap, self.dfg, self.resources, state)?;
            self.observer.on_event(SearchEvent::Rotated {
                node_set: rotated,
                length: wrapped,
            });
            stats.rotations += 1;
            stats.lengths.push(wrapped);
            if wrapped < min_seen {
                min_seen = wrapped;
                stats.first_optimum_at = Some(j + 1);
            }
            let score = self.objective.score(self.dfg, &state.retiming, wrapped);
            if best.offer(score, state) {
                self.observer.on_event(SearchEvent::IncumbentImproved {
                    length: best.length(),
                    score: best.score,
                });
            }
            if let Some(p) = self.prune {
                p.record(best.score);
            }
            self.log.record(rotated, wrapped, state);
        }
        if exec.is_none() {
            self.log.restore(stats.rotations, state);
        }
        self.observer.on_event(SearchEvent::PhaseEnd {
            rotations: stats.rotations,
            best_length: best.length(),
            cache: self.step.cache_stats().since(&cache_before),
        });
        Ok(stats)
    }

    /// Offers `state` to `best` through the driver's concerns: emits
    /// [`SearchEvent::IncumbentImproved`] on a strict improvement and
    /// publishes the new best into the prune signal. This is how
    /// out-of-phase candidates (the initial schedule, an inter-phase
    /// reschedule) enter an instrumented search.
    pub fn offer(&mut self, best: &mut BestSet, length: u32, state: &RotationState) {
        let score = self.objective.score(self.dfg, &state.retiming, length);
        if best.offer(score, state) {
            self.observer.on_event(SearchEvent::IncumbentImproved {
                length: best.length(),
                score: best.score,
            });
        }
        if let Some(p) = self.prune {
            p.record(best.score);
        }
    }

    /// A new `Q` of capacity `keep_best` holding the run's initial
    /// schedule `init`, offered through [`SearchDriver::offer`].
    fn initial_best(
        &mut self,
        keep_best: usize,
        init: &RotationState,
    ) -> Result<BestSet, RotationError> {
        let mut best = BestSet::new(keep_best);
        let wrapped = wrapped_length(&mut self.wrap, self.dfg, self.resources, init)?;
        self.offer(&mut best, wrapped, init);
        Ok(best)
    }

    /// One phase of `size` and `alpha` rotations from the initial state,
    /// starting on the step mode's initial-state context — a portfolio
    /// phase task. Returns the phase's `Q` (capacity `keep_best`, the
    /// initial schedule offered first) and statistics: exactly what
    /// [`StepMode::initial_state`], [`SearchDriver::offer`] and
    /// [`SearchDriver::run_phase`] give, with one context build fewer.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub(crate) fn initial_phase(
        &mut self,
        keep_best: usize,
        size: u32,
        alpha: usize,
    ) -> Result<(BestSet, PhaseStats), RotationError> {
        let mut state = self
            .step
            .initial_state(self.dfg, self.scheduler, self.resources)?;
        let mut best = self.initial_best(keep_best, &state)?;
        let stats = self.phase(&mut state, &mut best, size, alpha, None, true)?;
        Ok((best, stats))
    }

    /// Heuristic 1: independent phases of sizes `1..=β`, each restarting
    /// from the initial schedule and the zero rotation function. The
    /// first phase starts on the step mode's initial-state context; the
    /// others rebuild it. A fired budget ends the current phase at its
    /// cancellation point and skips the remaining sizes.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures.
    pub fn heuristic1(
        &mut self,
        config: &HeuristicConfig,
    ) -> Result<HeuristicOutcome, RotationError> {
        let init = self
            .step
            .initial_state(self.dfg, self.scheduler, self.resources)?;
        let mut best = self.initial_best(config.keep_best, &init)?;

        let beta = config
            .max_size
            .unwrap_or_else(|| init.length(self.dfg))
            .max(1);
        let mut phases = Vec::new();
        for size in 1..=beta {
            let mut state = init.clone();
            let alpha = config.rotations_per_phase;
            let stats = self.phase(&mut state, &mut best, size, alpha, None, size == 1)?;
            // Key the sweep's early exit off the *recorded* stop, not a
            // fresh meter check: deterministic limits then truncate the
            // exact same phase prefix on every run.
            let stopped = stats.stopped.is_some();
            phases.push(stats);
            if stopped {
                break;
            }
        }
        Ok(HeuristicOutcome::from_parts(best, phases))
    }

    /// Heuristic 2: iterative compaction with phases of decreasing size
    /// `β, β−1, …, 1`; each phase continues from the previous phase's
    /// final rotation function via a fresh `FullSchedule` of the retimed
    /// graph. The sweep stops early when the prune signal says further
    /// work is pointless or the budget fires (a budget stop ends the
    /// sweep after the phase that recorded it — its chained reschedule
    /// is skipped, so the incumbent is exactly what the truncated search
    /// produced).
    ///
    /// The sweep also ends as soon as `Q` is **frozen**: its best score
    /// achieves the combined lower bound and it holds `keep_best`
    /// schedules. From then on every offer is rejected — a tie finds the
    /// set full and nothing beats a proven bound — so the returned `Q`
    /// is byte-identical to the full sweep's; only the rotation counts,
    /// phase statistics, and events shrink. The check runs right after
    /// the prune signal's, before each phase and at the top of each
    /// rotation, where both come before the budget poll: a budget stops
    /// the sweep only where a rotation would otherwise run, so a budget
    /// of exactly the rotations the sweep needs reports no stop (DESIGN
    /// §7 gives the order). The bound is computed once per sweep (a
    /// portfolio task reads its prune signal's) and returned in
    /// [`HeuristicOutcome::lower_bound`].
    ///
    /// Phases are **replayed whole** once the sweep repeats: when phase
    /// `q` starts on the state phase `q − P` of the same size started on
    /// (same schedule, retiming shifted by a constant), each remaining
    /// phase `i` replays phase `i − P` from the driver's [`CycleLog`],
    /// which keeps every executed phase's rotations for the whole sweep.
    /// The path of a sweep does not depend on `Q` — `Q`, the budget and
    /// the prune signal only decide when it stops — and every replayed
    /// state and reschedule repeats one `Q` already rejected or holds. A
    /// replayed phase keeps its events, budget poll and charge, prune
    /// and frozen checks and statistics, and its reschedule keeps its
    /// event and prune record, but it runs no context build, rotation
    /// step, wrap probe, scoring, offer or `FullSchedule`. So `Q`, every
    /// [`PhaseStats`], every budget-`k` prefix and every event but a
    /// phase end's memo counters are what executing the phases gives;
    /// [`HeuristicOutcome::replayed_phases`] counts them.
    ///
    /// # Errors
    ///
    /// Propagates graph and scheduling failures, and lower-bound
    /// failures.
    pub fn heuristic2(
        &mut self,
        config: &HeuristicConfig,
    ) -> Result<HeuristicOutcome, RotationError> {
        let init = self
            .step
            .initial_state(self.dfg, self.scheduler, self.resources)?;
        let bound = match self.prune {
            Some(p) => p.bound(),
            None => kernel_lower_bound(self.dfg, self.resources)?,
        };
        let mut best = self.initial_best(config.keep_best, &init)?;

        let beta = config
            .max_size
            .unwrap_or_else(|| init.length(self.dfg))
            .max(1);
        let mut phases: Vec<PhaseStats> = Vec::new();
        let mut state = init;
        self.log.begin_sweep(state.retiming.len());
        // Whether `state` is what the step mode's last full schedule —
        // the initial one or a reschedule — left: then the next executed
        // phase starts on that schedule's context instead of building one.
        let mut chained = true;
        'sweep: for _round in 0..config.rounds.max(1) {
            for size in (1..=beta).rev() {
                if self.prune.is_some_and(|p| p.should_stop(best.score)) {
                    self.observer.on_event(SearchEvent::Pruned);
                    break 'sweep;
                }
                if best.is_frozen(bound) {
                    break 'sweep;
                }
                let exec = self.log.source(phases.len(), size, &state);
                let stats = self.phase(
                    &mut state,
                    &mut best,
                    size,
                    config.rotations_per_phase,
                    Some((bound, exec)),
                    chained,
                )?;
                let (stopped, rotations) = (stats.stopped.is_some(), stats.rotations);
                phases.push(stats);
                if stopped {
                    break 'sweep;
                }

                if let Some(e) = exec {
                    chained = false;
                    // Only a lower-indexed task's bound (a cross-prune)
                    // cuts a replayed phase short, and the canonical merge
                    // discards this task's result; the state to reschedule
                    // is not logged, so the sweep just ends.
                    if rotations < self.log.rotations_of(e) {
                        break 'sweep;
                    }
                    let length = self.log.rescheduled(e);
                    self.observer.on_event(SearchEvent::Rescheduled { length });
                    // `Q` already rejected this schedule.
                    if let Some(p) = self.prune {
                        p.record(best.score);
                    }
                    continue;
                }
                // Find a new initial schedule for the next phase from the
                // accumulated rotation function: FullSchedule(G_R). The
                // rotation function is kept in place.
                self.step
                    .full_schedule(self.dfg, self.scheduler, self.resources, &mut state)?;
                chained = true;
                let wrapped = wrapped_length(&mut self.wrap, self.dfg, self.resources, &state)?;
                self.observer
                    .on_event(SearchEvent::Rescheduled { length: wrapped });
                self.offer(&mut best, wrapped, &state);
                self.log.end_phase(rotations, wrapped);
            }
        }
        let replayed_phases = self.log.replayed(phases.len());
        Ok(HeuristicOutcome {
            lower_bound: Some(bound),
            replayed_phases,
            ..HeuristicOutcome::from_parts(best, phases)
        })
    }
}

/// The wrapped length of `state` through the driver's reusable probe
/// `wrap`, built on first use — equal to
/// [`RotationState::wrapped_length`], which debug builds check on every
/// call.
fn wrapped_length(
    wrap: &mut Option<WrapScratch>,
    dfg: &Dfg,
    resources: &ResourceSet,
    state: &RotationState,
) -> Result<u32, RotationError> {
    let wrap = match wrap {
        Some(wrap) => wrap,
        None => wrap.insert(WrapScratch::new(dfg, resources)?),
    };
    Ok(wrap.wrapped_length(dfg, Some(&state.retiming), &state.schedule, resources)?)
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

    /// An observer that counts events by kind, for structural checks.
    #[derive(Default)]
    struct Counter {
        phase_starts: usize,
        phase_ends: usize,
        rotations: usize,
        improvements: usize,
        reschedules: usize,
        cache_hits: u64,
        lengths: Vec<u32>,
    }

    impl SearchObserver for Counter {
        fn on_event(&mut self, event: SearchEvent<'_>) {
            match event {
                SearchEvent::PhaseStart { .. } => self.phase_starts += 1,
                SearchEvent::PhaseEnd { cache, .. } => {
                    self.phase_ends += 1;
                    self.cache_hits += cache.weight_memo_hits;
                }
                SearchEvent::Rotated { length, node_set } => {
                    assert!(!node_set.is_empty());
                    self.rotations += 1;
                    self.lengths.push(length);
                }
                SearchEvent::IncumbentImproved { .. } => self.improvements += 1,
                SearchEvent::Rescheduled { .. } => self.reschedules += 1,
                SearchEvent::Pruned | SearchEvent::Stopped(_) => {}
            }
        }
    }

    #[test]
    fn events_mirror_phase_stats() {
        let g = ring(6, 3);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let mut driver =
            SearchDriver::incremental(&g, &sched, &res).with_observer(Counter::default());
        let mut state = initial_state(&g, &sched, &res).unwrap();
        let mut best = BestSet::new(4);
        let stats = driver.run_phase(&mut state, &mut best, 2, 8).unwrap();
        let counter = &driver.observer;
        assert_eq!(counter.phase_starts, 1);
        assert_eq!(counter.phase_ends, 1);
        assert_eq!(counter.rotations, stats.rotations);
        assert_eq!(counter.lengths, stats.lengths);
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        let g = ring(7, 2);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let config = HeuristicConfig {
            rotations_per_phase: 16,
            max_size: None,
            keep_best: 8,
            rounds: 1,
        };
        let plain = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config)
            .unwrap();
        let mut driver =
            SearchDriver::incremental(&g, &sched, &res).with_observer(Counter::default());
        let observed = driver.heuristic2(&config).unwrap();
        assert_eq!(plain.best_length, observed.best_length);
        assert_eq!(plain.best, observed.best);
        assert_eq!(plain.phases, observed.phases);
        assert_eq!(driver.observer.rotations, observed.total_rotations);
        assert!(driver.observer.improvements >= 1, "initial offer improves");
        assert_eq!(
            driver.observer.reschedules,
            observed.phases.len(),
            "one chained reschedule per completed phase"
        );
    }

    #[test]
    fn reference_and_incremental_drivers_agree() {
        let g = ring(6, 3);
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let config = HeuristicConfig {
            rotations_per_phase: 16,
            max_size: None,
            keep_best: 8,
            rounds: 1,
        };
        let fast = SearchDriver::incremental(&g, &sched, &res)
            .heuristic2(&config)
            .unwrap();
        let slow = SearchDriver::reference(&g, &sched, &res)
            .heuristic2(&config)
            .unwrap();
        assert_eq!(fast.best_length, slow.best_length);
        assert_eq!(fast.best, slow.best);
        assert_eq!(fast.phases, slow.phases);
    }

    #[test]
    fn incremental_rotations_match_the_from_scratch_operator() {
        let ring5 = ring(5, 2);
        // An add and a two-step mul, both starting at step 1: a size-1
        // rotation takes every start, and the mul's tail alone pads the
        // length, so the fixed remainder is empty.
        let tail = DfgBuilder::new("tail")
            .node("a", OpKind::Add, 1)
            .node("m", OpKind::Mul, 2)
            .edge("a", "m", 1)
            .edge("m", "a", 1)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        for (g, res) in [
            (&ring5, ResourceSet::adders_multipliers(2, 0, false)),
            (&tail, ResourceSet::adders_multipliers(1, 1, false)),
        ] {
            let mut step = IncrementalStep::default();
            let mut incremental = step.initial_state(g, &sched, &res).unwrap();
            let mut reference = initial_state(g, &sched, &res).unwrap();
            assert_eq!(incremental, reference);
            step.begin_phase(g, &sched, &res, &incremental, true)
                .unwrap();
            for _ in 0..6 {
                if incremental.length(g) <= 1 {
                    break;
                }
                let rotated = step
                    .rotate(g, &sched, &res, &mut incremental, 1)
                    .unwrap()
                    .to_vec();
                let outcome = down_rotate(g, &sched, &res, &mut reference, 1).unwrap();
                assert_eq!(rotated, outcome.rotated, "{}", g.name());
                assert_eq!(incremental, reference, "{}", g.name());
                assert_eq!(incremental.length(g), outcome.length, "{}", g.name());
            }
        }
        // Every start of `tail` lies in the size-1 prefix of its
        // two-step schedule.
        let st =
            initial_state(&tail, &sched, &ResourceSet::adders_multipliers(1, 1, false)).unwrap();
        assert_eq!(
            (st.schedule.prefix_nodes(1).len(), st.length(&tail)),
            (2, 2)
        );
    }

    #[test]
    fn both_step_modes_reject_invalid_sizes_alike() {
        let g = DfgBuilder::new("pair")
            .nodes("v", 2, OpKind::Add, 1)
            .wire("v0", "v1")
            .edge("v1", "v0", 1)
            .build()
            .unwrap();
        let sched = ListScheduler::default();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let mut incremental = IncrementalStep::default();
        let mut scratch = ScratchStep::default();
        let mut st = incremental.initial_state(&g, &sched, &res).unwrap();
        incremental
            .begin_phase(&g, &sched, &res, &st, true)
            .unwrap();
        scratch.begin_phase(&g, &sched, &res, &st, true).unwrap();
        let len = st.length(&g);
        for size in [0, len] {
            let want = Err(RotationError::InvalidSize {
                size,
                schedule_length: len,
            });
            let before = st.clone();
            let got = incremental.rotate(&g, &sched, &res, &mut st, size);
            assert_eq!(
                got.map(<[NodeId]>::to_vec),
                want,
                "incremental, size {size}"
            );
            let got = scratch.rotate(&g, &sched, &res, &mut st, size);
            assert_eq!(got.map(<[NodeId]>::to_vec), want, "scratch, size {size}");
            assert_eq!(st, before, "size {size} left the state as it was");
        }
    }
}
