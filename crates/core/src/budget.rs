//! Solve budgets and cooperative cancellation — the anytime layer.
//!
//! Rotation scheduling is an iterative-improvement loop: every
//! down-rotation offers its result to a [`BestSet`](crate::BestSet) and
//! the best incumbent only ever improves. That makes every solve a
//! natural *anytime* algorithm — stopping it early is always safe, it
//! simply returns the best legal schedule seen so far. This module
//! provides the machinery to stop it:
//!
//! * [`Budget`] — a declarative limit: wall-clock deadline, rotation
//!   (step) budget, and/or an external [`CancelToken`].
//! * [`BudgetMeter`] — one *armed* budget: the deadline anchored to a
//!   start instant and a shared rotation counter. One meter spans a
//!   whole solve, including every portfolio worker.
//! * [`StopReason`] — why a solve stopped early, recorded in
//!   [`PhaseStats::stopped`](crate::PhaseStats) at the exact rotation
//!   where the check fired.
//!
//! ## Guarantees
//!
//! * **Checked cooperatively at down-rotation granularity.** The phase
//!   loop consults the meter before every rotation; no rotation is ever
//!   abandoned halfway, so the incumbent schedule is always a complete,
//!   legal static schedule (enforced by the `seeded_anytime` suite).
//! * **Zero-cost when unlimited.** An unlimited budget performs no
//!   clock reads and no atomic traffic in the check, and a solve under
//!   it is bit-identical to one without any budget (enforced by the
//!   `seeded_incremental` and `seeded_portfolio` suites).
//! * **Deterministic under rotation budgets.** `max_rotations` counts
//!   rotations, not time, so single-threaded solves truncated at `k`
//!   rotations reproduce exactly the first `k` steps of the unlimited
//!   run — best lengths are monotone non-increasing in `k`. Deadlines
//!   and cancellation are inherently timing-dependent; results under
//!   them are still always legal, just not reproducible.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve stopped before finishing its search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StopReason {
    /// The external [`CancelToken`] was triggered.
    Cancelled,
    /// The rotation (step) budget was used up.
    RotationBudget,
    /// The wall-clock deadline passed.
    Deadline,
}

impl core::fmt::Display for StopReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            StopReason::Cancelled => "cancelled",
            StopReason::RotationBudget => "rotation budget exhausted",
            StopReason::Deadline => "deadline expired",
        })
    }
}

/// A shareable flag that cancels every solve holding a clone of it.
///
/// Cancellation is *cooperative*: the solve observes the flag at
/// down-rotation granularity, finishes the rotation in flight, and
/// returns its incumbent best. Cancelling is idempotent and permanent —
/// there is no way to un-cancel a token.
///
/// # Examples
///
/// ```
/// use rotsched_core::CancelToken;
///
/// let token = CancelToken::new();
/// let handle = token.clone(); // give this to another thread
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of every solve holding this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A declarative solve limit: any combination of a wall-clock deadline,
/// a rotation budget, and an external cancel flag. The default is
/// unlimited — a solve under it behaves exactly like one without a
/// budget.
///
/// A `Budget` is inert configuration; [`Budget::arm`] anchors it to a
/// start instant and produces the [`BudgetMeter`] the solve checks.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use rotsched_core::{Budget, CancelToken};
///
/// let budget = Budget::default()
///     .with_deadline(Duration::from_millis(200))
///     .with_max_rotations(10_000)
///     .with_cancel(CancelToken::new());
/// assert!(!budget.is_unlimited());
/// assert!(Budget::default().is_unlimited());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Duration>,
    max_rotations: Option<u64>,
    cancel: Option<CancelToken>,
    panic_after: Option<u64>,
}

impl Budget {
    /// The unlimited budget (same as `Budget::default()`).
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limits the solve to `deadline` of wall-clock time from the
    /// moment the budget is armed.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limits the solve to `max` down-rotations in total (across every
    /// phase and every portfolio worker). `0` stops before the first
    /// rotation — the solve returns its initial list schedule.
    #[must_use]
    pub fn with_max_rotations(mut self, max: u64) -> Self {
        self.max_rotations = Some(max);
        self
    }

    /// Attaches an external cancellation flag.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms the solve to panic once `rotations` down-rotations have
    /// been charged (`0` panics at the first cancellation point). This
    /// is the fault-injection surface the serve layer's chaos suite
    /// uses to kill a solver mid-search with partial state on the
    /// stack; it is not part of the public budget contract.
    #[doc(hidden)]
    #[must_use]
    pub fn with_panic_after(mut self, rotations: u64) -> Self {
        self.panic_after = Some(rotations);
        self
    }

    /// True when no limit of any kind is configured. An armed panic
    /// injection counts as a limit so the engine keeps polling the
    /// meter (and the rotation counter) even under an otherwise
    /// unlimited budget.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rotations.is_none()
            && self.cancel.is_none()
            && self.panic_after.is_none()
    }

    /// The configured wall-clock deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The configured rotation (step) budget, if any.
    #[must_use]
    pub fn max_rotations(&self) -> Option<u64> {
        self.max_rotations
    }

    /// Anchors the budget to *now* and returns the meter a solve checks.
    #[must_use]
    pub fn arm(&self) -> BudgetMeter {
        BudgetMeter {
            deadline: self.deadline.map(|d| Instant::now() + d),
            max_rotations: self.max_rotations,
            rotations: AtomicU64::new(0),
            cancel: self.cancel.clone(),
            panic_after: self.panic_after,
        }
    }
}

/// Budgets compare by their declarative limits. Cancel tokens have no
/// observable configuration, so they compare by *presence* only: two
/// budgets holding different tokens are equal as configurations even
/// though the tokens are independent flags.
impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
            && self.max_rotations == other.max_rotations
            && self.cancel.is_some() == other.cancel.is_some()
            && self.panic_after == other.panic_after
    }
}

impl Eq for Budget {}

/// One armed [`Budget`]: the live state a solve consults cooperatively
/// at down-rotation granularity. A single meter is shared by every
/// phase — and every portfolio worker — of one solve, so the rotation
/// budget is global to the solve rather than per-worker.
#[derive(Debug)]
pub struct BudgetMeter {
    deadline: Option<Instant>,
    max_rotations: Option<u64>,
    rotations: AtomicU64,
    cancel: Option<CancelToken>,
    panic_after: Option<u64>,
}

impl BudgetMeter {
    /// Records one performed down-rotation against the budget.
    pub fn charge_rotation(&self) {
        // Skip the atomic traffic entirely when nothing reads the
        // counter — the unlimited fast path must stay contention-free.
        if self.max_rotations.is_some() || self.panic_after.is_some() {
            self.rotations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Down-rotations charged so far (0 when no rotation budget is set:
    /// the counter is only maintained when something can read it).
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed)
    }

    /// Should the solve stop *now*? Checked before every rotation.
    /// Returns the reason, or `None` while the budget holds. An
    /// unlimited meter answers without reading the clock.
    ///
    /// Check order (first match wins): cancellation, rotation budget,
    /// deadline — the deterministic limits are consulted before the
    /// clock so mixed budgets report reproducibly when both would fire.
    #[must_use]
    pub fn check(&self) -> Option<StopReason> {
        // The fault-injection surface: an armed panic fires before any
        // ordinary limit so chaos tests can rely on it deterministically.
        if self
            .panic_after
            .is_some_and(|k| self.rotations.load(Ordering::Relaxed) >= k)
        {
            panic!("injected mid-search panic (fault injection)");
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self
            .max_rotations
            .is_some_and(|max| self.rotations.load(Ordering::Relaxed) >= max)
        {
            return Some(StopReason::RotationBudget);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::Deadline);
        }
        None
    }

    /// True when this meter can never fire.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rotations.is_none()
            && self.cancel.is_none()
            && self.panic_after.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fires() {
        let meter = Budget::unlimited().arm();
        assert!(meter.is_unlimited());
        for _ in 0..100 {
            meter.charge_rotation();
            assert_eq!(meter.check(), None);
        }
    }

    #[test]
    fn rotation_budget_fires_exactly_at_the_limit() {
        let meter = Budget::default().with_max_rotations(3).arm();
        assert_eq!(meter.check(), None);
        for _ in 0..3 {
            meter.charge_rotation();
        }
        assert_eq!(meter.check(), Some(StopReason::RotationBudget));
        assert_eq!(meter.rotations(), 3);
    }

    #[test]
    fn zero_rotation_budget_fires_immediately() {
        let meter = Budget::default().with_max_rotations(0).arm();
        assert_eq!(meter.check(), Some(StopReason::RotationBudget));
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let meter = Budget::default().with_deadline(Duration::ZERO).arm();
        assert_eq!(meter.check(), Some(StopReason::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let meter = Budget::default()
            .with_deadline(Duration::from_hours(1))
            .arm();
        assert_eq!(meter.check(), None);
    }

    #[test]
    fn cancel_token_is_shared_and_permanent() {
        let token = CancelToken::new();
        let meter = Budget::default().with_cancel(token.clone()).arm();
        assert_eq!(meter.check(), None);
        token.cancel();
        assert_eq!(meter.check(), Some(StopReason::Cancelled));
        token.cancel(); // idempotent
        assert_eq!(meter.check(), Some(StopReason::Cancelled));
    }

    #[test]
    fn deterministic_limits_win_over_the_clock() {
        let token = CancelToken::new();
        token.cancel();
        let meter = Budget::default()
            .with_deadline(Duration::ZERO)
            .with_max_rotations(0)
            .with_cancel(token)
            .arm();
        assert_eq!(meter.check(), Some(StopReason::Cancelled));
    }

    #[test]
    fn unlimited_flag_reflects_configuration() {
        assert!(Budget::default().is_unlimited());
        assert!(!Budget::default().with_max_rotations(1).is_unlimited());
        assert!(!Budget::default()
            .with_deadline(Duration::from_secs(1))
            .is_unlimited());
        assert!(!Budget::default()
            .with_cancel(CancelToken::new())
            .is_unlimited());
        assert!(Budget::default()
            .with_max_rotations(1)
            .arm()
            .check()
            .is_none());
    }

    #[test]
    fn injected_panic_fires_at_the_armed_rotation() {
        let meter = Budget::default().with_panic_after(2).arm();
        assert!(!meter.is_unlimited());
        assert_eq!(meter.check(), None);
        meter.charge_rotation();
        assert_eq!(meter.check(), None);
        meter.charge_rotation();
        let err = std::panic::catch_unwind(|| meter.check()).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("injected mid-search panic"), "{msg}");
    }

    #[test]
    fn injected_panic_counts_as_a_limit() {
        // `is_unlimited` must be false so the scheduler arms a meter
        // for an otherwise unlimited budget; equality must see it too.
        assert!(!Budget::default().with_panic_after(5).is_unlimited());
        assert_ne!(
            Budget::default().with_panic_after(5),
            Budget::default(),
            "panic arming must be visible to budget equality"
        );
    }

    #[test]
    fn stop_reasons_display() {
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(
            StopReason::RotationBudget.to_string(),
            "rotation budget exhausted"
        );
        assert_eq!(StopReason::Deadline.to_string(), "deadline expired");
    }
}
