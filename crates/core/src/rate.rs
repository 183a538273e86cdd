//! The unfolding front end: rate-optimal scheduling beyond the integer
//! iteration bound.
//!
//! Section 7: "The unfolding of loops is considered in the front end of
//! our system to generate a data-flow graph with high execution rate
//! [3, 2], where the size of repeating pattern can be controlled."
//!
//! A loop with a *fractional* maximum cycle ratio (say 3/2) can never
//! have a 1.5-step kernel — static schedules have integer length, so a
//! single-iteration kernel is stuck at `⌈3/2⌉ = 2` steps per iteration.
//! Unfolding by `f` multiplies the cycle ratio by exactly `f`
//! (a property tested in `rotsched-dfg`), so unfolding by the ratio's
//! denominator makes the bound integral: rotation scheduling on the
//! unfolded graph then reaches `f · T/D` steps per `f` iterations —
//! `T/D` per original iteration, the true rate optimum.

use rotsched_dfg::analysis::max_cycle_ratio;
use rotsched_dfg::unfold::unfold;
use rotsched_dfg::Dfg;
use rotsched_sched::ResourceSet;

use crate::error::RotationError;
use crate::heuristics::HeuristicConfig;
use crate::scheduler::RotationScheduler;

/// Result of unfold-then-rotate at one unfolding factor.
#[derive(Clone, Debug)]
pub struct RateResult {
    /// The unfolding factor used.
    pub factor: u32,
    /// Kernel length of the unfolded loop (covers `factor` original
    /// iterations).
    pub kernel_length: u32,
    /// Control steps per **original** iteration.
    pub per_iteration: f64,
    /// Pipeline depth of the unfolded kernel.
    pub depth: u32,
}

/// Rotation-schedules the loop unfolded by `factor`.
///
/// # Errors
///
/// Propagates graph and scheduling failures.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn unfold_and_rotate(
    dfg: &Dfg,
    resources: &ResourceSet,
    config: &HeuristicConfig,
    factor: u32,
) -> Result<RateResult, RotationError> {
    assert!(factor >= 1, "unfolding factor must be at least 1");
    let unfolded = unfold(dfg, factor)?;
    let solved = RotationScheduler::new(&unfolded.graph, resources.clone())
        .with_config(*config)
        .solve()?;
    Ok(RateResult {
        factor,
        kernel_length: solved.length,
        per_iteration: f64::from(solved.length) / f64::from(factor),
        depth: solved.depth,
    })
}

/// Picks the unfolding factor that makes the iteration bound integral
/// (the denominator of the max cycle ratio, capped at `max_factor`) and
/// rotation-schedules at that factor.
///
/// For loops whose ratio is already integral this is plain rotation
/// scheduling (`factor = 1`).
///
/// # Errors
///
/// Propagates graph and scheduling failures.
pub fn rate_optimal(
    dfg: &Dfg,
    resources: &ResourceSet,
    config: &HeuristicConfig,
    max_factor: u32,
) -> Result<RateResult, RotationError> {
    let factor = match max_cycle_ratio(dfg)? {
        Some(ratio) => u32::try_from(ratio.den())
            .unwrap_or(1)
            .min(max_factor.max(1)),
        None => 1,
    };
    unfold_and_rotate(dfg, resources, config, factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    /// Three unit ops around two registers: max cycle ratio 3/2 — the
    /// canonical fractional-rate loop.
    fn fractional_ring() -> Dfg {
        DfgBuilder::new("frac")
            .nodes("v", 3, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2"])
            .edge("v2", "v0", 2)
            .build()
            .unwrap()
    }

    fn config() -> HeuristicConfig {
        HeuristicConfig {
            rotations_per_phase: 16,
            max_size: None,
            keep_best: 4,
            rounds: 2,
        }
    }

    #[test]
    fn rate_bound_is_exact() {
        let g = fractional_ring();
        // The rate bound is the maximum cycle ratio `T/D`.
        let b = max_cycle_ratio(&g).unwrap().unwrap();
        assert_eq!((b.num(), b.den()), (3, 2));
    }

    #[test]
    fn plain_rotation_is_stuck_at_the_integer_bound() {
        let g = fractional_ring();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let r = unfold_and_rotate(&g, &res, &config(), 1).unwrap();
        assert_eq!(r.kernel_length, 2);
        assert!((r.per_iteration - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unfolding_by_the_denominator_reaches_the_true_rate() {
        let g = fractional_ring();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let r = rate_optimal(&g, &res, &config(), 8).unwrap();
        assert_eq!(r.factor, 2);
        assert_eq!(r.kernel_length, 3, "3 steps per 2 iterations");
        assert!(
            (r.per_iteration - 1.5).abs() < 1e-9,
            "beats the integer IB of 2"
        );
    }

    #[test]
    fn integral_ratio_needs_no_unfolding() {
        let g = DfgBuilder::new("int")
            .nodes("v", 4, OpKind::Add, 1)
            .chain(&["v0", "v1", "v2", "v3"])
            .edge("v3", "v0", 2)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let r = rate_optimal(&g, &res, &config(), 8).unwrap();
        assert_eq!(r.factor, 1);
        assert_eq!(r.kernel_length, 2);
    }

    #[test]
    fn max_factor_caps_the_unfolding() {
        let g = fractional_ring();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let r = rate_optimal(&g, &res, &config(), 1).unwrap();
        assert_eq!(r.factor, 1, "cap of 1 forbids unfolding");
    }

    #[test]
    fn resources_still_bound_the_unfolded_rate() {
        // 3 ops/iteration on ONE adder: 3 steps per iteration no matter
        // how much we unfold.
        let g = fractional_ring();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let r = rate_optimal(&g, &res, &config(), 8).unwrap();
        assert!((r.per_iteration - 3.0).abs() < 1e-9);
    }
}
