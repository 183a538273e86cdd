//! The allocation-free wrapped-length probe (`WrapScratch`) against the
//! reference `wrapped_length`, as a real assertion: inside the library
//! the cross-check is a `debug_assert`, so it vanishes from release
//! builds. Run this suite with `--release` too.
//!
//! Inputs: seeded random DFGs with 2- and 3-step multiplies (so one-delay
//! edges leave multi-cycle producers), pipelined and non-pipelined
//! multipliers, schedules reached by rotation under the accumulated
//! retiming, the same schedules shifted off step 1 (unnormalized),
//! perturbed schedules that break precedence or resources, and
//! incomplete ones. The suite tallies which rejection each wrapped
//! target met — a tail crossing two kernel boundaries, a resource
//! overflow, a one-delay precedence — and requires every kind.

mod common;

use common::{random_dfg, rotate_prefix};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, Retiming};
use rotsched_sched::{
    wrap_to_length, wrapped_length, ListScheduler, ResourceSet, SchedError, Schedule, WrapScratch,
};

const GRAPHS: u64 = 128;
/// Rotations per (graph, resources) case.
const ROTATIONS: usize = 24;

/// Which checks rejected targets below the reference's answer.
#[derive(Default)]
struct Coverage {
    probes: usize,
    wrapped: usize,
    two_boundaries: usize,
    resources: usize,
    one_delay: usize,
    errors: usize,
}

impl Coverage {
    /// Classifies why each target below `length` failed.
    fn tally(
        &mut self,
        dfg: &Dfg,
        retiming: &Retiming,
        schedule: &Schedule,
        res: &ResourceSet,
        length: u32,
    ) {
        let mut normalized = schedule.clone();
        normalized.normalize();
        let min_start = normalized.iter().map(|(_, cs)| cs).max().unwrap_or(1);
        if length < normalized.length(dfg) {
            self.wrapped += 1;
        }
        for target in min_start..length {
            match wrap_to_length(dfg, Some(retiming), &normalized, res, target) {
                Err(SchedError::NoFeasibleSlot { .. }) => self.two_boundaries += 1,
                Err(SchedError::ResourceOverflow { .. }) => self.resources += 1,
                Err(SchedError::PrecedenceViolated { .. }) => self.one_delay += 1,
                other => panic!("target {target} below the minimal wrap: {other:?}"),
            }
        }
    }
}

/// Asserts the probe and the reference agree exactly — same length or
/// same error — and tallies the case.
fn check(
    ctx: &str,
    scratch: &mut WrapScratch,
    dfg: &Dfg,
    retiming: &Retiming,
    schedule: &Schedule,
    res: &ResourceSet,
    coverage: &mut Coverage,
) {
    let want = wrapped_length(dfg, Some(retiming), schedule, res);
    let got = scratch.wrapped_length(dfg, Some(retiming), schedule, res);
    assert_eq!(got, want, "{ctx}");
    coverage.probes += 1;
    match want {
        Ok(length) => coverage.tally(dfg, retiming, schedule, res, length),
        Err(_) => coverage.errors += 1,
    }
}

#[test]
fn scratch_probe_matches_the_reference_wrap() {
    let mut coverage = Coverage::default();
    for seed in 0..GRAPHS {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_u32(3, 20) as usize;
        let mul_time = rng.range_u32(2, 3);
        let density = [0.1, 0.2, 0.35][rng.index(3)];
        let g = random_dfg(&mut rng, n, mul_time, density);
        for pipelined in [false, true] {
            let res = ResourceSet::adders_multipliers(
                rng.range_u32(1, 3),
                rng.range_u32(1, 2),
                pipelined,
            );
            let scheduler = ListScheduler::default();
            let mut scratch = WrapScratch::new(&g, &res).expect("every op binds");
            let mut schedule = scheduler.schedule(&g, None, &res).expect("DAGs schedule");
            let mut retiming = Retiming::zero(&g);
            for step in 0..ROTATIONS {
                let ctx = format!("seed {seed}, pipelined {pipelined}, step {step}");
                check(
                    &ctx,
                    &mut scratch,
                    &g,
                    &retiming,
                    &schedule,
                    &res,
                    &mut coverage,
                );

                // The same schedule off step 1: the probe normalizes
                // virtually, the reference by cloning.
                let mut shifted = schedule.clone();
                shifted.shift(i64::from(rng.range_u32(1, 5)));
                check(
                    &format!("{ctx}, shifted"),
                    &mut scratch,
                    &g,
                    &retiming,
                    &shifted,
                    &res,
                    &mut coverage,
                );

                // One node moved: may break a zero-delay precedence, a
                // resource, or a wrap condition — or nothing.
                let mut moved = schedule.clone();
                let v = g.node_ids().nth(rng.index(n)).expect("n > 0");
                moved.set(v, rng.range_u32(1, schedule.length(&g) + 2));
                check(
                    &format!("{ctx}, moved"),
                    &mut scratch,
                    &g,
                    &retiming,
                    &moved,
                    &res,
                    &mut coverage,
                );

                // Incomplete: both report the unscheduled node.
                let mut partial = schedule.clone();
                partial.clear(v);
                check(
                    &format!("{ctx}, partial"),
                    &mut scratch,
                    &g,
                    &retiming,
                    &partial,
                    &res,
                    &mut coverage,
                );

                let length = schedule.length(&g);
                if length <= 1 {
                    break;
                }
                let size = rng.range_u32(1, length - 1);
                let prefix = rotate_prefix(&g, &mut schedule, &mut retiming, size);
                if scheduler
                    .reschedule(&g, Some(&retiming), &res, &mut schedule, &prefix)
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    let Coverage {
        probes,
        wrapped,
        two_boundaries,
        resources,
        one_delay,
        errors,
    } = coverage;
    assert!(probes > 5_000, "probes {probes}");
    assert!(wrapped > 100, "wrapped tails {wrapped}");
    assert!(two_boundaries > 10, "two-boundary tails {two_boundaries}");
    assert!(resources > 100, "resource rejections {resources}");
    assert!(one_delay > 10, "one-delay rejections {one_delay}");
    assert!(errors > 100, "errors {errors}");
}
