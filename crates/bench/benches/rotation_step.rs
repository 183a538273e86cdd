//! Cost of one rotation step, and the ablation DESIGN.md calls out:
//! incremental rescheduling of only the rotated set (the paper's
//! approach) vs. rescheduling the whole graph after each rotation.

use core::time::Duration;
use rotsched_bench::harness::Harness;
use rotsched_benchmarks::{all_benchmarks, random_dfg, RandomDfgConfig, TimingModel};
use rotsched_core::{down_rotate, initial_state, RotationContext, RotationState};
use rotsched_dfg::Dfg;
use rotsched_sched::{ListScheduler, ResourceSet};

/// Down-rotations per measured iteration in the context-vs-scratch
/// arms. The rotation sequence continues across iterations (rotation is
/// endless — the state space is periodic), so both arms measure the
/// steady state a rotation phase actually runs in (the context arm on a
/// warm weight memo; the scratch arm computes its weights every step).
const STEPS: usize = 32;

fn one_rotation_partial(g: &Dfg, res: &ResourceSet) {
    let sched = ListScheduler::default();
    let mut state = initial_state(g, &sched, res).expect("schedulable");
    down_rotate(g, &sched, res, &mut state, 1).expect("legal");
}

/// Persistent per-arm state: the rotation sequence picks up where the
/// previous measured iteration left off.
struct SteppedArm {
    sched: ListScheduler,
    state: RotationState,
    ctx: Option<RotationContext>,
}

impl SteppedArm {
    fn new(g: &Dfg, res: &ResourceSet, with_context: bool) -> Self {
        let sched = ListScheduler::default();
        let state = initial_state(g, &sched, res).expect("schedulable");
        let ctx = with_context
            .then(|| RotationContext::new(g, &sched, res, &state).expect("schedulable"));
        SteppedArm { sched, state, ctx }
    }

    /// `STEPS` size-1 rotations — through the persistent
    /// [`RotationContext`] (the tentpole arm) or the from-scratch
    /// operator (the before arm).
    fn run(&mut self, g: &Dfg, res: &ResourceSet) {
        for _ in 0..STEPS {
            if self.state.length(g) <= 1 {
                break;
            }
            match &mut self.ctx {
                Some(ctx) => ctx.down_rotate(g, res, &mut self.state, 1).expect("legal"),
                None => down_rotate(g, &self.sched, res, &mut self.state, 1).expect("legal"),
            };
        }
    }
}

/// The ablation arm: rotate, then throw the incremental result away and
/// reschedule everything from scratch on the retimed graph.
fn one_rotation_full_reschedule(g: &Dfg, res: &ResourceSet) {
    let sched = ListScheduler::default();
    let mut state = initial_state(g, &sched, res).expect("schedulable");
    down_rotate(g, &sched, res, &mut state, 1).expect("legal");
    state.schedule = sched
        .schedule(g, Some(&state.retiming), res)
        .expect("schedulable");
}

fn main() {
    let mut h = Harness::new("rotation_step").with_budget(
        Duration::from_millis(500),
        Duration::from_secs(2),
        20,
    );
    let res = ResourceSet::adders_multipliers(2, 2, false);
    for (name, g) in all_benchmarks(&TimingModel::paper()) {
        h.bench(&format!("partial/{name}"), || {
            one_rotation_partial(&g, &res);
        });
        h.bench(&format!("full-reschedule/{name}"), || {
            one_rotation_full_reschedule(&g, &res);
        });
    }
    // Scaling on random graphs.
    for nodes in [50, 100, 200] {
        let g = random_dfg(
            &RandomDfgConfig {
                nodes,
                ..RandomDfgConfig::default()
            },
            7,
        );
        h.bench(&format!("partial-random/{nodes}"), || {
            one_rotation_partial(&g, &res);
        });
    }
    // Tentpole comparison: `STEPS` size-1 rotations through a persistent
    // RotationContext vs. the same sequence from scratch, on the 64-node
    // random suite. The context arm is the one the phase driver runs.
    for seed in [1, 2, 3] {
        let g = random_dfg(
            &RandomDfgConfig {
                nodes: 64,
                ..RandomDfgConfig::default()
            },
            seed,
        );
        let mut context_arm = SteppedArm::new(&g, &res, true);
        h.bench(&format!("context-steps/random64-seed{seed}"), || {
            context_arm.run(&g, &res);
        });
        let mut scratch_arm = SteppedArm::new(&g, &res, false);
        h.bench(&format!("scratch-steps/random64-seed{seed}"), || {
            scratch_arm.run(&g, &res);
        });
    }
    h.finish();
}
