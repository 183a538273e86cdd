//! Cycle-accurate functional execution of a pipelined loop schedule.
//!
//! This is the end-to-end verifier for the whole stack: it takes a
//! [`LoopSchedule`] (kernel + retiming), expands it over `N` iterations
//! (prologue / kernel / epilogue), and *executes* it on a simulated
//! datapath with the given functional units, checking that
//!
//! 1. every operand is **available** when an operation starts — the
//!    producing execution (of the right iteration, per edge delays) has
//!    finished;
//! 2. no control step uses more units of a class than exist;
//! 3. the **values** computed equal those of a plain sequential
//!    execution of the loop.
//!
//! Values are symbolic tokens: `value(v, j)` is a hash mixing the node's
//! identity, its operation, and the operand tokens `value(u, j − d)` for
//! each incoming edge (with seeded tokens for iterations before the
//! loop). Two executions agree on every token exactly when they perform
//! the same computation — so a passing run certifies that rotation
//! rearranged the loop without changing its meaning.

use std::collections::HashMap;

use rotsched_dfg::{Dfg, NodeId};

use crate::error::SchedError;
use crate::prologue::LoopSchedule;
use crate::resources::ResourceSet;

/// A symbolic value computed by one node execution.
pub type Token = u64;

/// Outcome of a successful simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimulationReport {
    /// Iterations executed.
    pub iterations: u32,
    /// Total control steps from first prologue step to last finish.
    pub makespan: u64,
    /// Control steps a non-pipelined sequential execution would need:
    /// one iteration after another, each taking a resource-constrained
    /// DAG list schedule of the loop body — the fair no-pipelining
    /// reference for a speedup figure.
    pub sequential_steps: u64,
    /// Number of node executions performed.
    pub executions: usize,
}

impl SimulationReport {
    /// Pipelining speedup over the sequential reference.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.sequential_steps as f64 / self.makespan as f64
    }
}

/// Simulation failure: either a structural violation caught while
/// replaying the pipeline, or a token mismatch against the sequential
/// reference.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimulationError {
    /// The pipeline used an operand before its producer finished.
    OperandNotReady {
        /// The consuming node.
        node: NodeId,
        /// The consuming iteration.
        iteration: u32,
        /// The producing node.
        operand: NodeId,
        /// The producing iteration.
        operand_iteration: i64,
    },
    /// A structural schedule error (resource overflow, missing node).
    Schedule(SchedError),
    /// The pipelined execution produced a different value than the
    /// sequential reference.
    TokenMismatch {
        /// The node whose value differs.
        node: NodeId,
        /// The iteration at which it differs.
        iteration: u32,
    },
}

impl core::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimulationError::OperandNotReady {
                node,
                iteration,
                operand,
                operand_iteration,
            } => write!(
                f,
                "operand not ready: {node} (iteration {iteration}) reads {operand} of iteration {operand_iteration} before it finished"
            ),
            SimulationError::Schedule(e) => write!(f, "schedule violation: {e}"),
            SimulationError::TokenMismatch { node, iteration } => write!(
                f,
                "value mismatch at {node}, iteration {iteration}: pipeline diverged from sequential execution"
            ),
        }
    }
}

impl std::error::Error for SimulationError {}

impl From<SchedError> for SimulationError {
    fn from(e: SchedError) -> Self {
        SimulationError::Schedule(e)
    }
}

fn mix(a: u64, b: u64) -> u64 {
    // splitmix64-style mixing; good enough to make collisions
    // vanishingly unlikely for test-sized runs.
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded token for iterations before the loop starts (the loop's
/// initial values / register contents).
fn initial_token(v: NodeId, iteration: i64) -> Token {
    mix(
        0xDEAD_BEEF_0BAD_F00D,
        mix(v.index() as u64, iteration as u64),
    )
}

/// Sequential reference semantics: `value(v, j)` for all nodes and
/// iterations `0..n`, computed iteration by iteration in topological
/// order of the zero-delay DAG.
///
/// # Errors
///
/// Returns [`SchedError::Graph`] if the graph has no static schedule.
pub fn sequential_tokens(dfg: &Dfg, iterations: u32) -> Result<Vec<Vec<Token>>, SchedError> {
    let order = rotsched_dfg::analysis::zero_delay_topological_order(dfg, None)
        .map_err(SchedError::from)?;
    let mut tokens = vec![vec![0_u64; dfg.node_count()]; iterations as usize];
    for j in 0..i64::from(iterations) {
        for &v in &order {
            tokens[j as usize][v.index()] = compute_token(dfg, v, j, |u, ju| {
                if ju < 0 {
                    initial_token(u, ju)
                } else {
                    tokens[ju as usize][u.index()]
                }
            });
        }
    }
    Ok(tokens)
}

/// `value(v, j)` from operand lookups: mixes the node identity with each
/// incoming edge's operand value `value(u, j − d)` in edge order.
fn compute_token(
    dfg: &Dfg,
    v: NodeId,
    iteration: i64,
    mut operand: impl FnMut(NodeId, i64) -> Token,
) -> Token {
    let mut acc = mix(v.index() as u64 + 1, dfg.node(v).op() as u64 + 1);
    for &e in dfg.in_edges(v) {
        let edge = dfg.edge(e);
        let ju = iteration - i64::from(edge.delays());
        acc = mix(acc, operand(edge.from(), ju));
    }
    acc
}

/// Replays `loop_schedule` over `iterations` iterations and verifies it
/// end-to-end against the sequential reference.
///
/// # Errors
///
/// Returns the first [`SimulationError`] encountered; a passing run
/// certifies operand availability, resource limits, and value equality.
pub fn simulate(
    dfg: &Dfg,
    loop_schedule: &LoopSchedule,
    resources: &ResourceSet,
    iterations: u32,
) -> Result<SimulationReport, SimulationError> {
    let reference = sequential_tokens(dfg, iterations)?;
    let events = loop_schedule.events(dfg, iterations);

    // finish[(v, j)] = absolute step at whose *end* the value is ready.
    let mut finish_time: HashMap<(NodeId, u32), i64> = HashMap::new();
    let mut start_time: HashMap<(NodeId, u32), i64> = HashMap::new();
    for e in &events {
        start_time.insert((e.node, e.iteration), e.start);
        finish_time.insert(
            (e.node, e.iteration),
            e.start + i64::from(dfg.node(e.node).steps()) - 1,
        );
    }

    // Resource usage per absolute step.
    let mut usage: HashMap<(usize, i64), u32> = HashMap::new();
    for e in &events {
        let class_id = resources
            .class_for(dfg.node(e.node).op())
            .ok_or(SchedError::UnboundOp { node: e.node })?;
        let class = resources.class(class_id);
        for off in class.occupancy(dfg.node(e.node).time()) {
            let step = e.start + i64::from(off);
            let slot = usage.entry((class_id.index(), step)).or_insert(0);
            *slot += 1;
            if *slot > class.count() {
                return Err(SchedError::ResourceOverflow {
                    class: class.name().to_owned(),
                    cs: u32::try_from(step.max(1)).unwrap_or(u32::MAX),
                    used: *slot,
                    limit: class.count(),
                }
                .into());
            }
        }
    }

    // Replay in time order, computing tokens and checking availability.
    let mut tokens: HashMap<(NodeId, u32), Token> = HashMap::new();
    for e in &events {
        let mut not_ready = None;
        let token = compute_token(dfg, e.node, i64::from(e.iteration), |u, ju| {
            if ju < 0 {
                return initial_token(u, ju);
            }
            let ju32 = u32::try_from(ju).expect("non-negative iteration");
            match (finish_time.get(&(u, ju32)), tokens.get(&(u, ju32))) {
                (Some(&fin), Some(&tok)) if fin < e.start => tok,
                _ => {
                    not_ready.get_or_insert((u, ju));
                    0
                }
            }
        });
        if let Some((operand, operand_iteration)) = not_ready {
            return Err(SimulationError::OperandNotReady {
                node: e.node,
                iteration: e.iteration,
                operand,
                operand_iteration,
            });
        }
        tokens.insert((e.node, e.iteration), token);
    }

    // Compare against the reference.
    for (j, row) in reference.iter().enumerate() {
        for v in dfg.node_ids() {
            let got = tokens.get(&(v, j as u32)).copied();
            if got != Some(row[v.index()]) {
                return Err(SimulationError::TokenMismatch {
                    node: v,
                    iteration: j as u32,
                });
            }
        }
    }

    let body = crate::list::ListScheduler::default().schedule(dfg, None, resources)?;
    let sequential_body = u64::from(body.length(dfg));
    Ok(SimulationReport {
        iterations,
        makespan: loop_schedule.makespan(dfg, iterations),
        sequential_steps: sequential_body * u64::from(iterations),
        executions: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use rotsched_dfg::{DfgBuilder, OpKind, Retiming};

    fn iir() -> Dfg {
        DfgBuilder::new("iir")
            .node("m", OpKind::Mul, 1)
            .node("a", OpKind::Add, 1)
            .wire("m", "a")
            .edge("a", "m", 1)
            .build()
            .unwrap()
    }

    fn resources() -> ResourceSet {
        ResourceSet::adders_multipliers(1, 1, false)
    }

    #[test]
    fn unpipelined_schedule_simulates_cleanly() {
        let g = iir();
        let mut s = Schedule::empty(&g);
        s.set(g.node_by_name("m").unwrap(), 1);
        s.set(g.node_by_name("a").unwrap(), 2);
        let ls = LoopSchedule::new(2, s, Retiming::zero(&g));
        let report = simulate(&g, &ls, &resources(), 8).unwrap();
        assert_eq!(report.executions, 16);
        assert_eq!(report.iterations, 8);
    }

    #[test]
    fn rotated_schedule_matches_sequential_semantics() {
        // Rotate m one iteration up: kernel = a@1, m@2 with r(m) = 1.
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::from_set(&g, [m]);
        let mut s = Schedule::empty(&g);
        s.set(a, 1);
        s.set(m, 2);
        let ls = LoopSchedule::new(2, s, r);
        let report = simulate(&g, &ls, &resources(), 10).unwrap();
        assert_eq!(report.executions, 20);
    }

    #[test]
    fn premature_consumer_is_caught() {
        // Kernel with a before m in the SAME step while a zero-delay edge
        // m -> a exists and no retiming: operand not ready.
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let mut s = Schedule::empty(&g);
        s.set(m, 1);
        s.set(a, 1); // reads m's output in the step m starts
        let ls = LoopSchedule::new(1, s, Retiming::zero(&g));
        let err = simulate(&g, &ls, &resources(), 3).unwrap_err();
        assert!(matches!(err, SimulationError::OperandNotReady { node, .. } if node == a));
    }

    #[test]
    fn wrong_retiming_is_caught_as_mismatch_or_unready() {
        // Claim r(a) = 1 (rotating the *adder*) but schedule as if
        // nothing changed: the pipeline computes different iterations
        // than the reference expects.
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::from_set(&g, [a]);
        let mut s = Schedule::empty(&g);
        s.set(m, 1);
        s.set(a, 2);
        let ls = LoopSchedule::new(2, s, r);
        assert!(simulate(&g, &ls, &resources(), 4).is_err());
    }

    #[test]
    fn resource_overflow_across_kernel_instances_is_caught() {
        // Two independent 2-cycle mults in consecutive steps on ONE
        // non-pipelined multiplier with kernel length 2: instance k's
        // second mult overlaps instance k+1's first.
        let g = DfgBuilder::new("clash")
            .nodes("m", 2, OpKind::Mul, 2)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let mut s = Schedule::empty(&g);
        s.set(ids[0], 1);
        s.set(ids[1], 2);
        let ls = LoopSchedule::new(2, s, Retiming::zero(&g));
        let res = ResourceSet::adders_multipliers(0, 1, false);
        let err = simulate(&g, &ls, &res, 4).unwrap_err();
        assert!(matches!(
            err,
            SimulationError::Schedule(SchedError::ResourceOverflow { .. })
        ));
    }

    #[test]
    fn speedup_reflects_pipelining() {
        let g = iir();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        // Depth-2 pipeline with 1-step kernel: a@1 of iteration j together
        // with m@1 of iteration j+1 (legal: in G_r both edges carry a
        // delay... m->a has d_r = 1, a->m has d_r = 0 -> a then m; they
        // are in the same step only if a finishes before m starts, which
        // fails. Use kernel length 1 with m and a on separate units and
        // the a->m dependency satisfied ACROSS kernels: a@1, m@1 needs
        // a's result of the same iteration -> not legal. So use L=1 with
        // r(m)=1 and check the simulator rejects it; then accept L=2.
        let r = Retiming::from_set(&g, [m]);
        let mut s = Schedule::empty(&g);
        s.set(a, 1);
        s.set(m, 1);
        let bad = LoopSchedule::new(1, s.clone(), r.clone());
        assert!(simulate(&g, &bad, &resources(), 4).is_err());

        s.set(m, 2);
        let good = LoopSchedule::new(2, s, r);
        let report = simulate(&g, &good, &resources(), 16).unwrap();
        assert!(report.speedup() > 0.9);
    }

    #[test]
    fn sequential_tokens_are_deterministic() {
        let g = iir();
        let t1 = sequential_tokens(&g, 5).unwrap();
        let t2 = sequential_tokens(&g, 5).unwrap();
        assert_eq!(t1, t2);
        // And iterations differ from each other (values evolve).
        assert_ne!(t1[0], t1[4]);
    }
}
