//! The rotation context's zero-delay set against the definition after
//! every rotation step.
//!
//! A `ZeroSet` keeps one bit per CSR out-position and one per
//! in-position, and each `SchedContext::down_rotate` step repairs them
//! over the rotated set's boundary only: edges leaving the set are
//! cleared, edges entering it recomputed, edges inside it skipped. The
//! weight kernel and the placement core then read each node's
//! zero-delay edges as the set bits of its CSR range. After every step
//! (and every interleaved full schedule) this suite checks every
//! position bit against the edge's retimed delay, the whole set against
//! a from-scratch `ZeroSet::compute`, the active weights against the
//! definitions, and the rotated set, retiming and placement against
//! the step taken by hand with a naive list scheduler.
//!
//! The graphs cover what the bit ranges must get right: a hub node with
//! more than 64 in- and out-edges, so its ranges span word boundaries;
//! parallel edges, one zero-delay beside one delayed; self-loops; and
//! zero-time operations, under all four priority policies.

mod common;

use common::{naive_reschedule, random_dfg, reference_weights, POLICIES};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, OpKind, Retiming};
use rotsched_sched::{ListScheduler, PriorityPolicy, ResourceSet, SchedContext, Schedule, ZeroSet};

/// Rotation steps per sequence.
const STEPS: usize = 240;

/// One step in this many, on average, is followed by a full schedule.
const FULL_SCHEDULE_EVERY: u64 = 16;

/// Nodes of the hub graph; the hub sits in the middle.
const HUB_NODES: usize = 90;

/// A graph whose middle node has more than 64 in- and out-edges:
/// zero-delay edges from every earlier node and to every later one,
/// each later one also tied by a parallel delayed edge and a delayed
/// edge back. Sparse seeded edges run between the other nodes, every
/// seventh node carries a self-loop and every fifth is a zero-time
/// operation. Zero-delay edges point forward only, so the unretimed
/// zero-delay subgraph is a DAG.
fn hub_graph(seed: u64) -> Dfg {
    let mut rng = SplitMix64::new(seed);
    let mut g = Dfg::new("hub");
    let ids: Vec<NodeId> = (0..HUB_NODES)
        .map(|i| {
            let time = |t| if i % 5 == 0 { 0 } else { t };
            if rng.chance(0.4) {
                g.add_node(format!("m{i}"), OpKind::Mul, time(2))
            } else {
                g.add_node(format!("a{i}"), OpKind::Add, time(1))
            }
        })
        .collect();
    let hub = HUB_NODES / 2;
    for i in 0..HUB_NODES {
        if i < hub {
            g.add_edge(ids[i], ids[hub], 0).expect("valid edge");
        } else if i > hub {
            g.add_edge(ids[hub], ids[i], 0).expect("valid edge");
            g.add_edge(ids[hub], ids[i], rng.range_u32(1, 2))
                .expect("valid edge");
            g.add_edge(ids[i], ids[hub], rng.range_u32(1, 2))
                .expect("valid edge");
        }
        if i % 7 == 0 {
            g.add_edge(ids[i], ids[i], rng.range_u32(1, 2))
                .expect("valid edge");
        }
        for j in 0..HUB_NODES {
            if i != hub && j != hub && i != j && rng.chance(2.0 / HUB_NODES as f64) {
                let delays = if i < j && rng.chance(0.6) {
                    0
                } else {
                    rng.range_u32(1, 2)
                };
                g.add_edge(ids[i], ids[j], delays).expect("valid edge");
            }
        }
    }
    g
}

/// A seeded random graph of 100 nodes (two words of position bits per
/// half, ranges crossing word boundaries wherever they fall), with
/// every fourth node a zero-time operation.
fn random_graph(seed: u64) -> Dfg {
    let n = 100;
    let mut rng = SplitMix64::new(seed);
    let mut g = random_dfg(&mut rng, n, 2, 3.0 / n as f64);
    for i in (0..n).step_by(4) {
        g.node_mut(NodeId::from_index(i)).set_time(0);
    }
    g
}

/// Every position bit of `zero` against its edge's retimed delay, and
/// the whole set against a from-scratch computation.
fn check_positions(g: &Dfg, zero: &ZeroSet, retiming: &Retiming, at: &str) {
    assert_eq!(*zero, ZeroSet::compute(g, Some(retiming)), "{at}: set");
    let csr = g.csr();
    for v in 0..g.node_count() {
        for j in csr.out_range(v) {
            let e = csr.out_edge_ids()[j];
            let zero_delay = retiming.retimed_delay(g, e) == 0;
            assert_eq!(zero.contains_out(j), zero_delay, "{at}: out-position {j}");
        }
        for i in csr.in_range(v) {
            let e = csr.in_edge_ids()[i];
            let zero_delay = retiming.retimed_delay(g, e) == 0;
            assert_eq!(zero.contains_in(i), zero_delay, "{at}: in-position {i}");
        }
    }
}

/// What a sequence exercised, so the suite proves it reached the
/// boundary cases it names.
#[derive(Default)]
struct Coverage {
    steps: usize,
    /// Steps that rotated a node whose CSR range spans a word boundary.
    spanning_rotated: usize,
    /// Steps that rotated a node of more than 64 in- or out-edges.
    hub_rotated: usize,
    /// Steps that changed the zero-delay set.
    changed: usize,
}

/// A rotation sequence through one context with seeded sizes, checking
/// the zero set, the weights and the placement after every step, and
/// interleaving full schedules (half of them of an earlier retiming).
fn rotate_and_check(g: &Dfg, policy: PriorityPolicy, seed: u64, at: &str) -> Coverage {
    let res = ResourceSet::adders_multipliers(3, 2, false);
    let scheduler = ListScheduler::new(policy);
    let mut rng = SplitMix64::new(seed);
    let mut points = SplitMix64::new(!seed);
    let mut schedule: Schedule = scheduler.schedule(g, None, &res).expect("DAGs schedule");
    let mut retiming = Retiming::zero(g);
    let mut saved = retiming.clone();
    let mut ctx = SchedContext::new(g, &scheduler, &res, Some(&retiming), &schedule)
        .expect("the initial schedule is legal");
    let mut rotated = Vec::new();
    check_positions(g, ctx.zero_set(), &retiming, at);
    let csr = g.csr();
    let spans = |range: std::ops::Range<usize>| {
        !range.is_empty() && range.start / 64 != (range.end - 1) / 64
    };
    let mut coverage = Coverage::default();
    for step in 0..STEPS {
        let length = schedule.length(g);
        if length <= 1 {
            break;
        }
        let at = format!("{at}, step {step}");
        let size = rng.range_u32(1, (length - 1).min(6));
        // The oracle takes the step by hand: the prefix, its +1, the
        // renumbered remainder and a naive placement.
        let prefix = schedule.prefix_nodes(size);
        let mut expected_retiming = retiming.clone();
        expected_retiming.apply_set(&prefix, 1);
        let mut expected = schedule.clone();
        for &v in &prefix {
            expected.clear(v);
        }
        expected.normalize();
        naive_reschedule(
            g,
            policy,
            Some(&expected_retiming),
            &res,
            &mut expected,
            &prefix,
        )
        .expect("the naive scheduler places a rotated prefix");
        let before = ctx.zero_set().clone();
        let length = ctx
            .down_rotate(g, &res, &mut retiming, &mut schedule, size, &mut rotated)
            .expect("a rotated prefix has no fixed zero-delay successors");
        assert_eq!(rotated, prefix, "{at}: rotated set");
        assert_eq!(retiming, expected_retiming, "{at}: retiming");
        check_positions(g, ctx.zero_set(), &retiming, &at);
        assert_eq!(schedule, expected, "{at}: placement");
        assert_eq!(length, expected.length(g), "{at}: length");
        let reference = reference_weights(policy, g, Some(&retiming));
        assert_eq!(
            ctx.active_weights().as_slice(),
            reference.as_slice(),
            "{at}: weights"
        );
        coverage.steps += 1;
        coverage.changed += usize::from(before != *ctx.zero_set());
        coverage.spanning_rotated += usize::from(
            prefix
                .iter()
                .any(|v| spans(csr.out_range(v.index())) || spans(csr.in_range(v.index()))),
        );
        coverage.hub_rotated += usize::from(
            prefix
                .iter()
                .any(|&v| g.out_edges(v).len() > 64 || g.in_edges(v).len() > 64),
        );
        if points.below(FULL_SCHEDULE_EVERY) == 0 {
            if points.below(2) == 0 {
                std::mem::swap(&mut retiming, &mut saved);
            } else {
                saved.clone_from(&retiming);
            }
            ctx.full_schedule(g, Some(&retiming), &res, &mut schedule)
                .expect("a legal retiming schedules");
            check_positions(
                g,
                ctx.zero_set(),
                &retiming,
                &format!("{at}, full schedule"),
            );
        }
    }
    coverage
}

#[test]
fn hub_graphs_cross_word_boundaries() {
    for seed in [3, 4] {
        let g = hub_graph(seed);
        let hub = NodeId::from_index(HUB_NODES / 2);
        assert!(g.out_edges(hub).len() > 64 && g.in_edges(hub).len() > 64);
        let self_loops = g.edges().filter(|(_, e)| e.from() == e.to()).count();
        assert!(self_loops > 10, "seed {seed}: {self_loops} self-loops");
        for policy in POLICIES {
            let at = format!("hub seed {seed}, {policy:?}");
            let coverage = rotate_and_check(&g, policy, seed, &at);
            assert_eq!(coverage.steps, STEPS, "{at}");
            assert!(
                coverage.changed > STEPS / 2,
                "{at}: {} changes",
                coverage.changed
            );
            assert!(coverage.spanning_rotated > 0, "{at}");
            assert!(coverage.hub_rotated > 0, "{at}: the hub never rotated");
        }
    }
}

#[test]
fn random_graphs_match_the_definition() {
    for seed in [11, 12] {
        let g = random_graph(seed);
        for policy in POLICIES {
            let at = format!("random seed {seed}, {policy:?}");
            let coverage = rotate_and_check(&g, policy, seed, &at);
            assert_eq!(coverage.steps, STEPS, "{at}");
            assert!(
                coverage.changed > STEPS / 2,
                "{at}: {} changes",
                coverage.changed
            );
            assert!(coverage.spanning_rotated > 0, "{at}");
        }
    }
}
