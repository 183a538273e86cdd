//! Differential suite: every layer that computes the recurrence bound
//! agrees on seeded random graphs.
//!
//! * `dfg::analysis::max_cycle_ratio` (iterated parametric probes) equals
//!   a brute-force maximum over all simple cycles on small graphs;
//! * `verify::recurrence_bound` (a binary search over positive-cycle
//!   probes) equals `max(1, ⌈ratio⌉)`, and is `None` exactly when dfg
//!   reports a zero-delay cycle or the value exceeds `u32::MAX − 1`;
//! * `verify::recurrence_forces(g, L)` holds exactly when `L ≤ bound`,
//!   for every `L` within two of the bound;
//! * the analysis' critical-cycle section states the same bound
//!   wherever it is present, and the lints it runs with the seeded
//!   bound are identical to an unhinted lint run.
//!
//! The small graphs (1–8 nodes) mix zero-time ops, self-loops, parallel
//! edges, zero-delay cycles, and times and delays at and just below
//! `u32::MAX`; rings whose edges are listed against the cycle direction
//! make each probe need its full round budget. The large graphs have the
//! shape of the `analyze-256` benchmark workload: 80 to 256 nodes at the
//! per-node degree of a 64-node random graph.

use rotsched::benchmarks::{random_dfg, RandomDfgConfig};
use rotsched::dfg::analysis::{
    max_cycle_ratio, max_cycle_ratio_counted, simple_cycles, Ratio, RatioWork,
};
use rotsched::dfg::rng::SplitMix64;
use rotsched::verify::{
    analyze, lint, recurrence_bound, recurrence_forces, LintContext, LintOptions, ResourceSpec,
};
use rotsched::{Dfg, DfgError, NodeId, OpKind};

/// Seeded small graphs checked against brute force.
const SMALL_CASES: u64 = 3000;

/// A computation time or delay count: mostly small, sometimes zero,
/// sometimes at or just below `u32::MAX`.
fn weight(rng: &mut SplitMix64, zero_weight: u32) -> u32 {
    match rng.range_u32(0, 9) {
        k if k < zero_weight => 0,
        8 => u32::MAX - rng.range_u32(0, 2),
        9 => u32::MAX,
        _ => rng.range_u32(1, 4),
    }
}

/// A random graph of 1–8 nodes with self-loops, parallel edges and
/// zero-delay edges in any direction.
fn small_graph(seed: u64) -> Dfg {
    let mut rng = SplitMix64::new(seed);
    let n = rng.range_u32(1, 8) as usize;
    let mut g = Dfg::new(format!("small-{seed}"));
    let ids: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(format!("v{i}"), OpKind::Add, weight(&mut rng, 2)))
        .collect();
    let edges = rng.range_u32(0, 3 * n as u32);
    for _ in 0..edges {
        let (from, to) = (ids[rng.index(n)], ids[rng.index(n)]);
        // Zero-delay edges in random directions close zero-delay cycles.
        // The graph model rejects zero-delay self-loops outright.
        let delays = if rng.chance(0.3) && from != to {
            0
        } else {
            weight(&mut rng, 0).max(1)
        };
        g.add_edge(from, to, delays).expect("endpoints exist");
    }
    g
}

/// A ring `v0 → v1 → … → v(n−1) → v0` with one delayed edge, its edges
/// listed against the cycle direction, so Bellman–Ford extends each path
/// by a single edge per round and a probe just below the cycle's ratio
/// closes its predecessor cycle only in the last round.
fn reversed_ring(n: usize, times: &[u32], delays: u32) -> Dfg {
    let mut g = Dfg::new(format!("ring-{n}"));
    let ids: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(format!("v{i}"), OpKind::Add, times[i % times.len()]))
        .collect();
    for i in (0..n).rev() {
        let d = if i == n - 1 { delays } else { 0 };
        g.add_edge(ids[i], ids[(i + 1) % n], d).expect("ring edge");
    }
    g
}

/// The twelve graphs of the `analyze-256` workload's shape: 80 to 256
/// nodes in steps of 16, densities scaled to a 64-node graph's per-node
/// degree.
fn large_graphs() -> Vec<Dfg> {
    (5..=16_u64)
        .map(|k| {
            let config = RandomDfgConfig::degree_scaled(16 * k as usize, 64);
            random_dfg(&config, 0xB0_0000 + k)
        })
        .collect()
}

/// The maximum cycle ratio by enumerating every simple cycle: `Err` when
/// some cycle carries no delay.
fn brute_force_ratio(g: &Dfg) -> Result<Option<Ratio>, ()> {
    let en = simple_cycles(g, 1_000_000);
    assert!(!en.truncated, "{}: small graphs enumerate fully", g.name());
    let mut best = None;
    for c in &en.cycles {
        let d = c.min_total_delays(g);
        if d == 0 {
            return Err(());
        }
        best = best.max(Some(Ratio::new(c.total_time(g), d)));
    }
    Ok(best)
}

/// `ratio > k`, exactly.
fn exceeds(ratio: Ratio, k: u64) -> bool {
    u128::from(ratio.num()) > u128::from(k) * u128::from(ratio.den())
}

/// Checks every verify-side bound against dfg's exact ratio.
fn check_verify_agrees(g: &Dfg) {
    let name = g.name();
    let dfg = max_cycle_ratio(g);
    let bound = recurrence_bound(g);
    let expected = match &dfg {
        Err(DfgError::ZeroDelayCycle { .. }) => None,
        Err(e) => panic!("{name}: unexpected dfg error {e}"),
        Ok(None) => Some(1),
        Ok(Some(r)) => u32::try_from(r.ceil().max(1))
            .ok()
            .filter(|&b| b < u32::MAX),
    };
    assert_eq!(bound, expected, "{name}: recurrence_bound vs dfg {dfg:?}");

    // recurrence_forces(L) ⇔ L ≤ bound, around the bound and at the
    // extremes; without a bound, exactly the positive lengths are forced.
    let around = bound.map_or(0, i64::from);
    let lengths = (around - 2..=around + 2)
        .chain([1, 2, i64::from(u32::MAX)])
        .filter_map(|l| u32::try_from(l).ok())
        .filter(|&l| l >= 1);
    for l in lengths {
        let want = match &dfg {
            Err(_) => true,
            Ok(ratio) => l == 1 || ratio.is_some_and(|r| exceeds(r, u64::from(l) - 1)),
        };
        assert_eq!(
            recurrence_forces(g, l),
            want,
            "{name}: recurrence_forces(L = {l}) with bound {bound:?}"
        );
        if let Some(b) = bound {
            assert_eq!(want, l <= b, "{name}: L = {l} vs bound {b}");
        }
    }
    assert!(!recurrence_forces(g, 0), "{name}: L = 0 is never forced");

    // The critical-cycle section, wherever it is present, states the
    // same bound; and the lint run it seeds matches an unhinted run.
    let spec = ResourceSpec::unlimited();
    let report = analyze(g, &spec, None);
    if let Some(cc) = &report.critical_cycle {
        let ratio = dfg
            .as_ref()
            .ok()
            .and_then(|r| *r)
            .unwrap_or_else(|| panic!("{name}: critical cycle without a dfg ratio"));
        assert_eq!(cc.iteration_bound, ratio.ceil().max(1), "{name}");
        assert_eq!(
            u128::from(cc.ratio.num) * u128::from(ratio.den()),
            u128::from(ratio.num()) * u128::from(cc.ratio.den),
            "{name}: critical-cycle ratio"
        );
    }
    let options = LintOptions::default();
    let unhinted = LintContext {
        spec: Some(&spec),
        ..LintContext::bare(&options)
    };
    assert_eq!(report.lints, lint(g, &unhinted), "{name}: seeded lints");
}

#[test]
fn dfg_ratio_matches_brute_force_on_small_graphs() {
    for seed in 0..SMALL_CASES {
        let g = small_graph(seed);
        let brute = brute_force_ratio(&g);
        match max_cycle_ratio(&g) {
            Ok(ratio) => assert_eq!(Ok(ratio), brute, "seed {seed}"),
            Err(DfgError::ZeroDelayCycle { .. }) => assert!(brute.is_err(), "seed {seed}"),
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
}

#[test]
fn verify_bounds_agree_with_dfg_on_small_graphs() {
    for seed in 0..SMALL_CASES {
        check_verify_agrees(&small_graph(seed));
    }
}

#[test]
fn small_graphs_cover_the_degenerate_shapes() {
    // The suite only proves something if the generator reaches the
    // shapes it claims to.
    let (mut zero_delay, mut zero_time_cycle, mut huge, mut self_loop) = (0, 0, 0, 0);
    for seed in 0..SMALL_CASES {
        let g = small_graph(seed);
        match brute_force_ratio(&g) {
            Err(()) => zero_delay += 1,
            Ok(Some(r)) if r.num() == 0 => zero_time_cycle += 1,
            Ok(Some(r)) if r.ceil() >= u64::from(u32::MAX) => huge += 1,
            Ok(_) => {}
        }
        self_loop += usize::from(g.edges().any(|(_, e)| e.from() == e.to()));
    }
    for (what, count) in [
        ("zero-delay cycles", zero_delay),
        ("zero-time critical cycles", zero_time_cycle),
        ("bounds past u32::MAX - 1", huge),
        ("self-loops", self_loop),
    ] {
        assert!(count >= 20, "only {count} small graphs with {what}");
    }
}

#[test]
fn reversed_rings_need_the_last_round() {
    for n in 1..=8 {
        for times in [&[1][..], &[0, 3], &[u32::MAX, 1], &[u32::MAX]] {
            for delays in [1, 2, 3, u32::MAX - 1] {
                let g = reversed_ring(n, times, delays);
                assert_eq!(max_cycle_ratio(&g).map_err(|_| ()), brute_force_ratio(&g));
                check_verify_agrees(&g);
            }
        }
    }
}

#[test]
fn zero_time_zero_delay_cycles_exclude_every_length() {
    // A zero-delay cycle of zero-time ops beside an ordinary recurrence:
    // the recurrence's ratio is finite, but no kernel exists at all.
    let mut g = Dfg::new("mixed");
    let a = g.add_node("a", OpKind::Add, 0);
    let b = g.add_node("b", OpKind::Add, 0);
    let m = g.add_node("m", OpKind::Mul, 2);
    let c = g.add_node("c", OpKind::Add, 5);
    g.add_edge(a, b, 0).unwrap();
    g.add_edge(b, a, 0).unwrap();
    g.add_edge(m, c, 0).unwrap();
    g.add_edge(c, m, 1).unwrap();
    assert_eq!(recurrence_bound(&g), None);
    assert!(recurrence_forces(&g, 8));
    check_verify_agrees(&g);
}

#[test]
fn verify_bounds_agree_with_dfg_on_large_graphs() {
    for g in large_graphs() {
        assert!(
            max_cycle_ratio(&g).expect("valid graph").is_some(),
            "{}: large graphs carry recurrences",
            g.name()
        );
        check_verify_agrees(&g);
    }
}

#[test]
fn dfg_search_work_stays_small_on_large_graphs() {
    // Each probe stops at the first round whose predecessor graph holds
    // a cycle, so on these graphs a probe averages under two rounds and a
    // component needs a handful of probes. The counters are
    // deterministic; the limits are twice the measured 84 probes and 120
    // rounds. Running each improving probe through its full round budget
    // before looking for a cycle, as a plain Bellman–Ford sweep does,
    // takes 10,644 rounds here.
    let mut work = RatioWork::default();
    for g in large_graphs() {
        max_cycle_ratio_counted(&g, &mut work).expect("valid graph");
    }
    assert!(work.probes <= 168, "{work:?}");
    assert!(work.rounds <= 240, "{work:?}");
}

#[test]
fn dfg_search_jumps_to_the_best_predecessor_cycle() {
    // A ring of 64 self-loops whose ratios fall along the ring, 64/1 down
    // to 1/1. The first probe's predecessor graph holds many of the
    // loops; moving λ to the best of them leaves one probe to reach the
    // top and one to certify it. Moving λ to the first loop found
    // instead climbs the ladder a rung or two per probe (40 probes).
    let k = 64;
    let mut g = Dfg::new("ladder");
    let ids: Vec<NodeId> = (0..k)
        .map(|i| g.add_node(format!("v{i}"), OpKind::Add, (k - i) as u32))
        .collect();
    for i in 0..k {
        g.add_edge(ids[i], ids[i], 1).unwrap();
        g.add_edge(ids[i], ids[(i + 1) % k], 1).unwrap();
    }
    let mut work = RatioWork::default();
    let ratio = max_cycle_ratio_counted(&g, &mut work).unwrap();
    assert_eq!(ratio, Some(Ratio::new(k as u64, 1)));
    assert!(work.probes <= 3, "{work:?}");
}
