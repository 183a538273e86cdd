//! Differential suite: every layer that computes the recurrence bound
//! agrees on seeded random graphs.
//!
//! * `dfg::analysis::max_cycle_ratio` (iterated parametric probes) equals
//!   a brute-force maximum over all simple cycles on small graphs;
//! * `verify::recurrence_bound` (the verifier's own exact max-cycle-ratio
//!   search) equals `max(1, ⌈ratio⌉)`, and is `None` exactly when dfg
//!   reports a zero-delay cycle or the value exceeds `u32::MAX − 1`;
//! * `verify::recurrence_forces(g, L)` holds exactly when `L ≤ bound`,
//!   for every `L` within two of the bound;
//! * the analysis' critical-cycle section is present exactly when dfg
//!   reports a finite ratio, states that ratio, and its `⌈ratio⌉` is
//!   `recurrence_bound` on the same graph — ratio-0 cycles and bounds
//!   past `u32::MAX − 1` included; the lints it runs with the seeded
//!   bound are identical to an unhinted lint run;
//! * a certificate's recurrence bound, which searches the kernel's
//!   retimed delays, is `recurrence_bound` on the unretimed graph, for
//!   seeded legal retimings near zero and at either end of the `i64`
//!   range;
//! * on cyclic graphs, the bound an analysis hands its lint (the
//!   critical-cycle pass's, searched over the kernel's retimed delays)
//!   is `recurrence_bound`, is forced by the recurrences, and lints like
//!   the lint's own search.
//!
//! The small graphs (1–8 nodes) mix zero-time ops, self-loops, parallel
//! edges, zero-delay cycles, and times and delays at and just below
//! `u32::MAX`; rings whose edges are listed against the cycle direction
//! make a probe need its full round budget. The large graphs have the
//! shape of the `analyze-256` benchmark workload: 80 to 256 nodes at the
//! per-node degree of a 64-node random graph.

use rotsched::benchmarks::{random_dfg, RandomDfgConfig};
use rotsched::dfg::analysis::{
    max_cycle_ratio, max_cycle_ratio_counted, simple_cycles, Ratio, RatioWork,
};
use rotsched::dfg::rng::SplitMix64;
use rotsched::verify::{
    analyze, certify, lint, recurrence_bound, recurrence_forces, LintContext, LintOptions,
    ResourceSpec, StartTimes,
};
use rotsched::{Dfg, DfgError, NodeId, OpKind, Retiming};

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

    // The critical-cycle section is present exactly when dfg finds a
    // finite ratio, states that ratio, and its kernel bound is
    // `recurrence_bound`'s, past `u32::MAX − 1` included.
    let spec = ResourceSpec::unlimited();
    let report = analyze(g, &spec, None);
    match (&report.critical_cycle, &dfg) {
        (Some(cc), Ok(Some(ratio))) => {
            assert_eq!(cc.iteration_bound, ratio.ceil().max(1), "{name}");
            assert_eq!(
                u128::from(cc.ratio.num) * u128::from(ratio.den()),
                u128::from(ratio.num()) * u128::from(cc.ratio.den),
                "{name}: critical-cycle ratio"
            );
            assert_eq!(
                u32::try_from(cc.ratio.ceil().max(1))
                    .ok()
                    .filter(|&b| b < u32::MAX),
                bound,
                "{name}: critical-cycle bound vs recurrence_bound"
            );
        }
        (None, Ok(None) | Err(_)) => {}
        (cc, _) => panic!("{name}: critical cycle {cc:?} vs dfg {dfg:?}"),
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
    let (mut zero_section, mut huge_section) = (0, 0);
    let spec = ResourceSpec::unlimited();
    for seed in 0..SMALL_CASES {
        let g = small_graph(seed);
        if let Some(cc) = analyze(&g, &spec, None).critical_cycle {
            zero_section += usize::from(cc.ratio.num == 0);
            huge_section += usize::from(cc.iteration_bound >= u64::from(u32::MAX));
        }
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
        ("ratio-0 critical-cycle sections", zero_section),
        ("critical-cycle sections past u32::MAX - 1", huge_section),
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
fn tied_critical_cycles_report_the_lowest_indexed_witness() {
    // `k` disjoint rings of one ratio, listed highest index first. They
    // all close in the search's first probe round, so the witness is
    // the first found walking roots in index order — the ring through
    // v0, the rule the biquad goldens rely on — and no later tie
    // displaces it.
    let spec = ResourceSpec::unlimited();
    for k in 2..=4_usize {
        for len in 1..=3_usize {
            let mut g = Dfg::new(format!("tie-{k}x{len}"));
            let ids: Vec<NodeId> = (0..k * len)
                .map(|i| g.add_node(format!("v{i}"), OpKind::Add, 2))
                .collect();
            for ring in ids.chunks(len).rev() {
                for (i, &v) in ring.iter().enumerate() {
                    let closing = i + 1 == len;
                    g.add_edge(v, ring[(i + 1) % len], u32::from(closing))
                        .expect("ring edge");
                }
            }
            let cc = analyze(&g, &spec, None)
                .critical_cycle
                .unwrap_or_else(|| panic!("{}: rings are cycles", g.name()));
            assert_eq!((cc.ratio.num, cc.ratio.den), (2 * len as u64, 1));
            let first: Vec<u32> = (0..len as u32).collect();
            assert_eq!(cc.nodes, first, "{}", g.name());
            check_verify_agrees(&g);
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

/// A seeded legal retiming of `g` (down-rotations of single nodes whose
/// every in-edge still carries a delay), shifted by a constant so its
/// largest value is `i64::MAX` (`far = Some(true)`) or its smallest
/// `i64::MIN` (`Some(false)`). A shift changes no retimed delay, but
/// `d + r(u)` passes the `i64` range on the far-high side.
fn legal_retiming(g: &Dfg, seed: u64, far: Option<bool>) -> Retiming {
    let mut rng = SplitMix64::new(seed);
    let mut r = Retiming::zero(g);
    for _ in 0..2 * g.node_count() {
        let v = NodeId::from_index(rng.index(g.node_count()));
        if g.in_edges(v).iter().all(|&e| r.retimed_delay(g, e) >= 1) {
            r.add(v, 1);
        }
    }
    let (min, max) = (r.min_value(), r.max_value());
    let values = r
        .iter()
        .map(|(_, x)| match far {
            None => x,
            Some(true) => i64::MAX - (max - x),
            Some(false) => i64::MIN + (x - min),
        })
        .collect();
    Retiming::from_values(g, values)
}

/// Every node started as soon as its retimed zero-delay predecessors
/// finish, with `L` the last finish: a kernel that certifies under
/// unlimited resources. `None` when a zero-delay cycle leaves no such
/// schedule or `L` passes `u32`.
fn asap_kernel(g: &Dfg, r: &Retiming) -> Option<(StartTimes, u32)> {
    if max_cycle_ratio(g).is_err() {
        return None;
    }
    let mut start = vec![1_u64; g.node_count()];
    for _ in 0..g.node_count() {
        for (e, edge) in g.edges() {
            if r.retimed_delay(g, e) == 0 {
                let ready = start[edge.from().index()] + u64::from(g.node(edge.from()).steps());
                let v = edge.to().index();
                start[v] = start[v].max(ready);
            }
        }
    }
    let finish = g
        .nodes()
        .map(|(v, node)| start[v.index()] + u64::from(node.steps()) - 1);
    let length = u32::try_from(finish.max()?).ok()?;
    let starts = StartTimes::from_fn(g, |v| u32::try_from(start[v.index()]).ok());
    Some((starts, length))
}

/// Certifies `g` under seeded legal retimings, near zero and far, and
/// checks each certificate's bound against `recurrence_bound`. Returns
/// how many certified.
fn check_certified_bound(g: &Dfg, seed: u64) -> usize {
    let mut certified = 0;
    for far in [None, Some(true), Some(false)] {
        let r = legal_retiming(g, seed, far);
        let Some((starts, length)) = asap_kernel(g, &r) else {
            continue;
        };
        let cert = certify(g, &ResourceSpec::unlimited(), Some(&r), &starts, length)
            .unwrap_or_else(|bad| panic!("{}: {far:?}: {bad:?}", g.name()));
        assert_eq!(
            cert.recurrence_bound,
            recurrence_bound(g),
            "{}: far {far:?}",
            g.name()
        );
        certified += 1;
    }
    certified
}

#[test]
fn certified_bounds_match_recurrence_bound_on_small_graphs() {
    let certified: usize = (0..SMALL_CASES)
        .map(|seed| check_certified_bound(&small_graph(seed), seed))
        .sum();
    assert_eq!(certified, 3 * 2240, "three retimings per certifiable graph");
}

#[test]
fn certified_bounds_match_recurrence_bound_on_large_graphs() {
    for (seed, g) in large_graphs().iter().enumerate() {
        assert_eq!(check_certified_bound(g, seed as u64), 3, "{}", g.name());
    }
}

/// The bound the analysis of `g` under the kernel `(r, starts, length)`
/// hands its lint must be the lint's own search's: `recurrence_bound`,
/// forced by the recurrences (`recurrence_forces`), and linting like no
/// hint at all. Returns whether `g` was checked (cyclic, no zero-delay
/// cycle).
fn check_lint_hint(g: &Dfg, r: &Retiming, starts: &StartTimes, length: u32) -> bool {
    let name = g.name();
    if !matches!(max_cycle_ratio(g), Ok(Some(_))) {
        return false;
    }
    let spec = ResourceSpec::unlimited();
    let view = rotsched::verify::ScheduleView {
        starts,
        retiming: r,
        kernel_length: length,
    };
    let report = analyze(g, &spec, Some(&view));
    let cc = report
        .critical_cycle
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: a cyclic graph has a critical cycle"));
    let hint = u32::try_from(cc.ratio.ceil().max(1))
        .ok()
        .filter(|&b| b < u32::MAX);
    assert_eq!(hint, recurrence_bound(g), "{name}: hint vs search");
    if let Some(bound) = hint {
        assert!(recurrence_forces(g, bound), "{name}: bound {bound} forced");
    }
    let options = LintOptions::default();
    let unhinted = LintContext {
        spec: Some(&spec),
        retiming: Some(r),
        ..LintContext::bare(&options)
    };
    let hinted = LintContext {
        recurrence_hint: Some(hint),
        ..unhinted
    };
    let own = lint(g, &unhinted);
    assert_eq!(lint(g, &hinted), own, "{name}: hinted lints");
    assert_eq!(report.lints, own, "{name}: the analysis' lints");
    true
}

#[test]
fn analysis_lint_hints_match_the_search_on_seeded_cyclic_graphs() {
    let mut checked = 0;
    let small = (0..SMALL_CASES / 4).map(small_graph);
    for (seed, g) in small.chain(large_graphs()).enumerate() {
        for far in [None, Some(true)] {
            let r = legal_retiming(&g, seed as u64, far);
            if let Some((starts, length)) = asap_kernel(&g, &r) {
                checked += usize::from(check_lint_hint(&g, &r, &starts, length));
            }
        }
    }
    assert_eq!(checked, 860, "cyclic kernels checked");
}
