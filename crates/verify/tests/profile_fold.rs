//! The analysis profiles' arithmetic folds against the step-by-step
//! replays they replaced.
//!
//! The register-pressure and saturation passes fold each lifetime or
//! reservation onto the kernel as whole wraps plus at most two ranges.
//! The oracles below are the loops the passes used before: they walk
//! every step of every range and add one slot at a time, saturating.
//! Each case swaps the oracle's profile into a copy of the report and
//! demands equal sections, findings and rendered JSON.

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, NodeId, OpKind, Retiming};
use rotsched_verify::{
    analyze, sort_canonical, Code, Diagnostic, Locus, ResourceSpec, ScheduleView, StartTimes,
    TraversalCache, UnitClass,
};

/// The pressure peak `(max_live, peak_step)`, step by step.
fn replay_pressure(dfg: &Dfg, s: &ScheduleView<'_>) -> (u64, u32) {
    let cache = TraversalCache::build(dfg, Some(s));
    let csr = cache.csr();
    let retimed = cache.retimed_delays();
    let l = i64::from(s.kernel_length);
    let mut live = vec![0_u64; l as usize];
    let endpoints = csr.edge_from().iter().zip(csr.edge_to());
    for ((&from, &to), &d_r) in endpoints.zip(retimed) {
        let u = NodeId::from_index(from as usize);
        let v = NodeId::from_index(to as usize);
        let (Some(su), Some(sv)) = (s.starts.get(u), s.starts.get(v)) else {
            continue;
        };
        let produced = i64::from(su) + i64::from(csr.times()[u.index()]);
        let consumed = i64::from(sv) + d_r.saturating_mul(l);
        let duration = (consumed - produced).max(0);
        // Fold [produced, consumed) onto the kernel steps.
        let whole = (duration / l) as u64;
        for slot in &mut live {
            *slot = slot.saturating_add(whole);
        }
        for k in 0..duration % l {
            let a = (produced - 1 + k).rem_euclid(l) as usize;
            live[a] = live[a].saturating_add(1);
        }
    }
    let max = live.iter().copied().max().unwrap_or(0);
    let peak = live.iter().position(|&x| x == max).unwrap_or(0) as u32 + 1;
    (max, peak)
}

/// Each class's saturated-step count, step by step (`None` for a
/// zero-unit class).
fn replay_saturation(dfg: &Dfg, spec: &ResourceSpec, s: &ScheduleView<'_>) -> Vec<Option<u32>> {
    let mut out = Vec::new();
    for (c, class) in spec.classes().iter().enumerate() {
        let mut usage = vec![0_u64; s.kernel_length as usize];
        for (v, node) in dfg.nodes() {
            if spec.class_of(node.op()) != Some(c) {
                continue;
            }
            let busy = u64::from(class.busy_steps(node.time()));
            // Fold the reservation [start, start + busy) modulo L,
            // exactly like the certifier's occupancy replay.
            let l = u64::from(s.kernel_length);
            let start = u64::from(s.starts.get(v).unwrap_or(1));
            let whole = busy / l;
            for slot in &mut usage {
                *slot = slot.saturating_add(whole);
            }
            for k in 0..busy % l {
                let slot = ((start.saturating_sub(1)).saturating_add(k) % l) as usize;
                usage[slot] = usage[slot].saturating_add(1);
            }
        }
        let saturated = usage
            .iter()
            .filter(|&&u| u >= u64::from(class.units))
            .count();
        out.push((class.units > 0).then(|| u32::try_from(saturated).unwrap_or(u32::MAX)));
    }
    out
}

/// Analyzes `view` and checks it against the oracles; returns the
/// pressure peak, when the retiming is legal.
fn check(dfg: &Dfg, spec: &ResourceSpec, view: &ScheduleView<'_>, case: &str) -> Option<u64> {
    let actual = analyze(dfg, spec, Some(view));
    let mut expected = actual.clone();
    if let Some(p) = expected.pressure.as_mut() {
        let (max, step) = replay_pressure(dfg, view);
        p.max_live = Some(max);
        p.peak_step = Some(step);
        expected
            .findings
            .retain(|d| d.code != Code::RegisterPressurePeak);
        expected.findings.push(
            Diagnostic::new(
                Code::RegisterPressurePeak,
                Locus::Step(step),
                format!(
                    "register pressure peaks at {max} live value(s) in kernel step {step} ({} static register(s) total)",
                    p.static_registers
                ),
            )
            .with_hint("rotations with negative delta below reduce the static count"),
        );
        sort_canonical(&mut expected.findings);
    }
    let sat = expected.saturation.as_mut().expect("always present");
    assert_eq!(sat.kernel_length, Some(view.kernel_length), "{case}");
    for (class, steps) in sat
        .classes
        .iter_mut()
        .zip(replay_saturation(dfg, spec, view))
    {
        class.saturated_steps = steps;
    }
    assert_eq!(actual.pressure, expected.pressure, "{case}");
    assert_eq!(actual.saturation, expected.saturation, "{case}");
    assert_eq!(actual.findings, expected.findings, "{case}");
    assert_eq!(actual.render_json(dfg), expected.render_json(dfg), "{case}");
    actual.pressure.and_then(|p| p.max_live)
}

/// A legal retiming: seeded down-rotations of single nodes whose every
/// in-edge still carries a delay.
fn random_retiming(dfg: &Dfg, rng: &mut SplitMix64, rotations: usize) -> Retiming {
    let mut r = Retiming::zero(dfg);
    for _ in 0..rotations {
        let v = NodeId::from_index(rng.index(dfg.node_count()));
        if dfg
            .in_edges(v)
            .iter()
            .all(|&e| r.retimed_delay(dfg, e) >= 1)
        {
            r.add(v, 1);
        }
    }
    r
}

fn specs() -> [ResourceSpec; 3] {
    [
        ResourceSpec::adders_multipliers(1, 1, false),
        ResourceSpec::adders_multipliers(2, 1, true),
        ResourceSpec::adders_multipliers(3, 2, false),
    ]
}

#[test]
fn folds_match_the_step_replay_on_seeded_graphs() {
    let mut profiled = 0;
    for seed in 0..24_u64 {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_F01D);
        let nodes = 6 + rng.index(40);
        let config = if seed % 2 == 0 {
            RandomDfgConfig {
                nodes,
                ..RandomDfgConfig::default()
            }
        } else {
            RandomDfgConfig::degree_scaled(nodes, 16)
        };
        let dfg = random_dfg(&config, rng.next_u64());
        let retiming = random_retiming(&dfg, &mut rng, 3 * nodes);
        let last = rng.range_u32(1, 12);
        let starts = StartTimes::from_fn(&dfg, |_| Some(rng.range_u32(1, last)));
        let largest = dfg
            .node_ids()
            .filter_map(|v| starts.get(v))
            .max()
            .unwrap_or(1);
        for spec in &specs() {
            for kernel_length in largest..=largest + 3 {
                let view = ScheduleView {
                    starts: &starts,
                    retiming: &retiming,
                    kernel_length,
                };
                let case = format!("seed {seed}, L = {kernel_length}, {spec:?}");
                profiled += usize::from(check(&dfg, spec, &view, &case).is_some());
            }
        }
    }
    // Every random retiming is legal, so every case has a profile.
    assert_eq!(profiled, 24 * 3 * 4);
}

#[test]
fn single_step_kernels_fold_long_lifetimes_and_start_step_zero() {
    // At L = 1 every lifetime is whole wraps; `d_r ≥ 2` edges live for
    // several of them, and start step 0 (which the certifier rejects)
    // folds like any other step.
    let mut g = Dfg::new("l1");
    let a = g.add_node("a", OpKind::Add, 1);
    let m = g.add_node("m", OpKind::Mul, 3);
    let z = g.add_node("z", OpKind::Add, 0);
    g.add_edge(a, m, 2).unwrap();
    g.add_edge(m, z, 5).unwrap();
    g.add_edge(z, a, 3).unwrap();
    g.add_edge(a, a, 2).unwrap();
    let retiming = Retiming::zero(&g);
    for starts in [[1, 1, 1], [0, 1, 0], [0, 0, 0], [1, 0, 1]] {
        let starts = StartTimes::from_fn(&g, |v| Some(starts[v.index()]));
        for spec in &specs() {
            let view = ScheduleView {
                starts: &starts,
                retiming: &retiming,
                kernel_length: 1,
            };
            let case = format!("{starts:?}, {spec:?}");
            assert!(check(&g, spec, &view, &case).is_some_and(|max| max >= 2));
        }
    }
}

#[test]
fn multi_cycle_and_zero_time_ops_on_pipelined_and_plain_classes() {
    let mut g = Dfg::new("mixed");
    let m5 = g.add_node("m5", OpKind::Mul, 5);
    let m3 = g.add_node("m3", OpKind::Mul, 3);
    let z = g.add_node("z", OpKind::Add, 0);
    let a = g.add_node("a", OpKind::Add, 2);
    g.add_edge(m5, z, 0).unwrap();
    g.add_edge(z, a, 0).unwrap();
    g.add_edge(m3, a, 1).unwrap();
    g.add_edge(a, m5, 2).unwrap();
    g.add_edge(a, m3, 1).unwrap();
    g.add_edge(z, z, 1).unwrap();
    let retiming = Retiming::from_set(&g, [m5, m3]);
    let starts = StartTimes::from_fn(&g, |v| Some([1, 2, 6, 4][v.index()]));
    let custom = ResourceSpec::new(vec![
        UnitClass::new("alu", 1, false, vec![OpKind::Add]),
        UnitClass::new("mul", 2, true, vec![OpKind::Mul]),
    ]);
    for spec in specs().iter().chain([&custom]) {
        for kernel_length in 1..=9 {
            let view = ScheduleView {
                starts: &starts,
                retiming: &retiming,
                kernel_length,
            };
            let case = format!("L = {kernel_length}, {spec:?}");
            assert!(check(&g, spec, &view, &case).is_some());
        }
    }
}

#[test]
fn near_u32_max_times_and_delays_reach_the_u64_clamp() {
    // Twenty edges carry `u32::MAX` delays from an early producer to
    // consumers starting at step `u32::MAX`, next to an op of time
    // `u32::MAX − 1`. Retimed, the producer (and its cycle partner, so
    // the retiming stays legal) moves its edges' delays just short of
    // `u64::MAX` in total: the static count still fits, while each
    // lifetime's ~2^32 / L extra wraps push every step past the clamp.
    let mut g = Dfg::new("huge");
    let p = g.add_node("p", OpKind::Mul, 2);
    let slow = g.add_node("slow", OpKind::Add, u32::MAX - 1);
    for i in 0..20 {
        let sink = g.add_node(format!("s{i}"), OpKind::Add, 1);
        g.add_edge(p, sink, u32::MAX).unwrap();
    }
    g.add_edge(p, slow, 1).unwrap();
    g.add_edge(slow, p, 1).unwrap();
    let shift = i64::try_from((u64::MAX - (1 << 30)) / 20 - u64::from(u32::MAX)).unwrap();
    let mut values = vec![0; g.node_count()];
    values[p.index()] = shift;
    values[slow.index()] = shift;
    let clamped = Retiming::from_values(&g, values);
    let starts = StartTimes::from_fn(&g, |v| {
        Some([1, 2].get(v.index()).copied().unwrap_or(u32::MAX))
    });
    for (retiming, name) in [(&Retiming::zero(&g), "zero"), (&clamped, "clamped")] {
        for spec in &specs() {
            for kernel_length in 3..=6 {
                let view = ScheduleView {
                    starts: &starts,
                    retiming,
                    kernel_length,
                };
                let case = format!("{name}, L = {kernel_length}, {spec:?}");
                let max = check(&g, spec, &view, &case);
                if name == "clamped" {
                    assert_eq!(max, Some(u64::MAX), "{case}");
                }
            }
        }
    }
}

#[test]
fn long_kernels_fold_through_sorted_breakpoints() {
    // Kernels longer than 16 steps per profiled node or edge keep the
    // ranges' breakpoints instead of a slot array; the folds must not
    // change.
    let mut cases = 0;
    for seed in 0..40_u64 {
        let mut rng = SplitMix64::new(seed ^ 0x1096_F01D);
        let nodes = 2 + rng.index(5);
        let dfg = random_dfg(
            &RandomDfgConfig {
                nodes,
                ..RandomDfgConfig::default()
            },
            rng.next_u64(),
        );
        let retiming = random_retiming(&dfg, &mut rng, 3 * nodes);
        let base = 16 * (dfg.node_count() + dfg.edge_count()) as u32 + 17;
        for spec in &specs() {
            for kernel_length in [base, base + 1, 3 * base + 5] {
                let starts = StartTimes::from_fn(&dfg, |_| Some(rng.range_u32(1, kernel_length)));
                let view = ScheduleView {
                    starts: &starts,
                    retiming: &retiming,
                    kernel_length,
                };
                let case = format!("seed {seed}, L = {kernel_length}, {spec:?}");
                cases += usize::from(check(&dfg, spec, &view, &case).is_some());
            }
        }
    }
    assert_eq!(cases, 40 * 3 * 3);
}

#[test]
fn kernels_of_near_u32_max_steps_analyze_without_a_slot_per_step() {
    // A slot array for L = u32::MAX − 1 would take ~34 GB; the profiles
    // keep the ranges' breakpoints instead, with the counts a step
    // replay would give. The producer `a` (step 1) feeds `m` (steps 2–3)
    // as soon as it finishes, `m` feeds `a` back through one delay, and
    // `z` (time 0, step 1) reads `a` one iteration later.
    let mut g = Dfg::new("long-kernel");
    let a = g.add_node("a", OpKind::Add, 1);
    let m = g.add_node("m", OpKind::Mul, 2);
    let z = g.add_node("z", OpKind::Add, 0);
    g.add_edge(a, m, 0).unwrap();
    g.add_edge(m, a, 1).unwrap();
    g.add_edge(a, z, 1).unwrap();
    let retiming = Retiming::zero(&g);
    let starts = StartTimes::from_fn(&g, |v| Some([1, 2, 1][v.index()]));
    let kernel_length = u32::MAX - 1;
    let view = ScheduleView {
        starts: &starts,
        retiming: &retiming,
        kernel_length,
    };
    let spec = ResourceSpec::adders_multipliers(1, 1, false);
    let report = analyze(&g, &spec, Some(&view));
    let pressure = report.pressure.expect("a complete legal view");
    // Live values: m→a over steps 4..=L and a→z over steps 2..=L (a→m
    // is consumed as it is produced), so two from step 4 on.
    assert_eq!(pressure.max_live, Some(2));
    assert_eq!(pressure.peak_step, Some(4));
    let saturation = report.saturation.expect("always present");
    let saturated: Vec<_> = saturation
        .classes
        .iter()
        .map(|c| c.saturated_steps)
        .collect();
    // The adder is busy at step 1 only; the multiplier at steps 2
    // and 3.
    assert_eq!(saturated, [Some(1), Some(2)]);
}
