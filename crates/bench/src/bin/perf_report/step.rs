//! The rotation-step arms: per-step latency (the steady SoA step, dense
//! driver steps, the context path against the from-scratch operator),
//! and the two replica comparisons — the `SearchDriver` dispatch and the
//! packed-score objective — that drive the engine's kernel by hand.

use std::time::Instant;

use rotsched_benchmarks::{random_dfg, RandomDfgConfig};
use rotsched_core::{
    down_rotate, initial_state, BestSet, CycleLog, HeuristicConfig, Objective, RotationState,
    Score, SearchDriver,
};
use rotsched_dfg::rng::Fnv64;
use rotsched_dfg::{Dfg, NodeId};
use rotsched_sched::{ListScheduler, ResourceSet, SchedContext, WrapScratch};

use crate::report::{
    before, crossover_pct, elapsed_ns, info, interleave, median, ratio, Percentiles, Sheet,
};
use crate::Baseline;

/// Report path of the engine-vs-replica overhead.
pub const DRIVER_OVERHEAD: &str = "driver_overhead.overhead_pct";
/// Report path of the objective core's overhead.
pub const OBJECTIVE_OVERHEAD: &str = "objective_overhead.objective_overhead_pct";
/// Size-1 rotations per sampled sequence.
pub const STEP_SEQ: usize = 32;
/// Repetitions of each sampled sequence.
const STEP_REPS: usize = 5;
/// Steps in the steady-state SoA arm's measured window.
const SOA_SAMPLES: usize = 800;
/// Smoke gate: a step's tail latency must stay within this multiple of
/// its median.
const STEP_TAIL_RATIO: u64 = 10;
/// Smoke gate: the engine-vs-replica overhead must sit inside
/// `±DRIVER_OVERHEAD_BAND_PCT` — two-sided, because a large *negative*
/// reading doesn't mean the engine got fast, it means the hand-rolled
/// replica went stale against the engine's hot path.
const DRIVER_OVERHEAD_BAND_PCT: f64 = 15.0;
/// Smoke gate: the default objective's `Objective::score` dispatch and
/// `Score::from_length` packing — a match and a shift — may cost at
/// most this much more than a scalar-`u32` best set.
const OBJECTIVE_OVERHEAD_LIMIT_PCT: f64 = 2.0;
/// Interleaved sequence samples per arm in the objective-overhead
/// study.
const OBJECTIVE_OVERHEAD_SAMPLES: usize = 400;

/// The engine's rotation kernel on one graph, as the replica arms drive
/// it: the incremental context's in-place rotation into a reused prefix
/// buffer plus the allocation-free wrapped-length probe.
struct Kernel<'a> {
    g: &'a Dfg,
    res: &'a ResourceSet,
    ctx: SchedContext,
    rotated: Vec<NodeId>,
    wrap: WrapScratch,
}

/// A scheduling context for `state`.
fn context(
    g: &Dfg,
    sched: ListScheduler,
    res: &ResourceSet,
    state: &RotationState,
) -> SchedContext {
    SchedContext::new(g, &sched, res, Some(&state.retiming), &state.schedule).expect("schedulable")
}

impl<'a> Kernel<'a> {
    fn new(g: &'a Dfg, sched: ListScheduler, res: &'a ResourceSet, state: &RotationState) -> Self {
        let wrap = WrapScratch::new(g, res).expect("ops bind");
        Kernel {
            g,
            res,
            ctx: context(g, sched, res, state),
            rotated: Vec::new(),
            wrap,
        }
    }

    /// The size a phase of `size` rotates `state` by — halved until it
    /// is below the schedule length, as `SearchDriver::run_phase` halves
    /// it — or `None` once the schedule is one step long.
    fn effective(&self, state: &RotationState, size: u32) -> Option<u32> {
        let length = state.length(self.g);
        let mut effective = size;
        while length > 1 && effective >= length {
            effective = effective.div_ceil(2);
        }
        (length > 1 && effective > 0).then_some(effective)
    }

    /// Rotates `state` down by `effective` in place, after the size
    /// check the engine's step makes.
    fn rotate(&mut self, state: &mut RotationState, effective: u32) {
        assert!(
            effective > 0 && effective < state.length(self.g),
            "a rotation size lies inside the schedule"
        );
        self.ctx
            .down_rotate(
                self.g,
                self.res,
                &mut state.retiming,
                &mut state.schedule,
                effective,
                &mut self.rotated,
            )
            .expect("legal");
    }

    /// The wrapped length of `state`.
    fn wrapped(&mut self, state: &RotationState) -> u32 {
        self.wrap
            .wrapped_length(self.g, Some(&state.retiming), &state.schedule, self.res)
            .expect("rotation states wrap")
    }

    /// One step at the phase's `size`: the wrapped length after
    /// rotating, or `None` once nothing is left to rotate.
    fn step(&mut self, state: &mut RotationState, size: u32) -> Option<u32> {
        let effective = self.effective(state, size)?;
        self.rotate(state, effective);
        Some(self.wrapped(state))
    }
}

/// The 64-node random graph of the per-step, driver-overhead and dense
/// arms.
fn random64() -> Dfg {
    random_dfg(
        &RandomDfgConfig {
            nodes: 64,
            ..RandomDfgConfig::default()
        },
        7,
    )
}

/// The paper benchmarks plus [`random64`], each with its initial state
/// under 2 adders and 2 multipliers.
fn subjects(
    graphs: &[(&str, Dfg)],
    sched: ListScheduler,
    res: &ResourceSet,
) -> Vec<(Dfg, RotationState)> {
    graphs
        .iter()
        .map(|(_, g)| g.clone())
        .chain(std::iter::once(random64()))
        .map(|g| {
            let init = initial_state(&g, &sched, res).expect("schedulable");
            (g, init)
        })
        .collect()
}

/// The per-step arms' readings.
pub struct Steps {
    pub soa: Percentiles,
    pub dense: Percentiles,
    pub context: Percentiles,
    pub scratch: Percentiles,
}

impl Steps {
    pub fn measure(graphs: &[(&str, Dfg)]) -> Steps {
        let (soa, dense) = (soa_steady(), dense_steps());
        let (context, scratch) = context_and_scratch(graphs);
        Steps {
            soa,
            dense,
            context,
            scratch,
        }
    }

    /// Gates the SoA and dense steps' tails: a p99 blowing past 10x the
    /// median means a hidden slow path (reallocation, cache rebuild)
    /// crept back into the hot loop even if medians look fine.
    pub fn record(&self, sheet: &mut Sheet) {
        let (soa, dense, context, scratch) = (&self.soa, &self.dense, &self.context, &self.scratch);
        for (name, p) in [
            ("rotation step (soa, steady)", soa),
            ("driver step (dense)", dense),
        ] {
            sheet.gate(
                p.p99 / p.p50.max(1) <= STEP_TAIL_RATIO,
                &format!("{}; p99 within {STEP_TAIL_RATIO}x of p50", p.line(name)),
            );
        }
        let dense_before_p50 = before("rotation_step_ns.dense_before.p50");
        info(&format!(
            "dense step before the CSR weight kernel: p50 {dense_before_p50} ns, p99 {} ns",
            before("rotation_step_ns.dense_before.p99")
        ));
        info(&format!(
            "dense step before the zero-delay bits in CSR order: p50 {} ns, p99 {} ns",
            before("rotation_step_ns.dense_parent.p50"),
            before("rotation_step_ns.dense_parent.p99")
        ));
        info(&context.line("rotation step (context)"));
        info(&scratch.line("rotation step (from scratch)"));
        let speedup = ratio(scratch.p50, context.p50);
        info(&format!(
            "per-step speedup at p50: {speedup:.2}x (context vs scratch)"
        ));
        sheet.spread("rotation_step_ns.soa", soa);
        sheet.spread("rotation_step_ns.dense", dense);
        sheet.spread("rotation_step_ns.context", context);
        sheet.spread("rotation_step_ns.scratch", scratch);
        sheet.fixed("rotation_step_ns.speedup_p50", speedup, 2);
        let soa_speedup = ratio(context.p50, soa.p50);
        sheet.fixed(
            "rotation_step_ns.soa_speedup_p50_vs_context",
            soa_speedup,
            2,
        );
        let soa_tail = ratio(soa.p99, soa.p50);
        sheet.fixed("rotation_step_ns.soa_tail_p99_over_p50", soa_tail, 2);
        sheet.before("rotation_step_ns.dense_before");
        sheet.before("rotation_step_ns.dense_parent");
        let dense_speedup = ratio(dense_before_p50, dense.p50);
        sheet.fixed("rotation_step_ns.dense_speedup_p50", dense_speedup, 2);
        let dense_tail = ratio(dense.p99, dense.p50);
        sheet.fixed("rotation_step_ns.dense_tail_p99_over_p50", dense_tail, 2);
    }
}

/// Samples per-rotation-step latency for the persistent-context path and
/// the from-scratch operator over the paper benchmarks plus a 64-node
/// random graph.
fn context_and_scratch(graphs: &[(&str, Dfg)]) -> (Percentiles, Percentiles) {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let (mut ctx_ns, mut scratch_ns) = (Vec::new(), Vec::new());
    for (g, init) in &subjects(graphs, sched, &res) {
        let mut kernel = Kernel::new(g, sched, &res, init);
        time_steps(g, init, &mut ctx_ns, |s| kernel.rotate(s, 1));
        let from_scratch =
            |s: &mut RotationState| drop(down_rotate(g, &sched, &res, s, 1).expect("legal"));
        time_steps(g, init, &mut scratch_ns, from_scratch);
    }
    (
        Percentiles::of(&mut ctx_ns),
        Percentiles::of(&mut scratch_ns),
    )
}

/// Times up to `STEP_REPS * STEP_SEQ` size-1 rotations of one
/// continuous sequence from `init` into `ns`, so the context and the
/// caches warm up exactly as they do inside a rotation phase.
fn time_steps(
    g: &Dfg,
    init: &RotationState,
    ns: &mut Vec<u64>,
    mut rotate: impl FnMut(&mut RotationState),
) {
    let mut state = init.clone();
    for _ in 0..STEP_REPS * STEP_SEQ {
        if state.length(g) <= 1 {
            break;
        }
        let start = Instant::now();
        rotate(&mut state);
        ns.push(elapsed_ns(start));
    }
}

/// Samples the engine's true steady-state rotation step (the window the
/// `alloc_discipline` suite proves allocation-free): a ring that rotates
/// indefinitely, every buffer and the weight memo warm. Every step does
/// like-for-like work, unlike [`context_and_scratch`]'s five graphs, so
/// the percentile spread reflects the hot loop itself.
fn soa_steady() -> Percentiles {
    let n = 24_usize;
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let g = rotsched_dfg::DfgBuilder::new("steady-ring")
        .nodes("v", n, rotsched_dfg::OpKind::Add, 1)
        .chain(&refs)
        .edge(&format!("v{}", n - 1), "v0", 3)
        .build()
        .expect("valid ring");
    let sched = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(4, 0, false);
    let mut state = initial_state(&g, &sched, &res).expect("ring schedules");
    let mut kernel = Kernel::new(&g, sched, &res, &state);
    // Warm-up: the rotation sequence of a uniform ring is periodic, so
    // 4n steps see every distinct zero-delay set and grow every buffer.
    // The untimed wrapped-length probe between steps keeps the scratch
    // warm without charging the probe to the rotation arm (the
    // `context` and `scratch` arms time the rotation operator alone).
    for _ in 0..4 * n {
        kernel.rotate(&mut state, 1);
        kernel.wrapped(&state);
    }
    let mut ns = Vec::with_capacity(SOA_SAMPLES);
    for _ in 0..SOA_SAMPLES {
        let start = Instant::now();
        kernel.rotate(&mut state, 1);
        ns.push(elapsed_ns(start));
        kernel.wrapped(&state);
    }
    Percentiles::of(&mut ns)
}

/// Samples full driver steps on a dense graph: the 64-node random graph
/// under 3 adders and 2 multipliers, phases of sizes `β..=1` for the
/// default rounds, each step the [`Kernel`] at the phase's effective
/// size, timed rotation and probe together.
///
/// The loop copies Heuristic 2's phase loop as it ran before the engine
/// kept one scheduling context per sweep: each phase builds a fresh
/// context over the from-scratch `FullSchedule` of the accumulated
/// retiming, and nothing is replayed. It stays that way so the arm
/// keeps reading the quantity its `dense_before` parent reading
/// measured — the per-step kernel, not the sweep's bookkeeping. Unlike
/// the `soa` ring, most steps here meet a zero-delay set the weight
/// memo has not seen, place prefixes with many zero-delay predecessors,
/// and probe multi-cycle tails, so the arm prices the placement core,
/// the weight kernel and the wrap probe together.
fn dense_steps() -> Percentiles {
    let g = random64();
    let sched = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(3, 2, false);
    let config = HeuristicConfig::default();
    let mut state = initial_state(&g, &sched, &res).expect("schedulable");
    let mut kernel = Kernel::new(&g, sched, &res, &state);
    let beta = state.length(&g);
    let mut ns = Vec::new();
    for _ in 0..config.rounds {
        for size in (1..=beta).rev() {
            kernel.ctx = context(&g, sched, &res, &state);
            for _ in 0..config.rotations_per_phase {
                let Some(effective) = kernel.effective(&state, size) else {
                    break;
                };
                let start = Instant::now();
                kernel.rotate(&mut state, effective);
                kernel.wrapped(&state);
                ns.push(elapsed_ns(start));
            }
            state.schedule = sched
                .schedule(&g, Some(&state.retiming), &res)
                .expect("legal retimings schedule");
        }
    }
    Percentiles::of(&mut ns)
}

/// The engine-vs-replica dispatch overhead: per-sequence wall times
/// through each, over every graph, and the median over graphs of each
/// graph's median paired ratio, as a percentage above 1.
pub struct DriverOverhead {
    pub driver: Percentiles,
    pub legacy: Percentiles,
    pub pct: f64,
}

impl DriverOverhead {
    /// Times a size-1 rotation phase through [`SearchDriver`] (the
    /// `NoopObserver` path) against [`legacy_sequence`], alternating
    /// which runs first. A pooled p50 would mix graphs whose sequences
    /// differ several-fold in length, and one noisy repetition moves it
    /// by tens of percent; a ratio of back-to-back runs of one graph
    /// cancels the graph's scale and most host drift.
    pub fn measure(graphs: &[(&str, Dfg)]) -> DriverOverhead {
        let res = ResourceSet::adders_multipliers(2, 2, false);
        let sched = ListScheduler::default();
        let mut driver_ns = Vec::new();
        let mut legacy_ns = Vec::new();
        let mut graph_ratios = Vec::new();
        for (g, init) in &subjects(graphs, sched, &res) {
            let driver = |_| driver_sequence(g, sched, &res, init);
            let legacy = |_| legacy_sequence(g, sched, &res, init);
            // Warm-up: one untimed sequence per arm.
            driver(0);
            legacy(0);
            let (d, l) = interleave(STEP_REPS, 1, driver, legacy);
            let mut ratios: Vec<f64> = d.iter().zip(&l).map(|(&d, &l)| ratio(d, l)).collect();
            graph_ratios.push(median(&mut ratios));
            driver_ns.extend(d);
            legacy_ns.extend(l);
        }
        DriverOverhead {
            driver: Percentiles::of(&mut driver_ns),
            legacy: Percentiles::of(&mut legacy_ns),
            pct: (median(&mut graph_ratios) - 1.0) * 100.0,
        }
    }

    /// Gates the overhead, and the baseline's recorded one, inside the
    /// two-sided band: a recorded -43% against a real -2.65% once meant
    /// the replica had gone stale.
    pub fn record(&self, sheet: &mut Sheet, baseline: Option<&Baseline>) {
        let (pct, band) = (self.pct, DRIVER_OVERHEAD_BAND_PCT);
        sheet.gate(
            pct.abs() <= band,
            &format!(
                "driver overhead ({STEP_SEQ} size-1 rotations per sequence): driver p50 {} ns, \
                 replica p50 {} ns, {pct:+.2}% (median of per-graph paired ratios) within \
                 ±{band}%",
                self.driver.p50, self.legacy.p50
            ),
        );
        if let Some(b) = baseline {
            sheet.gate(
                b.overhead_pct.abs() <= band,
                &format!(
                    "baseline driver overhead {:+.2}% within ±{band}%",
                    b.overhead_pct
                ),
            );
        }
        sheet.put("driver_overhead.driver_seq_ns_p50", &self.driver.p50);
        sheet.put("driver_overhead.legacy_seq_ns_p50", &self.legacy.p50);
        sheet.put("driver_overhead.samples", &self.driver.samples);
        sheet.fixed(DRIVER_OVERHEAD, pct, 2);
    }
}

/// One phase of `STEP_SEQ` size-1 rotations through the engine.
fn driver_sequence(g: &Dfg, sched: ListScheduler, res: &ResourceSet, init: &RotationState) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut driver = SearchDriver::incremental(g, &sched, res);
    driver
        .run_phase(&mut state, &mut best, 1, STEP_SEQ)
        .expect("legal");
}

/// The engine's phase loop, hand-rolled: the same [`Kernel`], stats
/// bookkeeping, best-set offer and cycle replay (the engine's own
/// [`CycleLog`]) as `SearchDriver::run_phase`, minus its dispatch
/// (step-mode enum, budget polling, observer calls). It MUST track the
/// engine's hot path: a stale replica turns the overhead into a bogus
/// "engine far faster than the bare loop" reading, which the two-sided
/// band catches.
fn legacy_sequence(g: &Dfg, sched: ListScheduler, res: &ResourceSet, init: &RotationState) {
    let mut state = init.clone();
    let mut best = BestSet::new(4);
    let mut kernel = Kernel::new(g, sched, res, &state);
    let mut cycles = CycleLog::new();
    cycles.begin(&state, STEP_SEQ);
    let mut rotations = 0_usize;
    let mut lengths = Vec::new();
    let mut first_optimum_at = None;
    let mut min_seen = u32::MAX;
    for j in 0..STEP_SEQ {
        if let Some((_, wrapped)) = cycles.replay(j + 1) {
            rotations += 1;
            lengths.push(wrapped);
            continue;
        }
        let Some(wrapped) = kernel.step(&mut state, 1) else {
            break;
        };
        rotations += 1;
        lengths.push(wrapped);
        if wrapped < min_seen {
            min_seen = wrapped;
            first_optimum_at = Some(j + 1);
        }
        let _ = best.offer(Score::from_length(wrapped), &state);
        cycles.record(&kernel.rotated, wrapped, &state);
    }
    cycles.restore(rotations, &mut state);
    // Keep the bookkeeping observable so the optimizer cannot discard
    // the replica's stats work that the real loop also performed.
    std::hint::black_box((rotations, lengths, first_optimum_at, state));
}

/// A `u32`-keyed replica of the pre-objective best set, for the
/// overhead comparison only: same admission rule, same fingerprint,
/// same cloning discipline — scalar length compare instead of the
/// packed score.
struct ScalarBestSet {
    length: u32,
    schedules: Vec<RotationState>,
    fingerprints: Vec<u64>,
    capacity: usize,
}

impl ScalarBestSet {
    fn new(capacity: usize) -> Self {
        ScalarBestSet {
            length: u32::MAX,
            schedules: Vec::new(),
            fingerprints: Vec::new(),
            capacity,
        }
    }

    fn fingerprint(state: &RotationState) -> u64 {
        let mut h = Fnv64::new();
        for (v, cs) in state.schedule.iter() {
            h.write_u32(u32::try_from(v.index()).unwrap_or(u32::MAX));
            h.write_u32(cs);
        }
        h.finish()
    }

    fn offer(&mut self, length: u32, state: &RotationState) -> bool {
        if length > self.length {
            return false;
        }
        if length < self.length {
            let fp = Self::fingerprint(state);
            self.length = length;
            self.schedules.clear();
            self.fingerprints.clear();
            self.schedules.push(state.clone());
            self.fingerprints.push(fp);
            return true;
        }
        if self.schedules.len() >= self.capacity {
            return false;
        }
        let fp = Self::fingerprint(state);
        let duplicate = self
            .fingerprints
            .iter()
            .zip(&self.schedules)
            .any(|(&f, s)| f == fp && s.schedule == state.schedule);
        if !duplicate {
            self.schedules.push(state.clone());
            self.fingerprints.push(fp);
        }
        false
    }
}

/// One `STEP_SEQ`-rotation size-1 sequence of the bare [`Kernel`],
/// handing each wrapped length and state to `offer`. Never inlined and
/// not generic, so both arms of the objective comparison run this one
/// copy of the loop and differ only in the `offer` they pass.
#[inline(never)]
fn offer_sequence(
    g: &Dfg,
    sched: ListScheduler,
    res: &ResourceSet,
    init: &RotationState,
    offer: &mut dyn FnMut(u32, &RotationState),
) {
    let mut state = init.clone();
    let mut kernel = Kernel::new(g, sched, res, &state);
    for _ in 0..STEP_SEQ {
        let Some(wrapped) = kernel.step(&mut state, 1) else {
            break;
        };
        offer(wrapped, &state);
    }
}

/// Measures what the objective core costs the default length-only
/// path: identical rotation sequences timed back to back, one scoring
/// through `Objective::Length` into the packed-score best set the
/// engine runs, the other keeping plain `u32` lengths in
/// [`ScalarBestSet`]. Each round visits every subject once, and the
/// arm that runs first alternates by round, so both orders see the
/// same subjects after the same predecessors. Returns the packed and
/// scalar p50s and the packed path's overhead ([`crossover_pct`]):
/// the pooled p50s mix graphs of different lengths, and the arm that
/// runs second in a pair reads faster.
pub fn objective_overhead(graphs: &[(&str, Dfg)]) -> (u64, u64, f64) {
    let res = ResourceSet::adders_multipliers(2, 2, false);
    let sched = ListScheduler::default();
    let subjects: Vec<(&Dfg, RotationState)> = graphs
        .iter()
        .map(|(_, g)| (g, initial_state(g, &sched, &res).expect("schedulable")))
        .collect();
    let scalar = |k: usize| {
        let (g, init) = &subjects[k % subjects.len()];
        let mut best = ScalarBestSet::new(4);
        offer_sequence(g, sched, &res, init, &mut |wrapped, state| {
            best.offer(wrapped, state);
        });
        std::hint::black_box((best.length, best.schedules.len()));
    };
    let packed = |k: usize| {
        let (g, init) = &subjects[k % subjects.len()];
        let mut best = BestSet::new(4);
        offer_sequence(g, sched, &res, init, &mut |wrapped, state| {
            let _ = best.offer(Objective::Length.score(g, &state.retiming, wrapped), state);
        });
        std::hint::black_box((best.length(), best.count()));
    };
    // Warm-up: one untimed sequence per arm per subject.
    for k in 0..subjects.len() {
        scalar(k);
        packed(k);
    }
    let period = subjects.len();
    let (mut packed_ns, mut scalar_ns) =
        interleave(OBJECTIVE_OVERHEAD_SAMPLES, period, packed, scalar);
    let pct = crossover_pct(&packed_ns, &scalar_ns, period);
    (
        Percentiles::of(&mut packed_ns).p50,
        Percentiles::of(&mut scalar_ns).p50,
        pct,
    )
}

/// Gates and records the objective arm from its packed and scalar p50s
/// and the packed path's overhead (see [`Sheet::zero_cost`]).
pub fn record_objective(
    (packed_p50, scalar_p50, pct): (u64, u64, f64),
    sheet: &mut Sheet,
    baseline: Option<&Baseline>,
) {
    sheet.zero_cost(
        "objective-core",
        &format!(
            "objective-core overhead: scalar best-set p50 {scalar_p50} ns vs packed p50 \
             {packed_p50} ns, paired in both orders"
        ),
        pct,
        OBJECTIVE_OVERHEAD_LIMIT_PCT,
        baseline.map(|b| b.objective_overhead_pct),
    );
    sheet.put("objective_overhead.scalar_seq_ns_p50", &scalar_p50);
    sheet.put("objective_overhead.packed_seq_ns_p50", &packed_p50);
    sheet.put("objective_overhead.samples", &OBJECTIVE_OVERHEAD_SAMPLES);
    sheet.fixed(OBJECTIVE_OVERHEAD, pct, 2);
    let limit = OBJECTIVE_OVERHEAD_LIMIT_PCT;
    sheet.fixed("objective_overhead.limit_pct", limit, 0);
}
