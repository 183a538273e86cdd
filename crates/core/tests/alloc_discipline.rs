//! Allocation discipline of the data-oriented hot path, enforced by a
//! counting global allocator.
//!
//! Five claims are pinned here:
//!
//! 1. a **steady-state rotation step** — `SchedContext::down_rotate`
//!    plus the `WrapScratch` wrapped-length probe, beyond the
//!    weight-memo warm-up — performs **zero** heap allocations;
//! 2. a **deduplicated `solve_batch` item** costs a small fixed
//!    allocation budget (the outcome clone), far below a fresh solve
//!    (both counts pinned exactly in release);
//! 3. on a warmed `SearchDriver`, a **replayed rotation** (one past the
//!    phase's first repeated state) allocates nothing but the growth of
//!    `PhaseStats::lengths`;
//! 4. on a warmed `SearchDriver`, a **sweep-replayed phase** (one that
//!    Heuristic 2 replays whole from its sweep log) allocates nothing but
//!    its `PhaseStats::lengths` and the growth of the sweep's phase list;
//! 5. on a warmed `SearchDriver`, an **executed phase boundary** of
//!    Heuristic 2 — the `FullSchedule(G_R)` through the sweep's one
//!    scheduling context, its wrap probe and offer, and the next
//!    phase's start on that context — allocates an exact, pinned
//!    count: the growth of the sweep's phase list and the states `Q`
//!    admits, nothing for the reschedule or the phase setup.
//!
//! The zero-allocation claim only holds in release builds: debug builds
//! run the self-verifying cross-checks (`WrapScratch` re-runs the
//! reference probe, the context re-validates its zero-delay view), which
//! allocate by design. The test still runs the same steps in debug so
//! the path is exercised; only the counts are release-gated.
//!
//! Everything is measured inside ONE `#[test]` — the counter is global,
//! and the harness runs separate tests on separate threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rotsched_benchmarks::{biquad, TimingModel};
use rotsched_core::{
    BestSet, HeuristicConfig, ProblemSpec, RotationScheduler, RotationState, SearchDriver,
    SearchEvent, SearchObserver,
};
use rotsched_dfg::{Dfg, DfgBuilder, OpKind};
use rotsched_sched::{ListScheduler, ResourceSet, SchedContext, WrapScratch};

/// Counts every allocation and reallocation (frees are irrelevant to
/// the zero-alloc claim) on top of the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A ring whose steady-state length stays above 1, so rotation steps
/// can run indefinitely: n single-cycle adds, k delays on the back edge.
fn ring(n: usize, delays: u32) -> Dfg {
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    DfgBuilder::new("ring")
        .nodes("v", n, OpKind::Add, 1)
        .chain(&refs)
        .edge(&format!("v{}", n - 1), "v0", delays)
        .build()
        .expect("valid ring")
}

/// Reads the allocation counter at every rotation and at phase end,
/// into a buffer sized up front so recording never allocates.
struct AllocProbe(Vec<u64>);

impl SearchObserver for AllocProbe {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        if matches!(
            event,
            SearchEvent::Rotated { .. } | SearchEvent::PhaseEnd { .. }
        ) {
            self.0.push(allocs());
        }
    }
}

/// Reads the allocation counter at every phase start and end, into a
/// buffer sized up front so recording never allocates.
struct PhaseAllocProbe(Vec<u64>);

impl SearchObserver for PhaseAllocProbe {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        if matches!(
            event,
            SearchEvent::PhaseStart { .. } | SearchEvent::PhaseEnd { .. }
        ) {
            self.0.push(allocs());
        }
    }
}

#[test]
fn hot_path_allocation_discipline() {
    // ---- claim 1: zero allocations per steady-state rotation step ----
    let n = 24;
    let g = ring(n, 3);
    let sched = ListScheduler::default();
    let res = ResourceSet::adders_multipliers(4, 0, false);
    let mut state = rotsched_core::initial_state(&g, &sched, &res).expect("ring schedules");
    let mut ctx = SchedContext::new(&g, &sched, &res, Some(&state.retiming), &state.schedule)
        .expect("context builds");
    let mut wrap = WrapScratch::new(&g, &res).expect("ops bind");
    let mut rotated = Vec::new();

    let mut step = |ctx: &mut SchedContext, wrap: &mut WrapScratch, state: &mut RotationState| {
        ctx.down_rotate(
            &g,
            &res,
            &mut state.retiming,
            &mut state.schedule,
            1,
            &mut rotated,
        )
        .expect("steady ring keeps rotating");
        wrap.wrapped_length(&g, Some(&state.retiming), &state.schedule, &res)
            .expect("rotation states wrap");
    };

    // Warm-up: grow every pooled buffer and fill the weight memo (the
    // rotation sequence of a uniform ring is periodic in n steps; 4n
    // sees every zero-delay set it will ever produce).
    for _ in 0..4 * n {
        step(&mut ctx, &mut wrap, &mut state);
    }

    let mut per_step = Vec::with_capacity(n);
    for _ in 0..n {
        let before = allocs();
        step(&mut ctx, &mut wrap, &mut state);
        per_step.push(allocs() - before);
    }
    if !cfg!(debug_assertions) {
        assert_eq!(
            per_step.iter().sum::<u64>(),
            0,
            "steady-state rotation steps must not touch the heap: {per_step:?}"
        );
    }

    // ---- claim 2: a deduplicated batch item has a fixed small cost ----
    let spec = ProblemSpec::new(ring(10, 2), ResourceSet::adders_multipliers(2, 0, false));

    let before = allocs();
    let single = RotationScheduler::solve_batch(std::slice::from_ref(&spec)).expect("solves");
    let fresh_cost = allocs() - before;

    // The batch's input is built outside the measured window: cloning
    // a spec is the caller's cost, not the batch's.
    let specs = [spec.clone(), spec.clone(), spec];
    let before = allocs();
    let triple = RotationScheduler::solve_batch(&specs).expect("solves");
    let triple_cost = allocs() - before;
    assert_eq!(triple[2].length, single[0].length);

    // Two duplicate items on top of the representative solve.
    let duplicate_cost = triple_cost.saturating_sub(fresh_cost) / 2;
    let before = allocs();
    let clone = single[0].clone();
    let clone_cost = allocs() - before;
    drop(clone);
    assert_eq!(
        duplicate_cost, clone_cost,
        "a deduplicated item costs exactly its outcome clone"
    );
    assert!(
        duplicate_cost < 1_000,
        "a deduplicated item should cost only its outcome clone, \
         got {duplicate_cost} allocations"
    );
    // In release both sides are pinned exactly, so either one growing
    // fails here: a fresh solve of this ring allocates 205 times, its
    // outcome clone 54 times. Debug builds, whose cross-checks
    // allocate, check the ratio.
    if cfg!(debug_assertions) {
        assert!(
            duplicate_cost * 4 < fresh_cost,
            "deduplication must be far cheaper than solving: \
             duplicate {duplicate_cost} vs fresh {fresh_cost}"
        );
    } else {
        assert_eq!(
            (fresh_cost, clone_cost),
            (205, 54),
            "pinned allocation counts of a fresh solve and an outcome clone"
        );
    }

    // ---- claim 3: replayed rotations allocate only length records ----
    let g = ring(24, 3);
    let res = ResourceSet::adders_multipliers(4, 0, false);
    let init = rotsched_core::initial_state(&g, &sched, &res).expect("ring schedules");
    let alpha = 240;
    let mut driver = SearchDriver::incremental(&g, &sched, &res)
        .with_observer(AllocProbe(Vec::with_capacity(2 * alpha + 2)));
    // The first phase grows the cycle log, the context's pools and the
    // weight memo; the second, identical one is measured.
    for _ in 0..2 {
        driver.observer.0.clear();
        let mut state = init.clone();
        let mut best = BestSet::new(8);
        let stats = driver
            .run_phase(&mut state, &mut best, 1, alpha)
            .expect("steady ring keeps rotating");
        assert_eq!(stats.rotations, alpha);
        assert!(
            stats.replayed > alpha / 2,
            "the ring repeats early: {} replayed",
            stats.replayed
        );
        // Counter readings from the last executed rotation on: each
        // difference spans one replayed rotation (or the phase end).
        let marks = &driver.observer.0[alpha - stats.replayed - 1..];
        let replay_allocs = marks.last().unwrap() - marks[0];
        let growth_bound = u64::from(alpha.ilog2()) + 1;
        assert!(
            replay_allocs <= growth_bound,
            "{} replayed rotations allocated {replay_allocs} times; only \
             `lengths` growth (at most {growth_bound}) is allowed",
            stats.replayed
        );
    }
    // ---- claim 4: sweep-replayed phases allocate only their records ----
    // Biquad under 2 adders and 4 multipliers: phase 9 of its default
    // sweep starts on phase 2's state, and the last 19 of its 28 phases
    // are replayed.
    let g = biquad(&TimingModel::paper());
    let res = ResourceSet::adders_multipliers(2, 4, false);
    let config = HeuristicConfig::default();
    let mut driver =
        SearchDriver::incremental(&g, &sched, &res).with_observer(PhaseAllocProbe(Vec::new()));
    // The first sweep grows the replay logs, the context's pools and
    // the wrap probe; the second, identical one is measured.
    for _ in 0..2 {
        driver.observer.0 = Vec::with_capacity(2 * 64);
        let outcome = driver.heuristic2(&config).expect("biquad schedules");
        assert_eq!(outcome.phases.len(), 28);
        assert_eq!(outcome.replayed_phases, 19);
        // Counter readings at each phase start and end; the replayed
        // phases are the last ones.
        let marks = &driver.observer.0;
        assert_eq!(marks.len(), 2 * outcome.phases.len());
        let first = outcome.phases.len() - outcome.replayed_phases;
        let inside: u64 = (first..outcome.phases.len())
            .map(|i| marks[2 * i + 1] - marks[2 * i])
            .sum();
        assert!(
            inside <= outcome.replayed_phases as u64,
            "{} sweep-replayed phases allocated {inside} times; only their \
             `lengths` (one each) are allowed",
            outcome.replayed_phases
        );
        let between: u64 = (first..outcome.phases.len() - 1)
            .map(|i| marks[2 * i + 2] - marks[2 * i + 1])
            .sum();
        let growth_bound = u64::from(outcome.phases.len().ilog2()) + 1;
        assert!(
            between <= growth_bound,
            "between sweep-replayed phases the sweep allocated {between} \
             times; only the phase list's growth (at most {growth_bound}) is allowed"
        );
    }

    // ---- claim 5: executed phase boundaries allocate a pinned count ----
    // The same sweep, on the same warmed driver: its first 9 phases
    // execute, so 8 boundaries lead from one executed phase to the
    // next. Each spans the phase list's push, the `FullSchedule(G_R)`
    // through the sweep's context, its wrap probe and offer, the sweep
    // log's bookkeeping and the next phase's start on that context.
    // Only two allocate: the first (the phase list's first buffer, and
    // `Q` admitting the rescheduled state as a tie — its retiming and
    // its schedule) and the fifth (the phase list growing past 4).
    driver.observer.0 = Vec::with_capacity(2 * 64);
    let outcome = driver.heuristic2(&config).expect("biquad schedules");
    let executed = outcome.phases.len() - outcome.replayed_phases;
    assert_eq!(executed, 9);
    let marks = &driver.observer.0;
    let boundaries: Vec<u64> = (1..executed)
        .map(|i| marks[2 * i] - marks[2 * i - 1])
        .collect();
    if !cfg!(debug_assertions) {
        assert_eq!(
            boundaries,
            [3, 0, 0, 0, 1, 0, 0, 0],
            "allocations at each executed phase boundary"
        );
    }
}
