//! The traced run's instruments: a span recorder around calls into each
//! layer, per-op layer-time accumulators, a `SearchObserver` that splits
//! a solve into engine phases, and a counting global allocator.
//!
//! Everything here is owned by the benchmark: spans are recorded around
//! the calls it makes into the library's public functions, never inside
//! the library.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use rotsched_core::{SearchEvent, SearchObserver};

use crate::stats::Histogram;

/// A monotonic nanosecond clock anchored at the run's start.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Every timed layer: span names for calls the benchmark makes, and
/// engine phases the observer derives from search events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole op of the paper and random-64 workloads (the root span).
    Solve,
    LowerBound,
    Heuristic2,
    MinimizedDepth,
    LoopSchedule,
    /// Heuristic 2 up to the initial schedule's offer.
    EngineInit,
    /// Context (re)build at each phase start.
    PhaseSetup,
    /// `FullSchedule(G_R)` between phases.
    Reschedule,
    /// Rotated → Rotated intervals: one down-rotation plus its probe.
    Step,
    IterationBound,
    /// One whole op of the analyze-256 workload (the root span).
    VerifyOp,
    Certify,
    Analysis,
    Render,
    AnalysisBase,
    Lint,
    CriticalCycle,
    Saturation,
    RegisterPressure,
    ChainDepth,
    RecurrenceBound,
    /// One served request of the serve-mix workload (the root span).
    ServeRequest,
    WireParse,
    WireKey,
    Frame,
}

impl Layer {
    /// One past the last variant: the width of a [`LayerTimes`] row.
    pub const COUNT: usize = Layer::Frame as usize + 1;

    pub fn name(self) -> &'static str {
        match self {
            Layer::Solve => "solve",
            Layer::LowerBound => "baselines.lower_bound",
            Layer::Heuristic2 => "core.engine.heuristic2",
            Layer::MinimizedDepth => "core.depth.minimized_depth",
            Layer::LoopSchedule => "core.depth.loop_schedule",
            Layer::EngineInit => "core.engine.init",
            Layer::PhaseSetup => "core.engine.phase_setup",
            Layer::Reschedule => "core.engine.reschedule",
            Layer::Step => "core.engine.step",
            Layer::IterationBound => "dfg.iteration_bound",
            Layer::VerifyOp => "verify.op",
            Layer::Certify => "verify.certify",
            Layer::Analysis => "verify.analysis",
            Layer::Render => "verify.render",
            Layer::AnalysisBase => "verify.analysis.base",
            Layer::Lint => "verify.lint",
            Layer::CriticalCycle => "verify.analysis.critical_cycle",
            Layer::Saturation => "verify.analysis.saturation",
            Layer::RegisterPressure => "verify.analysis.register_pressure",
            Layer::ChainDepth => "verify.analysis.chain_depth",
            Layer::RecurrenceBound => "verify.recurrence_bound",
            Layer::ServeRequest => "serve.request",
            Layer::WireParse => "core.wire.parse",
            Layer::WireKey => "core.wire.key",
            Layer::Frame => "serve.protocol.frame",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    pub op: u32,
    pub pass: u32,
}

/// Per-op time of every layer within one pass, nanoseconds.
pub type LayerTimes = [u64; Layer::COUNT];

/// Engine work counted by the observer; deterministic for a given pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    pub rotations: u64,
    pub rotated_nodes: u64,
    pub phases: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Σ over solves of the rotation index of the solve's last strict
    /// improvement.
    pub useful_rotations: u64,
}

/// The traced run's in-memory state: spans, per-op layer times of the
/// current pass, and their per-op minima over traced passes.
#[derive(Debug)]
pub struct Tracer {
    pub clock: Clock,
    pub spans: Vec<Span>,
    /// Traced passes completed so far (the index of the pass in progress).
    pub pass: u32,
    /// Layer times of the pass in progress, one row per op.
    pub current: Vec<LayerTimes>,
    /// Per-op, per-layer minima over every completed traced pass.
    pub minima: Vec<LayerTimes>,
    pub steps: Histogram,
    /// Engine counts of the pass in progress.
    pub engine: EngineCounts,
    /// Engine counts of the first traced pass; later passes must repeat them.
    pub engine_reference: Option<EngineCounts>,
}

impl Tracer {
    pub fn new(clock: Clock, ops: usize) -> Self {
        Tracer {
            clock,
            spans: Vec::new(),
            pass: 0,
            current: vec![[0; Layer::COUNT]; ops],
            minima: vec![[u64::MAX; Layer::COUNT]; ops],
            steps: Histogram::default(),
            engine: EngineCounts::default(),
            engine_reference: None,
        }
    }

    /// Readies buffers for a pass so that recording allocates nothing
    /// while allocation counting is on.
    pub fn begin_pass(&mut self, spans_per_op: usize) {
        for row in &mut self.current {
            *row = [0; Layer::COUNT];
        }
        self.engine = EngineCounts::default();
        self.spans.reserve(self.current.len() * spans_per_op);
    }

    /// Opens a root span at the current time; its children name the
    /// returned index as their parent. Close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, op: usize) -> u32 {
        let now = self.clock.now();
        self.push(Span {
            layer,
            start: now,
            end: now,
            parent: None,
            op: op as u32,
            pass: self.pass,
        })
    }

    /// Closes a span opened with [`Tracer::open`]; returns its duration.
    pub fn close(&mut self, span: u32) -> u64 {
        let now = self.clock.now();
        let s = &mut self.spans[span as usize];
        s.end = now;
        now - s.start
    }

    /// Records a finished interval and charges it to `op`'s layer time.
    pub fn record(&mut self, layer: Layer, start: u64, op: usize, parent: Option<u32>) {
        let end = self.clock.now();
        self.add(op, layer, end - start);
        self.push(Span {
            layer,
            start,
            end,
            parent,
            op: op as u32,
            pass: self.pass,
        });
    }

    /// Appends a span recorded elsewhere (e.g. by a client thread).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Charges `ns` of `layer` time to `op` in the pass in progress.
    pub fn add(&mut self, op: usize, layer: Layer, ns: u64) {
        self.current[op][layer as usize] += ns;
    }

    /// Closes a pass: root spans get their self time (the part of their
    /// interval no child covers) charged to the root layer, then every
    /// per-op layer time is folded into the minima.
    pub fn end_pass(&mut self, first_span: usize, root: Layer) {
        let mut children: Vec<Vec<(u64, u64)>> = Vec::new();
        let spans = &self.spans[first_span..];
        children.resize(spans.len(), Vec::new());
        for s in spans {
            if let Some(p) = s.parent {
                children[p as usize - first_span].push((s.start, s.end));
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.layer == root {
                let own = self_time((s.start, s.end), &mut children[i]);
                self.current[s.op as usize][root as usize] = own;
            }
        }
        for (min, cur) in self.minima.iter_mut().zip(&self.current) {
            for (m, &c) in min.iter_mut().zip(cur) {
                *m = (*m).min(c);
            }
        }
        self.pass += 1;
    }

    /// Σ over ops of the per-op minimum of `layer`, in seconds.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        if self.pass == 0 {
            return 0.0;
        }
        let ns: u64 = self.minima.iter().map(|row| row[layer as usize]).sum();
        ns as f64 / 1e9
    }

    /// Nearest-rank percentile, over the ops that ran `layer`, of their
    /// per-op minimum, in nanoseconds.
    pub fn layer_p(&self, layer: Layer, p: f64) -> u64 {
        if self.pass == 0 {
            return 0;
        }
        let mut v: Vec<u64> = self
            .minima
            .iter()
            .map(|row| row[layer as usize])
            .filter(|&ns| ns > 0)
            .collect();
        v.sort_unstable();
        crate::stats::percentile(&v, p)
    }

    /// Renders every span as a JSON array (the `--trace-out` file).
    pub fn render_spans(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"workload\": \"");
        out.push_str(workload);
        out.push_str("\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"pass\": {}}}{}\n",
                s.layer.name(),
                s.start,
                s.end,
                s.op,
                s.pass,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// The self time of an interval: its duration minus the part of it
/// covered by `children` (clipped to the parent; overlaps counted once).
pub fn self_time(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

/// A `SearchObserver` that splits one Heuristic-2 run into engine
/// phases by timestamping search events, and counts engine work.
pub struct EngineProbe<'a> {
    clock: Clock,
    layers: &'a mut LayerTimes,
    steps: &'a mut Histogram,
    counts: &'a mut EngineCounts,
    /// Timestamp of the previous event (the call start before any).
    last: u64,
    /// Timestamp of the previous rotation or phase start.
    last_step: u64,
    seen_event: bool,
    rotations: u64,
    last_improvement_at: u64,
}

impl<'a> EngineProbe<'a> {
    /// A probe for a solve starting now, charging `op`'s row.
    pub fn new(tracer: &'a mut Tracer, op: usize) -> Self {
        let now = tracer.clock.now();
        EngineProbe {
            clock: tracer.clock,
            layers: &mut tracer.current[op],
            steps: &mut tracer.steps,
            counts: &mut tracer.engine,
            last: now,
            last_step: now,
            seen_event: false,
            rotations: 0,
            last_improvement_at: 0,
        }
    }

    /// Closes the solve: credits the rotation index of its last
    /// improvement to the useful-work count.
    pub fn finish(self) {
        self.counts.useful_rotations += self.last_improvement_at;
    }
}

impl SearchObserver for EngineProbe<'_> {
    fn on_event(&mut self, event: SearchEvent<'_>) {
        let now = self.clock.now();
        match event {
            SearchEvent::IncumbentImproved { .. } => {
                if !self.seen_event {
                    self.layers[Layer::EngineInit as usize] += now - self.last;
                }
                self.last_improvement_at = self.rotations;
            }
            SearchEvent::PhaseStart { .. } => {
                self.layers[Layer::PhaseSetup as usize] += now - self.last;
                self.counts.phases += 1;
                self.last_step = now;
            }
            SearchEvent::Rotated { node_set, .. } => {
                let step = now - self.last_step;
                self.layers[Layer::Step as usize] += step;
                self.steps.record(step);
                self.rotations += 1;
                self.counts.rotations += 1;
                self.counts.rotated_nodes += node_set.len() as u64;
                self.last_step = now;
            }
            SearchEvent::PhaseEnd { cache, .. } => {
                self.counts.memo_hits += cache.weight_memo_hits;
                self.counts.memo_misses += cache.weight_memo_misses;
            }
            SearchEvent::Rescheduled { .. } => {
                self.layers[Layer::Reschedule as usize] += now - self.last;
            }
            _ => {}
        }
        self.seen_event = true;
        self.last = now;
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static NET: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting allocations only while a traced pass
/// has counting switched on (untraced passes pay one relaxed load).
pub struct CountingAlloc;

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    note_net(size as i64);
}

fn note_net(delta: i64) {
    let net = NET.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(net, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            note_alloc(layout.size());
        }
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            note_net(-(layout.size() as i64));
        }
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            note_net(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation activity within one counting window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocWindow {
    pub allocs: u64,
    pub bytes: u64,
    /// Peak net heap growth inside the window, bytes.
    pub peak: u64,
}

/// Starts counting allocations from zero.
pub fn alloc_window_open() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    NET.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
}

/// Stops counting and returns what the window saw.
pub fn alloc_window_close() -> AllocWindow {
    COUNTING.store(false, Ordering::SeqCst);
    AllocWindow {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Runs a per-layer probe with allocation counting paused, so the
/// allocation metrics describe the ops alone. Call it only where no
/// other thread of the pass is running.
pub fn uncounted<T>(probe: impl FnOnce() -> T) -> T {
    let was = COUNTING.swap(false, Ordering::SeqCst);
    let out = probe();
    COUNTING.store(was, Ordering::SeqCst);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        // No children: all of it.
        assert_eq!(self_time((10, 110), &mut []), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &mut [(10, 20), (50, 80)]), 60);
        // Overlapping children are merged, not double-counted.
        assert_eq!(self_time((0, 100), &mut [(40, 70), (10, 50)]), 40);
        // Nested child inside a child.
        assert_eq!(self_time((0, 100), &mut [(10, 90), (20, 30)]), 20);
        // Children reaching outside the parent are clipped.
        assert_eq!(self_time((50, 100), &mut [(0, 60), (90, 200)]), 30);
        // Fully covered.
        assert_eq!(self_time((0, 10), &mut [(0, 10)]), 0);
    }

    #[test]
    fn end_pass_charges_root_self_time_and_keeps_minima() {
        let mut t = Tracer::new(Clock::start(), 1);
        for (child_len, root_len) in [(30_u64, 100_u64), (20, 90)] {
            t.begin_pass(4);
            let first = t.spans.len();
            let base = 1000;
            let root = t.push(Span {
                layer: Layer::Solve,
                start: base,
                end: base + root_len,
                parent: None,
                op: 0,
                pass: t.pass,
            });
            t.push(Span {
                layer: Layer::LowerBound,
                start: base + 5,
                end: base + 5 + child_len,
                parent: Some(root),
                op: 0,
                pass: t.pass,
            });
            t.add(0, Layer::LowerBound, child_len);
            t.end_pass(first, Layer::Solve);
        }
        assert_eq!(t.minima[0][Layer::Solve as usize], 70);
        assert_eq!(t.minima[0][Layer::LowerBound as usize], 20);
        assert!((t.layer_s(Layer::Solve) - 70e-9).abs() < 1e-15);
    }
}
