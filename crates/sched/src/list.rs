//! List scheduling — the paper's `FullSchedule` and `PartialSchedule`
//! procedures.
//!
//! The scheduler places operations into 1-based control steps, earliest
//! feasible step first, breaking ties among ready operations by a
//! [`PriorityPolicy`] weight (the paper uses descendant count). It
//! handles single-cycle, multi-cycle, and pipelined functional units
//! through the occupancy model of [`ResourceClass`].
//!
//! `PartialSchedule(G, s, X)` is the incremental mode: nodes outside `X`
//! keep their control steps and their resource reservations; only the
//! nodes of `X` are (re)placed. Rotation scheduling calls this after each
//! down-rotation so that "only a part of the DFG is rescheduled in each
//! rotation".
//!
//! [`ResourceClass`]: crate::ResourceClass

use core::ops::Range;

use rotsched_dfg::{CsrGraph, Dfg, NodeId, NodeMap, Retiming};

use crate::error::SchedError;
use crate::priority::{PriorityPolicy, WeightKernel};
use crate::reservation::ReservationTable;
use crate::resources::{ResourceClassId, ResourceSet};
use crate::schedule::Schedule;

/// Deterministic per-edge hash (the splitmix64 finalizer), by the
/// edge's CSR out-position, for the XOR-accumulated fingerprint of a
/// zero-delay edge set. Flipping one edge's membership is a single XOR,
/// which is what lets the rotation context maintain its weight-memo key
/// in O(flipped edges) per step.
pub(crate) fn edge_hash(position: usize) -> u64 {
    let mut z = (position as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The set bits of a bitset within a position range, ascending: a
/// node's zero-delay edges, read off its contiguous CSR range one word
/// at a time instead of one edge at a time.
#[derive(Debug)]
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    /// The word `bits` came from, and the range's last word.
    word: usize,
    last: usize,
    /// The bits of the last word inside the range.
    last_mask: u64,
    /// The current word's unvisited set bits.
    bits: u64,
}

impl<'a> Ones<'a> {
    /// The set bits of `words` at positions `range`.
    pub(crate) fn new(words: &'a [u64], range: Range<usize>) -> Self {
        if range.is_empty() {
            return Ones {
                words,
                word: 0,
                last: 0,
                last_mask: 0,
                bits: 0,
            };
        }
        let (word, last) = (range.start / 64, (range.end - 1) / 64);
        let last_mask = u64::MAX >> (63 - (range.end - 1) % 64);
        let mut bits = words[word] & (u64::MAX << (range.start % 64));
        if word == last {
            bits &= last_mask;
        }
        Ones {
            words,
            word,
            last,
            last_mask,
            bits,
        }
    }

    /// Advances to the next word of the range holding a set bit;
    /// `false` when none is left.
    fn refill(&mut self) -> bool {
        while self.bits == 0 {
            if self.word >= self.last {
                return false;
            }
            self.word += 1;
            self.bits = self.words[self.word];
            if self.word == self.last {
                self.bits &= self.last_mask;
            }
        }
        true
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if !self.refill() {
            return None;
        }
        let at = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(at)
    }

    // A word at a time: the zero-delay degree of a node.
    fn count(mut self) -> usize {
        let mut count = 0;
        while self.refill() {
            count += self.bits.count_ones() as usize;
            self.bits = 0;
        }
        count
    }
}

/// The zero-delay edge set of `G_r`, one bit per position of the
/// graph's [`CsrGraph`] edge arrays: the out-edge array's bits, then
/// the in-edge array's, in one buffer. Either half alone is the set;
/// together they give every node's zero-delay out- and in-edges as the
/// set bits of its contiguous CSR ranges, in the CSR's per-node
/// insertion order, so a walk over them skips every other edge without
/// reading it. A cheap XOR fingerprint over per-out-position hashes is
/// the weight-memo key (collisions fall back to the exact bitset
/// comparison, so a collision costs a compare, never a wrong answer);
/// [`SchedContext`](crate::SchedContext) maintains both incrementally.
#[derive(Debug, PartialEq, Eq)]
pub struct ZeroSet {
    bits: Vec<u64>,
    /// Words per half: where the in-position bits start.
    words: usize,
    key: u64,
}

impl Clone for ZeroSet {
    fn clone(&self) -> Self {
        ZeroSet {
            bits: self.bits.clone(),
            words: self.words,
            key: self.key,
        }
    }

    // Reuses the bitset's buffer: the rotation context recycles evicted
    // memo entries through this.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
        self.words = source.words;
        self.key = source.key;
    }
}

impl ZeroSet {
    /// Evaluates every edge's retimed delay, `d(e) + r(u) − r(v) == 0`,
    /// straight off the graph's flat [`CsrGraph`] arrays — no edge
    /// objects touched.
    #[must_use]
    pub fn compute(dfg: &Dfg, retiming: Option<&Retiming>) -> Self {
        let mut zero = ZeroSet {
            bits: Vec::new(),
            words: 0,
            key: 0,
        };
        zero.recompute(dfg, retiming);
        zero
    }

    /// [`ZeroSet::compute`] in place, reusing the bitset's buffer: how
    /// a rotation context re-derives its set after the state behind it
    /// was rewritten wholesale. Each out-position's status is computed
    /// from its retimed delay, and each word is compared with the one
    /// it replaces, so the fingerprint follows only the flipped edges,
    /// and the return value says whether any flipped. The in-half is
    /// then evaluated the same way, off the in-edge arrays, when any
    /// did.
    pub(crate) fn recompute(&mut self, dfg: &Dfg, retiming: Option<&Retiming>) -> bool {
        match retiming {
            Some(r) => {
                let r = r.as_slice();
                self.fill(dfg.csr(), |u, v| r[u] - r[v])
            }
            None => self.fill(dfg.csr(), |_, _| 0),
        }
    }

    /// [`ZeroSet::recompute`] with the retiming's `r(u) − r(v)` as
    /// `shift(u, v)`.
    fn fill(&mut self, csr: &CsrGraph, shift: impl Fn(usize, usize) -> i64) -> bool {
        let words = csr.edge_count().div_ceil(64);
        let resized = words != self.words;
        self.words = words;
        self.bits.resize(2 * words, 0);
        let (outs, ins) = self.bits.split_at_mut(words);
        let (heads, delays) = (csr.out_heads(), csr.out_delays());
        let (mut key, mut changed) = (self.key, false);
        let mut store = |w: usize, word: u64| {
            let mut flipped = word ^ outs[w];
            changed |= flipped != 0;
            while flipped != 0 {
                key ^= edge_hash(w * 64 + flipped.trailing_zeros() as usize);
                flipped &= flipped - 1;
            }
            outs[w] = word;
        };
        // The nodes' out-ranges tile the out-positions in order.
        let (mut word, mut end) = (0_u64, 0);
        for v in 0..csr.node_count() {
            let positions = csr.out_range(v);
            end = positions.end;
            for j in positions {
                let zero = i64::from(delays[j]) + shift(v, heads[j] as usize) == 0;
                word |= u64::from(zero) << (j % 64);
                if j % 64 == 63 {
                    store(j / 64, word);
                    word = 0;
                }
            }
        }
        if end % 64 != 0 {
            store(end / 64, word);
        }
        // An unchanged out-half leaves the in-half as it was.
        if changed || resized {
            let (tails, delays) = (csr.in_tails(), csr.in_delays());
            ins.fill(0);
            for v in 0..csr.node_count() {
                for i in csr.in_range(v) {
                    let zero = i64::from(delays[i]) + shift(tails[i] as usize, v) == 0;
                    ins[i / 64] |= u64::from(zero) << (i % 64);
                }
            }
        }
        self.key = key;
        changed
    }

    /// Whether the edge at CSR out-position `j` (an index into
    /// [`CsrGraph::out_edge_ids`]) is zero-delay in this set.
    #[must_use]
    pub fn contains_out(&self, j: usize) -> bool {
        (self.bits[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Whether the edge at CSR in-position `i` (an index into
    /// [`CsrGraph::in_edge_ids`]) is zero-delay in this set.
    #[must_use]
    pub fn contains_in(&self, i: usize) -> bool {
        (self.bits[self.words + i / 64] >> (i % 64)) & 1 == 1
    }

    /// The zero-delay out-positions within `range` (a node's
    /// [`CsrGraph::out_range`]), ascending.
    pub(crate) fn outs(&self, range: Range<usize>) -> Ones<'_> {
        Ones::new(&self.bits[..self.words], range)
    }

    /// The zero-delay in-positions within `range` (a node's
    /// [`CsrGraph::in_range`]), ascending.
    pub(crate) fn ins(&self, range: Range<usize>) -> Ones<'_> {
        Ones::new(&self.bits[self.words..], range)
    }

    /// Flips one edge's membership, at its out-position `j` and its
    /// in-position `i`, and the fingerprint with it.
    fn flip(&mut self, j: usize, i: usize) {
        self.bits[j / 64] ^= 1 << (j % 64);
        self.bits[self.words + i / 64] ^= 1 << (i % 64);
        self.key ^= edge_hash(j);
    }

    /// Follows the down-rotation of `rotated` (`r` already holds the
    /// +1 on each of its nodes, which `marked` flags). Only edges with
    /// exactly one end in the set change their retimed delay: an edge
    /// leaving it gains a delay, so a zero-delay one is cleared without
    /// arithmetic, and an edge entering it loses one, so only those get
    /// their status recomputed. Returns whether the set changed.
    pub(crate) fn down_rotate(
        &mut self,
        csr: &CsrGraph,
        twins: &CsrTwins,
        r: &[i64],
        rotated: &[NodeId],
        marked: &[bool],
    ) -> bool {
        let (tails, in_delays, heads) = (csr.in_tails(), csr.in_delays(), csr.out_heads());
        let mut changed = false;
        for &v in rotated {
            let v = v.index();
            for i in csr.in_range(v) {
                let u = tails[i] as usize;
                if !marked[u] && (i64::from(in_delays[i]) + r[u] - r[v] == 0) != self.contains_in(i)
                {
                    self.flip(twins.out_of_in[i] as usize, i);
                    changed = true;
                }
            }
            for j in csr.out_range(v) {
                if self.contains_out(j) && !marked[heads[j] as usize] {
                    self.flip(j, twins.in_of_out[j] as usize);
                    changed = true;
                }
            }
        }
        changed
    }

    /// The XOR fingerprint (the weight-memo key).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// Where each edge sits in the other CSR edge array: what
/// [`ZeroSet::down_rotate`]'s boundary repair needs to keep the set's
/// two halves in step. Built once per rotation context, in O(|E|); kept
/// out of the graph's cached [`CsrGraph`], which every solve and served
/// request builds.
#[derive(Clone, Debug)]
pub(crate) struct CsrTwins {
    /// The in-position of the edge at each out-position.
    in_of_out: Vec<u32>,
    /// The out-position of the edge at each in-position.
    out_of_in: Vec<u32>,
}

impl CsrTwins {
    pub(crate) fn new(csr: &CsrGraph) -> Self {
        let position = |at: usize| u32::try_from(at).expect("edge count fits u32");
        // Indexed by edge id first, then rewritten by out-position.
        let mut in_of_out = vec![0_u32; csr.edge_count()];
        for (j, e) in csr.out_edge_ids().iter().enumerate() {
            in_of_out[e.index()] = position(j);
        }
        let out_of_in: Vec<u32> = csr
            .in_edge_ids()
            .iter()
            .map(|e| in_of_out[e.index()])
            .collect();
        for (i, &j) in out_of_in.iter().enumerate() {
            in_of_out[j as usize] = position(i);
        }
        CsrTwins {
            in_of_out,
            out_of_in,
        }
    }
}

/// A list scheduler with a configurable priority policy.
///
/// # Examples
///
/// ```
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::{ListScheduler, ResourceSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("pair")
///     .node("m1", OpKind::Mul, 1)
///     .node("m2", OpKind::Mul, 1)
///     .build()?;
/// // One multiplier: the two independent multiplies serialize.
/// let s = ListScheduler::default().schedule(
///     &g,
///     None,
///     &ResourceSet::adders_multipliers(1, 1, false),
/// )?;
/// assert_eq!(s.length(&g), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ListScheduler {
    policy: PriorityPolicy,
}

impl ListScheduler {
    /// A scheduler using the given priority policy.
    #[must_use]
    pub fn new(policy: PriorityPolicy) -> Self {
        ListScheduler { policy }
    }

    /// The priority policy in use.
    #[must_use]
    pub fn policy(&self) -> PriorityPolicy {
        self.policy
    }

    /// Schedules the whole zero-delay DAG of `G_r` from scratch
    /// (`FullSchedule`). The result is normalized to start at control
    /// step 1 and is a legal DAG schedule under `resources`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Graph`] if the (retimed) zero-delay subgraph
    /// is cyclic and [`SchedError::UnboundOp`] if some operation has no
    /// resource class.
    pub fn schedule(
        &self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
    ) -> Result<Schedule, SchedError> {
        let mut schedule = Schedule::empty(dfg);
        let free: Vec<NodeId> = dfg.node_ids().collect();
        self.reschedule(dfg, retiming, resources, &mut schedule, &free)?;
        schedule.normalize();
        Ok(schedule)
    }

    /// Incrementally places the nodes of `free` into `schedule` without
    /// moving any already-scheduled node (`PartialSchedule`). Nodes of
    /// `free` that were scheduled are deallocated first.
    ///
    /// Fixed nodes keep their reservations; each free node is placed at
    /// its earliest control step that satisfies (a) zero-delay precedence
    /// from both fixed and free predecessors, (b) zero-delay precedence
    /// *into* fixed successors, and (c) unit availability.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Graph`] for a cyclic zero-delay subgraph,
    /// [`SchedError::UnboundOp`] for an unbindable operation,
    /// [`SchedError::ResourceOverflow`] when the fixed part of the
    /// schedule already violates the resource limits, and
    /// [`SchedError::NoFeasibleSlot`] when a free node is boxed in by
    /// fixed successors.
    pub fn reschedule(
        &self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
        schedule: &mut Schedule,
        free: &[NodeId],
    ) -> Result<(), SchedError> {
        let zero = ZeroSet::compute(dfg, retiming);
        // One Kahn sort serves as the weights' order and as the
        // acyclicity check; only a failure pays for the topological
        // sort that names the cycle. Input order reads no order, so its
        // cycle error comes after the binding and table checks.
        let mut kernel = WeightKernel::default();
        let acyclic = kernel.order_sinks_first(dfg, &zero);
        let cycle = || {
            SchedError::from(
                rotsched_dfg::analysis::zero_delay_topological_order(dfg, retiming)
                    .expect_err("the weight kernel found a zero-delay cycle"),
            )
        };
        if !acyclic && self.policy != PriorityPolicy::InputOrder {
            return Err(cycle());
        }
        let mut weights = dfg.node_map(0_u64);
        kernel.weigh(self.policy, dfg, &zero, &mut weights);

        for &v in free {
            schedule.clear(v);
        }

        let class_of = bind_classes(dfg, resources)?;
        let mut table = build_fixed_table(dfg, &class_of, resources, schedule)?;
        if !acyclic {
            return Err(cycle());
        }

        let inputs = PlaceInputs {
            dfg,
            zero: &zero,
            weights: &weights,
            class_of: &class_of,
            resources,
        };
        let mut scratch = PlaceScratch::new(dfg);
        place_free(&inputs, &mut table, schedule, free, &mut scratch)
    }
}

/// Binds every operation to its resource class up front.
pub(crate) fn bind_classes(
    dfg: &Dfg,
    resources: &ResourceSet,
) -> Result<NodeMap<ResourceClassId>, SchedError> {
    let mut class_of = dfg.node_map(ResourceClassId::from_index(0));
    for (v, node) in dfg.nodes() {
        class_of[v] = resources
            .class_for(node.op())
            .ok_or(SchedError::UnboundOp { node: v })?;
    }
    Ok(class_of)
}

/// Builds a reservation table holding every scheduled node's slots,
/// reporting [`SchedError::ResourceOverflow`] if the schedule already
/// violates the resource limits.
pub(crate) fn build_fixed_table(
    dfg: &Dfg,
    class_of: &NodeMap<ResourceClassId>,
    resources: &ResourceSet,
    schedule: &Schedule,
) -> Result<ReservationTable, SchedError> {
    let mut table = ReservationTable::new(resources);
    for (v, cs) in schedule.iter() {
        let class_id = class_of[v];
        let class = resources.class(class_id);
        let time = dfg.node(v).time();
        if !table.can_place(class_id, class.occupancy(time).map(|off| cs + off)) {
            let bad = class
                .occupancy(time)
                .map(|off| cs + off)
                .find(|&s| table.used(class_id, s) >= class.count())
                .unwrap_or(cs);
            return Err(SchedError::ResourceOverflow {
                class: class.name().to_owned(),
                cs: bad,
                used: table.used(class_id, bad) + 1,
                limit: class.count(),
            });
        }
        table.place(class_id, class.occupancy(time).map(|off| cs + off));
    }
    Ok(table)
}

/// The immutable inputs of one placement pass.
pub(crate) struct PlaceInputs<'a> {
    pub(crate) dfg: &'a Dfg,
    pub(crate) zero: &'a ZeroSet,
    pub(crate) weights: &'a NodeMap<u64>,
    pub(crate) class_of: &'a NodeMap<ResourceClassId>,
    pub(crate) resources: &'a ResourceSet,
}

/// Reusable buffers for [`place_free`]. Entries are only ever written
/// for the free set of the current call (and `is_free` is cleared again
/// on exit), so a persistent scratch keeps each rotation step free of
/// O(V) allocations.
#[derive(Clone, Debug)]
pub(crate) struct PlaceScratch {
    is_free: NodeMap<bool>,
    blocking: NodeMap<u32>,
    latest: NodeMap<Option<u32>>,
    /// Earliest start of each free node: from its fixed zero-delay
    /// predecessors at first, raised as each free one is placed. Final
    /// when the node enters `ready`, since placed and fixed nodes never
    /// move again.
    earliest: NodeMap<u32>,
    ready: Vec<NodeId>,
}

impl PlaceScratch {
    pub(crate) fn new(dfg: &Dfg) -> Self {
        PlaceScratch {
            is_free: dfg.node_map(false),
            blocking: dfg.node_map(0_u32),
            latest: dfg.node_map(None),
            earliest: dfg.node_map(1_u32),
            ready: Vec::with_capacity(dfg.node_count()),
        }
    }

    /// Runs `f` with `nodes` marked in `is_free`: every mark is clear
    /// between [`place_free`] calls, so a down-rotation borrows the
    /// buffer to mark its rotated set, and the marks are cleared again
    /// before returning.
    pub(crate) fn with_marks<T>(&mut self, nodes: &[NodeId], f: impl FnOnce(&[bool]) -> T) -> T {
        for &v in nodes {
            self.is_free[v] = true;
        }
        let result = f(self.is_free.as_slice());
        for &v in nodes {
            self.is_free[v] = false;
        }
        result
    }
}

/// The placement core shared by [`ListScheduler::reschedule`] and the
/// incremental [`SchedContext`](crate::SchedContext): places the nodes
/// of `free` into `schedule`/`table` without moving any fixed node. The
/// free nodes must already be cleared from both. Both callers funnel
/// through this single decision procedure, which is what makes the
/// incremental path bit-identical to the from-scratch one.
pub(crate) fn place_free(
    inputs: &PlaceInputs<'_>,
    table: &mut ReservationTable,
    schedule: &mut Schedule,
    free: &[NodeId],
    scratch: &mut PlaceScratch,
) -> Result<(), SchedError> {
    for &v in free {
        scratch.is_free[v] = true;
        scratch.latest[v] = None;
    }
    let result = place_free_inner(inputs, table, schedule, free, scratch);
    for &v in free {
        scratch.is_free[v] = false;
    }
    result
}

fn place_free_inner(
    inputs: &PlaceInputs<'_>,
    table: &mut ReservationTable,
    schedule: &mut Schedule,
    free: &[NodeId],
    scratch: &mut PlaceScratch,
) -> Result<(), SchedError> {
    let PlaceInputs {
        dfg,
        zero,
        weights,
        class_of,
        resources,
    } = *inputs;
    let PlaceScratch {
        is_free,
        blocking,
        latest,
        earliest,
        ready,
    } = scratch;

    // The flat structure-of-arrays view: every precedence walk below
    // runs over these contiguous slices instead of per-node edge
    // vectors and edge objects. Per-node order is insertion order, so
    // every decision matches the `Vec<Vec<EdgeId>>` iteration exactly.
    let csr = dfg.csr();
    let in_tails = csr.in_tails();
    let out_heads = csr.out_heads();
    let times = csr.times();
    let is_free = is_free.as_slice();
    let weights = weights.as_slice();

    // Dependency bookkeeping over the zero-delay DAG of G_r, one pass
    // over each free node's zero-delay in-edges: blocking[v] counts its
    // *unscheduled free* zero-delay predecessors (all of them, as none
    // is placed yet), and earliest[v] starts from the fixed ones.
    for &v in free {
        let (mut blocked, mut start) = (0, 1);
        for i in zero.ins(csr.in_range(v.index())) {
            let u = in_tails[i] as usize;
            if is_free[u] {
                blocked += 1;
            } else if let Some(su) = schedule.start(NodeId::from_index(u)) {
                start = start.max(su + times[u]);
            }
        }
        blocking[v] = blocked;
        earliest[v] = start;
    }

    // Latest start allowed by *fixed* zero-delay successors: v must
    // finish before any fixed successor w starts, i.e.
    // s(v) <= s(w) - t(v). A bound of 0 marks an unsatisfiable box-in
    // (control steps are 1-based). Fixed nodes never move, so this is
    // computed once.
    for &v in free {
        let t = times[v.index()];
        for j in zero.outs(csr.out_range(v.index())) {
            let w = out_heads[j] as usize;
            if !is_free[w] {
                if let Some(sw) = schedule.start(NodeId::from_index(w)) {
                    let bound = sw.saturating_sub(t);
                    latest[v] = Some(latest[v].map_or(bound, |a| a.min(bound)));
                }
            }
        }
    }

    let mut remaining: usize = free.len();
    ready.clear();
    ready.extend(free.iter().copied().filter(|&v| blocking[v] == 0));

    // A safe horizon: everything fits after the fixed part even fully
    // serialized. Every node takes its step count, `max(t, 1)`, so a
    // zero-time node still adds a step.
    let steps = times.iter().fold(0_u32, |sum, &t| sum.saturating_add(t));
    let horizon = table.horizon().saturating_add(steps).saturating_add(1);

    let mut cs: u32 = 1;
    while remaining > 0 {
        // Steps before every ready node's earliest start place nothing —
        // skip them wholesale. Decisions are unchanged: a node whose
        // earliest start exceeds `cs` is passed over (and its deadline
        // not examined) by the scan below anyway.
        if let Some(min_earliest) = ready.iter().map(|&v| earliest[v]).min() {
            cs = cs.max(min_earliest);
        }
        if cs > horizon {
            let stuck = free
                .iter()
                .copied()
                .find(|&v| schedule.start(v).is_none())
                .expect("remaining > 0 implies an unscheduled free node");
            return Err(SchedError::NoFeasibleSlot { node: stuck });
        }

        // Ready nodes whose precedence admits this step: nodes boxed
        // in by fixed successors (earliest deadline) first, then by
        // weight. Unboxed nodes have no deadline, so plain full
        // scheduling is unaffected. The key ends in the unique node id,
        // so the unstable sort is deterministic and allocation-free.
        ready.sort_unstable_by_key(|&v| {
            (
                latest[v].unwrap_or(u32::MAX),
                core::cmp::Reverse(weights[v.index()]),
                v,
            )
        });
        // One scan per step suffices: a node passed over here would
        // never be placed by a second scan of the same step. Its
        // earliest start and deadline are fixed, and usage only grows,
        // so a unit that was busy stays busy. Nodes unblocked during the
        // scan are pushed at the end and visited by this same scan. The
        // `swap_remove` order decides ties when several units are free.
        let mut i = 0;
        while i < ready.len() {
            let v = ready[i];
            if earliest[v] > cs {
                i += 1;
                continue;
            }
            if let Some(bound) = latest[v] {
                if cs > bound {
                    return Err(SchedError::NoFeasibleSlot { node: v });
                }
            }
            let class_id = class_of[v];
            let class = resources.class(class_id);
            let time = dfg.node(v).time();
            if table.can_place(class_id, class.occupancy(time).map(|off| cs + off)) {
                table.place(class_id, class.occupancy(time).map(|off| cs + off));
                schedule.set(v, cs);
                remaining -= 1;
                ready.swap_remove(i);
                // Unblock free successors, which start after v ends.
                let finish = cs + times[v.index()];
                for j in zero.outs(csr.out_range(v.index())) {
                    let w = NodeId::from_index(out_heads[j] as usize);
                    if is_free[w.index()] && schedule.start(w).is_none() {
                        earliest[w] = earliest[w].max(finish);
                        blocking[w] -= 1;
                        if blocking[w] == 0 {
                            ready.push(w);
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        cs += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_dag_schedule;
    use rotsched_dfg::analysis::topo::is_zero_delay_under;
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn resources(adders: u32, mults: u32) -> ResourceSet {
        ResourceSet::adders_multipliers(adders, mults, false)
    }

    /// Three words of bits set at and around both word boundaries.
    const WORDS: [u64; 3] = [
        0x8000_0000_0000_0003,
        0xC000_0000_0000_0001,
        0x0000_0000_0000_0003,
    ];

    fn naive_ones(range: Range<usize>) -> Vec<usize> {
        range
            .filter(|&at| (WORDS[at / 64] >> (at % 64)) & 1 == 1)
            .collect()
    }

    #[test]
    fn ones_match_a_bit_by_bit_scan_at_word_edges() {
        let edges = [0, 1, 2, 62, 63, 64, 65, 126, 127, 128, 129, 130, 191, 192];
        for &lo in &edges {
            for &hi in edges.iter().filter(|&&hi| hi >= lo) {
                let ones: Vec<usize> = Ones::new(&WORDS, lo..hi).collect();
                assert_eq!(ones, naive_ones(lo..hi), "{lo}..{hi}");
                assert_eq!(Ones::new(&WORDS, lo..hi).count(), ones.len(), "{lo}..{hi}");
            }
        }
        assert_eq!(
            Ones::new(&WORDS, 63..129).collect::<Vec<_>>(),
            [63, 64, 126, 127, 128]
        );
        // An empty range reads no word, even past the end.
        assert_eq!(Ones::new(&[], 0..0).count(), 0);
        assert_eq!(Ones::new(&WORDS, 192..192).next(), None);
    }

    #[test]
    fn zero_set_halves_list_each_node_zero_delay_edges_in_csr_order() {
        let g = DfgBuilder::new("halves")
            .node("a", OpKind::Add, 1)
            .node("b", OpKind::Add, 1)
            .wire("a", "b")
            .edge("a", "b", 1)
            .edge("b", "a", 1)
            .edge("b", "b", 2)
            .wire("a", "b")
            .build()
            .unwrap();
        let csr = g.csr();
        let a = g.node_by_name("a").unwrap();
        let r = Retiming::from_set(&g, [a]);
        for retiming in [None, Some(&r)] {
            let zero = ZeroSet::compute(&g, retiming);
            for v in g.node_ids() {
                let outs: Vec<_> = zero.outs(csr.out_range(v.index())).collect();
                let want: Vec<_> = csr
                    .out_range(v.index())
                    .filter(|&j| is_zero_delay_under(&g, retiming, csr.out_edge_ids()[j]))
                    .collect();
                assert_eq!(outs, want, "{v:?} out");
                let ins: Vec<_> = zero.ins(csr.in_range(v.index())).collect();
                let want: Vec<_> = csr
                    .in_range(v.index())
                    .filter(|&i| is_zero_delay_under(&g, retiming, csr.in_edge_ids()[i]))
                    .collect();
                assert_eq!(ins, want, "{v:?} in");
            }
        }
        // Unretimed, a's out-range holds the wires at 0 and 2 around
        // the delayed edge at 1; retimed by one, only b -> a is.
        assert_eq!(
            ZeroSet::compute(&g, None)
                .outs(csr.out_range(0))
                .collect::<Vec<_>>(),
            [0, 2]
        );
        assert_eq!(
            ZeroSet::compute(&g, Some(&r))
                .outs(csr.out_range(0))
                .count(),
            0
        );
    }

    #[test]
    fn serializes_on_one_unit() {
        let g = DfgBuilder::new("three-adds")
            .nodes("a", 3, OpKind::Add, 1)
            .build()
            .unwrap();
        let s = ListScheduler::default()
            .schedule(&g, None, &resources(1, 0))
            .unwrap();
        assert_eq!(s.length(&g), 3);
        check_dag_schedule(&g, None, &s, &resources(1, 0)).unwrap();
    }

    /// Three zero-time adds on one adder: each still takes a step, so
    /// the placement horizon must count steps, not raw time (which sums
    /// to 0 here and once boxed the third add out).
    fn zero_time_adds() -> Dfg {
        let mut g = Dfg::new("zero-time-adds");
        for i in 0..3 {
            g.add_node(format!("a{i}"), OpKind::Add, 0);
        }
        g
    }

    #[test]
    fn zero_time_ops_serialize_within_the_horizon() {
        let g = zero_time_adds();
        let s = ListScheduler::default()
            .schedule(&g, None, &resources(1, 0))
            .unwrap();
        assert_eq!(s.length(&g), 3);
        check_dag_schedule(&g, None, &s, &resources(1, 0)).unwrap();
    }

    #[test]
    fn context_full_schedule_places_zero_time_ops() {
        let g = zero_time_adds();
        let (res, scheduler) = (resources(1, 0), ListScheduler::default());
        let mut s = Schedule::empty(&g);
        let mut ctx = crate::SchedContext::new(&g, &scheduler, &res, None, &s).unwrap();
        ctx.full_schedule(&g, None, &res, &mut s).unwrap();
        assert_eq!(s.length(&g), 3);
        assert_eq!(s, scheduler.schedule(&g, None, &res).unwrap());
    }

    #[test]
    fn parallelizes_on_two_units() {
        let g = DfgBuilder::new("four-adds")
            .nodes("a", 4, OpKind::Add, 1)
            .build()
            .unwrap();
        let s = ListScheduler::default()
            .schedule(&g, None, &resources(2, 0))
            .unwrap();
        assert_eq!(s.length(&g), 2);
    }

    #[test]
    fn respects_zero_delay_chains() {
        let g = DfgBuilder::new("chain")
            .node("m", OpKind::Mul, 2)
            .node("a", OpKind::Add, 1)
            .wire("m", "a")
            .build()
            .unwrap();
        let s = ListScheduler::default()
            .schedule(&g, None, &resources(1, 1))
            .unwrap();
        let m = g.node_by_name("m").unwrap();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(s.start(m), Some(1));
        assert_eq!(s.start(a), Some(3), "add waits for the 2-cycle mult");
    }

    #[test]
    fn delayed_edges_do_not_constrain_the_dag_schedule() {
        let g = DfgBuilder::new("feedback")
            .node("m", OpKind::Mul, 1)
            .node("a", OpKind::Add, 1)
            .edge("m", "a", 1)
            .build()
            .unwrap();
        let s = ListScheduler::default()
            .schedule(&g, None, &resources(1, 1))
            .unwrap();
        assert_eq!(s.length(&g), 1, "both ops share step 1 on distinct units");
    }

    #[test]
    fn pipelined_multiplier_issues_every_step() {
        let g = DfgBuilder::new("two-mults")
            .nodes("m", 2, OpKind::Mul, 2)
            .build()
            .unwrap();
        let pipelined = ResourceSet::adders_multipliers(1, 1, true);
        let s = ListScheduler::default()
            .schedule(&g, None, &pipelined)
            .unwrap();
        // Starts at steps 1 and 2; second finishes at step 3.
        assert_eq!(s.length(&g), 3);

        let nonpipelined = resources(1, 1);
        let s2 = ListScheduler::default()
            .schedule(&g, None, &nonpipelined)
            .unwrap();
        assert_eq!(s2.length(&g), 4, "non-pipelined unit is busy both steps");
    }

    #[test]
    fn priority_prefers_heavier_subtrees() {
        // r1 has 2 descendants, r2 has none; with one adder r1 must go
        // first for the optimal length.
        let g = DfgBuilder::new("weights")
            .nodes("r", 2, OpKind::Add, 1)
            .nodes("c", 2, OpKind::Add, 1)
            .wire("r0", "c0")
            .wire("c0", "c1")
            .build()
            .unwrap();
        let s = ListScheduler::default()
            .schedule(&g, None, &resources(1, 0))
            .unwrap();
        let r0 = g.node_by_name("r0").unwrap();
        assert_eq!(s.start(r0), Some(1));
        assert_eq!(s.length(&g), 4);
    }

    #[test]
    fn partial_reschedule_keeps_fixed_nodes() {
        let g = DfgBuilder::new("partial")
            .nodes("a", 3, OpKind::Add, 1)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let res = resources(1, 0);
        let mut s = ListScheduler::default().schedule(&g, None, &res).unwrap();
        let original_a1 = s.start(ids[1]);
        // Free a0; it should slot back without moving a1/a2.
        ListScheduler::default()
            .reschedule(&g, None, &res, &mut s, &[ids[0]])
            .unwrap();
        assert_eq!(s.start(ids[1]), original_a1);
        assert!(s.is_complete());
        check_dag_schedule(&g, None, &s, &res).unwrap();
    }

    #[test]
    fn partial_reschedule_fills_holes() {
        let g = DfgBuilder::new("holes")
            .nodes("a", 2, OpKind::Add, 1)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let res = resources(1, 0);
        let mut s = Schedule::empty(&g);
        s.set(ids[1], 5);
        ListScheduler::default()
            .reschedule(&g, None, &res, &mut s, &[ids[0]])
            .unwrap();
        assert_eq!(
            s.start(ids[0]),
            Some(1),
            "free node takes the earliest hole"
        );
    }

    #[test]
    fn fixed_successor_bounds_free_node() {
        let g = DfgBuilder::new("boxed")
            .node("u", OpKind::Add, 1)
            .node("w", OpKind::Add, 1)
            .wire("u", "w")
            .build()
            .unwrap();
        let u = g.node_by_name("u").unwrap();
        let w = g.node_by_name("w").unwrap();
        let res = resources(2, 0);
        let mut s = Schedule::empty(&g);
        s.set(w, 3);
        ListScheduler::default()
            .reschedule(&g, None, &res, &mut s, &[u])
            .unwrap();
        assert!(s.start(u).unwrap() < 3, "u finishes before w starts");
    }

    #[test]
    fn boxed_in_free_node_reports_no_slot() {
        let g = DfgBuilder::new("impossible")
            .node("u", OpKind::Mul, 2)
            .node("w", OpKind::Add, 1)
            .wire("u", "w")
            .build()
            .unwrap();
        let u = g.node_by_name("u").unwrap();
        let w = g.node_by_name("w").unwrap();
        let res = resources(1, 1);
        let mut s = Schedule::empty(&g);
        s.set(w, 2); // u needs 2 steps before w: impossible with w at 2.
        let err = ListScheduler::default()
            .reschedule(&g, None, &res, &mut s, &[u])
            .unwrap_err();
        assert!(matches!(err, SchedError::NoFeasibleSlot { node } if node == u));
    }

    #[test]
    fn oversubscribed_fixed_part_is_reported() {
        let g = DfgBuilder::new("overflow")
            .nodes("a", 2, OpKind::Add, 1)
            .build()
            .unwrap();
        let ids: Vec<_> = g.node_ids().collect();
        let res = resources(1, 0);
        let mut s = Schedule::empty(&g);
        s.set(ids[0], 1);
        s.set(ids[1], 1);
        let err = ListScheduler::default()
            .reschedule(&g, None, &res, &mut s, &[])
            .unwrap_err();
        assert!(matches!(err, SchedError::ResourceOverflow { .. }));
    }

    #[test]
    fn unbound_op_is_reported() {
        let g = DfgBuilder::new("unbound")
            .node("m", OpKind::Mul, 1)
            .build()
            .unwrap();
        let only_adders = ResourceSet::new(vec![crate::resources::ResourceClass::new(
            "adder",
            1,
            vec![OpKind::Add],
            false,
        )]);
        let err = ListScheduler::default()
            .schedule(&g, None, &only_adders)
            .unwrap_err();
        assert!(matches!(err, SchedError::UnboundOp { .. }));
    }

    #[test]
    fn schedules_follow_the_retimed_zero_delay_set() {
        let g = DfgBuilder::new("retimed")
            .node("a", OpKind::Add, 1)
            .node("b", OpKind::Add, 1)
            .wire("a", "b")
            .edge("b", "a", 1)
            .build()
            .unwrap();
        let a = g.node_by_name("a").unwrap();
        let res = resources(1, 0);
        let sched = ListScheduler::default();
        let plain = sched.schedule(&g, None, &res).unwrap();
        let r = rotsched_dfg::Retiming::from_set(&g, [a]);
        let rotated = sched.schedule(&g, Some(&r), &res).unwrap();
        assert_ne!(
            plain, rotated,
            "different zero-delay DAGs, different results"
        );
    }

    #[test]
    fn schedule_under_retiming_uses_retimed_dag() {
        let g = DfgBuilder::new("rot")
            .node("a", OpKind::Add, 1)
            .node("b", OpKind::Add, 1)
            .wire("a", "b")
            .edge("b", "a", 1)
            .build()
            .unwrap();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let r = rotsched_dfg::Retiming::from_set(&g, [a]);
        let s = ListScheduler::default()
            .schedule(&g, Some(&r), &resources(1, 0))
            .unwrap();
        // In G_r the zero-delay edge is b -> a.
        assert!(s.start(b) < s.start(a));
    }
}
