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

use rotsched_dfg::{Dfg, EdgeId, NodeId, NodeMap, Retiming};

use crate::error::SchedError;
use crate::priority::{PriorityPolicy, WeightKernel};
use crate::reservation::ReservationTable;
use crate::resources::{ResourceClassId, ResourceSet};
use crate::schedule::Schedule;

/// Deterministic per-edge hash (the splitmix64 finalizer) for the
/// XOR-accumulated fingerprint of a zero-delay edge set. Flipping one
/// edge's membership is a single XOR, which is what lets the rotation
/// context maintain its weight-memo key in O(flipped edges) per step.
pub(crate) fn edge_hash(edge_index: usize) -> u64 {
    let mut z = (edge_index as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The zero-delay edge set of `G_r`: an exact bitset plus a cheap XOR
/// fingerprint over per-edge hashes. The fingerprint is the weight-memo
/// key (collisions fall back to the exact bitset comparison, so a
/// collision costs a compare, never a wrong answer) and is maintained
/// incrementally by [`SchedContext`](crate::SchedContext).
#[derive(Debug, PartialEq, Eq)]
pub struct ZeroSet {
    bits: Vec<u64>,
    key: u64,
}

impl Clone for ZeroSet {
    fn clone(&self) -> Self {
        ZeroSet {
            bits: self.bits.clone(),
            key: self.key,
        }
    }

    // Reuses the bitset's buffer: the rotation context recycles evicted
    // memo entries through this.
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
        self.key = source.key;
    }
}

impl ZeroSet {
    /// Evaluates every edge's retimed delay once, straight off the
    /// graph's flat [`CsrGraph`](rotsched_dfg::CsrGraph) edge arrays —
    /// `d(e) + r(u) − r(v) == 0` per edge, no edge objects touched.
    #[must_use]
    pub fn compute(dfg: &Dfg, retiming: Option<&Retiming>) -> Self {
        let mut zero = ZeroSet {
            bits: Vec::new(),
            key: 0,
        };
        zero.recompute(dfg, retiming);
        zero
    }

    /// [`ZeroSet::compute`] in place, reusing the bitset's buffer: how
    /// a rotation context re-derives its set after the state behind it
    /// was rewritten wholesale. Each word is compared with the one it
    /// replaces, so the fingerprint follows only the flipped edges, and
    /// the return value says whether any flipped.
    pub(crate) fn recompute(&mut self, dfg: &Dfg, retiming: Option<&Retiming>) -> bool {
        let csr = dfg.csr();
        let delays = csr.edge_delays();
        let (from, to) = (csr.edge_from(), csr.edge_to());
        let r = retiming.map(Retiming::as_slice);
        self.bits.resize(delays.len().div_ceil(64), 0);
        let mut changed = false;
        for (w, chunk) in delays.chunks(64).enumerate() {
            let mut word = 0_u64;
            for (j, &d) in chunk.iter().enumerate() {
                let i = w * 64 + j;
                let shift = r.map_or(0, |r| r[from[i] as usize] - r[to[i] as usize]);
                word |= u64::from(i64::from(d) + shift == 0) << j;
            }
            let mut flipped = word ^ self.bits[w];
            changed |= flipped != 0;
            while flipped != 0 {
                self.key ^= edge_hash(w * 64 + flipped.trailing_zeros() as usize);
                flipped &= flipped - 1;
            }
            self.bits[w] = word;
        }
        changed
    }

    /// Whether edge `e` is zero-delay in this set.
    #[must_use]
    pub fn contains(&self, e: EdgeId) -> bool {
        let i = e.index();
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets edge `e`'s membership, updating the fingerprint; returns
    /// `true` when the membership actually changed.
    pub fn set(&mut self, e: EdgeId, zero: bool) -> bool {
        if self.contains(e) == zero {
            return false;
        }
        let i = e.index();
        self.bits[i / 64] ^= 1 << (i % 64);
        self.key ^= edge_hash(i);
        true
    }

    /// The XOR fingerprint (the weight-memo key).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
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
        let weights = self.policy.weights_under(dfg, retiming, &zero)?;

        for &v in free {
            schedule.clear(v);
        }

        let class_of = bind_classes(dfg, resources)?;
        let mut table = build_fixed_table(dfg, &class_of, resources, schedule)?;

        // Sanity: the zero-delay subgraph must be acyclic overall.
        rotsched_dfg::analysis::zero_delay_topological_order(dfg, retiming)
            .map_err(SchedError::from)?;

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

    /// Moves `rotated` to the front of `kernel`'s order
    /// ([`WeightKernel::rotate_down`]), marking the set in `is_free`:
    /// every mark is clear between [`place_free`] calls, so the buffer
    /// is borrowed here and cleared again before returning.
    pub(crate) fn rotate_down(&mut self, kernel: &mut WeightKernel, rotated: &[NodeId]) {
        for &v in rotated {
            self.is_free[v] = true;
        }
        kernel.rotate_down(self.is_free.as_slice());
        for &v in rotated {
            self.is_free[v] = false;
        }
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
    let in_ids = csr.in_edge_ids();
    let in_tails = csr.in_tails();
    let out_ids = csr.out_edge_ids();
    let out_heads = csr.out_heads();
    let times = csr.times();
    let is_free = is_free.as_slice();
    let weights = weights.as_slice();

    // Dependency bookkeeping over the zero-delay DAG of G_r, one pass
    // over each free node's in-edges: blocking[v] counts its
    // *unscheduled free* zero-delay predecessors (all of them, as none
    // is placed yet), and earliest[v] starts from the fixed ones.
    for &v in free {
        let (mut blocked, mut start) = (0, 1);
        for i in csr.in_range(v.index()) {
            if zero.contains(in_ids[i]) {
                let u = in_tails[i] as usize;
                if is_free[u] {
                    blocked += 1;
                } else if let Some(su) = schedule.start(NodeId::from_index(u)) {
                    start = start.max(su + times[u]);
                }
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
        for i in csr.out_range(v.index()) {
            if zero.contains(out_ids[i]) {
                let w = out_heads[i] as usize;
                if !is_free[w] {
                    if let Some(sw) = schedule.start(NodeId::from_index(w)) {
                        let bound = sw.saturating_sub(t);
                        latest[v] = Some(latest[v].map_or(bound, |a| a.min(bound)));
                    }
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
                for j in csr.out_range(v.index()) {
                    if zero.contains(out_ids[j]) {
                        let w = NodeId::from_index(out_heads[j] as usize);
                        if is_free[w.index()] && schedule.start(w).is_none() {
                            earliest[w] = earliest[w].max(finish);
                            blocking[w] -= 1;
                            if blocking[w] == 0 {
                                ready.push(w);
                            }
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
    use rotsched_dfg::{DfgBuilder, OpKind};

    fn resources(adders: u32, mults: u32) -> ResourceSet {
        ResourceSet::adders_multipliers(adders, mults, false)
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
