//! Incremental rescheduling state carried across rotation steps.
//!
//! The paper's complexity claim (Section 3.3) is that one rotation costs
//! `O(|R||V|)` — only the rotated prefix `R` is rescheduled against the
//! fixed remainder. The from-scratch [`ListScheduler::reschedule`] meets
//! the *placement* bound but pays `O(V+E)` per call in setup: it rebuilds
//! the reservation table from every fixed node, re-derives the zero-delay
//! edge set, revalidates the topological order, and rebinds every
//! operation. [`SchedContext`] hoists all of that out of the loop, and
//! one call, [`SchedContext::down_rotate`], runs the paper's whole
//! `DownRotate` step through it:
//!
//! * the **reservation table** is maintained incrementally — a rotation
//!   releases only the prefix nodes' slots, and schedule normalization
//!   becomes an O(1) origin shift ([`ReservationTable::shift_origin`]);
//! * the **zero-delay edge set** is repaired over `R`'s boundary —
//!   retiming the set `R` can only flip edges with one end in it, so
//!   the [`ZeroSet`] (and its XOR fingerprint, the weight-memo key)
//!   updates in O(|R|·deg): edges leaving `R` are cleared, edges
//!   entering it re-evaluated, edges inside it skipped. The set keeps
//!   one bit per CSR position, so every pass below visits a node's
//!   zero-delay edges as the set bits of its CSR range;
//! * **priority weights** are memoized by zero set — a rotation
//!   sequence revisits zero-delay sets (the state space is eventually
//!   periodic), so a repeat re-activates stored weights in O(1), and a
//!   new set recomputes them with one CSR weight pass, for every policy;
//! * the **topological order** is kept — after a down-rotation of a
//!   prefix `R` no zero-delay edge leaves `R`, so moving `R` to the
//!   front of the weight kernel's sinks-first order keeps it sinks
//!   first in O(|V|), and a weight pass needs no sort (`debug_assert`ed
//!   against the definition). Kahn's sort runs when the context is
//!   built, and again only at the first weight pass after a full
//!   schedule re-derived a different zero-delay set.
//!
//! A whole `FullSchedule` — Heuristic 2's reschedule between phases —
//! runs through the context too ([`SchedContext::full_schedule`]): it
//! re-derives the zero-delay set, reuses the table and the memoized
//! weights, and leaves the context ready for the next phase, so a sweep
//! builds one context instead of one per phase — and, starting from an
//! empty schedule, the sweep's initial state too.
//!
//! Placement itself funnels through the same [`place_free`] core as the
//! from-scratch path, which is what makes the incremental results
//! bit-identical — cross-checked by `debug_assert`s against full
//! recomputation in debug builds.

use rotsched_dfg::{Dfg, NodeId, NodeMap, Retiming};

use crate::error::SchedError;
use crate::list::{
    bind_classes, build_fixed_table, place_free, CsrTwins, ListScheduler, PlaceInputs,
    PlaceScratch, ZeroSet,
};
use crate::priority::{PriorityPolicy, WeightKernel};
use crate::reservation::ReservationTable;
use crate::resources::{ResourceClassId, ResourceSet};
use crate::schedule::Schedule;

/// Memoized weights, keyed by the exact zero-delay set they were
/// computed for.
#[derive(Clone, Debug)]
struct WeightsEntry {
    zero: ZeroSet,
    weights: NodeMap<u64>,
}

/// Retained [`WeightsEntry`]s; covers the typical rotation period (one
/// full revolution of the node set) with room to spare.
const WEIGHT_MEMO_CAP: usize = 64;

/// Cache-effectiveness counters of one [`SchedContext`], maintained by
/// the incremental hooks and exposed so the search engine's observer
/// layer can report per-phase hit rates without instrumenting the hot
/// path itself.
///
/// A *hit* is a retiming delta whose new zero-delay set re-activated
/// memoized weights in O(1); a *miss* had to recompute the weights (and
/// memoize the result). Every policy counts alike; input order's weights
/// never change with the zero-delay set, but a new set still misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Retiming deltas answered by re-activating memoized weights.
    pub weight_memo_hits: u64,
    /// Retiming deltas that had to recompute (and memoize) the weights.
    pub weight_memo_misses: u64,
}

impl CacheStats {
    /// Counter-wise difference `self - earlier`, for per-phase deltas.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            weight_memo_hits: self.weight_memo_hits - earlier.weight_memo_hits,
            weight_memo_misses: self.weight_memo_misses - earlier.weight_memo_misses,
        }
    }
}

/// Persistent scheduling state for a run of rotations over one `(graph,
/// scheduler, resources)` triple.
///
/// The context stays valid for the schedule and retiming it tracks as
/// long as they change only through it: [`SchedContext::down_rotate`]
/// runs one rotation step, and [`SchedContext::full_schedule`] replaces
/// the whole schedule and makes the context valid for the result
/// whatever it saw before. After an error the context is stale; rebuild
/// it with [`SchedContext::new`] before further use.
#[derive(Debug)]
pub struct SchedContext {
    policy: PriorityPolicy,
    /// Structure fingerprint of the graph this context was built for.
    graph: u64,
    class_of: NodeMap<ResourceClassId>,
    table: ReservationTable,
    zero: ZeroSet,
    /// Each edge's position in the other CSR array, for repairing
    /// `zero`.
    twins: CsrTwins,
    /// Memoized weights keyed by zero set, oldest first; `active`
    /// indexes the entry matching the current `zero`. Never empty: the
    /// solve's only weight memo.
    memo: Vec<WeightsEntry>,
    active: usize,
    /// Retired memo entries, whose buffers the next misses reuse.
    spare: Vec<WeightsEntry>,
    /// Every node in index order: the free set of
    /// [`SchedContext::full_schedule`].
    nodes: Vec<NodeId>,
    kernel: WeightKernel,
    /// Whether `kernel`'s order is sinks first for `zero` (input order
    /// reads no order and counts as ordered): kept across
    /// down-rotations, dropped when a full schedule re-derives a
    /// different set, and restored by the next weight pass.
    ordered: bool,
    scratch: PlaceScratch,
    /// Weight-memo effectiveness counters (see [`CacheStats`]).
    stats: CacheStats,
}

impl SchedContext {
    /// Builds the context for `schedule` under `retiming`: binds classes,
    /// reserves every scheduled node's slots, derives the zero-delay set
    /// and the policy's weights. An empty `schedule` gives the context
    /// that [`SchedContext::full_schedule`] turns into a sweep's initial
    /// state.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::UnboundOp`] for an unbindable operation,
    /// [`SchedError::ResourceOverflow`] when `schedule` already violates
    /// the limits, and [`SchedError::Graph`] for a cyclic zero-delay
    /// subgraph.
    pub fn new(
        dfg: &Dfg,
        scheduler: &ListScheduler,
        resources: &ResourceSet,
        retiming: Option<&Retiming>,
        schedule: &Schedule,
    ) -> Result<Self, SchedError> {
        let class_of = bind_classes(dfg, resources)?;
        let table = build_fixed_table(dfg, &class_of, resources, schedule)?;
        let policy = scheduler.policy();
        let zero = ZeroSet::compute(dfg, retiming);
        // The kernel's Kahn sort is the acyclicity check, for every
        // policy; only a failure pays for the topological sort that
        // names the cycle.
        let mut kernel = WeightKernel::default();
        if !kernel.order_sinks_first(dfg, &zero) {
            return Err(
                rotsched_dfg::analysis::zero_delay_topological_order(dfg, retiming)
                    .expect_err("the weight kernel found a zero-delay cycle")
                    .into(),
            );
        }
        let mut weights = dfg.node_map(0_u64);
        kernel.weigh(policy, dfg, &zero, &mut weights);
        let memo = vec![WeightsEntry {
            zero: zero.clone(),
            weights,
        }];
        Ok(SchedContext {
            policy,
            graph: dfg.structure_fingerprint(),
            class_of,
            table,
            zero,
            twins: CsrTwins::new(dfg.csr()),
            memo,
            active: 0,
            // Memo and spare entries number at most the cap together,
            // so the spare list never grows past this.
            spare: Vec::with_capacity(WEIGHT_MEMO_CAP),
            nodes: dfg.node_ids().collect(),
            kernel,
            ordered: true,
            scratch: PlaceScratch::new(dfg),
            stats: CacheStats::default(),
        })
    }

    /// The running weight-memo hit/miss counters of this context.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// The paper's `DownRotate(G, s, i)` through the context: rotates
    /// the first `size` control steps of `schedule` down and returns the
    /// new unwrapped length. The prefix goes into `rotated` (a reused
    /// buffer); its nodes' reservations are released and their starts
    /// cleared; `retiming` takes the +1 on each of them, with the
    /// zero-delay set and the weights following; the fixed remainder and
    /// the table are renumbered to start at step 1; and the prefix is
    /// placed through the shared placement core. Makes the from-scratch
    /// operator's decisions, so the result is bit-identical to it.
    ///
    /// `size` must lie in `1..schedule.length(dfg)`: the caller reports
    /// any other size.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoFeasibleSlot`] when a rotated node is
    /// boxed in by fixed successors (as the from-scratch path would);
    /// the context is stale afterwards.
    pub fn down_rotate(
        &mut self,
        dfg: &Dfg,
        resources: &ResourceSet,
        retiming: &mut Retiming,
        schedule: &mut Schedule,
        size: u32,
        rotated: &mut Vec<NodeId>,
    ) -> Result<u32, SchedError> {
        debug_assert!(
            size > 0 && size < schedule.length(dfg),
            "a rotation size lies inside the schedule"
        );
        schedule.prefix_nodes_into(size, rotated);
        for &v in rotated.iter() {
            let cs = schedule.start(v).expect("prefix nodes are scheduled");
            let class_id = self.class_of[v];
            let class = resources.class(class_id);
            self.table.remove(
                class_id,
                class.occupancy(dfg.node(v).time()).map(|off| cs + off),
            );
            schedule.clear(v);
        }
        self.apply_down_rotation(dfg, retiming, rotated);
        // The remainder can be empty even for size < length when
        // multi-cycle tails pad the length past the last start step:
        // then there is nothing to renumber.
        self.normalize(schedule);
        self.reschedule(dfg, Some(retiming), resources, schedule, rotated)?;
        debug_assert_eq!(schedule.first_step(), Some(1));
        Ok(schedule.length(dfg))
    }

    /// Renumbers `schedule` to start at step 1, the table following by
    /// an O(1) origin shift (no data motion).
    fn normalize(&mut self, schedule: &mut Schedule) {
        if let Some(first) = schedule.first_step() {
            if first != 1 {
                schedule.shift(1 - i64::from(first));
                self.table.shift_origin(1 - i64::from(first));
            }
        }
    }

    /// Applies the down-rotation of `rotated` to `retiming` (+1 on every
    /// node of the set, which must be closed under zero-delay
    /// predecessors, as a schedule prefix is) and follows it: with the
    /// set marked in the placement scratch, repairs the zero-delay set
    /// over the set's boundary only and, when the set changed, moves
    /// `rotated` to the front of the kept sinks-first order and makes
    /// the weights of the new set active: memoized ones when the set
    /// was seen before, else one weight pass over the kept order.
    fn apply_down_rotation(&mut self, dfg: &Dfg, retiming: &mut Retiming, rotated: &[NodeId]) {
        let csr = dfg.csr();
        retiming.apply_set(rotated, 1);
        let r = retiming.as_slice();
        let (zero, twins, kernel, ordered) =
            (&mut self.zero, &self.twins, &mut self.kernel, self.ordered);
        let changed = self.scratch.with_marks(rotated, |marked| {
            debug_assert!(
                rotated.iter().all(|&v| zero
                    .ins(csr.in_range(v.index()))
                    .all(|i| marked[csr.in_tails()[i] as usize])),
                "a down-rotated set is closed under zero-delay predecessors"
            );
            let changed = zero.down_rotate(csr, twins, r, rotated, marked);
            if changed && ordered {
                kernel.rotate_down(marked);
            }
            changed
        });
        debug_assert_eq!(
            self.zero,
            ZeroSet::compute(dfg, Some(retiming)),
            "incremental zero-delay set diverged"
        );
        if !changed {
            return;
        }
        debug_assert!(
            !self.ordered
                || self.policy == PriorityPolicy::InputOrder
                || self.kernel.orders_sinks_first(dfg, &self.zero),
            "the kept order is sinks first for the rotated zero-delay set"
        );
        let key = self.zero.key();
        if let Some(i) = self
            .memo
            .iter()
            .position(|e| e.zero.key() == key && e.zero == self.zero)
        {
            // Re-activate the memoized weights: an O(1) index move, no
            // copy, no recomputation.
            self.active = i;
            self.stats.weight_memo_hits += 1;
            return;
        }
        self.stats.weight_memo_misses += 1;
        // A full memo evicts its oldest entry and recycles its buffers.
        let entry = if self.memo.len() == WEIGHT_MEMO_CAP {
            Some(self.memo.remove(0))
        } else {
            self.spare.pop()
        };
        self.memoize(dfg, entry);
    }

    /// Computes the current zero set's weights into `entry` (a recycled
    /// one, or a new one when `None`) from the kept order — sorted
    /// afresh first when a full schedule dropped it — and makes them
    /// active as the newest memo entry.
    fn memoize(&mut self, dfg: &Dfg, entry: Option<WeightsEntry>) {
        let mut entry = entry.unwrap_or_else(|| WeightsEntry {
            zero: self.zero.clone(),
            weights: dfg.node_map(0_u64),
        });
        entry.zero.clone_from(&self.zero);
        if !self.ordered {
            let acyclic = self.kernel.sort(self.policy, dfg, &self.zero);
            debug_assert!(
                acyclic,
                "legal retimings keep the zero-delay subgraph acyclic"
            );
            self.ordered = true;
        }
        self.kernel
            .weigh(self.policy, dfg, &self.zero, &mut entry.weights);
        self.memo.push(entry);
        self.active = self.memo.len() - 1;
    }

    /// `FullSchedule(G_r)` through the context: schedules every node of
    /// the graph afresh into `schedule` under `retiming`, exactly as
    /// [`ListScheduler::schedule`] does, and leaves the context as
    /// [`SchedContext::new`] would build it for the result.
    ///
    /// Nothing is assumed about the state the context last saw: the
    /// zero-delay set is re-derived from `retiming` (the caller may have
    /// rewritten the retiming wholesale) — the kept order survives only
    /// when the set came out the same — the table is cleared, and the
    /// weight memo is cut back to the single entry a new context holds
    /// — the current set's weights, re-activated when memoized, else
    /// computed — so the memo counters of the rotations that follow
    /// match a rebuilt context's. The counters themselves are not
    /// charged. Every node is then placed in index order through the
    /// shared placement core, and the result normalized by an origin
    /// shift.
    ///
    /// # Errors
    ///
    /// Exactly [`ListScheduler::schedule`]'s errors on the context's
    /// graph and resources; the context is stale after one.
    pub fn full_schedule(
        &mut self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
        schedule: &mut Schedule,
    ) -> Result<(), SchedError> {
        debug_assert_eq!(
            self.graph,
            dfg.structure_fingerprint(),
            "context/graph mismatch"
        );
        if self.zero.recompute(dfg, retiming) {
            // The kept order was sinks first for the old set only.
            self.ordered = false;
        }
        let key = self.zero.key();
        let hit = self
            .memo
            .iter()
            .position(|e| e.zero.key() == key && e.zero == self.zero);
        let kept = hit.map(|i| self.memo.swap_remove(i));
        self.spare.append(&mut self.memo);
        match kept {
            Some(entry) => {
                self.memo.push(entry);
                self.active = 0;
            }
            None => {
                let entry = self.spare.pop();
                self.memoize(dfg, entry);
            }
        }
        for &v in &self.nodes {
            schedule.clear(v);
        }
        self.table.clear();
        let nodes = std::mem::take(&mut self.nodes);
        let placed = self.reschedule(dfg, retiming, resources, schedule, &nodes);
        self.nodes = nodes;
        placed?;
        self.normalize(schedule);
        #[cfg(debug_assertions)]
        {
            let reference = ListScheduler::new(self.policy)
                .schedule(dfg, retiming, resources)
                .expect("the reference schedules what the context did");
            assert_eq!(*schedule, reference, "context FullSchedule diverged");
        }
        Ok(())
    }

    /// The maintained zero-delay set of the retiming the context last
    /// saw.
    #[must_use]
    pub fn zero_set(&self) -> &ZeroSet {
        &self.zero
    }

    /// The memoized priority weights of the current zero-delay set.
    #[must_use]
    pub fn active_weights(&self) -> &NodeMap<u64> {
        &self.memo[self.active].weights
    }

    /// Places the nodes of `free` (released from the table and cleared
    /// from `schedule`) using the maintained table, zero-delay set and
    /// weights. Funnels through the same placement core as
    /// [`ListScheduler::reschedule`], so the result is bit-identical to
    /// a from-scratch call — `debug_assert`ed here against full
    /// recomputation.
    fn reschedule(
        &mut self,
        dfg: &Dfg,
        retiming: Option<&Retiming>,
        resources: &ResourceSet,
        schedule: &mut Schedule,
        free: &[NodeId],
    ) -> Result<(), SchedError> {
        debug_assert_eq!(
            self.graph,
            dfg.structure_fingerprint(),
            "context/graph mismatch"
        );
        // Only the debug checks read `retiming` (the zero-delay set and
        // the weights come from the context), so these two are
        // `debug_assert`s, which keep it used in release builds.
        debug_assert_eq!(
            self.zero,
            ZeroSet::compute(dfg, retiming),
            "incremental zero-delay set diverged"
        );
        debug_assert!(
            rotsched_dfg::analysis::zero_delay_topological_order(dfg, retiming).is_ok(),
            "legal retimings keep the zero-delay subgraph acyclic"
        );
        #[cfg(debug_assertions)]
        {
            let rebuilt = build_fixed_table(dfg, &self.class_of, resources, schedule)
                .expect("fixed part stayed feasible");
            assert!(
                self.table.same_usage(&rebuilt),
                "incremental reservation table diverged"
            );
        }

        let entry = &self.memo[self.active];
        debug_assert_eq!(entry.zero, self.zero, "active weight entry is stale");
        let weights = &entry.weights;
        #[cfg(debug_assertions)]
        {
            let recomputed = self
                .policy
                .weights(dfg, retiming)
                .expect("weights computable on a legal retiming");
            assert_eq!(
                weights.as_slice(),
                recomputed.as_slice(),
                "memoized weights diverged"
            );
        }

        let inputs = PlaceInputs {
            dfg,
            zero: &self.zero,
            weights,
            class_of: &self.class_of,
            resources,
        };
        place_free(&inputs, &mut self.table, schedule, free, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{DfgBuilder, OpKind};

    /// A small cyclic graph with a delayed back edge, so rotations flip
    /// zero-delay edges.
    fn ring() -> Dfg {
        DfgBuilder::new("ring")
            .node("a", OpKind::Add, 1)
            .node("b", OpKind::Mul, 2)
            .node("c", OpKind::Add, 1)
            .wire("a", "b")
            .wire("b", "c")
            .edge("c", "a", 2)
            .build()
            .unwrap()
    }

    #[test]
    fn context_down_rotation_matches_from_scratch() {
        let dfg = ring();
        let resources = ResourceSet::adders_multipliers(1, 1, false);
        let scheduler = ListScheduler::default();
        let mut retiming = Retiming::zero(&dfg);
        let mut schedule = scheduler.schedule(&dfg, None, &resources).unwrap();

        let mut ctx =
            SchedContext::new(&dfg, &scheduler, &resources, Some(&retiming), &schedule).unwrap();
        let mut rotated = Vec::new();

        // Rotate the first control step down, twice, checking against the
        // from-scratch reschedule each time.
        for _ in 0..2 {
            let mut reference = schedule.clone();
            let prefix = reference.prefix_nodes(1);
            for &v in &prefix {
                reference.clear(v);
            }
            reference.normalize();
            let length = ctx
                .down_rotate(
                    &dfg,
                    &resources,
                    &mut retiming,
                    &mut schedule,
                    1,
                    &mut rotated,
                )
                .unwrap();
            assert_eq!(rotated, prefix);
            scheduler
                .reschedule(&dfg, Some(&retiming), &resources, &mut reference, &prefix)
                .unwrap();
            assert_eq!(schedule, reference);
            assert_eq!(length, reference.length(&dfg));
        }
    }

    #[test]
    fn memoized_weights_track_flips_for_every_policy() {
        for policy in [
            PriorityPolicy::DescendantCount,
            PriorityPolicy::PathHeight,
            PriorityPolicy::Mobility,
            PriorityPolicy::InputOrder,
        ] {
            let dfg = ring();
            let resources = ResourceSet::adders_multipliers(1, 1, false);
            let scheduler = ListScheduler::new(policy);
            let mut retiming = Retiming::zero(&dfg);
            let mut schedule = scheduler.schedule(&dfg, None, &resources).unwrap();
            let mut ctx =
                SchedContext::new(&dfg, &scheduler, &resources, Some(&retiming), &schedule)
                    .unwrap();
            let mut rotated = Vec::new();
            for _ in 0..3 {
                // The debug_asserts inside compare weights and table
                // against full recomputation.
                ctx.down_rotate(
                    &dfg,
                    &resources,
                    &mut retiming,
                    &mut schedule,
                    1,
                    &mut rotated,
                )
                .unwrap();
            }
        }
    }
}
