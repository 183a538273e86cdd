//! Functional-unit and register binding for a pipelined kernel —
//! the synthesis stage after scheduling.
//!
//! The paper's conclusion motivates keeping *many* optimal schedules:
//! "through a sequence of rotations, many optimal schedules can be
//! found, which expose more chances of optimization for the following
//! stages of high-level synthesis, e.g. connection binding, allocation
//! or data-path generation." This module implements those following
//! stages for a steady-state kernel:
//!
//! * **unit binding** — assign every operation to a concrete unit
//!   instance of its class such that no instance is used twice in the
//!   same (cyclic) control step; greedy interval coloring on the folded
//!   reservation intervals.
//! * **register binding** — assign every live value to a concrete
//!   register by the cyclic left-edge algorithm, using the lifetimes of
//!   [`register_pressure`](crate::registers::register_pressure); the
//!   register count achieved equals MAXLIVE plus any fragmentation
//!   (reported separately so schedules can be compared).
//!
//! Different optimal schedules genuinely produce different datapaths
//! here, which is what makes the `Q` set of rotation scheduling useful.

use std::collections::HashMap;

use rotsched_dfg::{Dfg, NodeId};

use crate::error::SchedError;
use crate::prologue::LoopSchedule;
use crate::resources::ResourceSet;

/// The bound datapath of one kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatapathBinding {
    /// `unit_of[v] = (class index, instance index)` for every node.
    pub unit_of: Vec<(usize, u32)>,
    /// `register_of[v] = Some(register index)` for nodes whose value
    /// must be stored (has consumers after production).
    pub register_of: Vec<Option<u32>>,
    /// Total registers allocated.
    pub register_count: u32,
    /// The MAXLIVE lower bound on registers (fragmentation =
    /// `register_count - max_live`).
    pub max_live: u32,
}

impl DatapathBinding {
    /// The unit instance of one node.
    #[must_use]
    pub fn unit(&self, v: NodeId) -> (usize, u32) {
        self.unit_of[v.index()]
    }

    /// The register holding `v`'s value, if it needs one.
    #[must_use]
    pub fn register(&self, v: NodeId) -> Option<u32> {
        self.register_of[v.index()]
    }
}

/// Binds a pipelined kernel to concrete units and registers.
///
/// # Errors
///
/// Returns [`SchedError::ResourceOverflow`] if the kernel demands more
/// simultaneous units of a class than exist (a schedule produced by this
/// crate's schedulers never does) and [`SchedError::UnboundOp`] for an
/// operation with no class.
pub fn bind_datapath(
    dfg: &Dfg,
    loop_schedule: &LoopSchedule,
    resources: &ResourceSet,
) -> Result<DatapathBinding, SchedError> {
    let ii = loop_schedule.kernel_length();
    let schedule = loop_schedule.schedule();

    // --- Unit binding: cyclic interval coloring per class. -------------
    // busy[(class, instance, folded step)] -> already taken.
    let mut busy: HashMap<(usize, u32, u32), NodeId> = HashMap::new();
    let mut unit_of = vec![(usize::MAX, u32::MAX); dfg.node_count()];
    // Deterministic order: by start step, then node id.
    let mut order: Vec<NodeId> = dfg.node_ids().collect();
    order.sort_by_key(|&v| (schedule.start(v), v));
    for v in order {
        let node = dfg.node(v);
        let class_id = resources
            .class_for(node.op())
            .ok_or(SchedError::UnboundOp { node: v })?;
        let class = resources.class(class_id);
        let start = schedule
            .start(v)
            .ok_or(SchedError::Unscheduled { node: v })?;
        let folded: Vec<u32> = class
            .occupancy(node.time())
            .map(|off| (start + off - 1) % ii + 1)
            .collect();
        let mut chosen = None;
        for instance in 0..class.count() {
            if folded
                .iter()
                .all(|&s| !busy.contains_key(&(class_id.index(), instance, s)))
            {
                chosen = Some(instance);
                break;
            }
        }
        let Some(instance) = chosen else {
            return Err(SchedError::ResourceOverflow {
                class: class.name().to_owned(),
                cs: folded.first().copied().unwrap_or(1),
                used: class.count() + 1,
                limit: class.count(),
            });
        };
        for &s in &folded {
            busy.insert((class_id.index(), instance, s), v);
        }
        unit_of[v.index()] = (class_id.index(), instance);
    }

    // --- Register binding: cyclic left-edge on value lifetimes. --------
    // Lifetime of v's value in absolute steps (avail, death], as in the
    // register-pressure analysis.
    let r = loop_schedule.retiming();
    let iii = i64::from(ii);
    let mut lifetimes: Vec<(NodeId, i64, i64)> = Vec::new(); // (v, avail, death)
    for v in dfg.node_ids() {
        let su = i64::from(schedule.start(v).expect("complete"));
        let avail = -r.of(v) * iii + su + i64::from(dfg.node(v).steps()) - 1;
        let mut death = avail;
        for &e in dfg.out_edges(v) {
            let edge = dfg.edge(e);
            let w = edge.to();
            let sw = i64::from(schedule.start(w).expect("complete"));
            death = death.max((i64::from(edge.delays()) - r.of(w)) * iii + sw);
        }
        if death > avail {
            lifetimes.push((v, avail, death));
        }
    }
    // Greedy assignment: registers are per-(value copy); a value with a
    // lifetime spanning q kernels needs q registers cycling. We unroll
    // copies: copy c of v occupies folded interval shifted by c*ii.
    let mut register_of = vec![None; dfg.node_count()];
    // reg_busy[reg] = set of (folded step, multiplicity) — track per
    // step usage booleans per register.
    let mut reg_busy: Vec<Vec<bool>> = Vec::new();
    let mut sorted = lifetimes.clone();
    sorted.sort_by_key(|&(v, avail, death)| (avail, core::cmp::Reverse(death), v));
    let mut register_count = 0_u32;
    for (v, avail, death) in sorted {
        let copies = u32::try_from((death - avail + iii - 1) / iii).expect("copies fit");
        // Each copy needs its own register over its folded span; assign
        // the FIRST copy's register id as the node's representative.
        let mut first_reg = None;
        for c in 0..copies {
            let a = avail + i64::from(c) * iii;
            let d = (a + iii).min(death);
            // Folded steps covered by (a, d] within one kernel.
            let steps: Vec<u32> = (a + 1..=d)
                .map(|x| u32::try_from((x - 1).rem_euclid(iii) + 1).expect("slot"))
                .collect();
            let mut chosen = None;
            for (reg, slots) in reg_busy.iter().enumerate() {
                if steps.iter().all(|&s| !slots[s as usize - 1]) {
                    chosen = Some(reg);
                    break;
                }
            }
            let reg = chosen.unwrap_or_else(|| {
                reg_busy.push(vec![false; ii as usize]);
                register_count += 1;
                reg_busy.len() - 1
            });
            for &s in &steps {
                reg_busy[reg][s as usize - 1] = true;
            }
            first_reg.get_or_insert(u32::try_from(reg).expect("register index fits"));
        }
        register_of[v.index()] = first_reg;
    }

    let report = crate::registers::register_pressure(dfg, loop_schedule);
    Ok(DatapathBinding {
        unit_of,
        register_of,
        register_count,
        max_live: report.max_live,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use rotsched_dfg::{DfgBuilder, OpKind, Retiming};

    fn bound(g: &Dfg, kernel: u32, starts: &[(&str, u32)], res: &ResourceSet) -> DatapathBinding {
        let mut s = Schedule::empty(g);
        for &(name, cs) in starts {
            s.set(g.node_by_name(name).unwrap(), cs);
        }
        let ls = LoopSchedule::new(kernel, s, Retiming::zero(g));
        bind_datapath(g, &ls, res).unwrap()
    }

    #[test]
    fn parallel_ops_get_distinct_instances() {
        let g = DfgBuilder::new("par")
            .nodes("a", 2, OpKind::Add, 1)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let b = bound(&g, 1, &[("a0", 1), ("a1", 1)], &res);
        let u0 = b.unit(g.node_by_name("a0").unwrap());
        let u1 = b.unit(g.node_by_name("a1").unwrap());
        assert_eq!(u0.0, u1.0, "same class");
        assert_ne!(u0.1, u1.1, "different instances");
    }

    #[test]
    fn sequential_ops_share_an_instance() {
        let g = DfgBuilder::new("seq")
            .nodes("a", 2, OpKind::Add, 1)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let b = bound(&g, 2, &[("a0", 1), ("a1", 2)], &res);
        assert_eq!(
            b.unit(g.node_by_name("a0").unwrap()),
            b.unit(g.node_by_name("a1").unwrap())
        );
    }

    #[test]
    fn cyclic_overlap_of_multicycle_ops_is_respected() {
        // A 2-step mult in a 2-step kernel occupies its unit in BOTH
        // folded steps; a second mult cannot share the instance.
        let g = DfgBuilder::new("mc")
            .nodes("m", 2, OpKind::Mul, 2)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(0, 2, false);
        let b = bound(&g, 2, &[("m0", 1), ("m1", 2)], &res);
        let u0 = b.unit(g.node_by_name("m0").unwrap());
        let u1 = b.unit(g.node_by_name("m1").unwrap());
        assert_ne!(u0.1, u1.1);
    }

    #[test]
    fn register_binding_reaches_maxlive_on_chains() {
        let g = DfgBuilder::new("chain")
            .nodes("a", 3, OpKind::Add, 1)
            .chain(&["a0", "a1", "a2"])
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(1, 0, false);
        let b = bound(&g, 3, &[("a0", 1), ("a1", 2), ("a2", 3)], &res);
        // a0's value lives (1,2], a1's (2,3]; they can share one register
        // in a cyclic schedule only if their folded spans are disjoint —
        // they are (slots 2 and 3).
        assert_eq!(b.max_live, 1);
        assert_eq!(b.register_count, b.max_live);
        assert!(b.register(g.node_by_name("a2").unwrap()).is_none());
    }

    #[test]
    fn solved_schedule_binds_within_its_resources() {
        // End-to-end on a small recurrence: list-schedule, then bind.
        let g = DfgBuilder::new("iir")
            .node("m", OpKind::Mul, 2)
            .node("a", OpKind::Add, 1)
            .wire("m", "a")
            .edge("a", "m", 1)
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(1, 1, false);
        let s = crate::list::ListScheduler::default()
            .schedule(&g, None, &res)
            .unwrap();
        let len = s.length(&g);
        let ls = LoopSchedule::new(len, s, Retiming::zero(&g));
        let b = bind_datapath(&g, &ls, &res).unwrap();
        assert_eq!(
            b.unit(g.node_by_name("m").unwrap()).0,
            1,
            "multiplier class"
        );
        assert_eq!(b.unit(g.node_by_name("a").unwrap()).0, 0, "adder class");
        assert!(b.register_count >= b.max_live);
    }

    #[test]
    fn overlapping_lifetimes_need_more_registers() {
        // Two producers whose values both wait for a late consumer.
        let g = DfgBuilder::new("wide")
            .node("p0", OpKind::Add, 1)
            .node("p1", OpKind::Add, 1)
            .node("c", OpKind::Add, 1)
            .wire("p0", "c")
            .wire("p1", "c")
            .build()
            .unwrap();
        let res = ResourceSet::adders_multipliers(2, 0, false);
        let b = bound(&g, 3, &[("p0", 1), ("p1", 1), ("c", 3)], &res);
        assert_eq!(b.max_live, 2);
        assert_eq!(b.register_count, 2);
        let r0 = b.register(g.node_by_name("p0").unwrap());
        let r1 = b.register(g.node_by_name("p1").unwrap());
        assert_ne!(r0, r1);
    }
}
