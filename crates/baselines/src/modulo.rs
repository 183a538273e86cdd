//! Iterative modulo scheduling (Rau-style) — the software-pipelining
//! baseline.
//!
//! The paper compares rotation scheduling against closed systems (PBS,
//! MARS, Lee et al.) by quoting their published numbers. To have an
//! *executable* comparator, this module implements the other classic
//! resource-constrained loop-pipelining algorithm: **iterative modulo
//! scheduling** (IMS). IMS fixes a candidate initiation interval `II`,
//! schedules operations on a *modulo reservation table* with `II`
//! columns under the cross-iteration precedences
//! `s(v) ≥ s(u) + t(u) − II·d(u,v)`, evicting conflicting operations
//! with a bounded budget, and increases `II` on failure.

use rotsched_dfg::analysis::max_cycle_ratio;
use rotsched_dfg::{Dfg, NodeId, Retiming};
use rotsched_sched::{LoopSchedule, ResourceSet, SchedError, Schedule};

use crate::bounds::resource_bound;

/// Tuning parameters for iterative modulo scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModuloConfig {
    /// Hard ceiling on the II search (defaults to a generous multiple of
    /// the minimum II).
    pub max_ii: u32,
    /// Scheduling budget per II attempt, as a multiple of the node
    /// count (Rau suggests small single-digit ratios).
    pub budget_ratio: usize,
}

impl Default for ModuloConfig {
    fn default() -> Self {
        ModuloConfig {
            max_ii: 4096,
            budget_ratio: 8,
        }
    }
}

/// A successful modulo schedule.
#[derive(Clone, Debug)]
pub struct ModuloResult {
    /// The achieved initiation interval (kernel length).
    pub ii: u32,
    /// Flat start times on the unbounded axis (`slot = time mod II`,
    /// `stage = time div II`).
    pub start: Vec<i64>,
    /// Number of pipeline stages (`1 + max stage − min stage`).
    pub depth: u32,
}

impl ModuloResult {
    /// Converts the flat times into a kernel [`Schedule`] plus the
    /// normalized retiming realizing it, bundled as a [`LoopSchedule`]
    /// ready for expansion and simulation.
    #[must_use]
    pub fn to_loop_schedule(&self, dfg: &Dfg) -> LoopSchedule {
        let ii = i64::from(self.ii);
        let min_stage = self
            .start
            .iter()
            .map(|&s| s.div_euclid(ii))
            .min()
            .unwrap_or(0);
        let max_stage = self
            .start
            .iter()
            .map(|&s| s.div_euclid(ii))
            .max()
            .unwrap_or(0);
        let mut schedule = Schedule::empty(dfg);
        let mut r = Retiming::zero(dfg);
        for v in dfg.node_ids() {
            let s = self.start[v.index()];
            let slot = s.rem_euclid(ii);
            let stage = s.div_euclid(ii);
            schedule.set(v, u32::try_from(slot + 1).expect("slot fits"));
            r.set(v, max_stage - stage);
        }
        let _ = min_stage;
        LoopSchedule::new(self.ii, schedule, r)
    }
}

/// The minimum initiation interval: `max(recurrence MII, resource MII)`.
///
/// # Errors
///
/// Returns [`SchedError::Graph`] for invalid graphs.
pub fn minimum_ii(dfg: &Dfg, resources: &ResourceSet) -> Result<u32, SchedError> {
    let rec = max_cycle_ratio(dfg)
        .map_err(SchedError::from)?
        .map_or(0, |r| r.ceil());
    let res = resource_bound(dfg, resources);
    Ok(u32::try_from(rec.max(res).max(1)).unwrap_or(u32::MAX))
}

/// Runs iterative modulo scheduling, searching upward from the minimum
/// II.
///
/// # Errors
///
/// * [`SchedError::UnboundOp`] — an operation has no unit class.
/// * [`SchedError::NoFeasibleSlot`] — no II up to `config.max_ii`
///   admitted a schedule within budget (practically unreachable: large
///   IIs always succeed).
pub fn modulo_schedule(
    dfg: &Dfg,
    resources: &ResourceSet,
    config: &ModuloConfig,
) -> Result<ModuloResult, SchedError> {
    dfg.validate().map_err(SchedError::from)?;
    for (v, node) in dfg.nodes() {
        if resources.class_for(node.op()).is_none() {
            return Err(SchedError::UnboundOp { node: v });
        }
    }
    let mii = minimum_ii(dfg, resources)?;
    for ii in mii..=config.max_ii.max(mii) {
        if let Some(result) = try_ii(dfg, resources, ii, config.budget_ratio) {
            return Ok(result);
        }
    }
    Err(SchedError::NoFeasibleSlot {
        node: NodeId::from_index(0),
    })
}

/// Height-based priority: longest (time − II·delay)-weighted path out of
/// each node. Computed by relaxation; with `II ≥ MII` there are no
/// positive cycles, so `|V|` rounds converge.
fn heights(dfg: &Dfg, ii: u32) -> Vec<i64> {
    let n = dfg.node_count();
    let mut h = vec![0_i64; n];
    for _ in 0..n {
        let mut changed = false;
        for (_, edge) in dfg.edges() {
            let u = edge.from().index();
            let v = edge.to().index();
            let cand = h[v] + i64::from(dfg.node(edge.from()).steps())
                - i64::from(ii) * i64::from(edge.delays());
            if cand > h[u] {
                h[u] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    h
}

/// One II attempt of Rau's iterative modulo scheduling.
fn try_ii(
    dfg: &Dfg,
    resources: &ResourceSet,
    ii: u32,
    budget_ratio: usize,
) -> Option<ModuloResult> {
    let n = dfg.node_count();
    let priority = heights(dfg, ii);
    let mut start: Vec<Option<i64>> = vec![None; n];
    let mut last_forced: Vec<Option<i64>> = vec![None; n];

    // Modulo reservation table: per class, per residue, the set of
    // operations occupying it (an op may occupy a residue multiple times
    // when its duration exceeds II — each occurrence counts).
    let mut mrt: Vec<Vec<Vec<NodeId>>> = resources
        .classes()
        .iter()
        .map(|_| vec![Vec::new(); ii as usize])
        .collect();

    let class_of: Vec<usize> = dfg
        .node_ids()
        .map(|v| {
            resources
                .class_for(dfg.node(v).op())
                .expect("ops bound by caller")
                .index()
        })
        .collect();
    let occupancy = |v: NodeId| -> Vec<u32> {
        let class = resources.class(resources.class_for(dfg.node(v).op()).expect("bound"));
        class
            .occupancy(dfg.node(v).time())
            .map(|off| off % ii)
            .collect()
    };

    let fits = |mrt: &[Vec<Vec<NodeId>>], v: NodeId, time: i64| -> bool {
        let class_idx = class_of[v.index()];
        let limit = resources.classes()[class_idx].count() as usize;
        // Count per-residue demand of v at this start time.
        let mut demand = vec![0_usize; ii as usize];
        for off in occupancy(v) {
            let residue = (time + i64::from(off)).rem_euclid(i64::from(ii)) as usize;
            demand[residue] += 1;
        }
        demand
            .iter()
            .enumerate()
            .all(|(res, &d)| d == 0 || mrt[class_idx][res].len() + d <= limit)
    };

    let mut budget = budget_ratio.max(1) * n.max(1);
    let mut unscheduled: Vec<NodeId> = dfg.node_ids().collect();
    while let Some(&v) = unscheduled
        .iter()
        .max_by_key(|&&v| (priority[v.index()], core::cmp::Reverse(v)))
    {
        if budget == 0 {
            return None;
        }
        budget -= 1;
        unscheduled.retain(|&w| w != v);

        // Earliest start from scheduled predecessors.
        let mut estart = 0_i64;
        for &e in dfg.in_edges(v) {
            let edge = dfg.edge(e);
            if let Some(su) = start[edge.from().index()] {
                estart = estart.max(
                    su + i64::from(dfg.node(edge.from()).steps())
                        - i64::from(ii) * i64::from(edge.delays()),
                );
            }
        }

        // Search an MRT-feasible slot in [estart, estart + II).
        let mut chosen = None;
        for t in estart..estart + i64::from(ii) {
            if fits(&mrt, v, t) {
                chosen = Some(t);
                break;
            }
        }
        let t = chosen.unwrap_or_else(|| match last_forced[v.index()] {
            Some(prev) if prev >= estart => prev + 1,
            _ => estart,
        });
        last_forced[v.index()] = Some(t);

        // Evict resource conflicts at v's residues.
        let class_idx = class_of[v.index()];
        let limit = resources.classes()[class_idx].count() as usize;
        for off in occupancy(v) {
            let residue = (t + i64::from(off)).rem_euclid(i64::from(ii)) as usize;
            while mrt[class_idx][residue].len() >= limit {
                let victim = mrt[class_idx][residue].pop().expect("nonempty at limit");
                // Remove every occurrence of the victim from the MRT.
                for row in &mut mrt[class_idx] {
                    row.retain(|&w| w != victim);
                }
                start[victim.index()] = None;
                if !unscheduled.contains(&victim) {
                    unscheduled.push(victim);
                }
            }
        }
        // Place v.
        start[v.index()] = Some(t);
        for off in occupancy(v) {
            let residue = (t + i64::from(off)).rem_euclid(i64::from(ii)) as usize;
            mrt[class_idx][residue].push(v);
        }

        // Evict scheduled successors whose dependence is now violated.
        for &e in dfg.out_edges(v) {
            let edge = dfg.edge(e);
            let w = edge.to();
            if w == v {
                continue;
            }
            if let Some(sw) = start[w.index()] {
                let need =
                    t + i64::from(dfg.node(v).steps()) - i64::from(ii) * i64::from(edge.delays());
                if sw < need {
                    for class_rows in &mut mrt {
                        for row in class_rows.iter_mut() {
                            row.retain(|&x| x != w);
                        }
                    }
                    start[w.index()] = None;
                    if !unscheduled.contains(&w) {
                        unscheduled.push(w);
                    }
                }
            }
        }
    }

    let start: Vec<i64> = start
        .into_iter()
        .map(|s| s.expect("all scheduled"))
        .collect();
    let min_stage = start
        .iter()
        .map(|&s| s.div_euclid(i64::from(ii)))
        .min()
        .unwrap_or(0);
    let max_stage = start
        .iter()
        .map(|&s| s.div_euclid(i64::from(ii)))
        .max()
        .unwrap_or(0);
    Some(ModuloResult {
        ii,
        start,
        depth: u32::try_from(1 + max_stage - min_stage).expect("depth fits"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_benchmarks::{biquad, diffeq, TimingModel};
    use rotsched_sched::simulate;

    #[test]
    fn minimum_ii_combines_both_bounds() {
        let g = diffeq(&TimingModel::paper());
        // Recurrence MII = 6; 1 non-pipelined mult -> resource MII = 12.
        let res = ResourceSet::adders_multipliers(1, 1, false);
        assert_eq!(minimum_ii(&g, &res).unwrap(), 12);
        let res = ResourceSet::adders_multipliers(1, 2, false);
        assert_eq!(minimum_ii(&g, &res).unwrap(), 6);
    }

    #[test]
    fn diffeq_gets_close_to_the_minimum_ii() {
        // II = 6 requires a 100%-utilized multiplier MRT (12 busy slots
        // in 2 units x 6 residues) AND a zero-slack recurrence — IMS's
        // greedy eviction settles at 7. Rotation scheduling does find 6
        // (Table 3); this gap is part of the reproduced comparison.
        let g = diffeq(&TimingModel::paper());
        let res = ResourceSet::adders_multipliers(1, 2, false);
        let out = modulo_schedule(&g, &res, &ModuloConfig::default()).unwrap();
        assert!(out.ii <= 7, "IMS must be within 1 of the minimum II of 6");
    }

    #[test]
    fn modulo_schedule_simulates_correctly() {
        let g = diffeq(&TimingModel::paper());
        let res = ResourceSet::adders_multipliers(1, 2, false);
        let out = modulo_schedule(&g, &res, &ModuloConfig::default()).unwrap();
        let ls = out.to_loop_schedule(&g);
        let report = simulate(&g, &ls, &res, 12).unwrap();
        assert_eq!(report.executions, g.node_count() * 12);
    }

    #[test]
    fn biquad_with_ample_resources_hits_the_recurrence_bound() {
        let g = biquad(&TimingModel::paper());
        let res = ResourceSet::adders_multipliers(4, 8, false);
        let out = modulo_schedule(&g, &res, &ModuloConfig::default()).unwrap();
        assert_eq!(out.ii, 4, "recurrence MII = 4 binds");
        let ls = out.to_loop_schedule(&g);
        simulate(&g, &ls, &res, 10).unwrap();
    }

    #[test]
    fn pipelined_multipliers_lower_the_ii() {
        let g = diffeq(&TimingModel::paper());
        let nonpip = modulo_schedule(
            &g,
            &ResourceSet::adders_multipliers(1, 1, false),
            &ModuloConfig::default(),
        )
        .unwrap();
        let pip = modulo_schedule(
            &g,
            &ResourceSet::adders_multipliers(1, 1, true),
            &ModuloConfig::default(),
        )
        .unwrap();
        assert!(pip.ii < nonpip.ii);
        assert!(pip.ii <= 7, "pipelined minimum II is 6; IMS gets within 1");
    }

    #[test]
    fn depth_is_reported() {
        let g = biquad(&TimingModel::paper());
        let res = ResourceSet::adders_multipliers(4, 8, false);
        let out = modulo_schedule(&g, &res, &ModuloConfig::default()).unwrap();
        assert!(out.depth >= 1);
    }
}
