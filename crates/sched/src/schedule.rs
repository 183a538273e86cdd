//! Schedules: mappings from nodes to control steps.
//!
//! A schedule `s` assigns each node the 1-based control step where its
//! execution *starts* (multi-cycle operations extend over following
//! steps). The *length* of a schedule is the number of control steps from
//! the first occupied one through the last — which for a static schedule
//! is the minimum initiation interval of the loop pipeline.

use rotsched_dfg::{Dfg, NodeId, NodeMap};

/// A (possibly partial) assignment of nodes to start control steps.
///
/// # Examples
///
/// ```
/// use rotsched_dfg::{Dfg, OpKind};
/// use rotsched_sched::Schedule;
///
/// let mut g = Dfg::new("g");
/// let a = g.add_node("a", OpKind::Mul, 2);
/// let b = g.add_node("b", OpKind::Add, 1);
///
/// let mut s = Schedule::empty(&g);
/// s.set(a, 1);
/// s.set(b, 3);
/// assert_eq!(s.length(&g), 3); // steps 1..=3 are occupied
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    start: NodeMap<Option<u32>>,
}

impl Schedule {
    /// An empty schedule for the nodes of `dfg`.
    #[must_use]
    pub fn empty(dfg: &Dfg) -> Self {
        Schedule {
            start: dfg.node_map(None),
        }
    }

    /// The start control step of `v`, if scheduled.
    #[must_use]
    pub fn start(&self, v: NodeId) -> Option<u32> {
        self.start[v]
    }

    /// Assigns `v` to start at control step `cs` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `cs == 0`; control steps are 1-based.
    pub fn set(&mut self, v: NodeId, cs: u32) {
        assert!(cs >= 1, "control steps are 1-based");
        self.start[v] = Some(cs);
    }

    /// Removes `v` from the schedule (deallocation before rescheduling).
    pub fn clear(&mut self, v: NodeId) {
        self.start[v] = None;
    }

    /// Whether every node is scheduled.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.start.values().all(Option::is_some)
    }

    /// Iterates over scheduled `(node, start)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.start
            .iter()
            .filter_map(|(id, &cs)| cs.map(|c| (id, c)))
    }

    /// The first occupied control step (`None` if nothing is scheduled).
    #[must_use]
    pub fn first_step(&self) -> Option<u32> {
        self.iter().map(|(_, cs)| cs).min()
    }

    /// The last occupied control step, accounting for multi-cycle
    /// durations: `max_v s(v) + t(v) − 1`.
    #[must_use]
    pub fn last_step(&self, dfg: &Dfg) -> Option<u32> {
        self.iter()
            .map(|(v, cs)| cs + dfg.node(v).steps() - 1)
            .max()
    }

    /// The schedule length in control steps: last occupied step minus
    /// first occupied step plus one (0 for an empty schedule).
    #[must_use]
    pub fn length(&self, dfg: &Dfg) -> u32 {
        match (self.first_step(), self.last_step(dfg)) {
            (Some(first), Some(last)) => last - first + 1,
            _ => 0,
        }
    }

    /// Shifts every scheduled node by `delta` control steps (negative
    /// shifts move the schedule earlier).
    ///
    /// # Panics
    ///
    /// Panics if a shift would move a node to control step 0 or below.
    pub fn shift(&mut self, delta: i64) {
        for slot in self.start.values_mut() {
            if let Some(cs) = slot {
                let shifted = i64::from(*cs) + delta;
                assert!(
                    shifted >= 1,
                    "shift would move a node before control step 1"
                );
                *slot = Some(u32::try_from(shifted).expect("control step fits in u32"));
            }
        }
    }

    /// Renumbers control steps so the first occupied one becomes 1.
    /// Already-normalized schedules are left untouched (no O(V) shift).
    pub fn normalize(&mut self) {
        if let Some(first) = self.first_step() {
            if first != 1 {
                self.shift(1 - i64::from(first));
            }
        }
    }

    /// The nodes scheduled in the first `steps` control steps (relative
    /// to the schedule's own first step) — the candidate set `S_i` of a
    /// down-rotation of size `i` (Subsection 3.1).
    #[must_use]
    pub fn prefix_nodes(&self, steps: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.prefix_nodes_into(steps, &mut out);
        out
    }

    /// [`Schedule::prefix_nodes`] into a caller-owned buffer (cleared
    /// first), so the rotation loop reuses one allocation across steps.
    pub fn prefix_nodes_into(&self, steps: u32, out: &mut Vec<NodeId>) {
        out.clear();
        let Some(first) = self.first_step() else {
            return;
        };
        out.extend(
            self.iter()
                .filter(|&(_, cs)| cs < first + steps)
                .map(|(v, _)| v),
        );
    }

    /// Renders the schedule as a control-step table like the paper's
    /// Figure 2, one column per resource class name in `columns` (nodes
    /// are grouped by a caller-supplied classifier).
    #[must_use]
    pub fn format_table(
        &self,
        dfg: &Dfg,
        columns: &[&str],
        classify: impl Fn(NodeId) -> usize,
    ) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let Some(first) = self.first_step() else {
            return "(empty schedule)\n".to_owned();
        };
        let last = self
            .last_step(dfg)
            .expect("nonempty schedule has a last step");
        let _ = write!(out, "{:>4} ", "CS");
        for c in columns {
            let _ = write!(out, "| {c:^14} ");
        }
        out.push('\n');
        for cs in first..=last {
            let _ = write!(out, "{cs:>4} ");
            for (col_idx, _) in columns.iter().enumerate() {
                let cell: Vec<String> = self
                    .iter()
                    .filter(|&(v, start)| {
                        classify(v) == col_idx && start <= cs && cs < start + dfg.node(v).steps()
                    })
                    .map(|(v, start)| {
                        let name = dfg.node(v).name().to_owned();
                        if cs == start {
                            name
                        } else {
                            format!("{name}'")
                        }
                    })
                    .collect();
                let text = if cell.is_empty() {
                    "-".to_owned()
                } else {
                    cell.join(",")
                };
                let _ = write!(out, "| {text:^14} ");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::OpKind;

    fn graph() -> (Dfg, NodeId, NodeId, NodeId) {
        let mut g = Dfg::new("g");
        let a = g.add_node("a", OpKind::Mul, 2);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Add, 1);
        (g, a, b, c)
    }

    #[test]
    fn set_and_length() {
        let (g, a, b, c) = graph();
        let mut s = Schedule::empty(&g);
        assert_eq!(s.length(&g), 0);
        s.set(a, 2);
        s.set(b, 4);
        s.set(c, 4);
        // a occupies 2-3, b and c occupy 4 -> steps 2..=4.
        assert_eq!(s.first_step(), Some(2));
        assert_eq!(s.last_step(&g), Some(4));
        assert_eq!(s.length(&g), 3);
        assert!(s.is_complete());
    }

    #[test]
    fn multicycle_tail_extends_length() {
        let (g, a, _, _) = graph();
        let mut s = Schedule::empty(&g);
        s.set(a, 5); // occupies 5-6
        assert_eq!(s.last_step(&g), Some(6));
        assert_eq!(s.length(&g), 2);
    }

    #[test]
    fn clear_removes_a_node() {
        let (g, a, b, _) = graph();
        let mut s = Schedule::empty(&g);
        s.set(a, 1);
        s.set(b, 2);
        s.clear(a);
        assert_eq!(s.start(a), None);
        assert!(!s.is_complete());
        assert_eq!(s.first_step(), Some(2));
    }

    #[test]
    fn shift_and_normalize() {
        let (g, a, b, _) = graph();
        let mut s = Schedule::empty(&g);
        s.set(a, 3);
        s.set(b, 5);
        s.shift(2);
        assert_eq!(s.start(a), Some(5));
        s.normalize();
        assert_eq!(s.start(a), Some(1));
        assert_eq!(s.start(b), Some(3));
        // a occupies steps 1-2, b occupies step 3.
        assert_eq!(s.length(&g), 3);
    }

    #[test]
    #[should_panic(expected = "before control step 1")]
    fn shift_below_one_panics() {
        let (g, a, _, _) = graph();
        let mut s = Schedule::empty(&g);
        s.set(a, 1);
        s.shift(-1);
    }

    #[test]
    fn prefix_nodes_returns_early_steps() {
        let (g, a, b, c) = graph();
        let mut s = Schedule::empty(&g);
        s.set(a, 2);
        s.set(b, 3);
        s.set(c, 5);
        // First step is 2; a prefix of 2 steps covers steps 2 and 3.
        let mut prefix = s.prefix_nodes(2);
        prefix.sort();
        assert_eq!(prefix, vec![a, b]);
    }

    #[test]
    fn format_table_marks_tails() {
        let (g, a, b, _) = graph();
        let mut s = Schedule::empty(&g);
        s.set(a, 1);
        s.set(b, 2);
        let table = s.format_table(&g, &["Mult", "Adder"], |v| {
            usize::from(!matches!(g.node(v).op(), OpKind::Mul))
        });
        assert!(table.contains("a'"), "tail of the 2-cycle mult is marked");
        assert!(table.contains('b'));
    }
}
