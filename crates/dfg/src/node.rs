//! Computation-node data.

use core::fmt;

use crate::op::OpKind;

/// The data attached to one computation node of a [`Dfg`](crate::Dfg).
///
/// A node corresponds to one operation of the loop body (Definition: a DFG
/// is `G = (V, E, d, t)` where `t(v)` is the computation time of `v`).
/// Computation time is measured in whole control steps; multi-cycle
/// operations simply have `time > 1`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Node {
    name: String,
    op: OpKind,
    time: u32,
}

impl Node {
    /// Creates a node with the given human-readable name, operation kind,
    /// and computation time in control steps.
    ///
    /// Computation times of zero are permitted here but rejected by
    /// [`Dfg::validate`](crate::Dfg::validate); keeping construction
    /// infallible makes builders pleasant while still catching the mistake
    /// before scheduling.
    #[must_use]
    pub fn new(name: impl Into<String>, op: OpKind, time: u32) -> Self {
        Node {
            name: name.into(),
            op,
            time,
        }
    }

    /// The node's human-readable name (e.g. `"x1"` or `"10"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation this node performs.
    #[must_use]
    pub fn op(&self) -> OpKind {
        self.op
    }

    /// Computation time `t(v)` in control steps.
    #[must_use]
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Control steps the operation occupies: `max(1, t(v))`. A zero-time
    /// operation still takes a step, so every schedule, reservation and
    /// precedence uses this value; only cycle ratios read [`Node::time`].
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.time.max(1)
    }

    /// Replaces the computation time, e.g. when re-deriving a graph under a
    /// different timing model.
    pub fn set_time(&mut self, time: u32) {
        self.time = time;
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, t={})", self.name, self.op, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let n = Node::new("u1", OpKind::Sub, 1);
        assert_eq!(n.name(), "u1");
        assert_eq!(n.op(), OpKind::Sub);
        assert_eq!(n.time(), 1);
    }

    #[test]
    fn steps_clamp_zero_time_to_one() {
        assert_eq!(Node::new("z", OpKind::Add, 0).steps(), 1);
        assert_eq!(Node::new("m", OpKind::Mul, 3).steps(), 3);
    }

    #[test]
    fn set_time_updates() {
        let mut n = Node::new("m", OpKind::Mul, 1);
        n.set_time(2);
        assert_eq!(n.time(), 2);
    }

    #[test]
    fn display_is_informative() {
        let n = Node::new("y1", OpKind::Add, 1);
        assert_eq!(n.to_string(), "y1 (add, t=1)");
    }
}
