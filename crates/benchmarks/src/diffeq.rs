//! The differential-equation solver (Figure 1 of the paper; the HAL
//! example of Paulin & Knight).
//!
//! The loop solves `y'' + 3xy' + 3y = 0` by forward Euler:
//!
//! ```text
//! while (x < a) {
//!     x1 = x + dx;
//!     u1 = u − (3·x·u·dx) − (3·y·dx);
//!     y1 = y + u·dx;
//!     x = x1; u = u1; y = y1;
//! }
//! ```
//!
//! The DFG has 6 multiplications and 5 adder-class operations (two
//! subtractions, two additions, the loop-test comparison). The loop test
//! is a **root** of the zero-delay DAG — it reads the previous
//! iteration's `x1` through a delay and gates the body with zero-delay
//! control edges — exactly the structure that makes rotating it down the
//! profitable first move in Figure 2.

use rotsched_dfg::{Dfg, DfgBuilder, OpKind};

use crate::timing::TimingModel;

/// Builds the differential-equation DFG under `timing`.
///
/// Node names follow the derivation: `m1 = 3·x`, `m2 = u·dx`,
/// `m3 = m1·m2`, `m4 = 3·y`, `m5 = m4·dx`, `m6 = u·dx` (for `y1`),
/// `s1 = u − m3`, `s2 = s1 − m5` (= `u1`), `ys = y + m6` (= `y1`),
/// `xs = x + dx` (= `x1`), `test = (x1 < a)`.
///
/// # Panics
///
/// Never panics: the graph is statically known to be valid.
#[must_use]
pub fn diffeq(timing: &TimingModel) -> Dfg {
    let a = timing.steps(OpKind::Add);
    let m = timing.steps(OpKind::Mul);
    DfgBuilder::new("differential-equation")
        // Multipliers.
        .node("m1", OpKind::Mul, m) // 3 * x
        .node("m2", OpKind::Mul, m) // u * dx
        .node("m3", OpKind::Mul, m) // (3x) * (u dx)
        .node("m4", OpKind::Mul, m) // 3 * y
        .node("m5", OpKind::Mul, m) // (3y) * dx
        .node("m6", OpKind::Mul, m) // u * dx  (for y1)
        // Adder-class operations.
        .node("s1", OpKind::Sub, a) // u - m3
        .node("s2", OpKind::Sub, a) // s1 - m5  (= u1)
        .node("ys", OpKind::Add, a) // y + m6   (= y1)
        .node("xs", OpKind::Add, a) // x + dx   (= x1)
        .node("test", OpKind::Cmp, a) // x1 < a
        // Intra-iteration data flow.
        .wire("m1", "m3")
        .wire("m2", "m3")
        .wire("m3", "s1")
        .wire("m4", "m5")
        .wire("m5", "s2")
        .wire("s1", "s2")
        .wire("m6", "ys")
        // The loop test gates the body: zero-delay control edges to the
        // roots of the data flow.
        .wire("test", "m1")
        .wire("test", "m2")
        .wire("test", "m4")
        .wire("test", "m6")
        .wire("test", "xs")
        // Loop-carried state: u = s2, y = ys, x = xs, each through one
        // register; the test reads the previous iteration's x1.
        .edge("s2", "m2", 1)
        .edge("s2", "s1", 1)
        .edge("s2", "m6", 1)
        .edge("ys", "m4", 1)
        .edge("ys", "ys", 1)
        .edge("xs", "m1", 1)
        .edge("xs", "xs", 1)
        .edge("xs", "test", 1)
        .build()
        .expect("the differential-equation DFG is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::analysis::{critical_path_length, iteration_bound};

    #[test]
    fn table_1_characteristics() {
        // Table 1: Differential Equation — 6 mults, 5 adds, CP 7, IB 6.
        let g = diffeq(&TimingModel::paper());
        let mults = g
            .nodes()
            .filter(|(_, n)| n.op().is_multiplicative())
            .count();
        let adds = g.nodes().filter(|(_, n)| n.op().is_additive()).count();
        assert_eq!(mults, 6);
        assert_eq!(adds, 5);
        assert_eq!(critical_path_length(&g, None).unwrap(), 7);
        assert_eq!(iteration_bound(&g).unwrap(), Some(6));
    }

    #[test]
    fn unit_time_critical_path() {
        // With unit-time operations the critical chain
        // test -> m1 -> m3 -> s1 -> s2 takes 5 steps.
        let g = diffeq(&TimingModel::unit());
        assert_eq!(critical_path_length(&g, None).unwrap(), 5);
    }

    #[test]
    fn the_loop_test_is_a_root() {
        let g = diffeq(&TimingModel::paper());
        let test = g.node_by_name("test").unwrap();
        let zero_delay = |edges: &[_]| edges.iter().filter(|&&e| g.edge(e).is_zero_delay()).count();
        assert_eq!(
            zero_delay(g.in_edges(test)),
            0,
            "all incoming edges of the loop test carry delays"
        );
        assert!(zero_delay(g.out_edges(test)) >= 4);
    }

    #[test]
    fn graph_is_valid_and_cyclic() {
        let g = diffeq(&TimingModel::paper());
        g.validate().unwrap();
        assert!(iteration_bound(&g).unwrap().is_some());
        assert_eq!(g.node_count(), 11);
    }
}
