//! The 2-cascaded biquad filter benchmark.
//!
//! Two direct-form-II biquad sections in cascade, with normalized
//! feed-forward gain (4 coefficient multiplications per section:
//! `a1·w[n−1]`, `a2·w[n−2]`, `b1·w[n−1]`, `b2·w[n−2]`):
//!
//! ```text
//! w   = in − a1·w[n−1] − a2·w[n−2]
//! out = w + (b1·w[n−1] + b2·w[n−2])
//! ```
//!
//! Table 1: 8 multiplications, 8 adder-class operations, critical path
//! **7** (add = 1 CS, mult = 2 CS), iteration bound **4** (the
//! `w → a1·w → −` recurrence: 2 + 1 + 1 over one register).

use rotsched_dfg::{Dfg, DfgBuilder, OpKind};

use crate::timing::TimingModel;

/// Builds the 2-cascaded biquad DFG under `timing`.
#[must_use]
pub fn biquad(timing: &TimingModel) -> Dfg {
    let a = timing.steps(OpKind::Add);
    let m = timing.steps(OpKind::Mul);
    let mut b = DfgBuilder::new("2-cascaded-biquad");
    for j in 1..=2 {
        b = b
            .node(format!("ma{j}"), OpKind::Mul, m) // a1 * w[n-1]
            .node(format!("mb{j}"), OpKind::Mul, m) // a2 * w[n-2]
            .node(format!("mc{j}"), OpKind::Mul, m) // b1 * w[n-1]
            .node(format!("md{j}"), OpKind::Mul, m) // b2 * w[n-2]
            .node(format!("s1_{j}"), OpKind::Sub, a) // in - ma
            .node(format!("s2_{j}"), OpKind::Sub, a) // s1 - mb (= w)
            .node(format!("o1_{j}"), OpKind::Add, a) // mc + md
            .node(format!("o2_{j}"), OpKind::Add, a); // w + o1 (= out)
        let (ma, mb, mc, md) = (
            format!("ma{j}"),
            format!("mb{j}"),
            format!("mc{j}"),
            format!("md{j}"),
        );
        let (s1, s2, o1, o2) = (
            format!("s1_{j}"),
            format!("s2_{j}"),
            format!("o1_{j}"),
            format!("o2_{j}"),
        );
        b = b
            .wire(&ma, &s1)
            .wire(&s1, &s2)
            .wire(&mb, &s2)
            .wire(&mc, &o1)
            .wire(&md, &o1)
            .wire(&o1, &o2)
            .wire(&s2, &o2)
            // State registers: w[n-1] and w[n-2].
            .edge(&s2, &ma, 1)
            .edge(&s2, &mb, 2)
            .edge(&s2, &mc, 1)
            .edge(&s2, &md, 2);
    }
    // Cascade: the second section's input is the first section's state
    // path output.
    b = b.wire("s2_1", "s1_2");
    b.build().expect("the biquad DFG is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::analysis::{critical_path_length, iteration_bound, max_cycle_ratio, Ratio};

    #[test]
    fn table_1_characteristics() {
        // Table 1: 2-cascaded biquad — 8 mults, 8 adds, CP 7, IB 4.
        let g = biquad(&TimingModel::paper());
        let mults = g
            .nodes()
            .filter(|(_, n)| n.op().is_multiplicative())
            .count();
        let adds = g.nodes().filter(|(_, n)| n.op().is_additive()).count();
        assert_eq!(mults, 8);
        assert_eq!(adds, 8);
        assert_eq!(critical_path_length(&g, None).unwrap(), 7);
        assert_eq!(iteration_bound(&g).unwrap(), Some(4));
    }

    #[test]
    fn binding_recurrence_is_the_w_loop() {
        let g = biquad(&TimingModel::paper());
        assert_eq!(max_cycle_ratio(&g).unwrap(), Some(Ratio::new(4, 1)));
    }

    #[test]
    fn sections_are_cascaded_through_w() {
        let g = biquad(&TimingModel::paper());
        let w1 = g.node_by_name("s2_1").unwrap();
        let s12 = g.node_by_name("s1_2").unwrap();
        assert!(g.out_edges(w1).iter().any(|&e| {
            let e = g.edge(e);
            e.is_zero_delay() && e.to() == s12
        }));
    }

    #[test]
    fn graph_is_valid() {
        biquad(&TimingModel::paper()).validate().unwrap();
        biquad(&TimingModel::unit()).validate().unwrap();
    }
}
