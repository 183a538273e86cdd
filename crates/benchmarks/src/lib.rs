//! # rotsched-benchmarks — the paper's benchmark suite
//!
//! The five DSP benchmarks of Table 1, plus random-graph generators for
//! stress testing. Each benchmark constructor takes a [`TimingModel`]
//! (unit-time for the worked examples, the paper's 50 ns control-step
//! model for the evaluation tables) and every graph is pinned by tests
//! to the exact characteristics the paper reports:
//!
//! | Benchmark | #Mults | #Adds | CP | IB |
//! |---|---|---|---|---|
//! | 5th-order elliptic filter | 8 | 26 | 17 | 16 |
//! | differential equation | 6 | 5 | 7 | 6 |
//! | 4-stage lattice filter | 15 | 11 | 10 | 2 |
//! | all-pole lattice filter | 4 | 11 | 16 | 8 |
//! | 2-cascaded biquad filter | 8 | 8 | 7 | 4 |
//!
//! The differential equation and biquad graphs are derived directly
//! from their published definitions; the elliptic and lattice filters
//! are reconstructions (the paper's corrected edge lists were never
//! published) pinned to the same invariants — see `DESIGN.md` for the
//! substitution rationale.
//!
//! ```
//! use rotsched_benchmarks::{diffeq, TimingModel};
//! use rotsched_dfg::analysis;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = diffeq(&TimingModel::paper());
//! assert_eq!(analysis::iteration_bound(&g)?, Some(6));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod allpole;
mod biquad;
mod diffeq;
mod elliptic;
mod lattice4;
pub mod random;
mod timing;

pub use allpole::allpole;
pub use biquad::biquad;
pub use diffeq::diffeq;
pub use elliptic::elliptic;
pub use lattice4::lattice4;
pub use random::{random_dfg, RandomDfgConfig};
pub use timing::TimingModel;

use rotsched_dfg::Dfg;

/// All five benchmarks in Table 1 order, with their table names.
#[must_use]
pub fn all_benchmarks(timing: &TimingModel) -> Vec<(&'static str, Dfg)> {
    vec![
        ("5th-Order Elliptic Filter", elliptic(timing)),
        ("Differential Equation", diffeq(timing)),
        ("4-stage Lattice Filter", lattice4(timing)),
        ("All-pole Lattice Filter", allpole(timing)),
        ("2-cascaded Biquad Filter", biquad(timing)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_are_valid() {
        for (name, g) in all_benchmarks(&TimingModel::paper()) {
            g.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn table_1_is_reproduced_exactly() {
        use rotsched_dfg::analysis::{critical_path_length, iteration_bound};
        // (mults, adds, CP, IB) per Table 1.
        let expected = [
            (8, 26, 17, 16),
            (6, 5, 7, 6),
            (15, 11, 10, 2),
            (4, 11, 16, 8),
            (8, 8, 7, 4),
        ];
        for ((name, g), (mults, adds, cp, ib)) in all_benchmarks(&TimingModel::paper())
            .into_iter()
            .zip(expected)
        {
            let got_m = g
                .nodes()
                .filter(|(_, n)| n.op().is_multiplicative())
                .count();
            let got_a = g.nodes().filter(|(_, n)| n.op().is_additive()).count();
            assert_eq!(got_m, mults, "{name}: multiplier count");
            assert_eq!(got_a, adds, "{name}: adder count");
            assert_eq!(
                critical_path_length(&g, None).unwrap(),
                cp,
                "{name}: critical path"
            );
            assert_eq!(
                iteration_bound(&g).unwrap(),
                Some(ib),
                "{name}: iteration bound"
            );
        }
    }
}
