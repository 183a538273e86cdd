//! Random cyclic data-flow graphs for stress and property testing.
//!
//! Generated graphs are always valid: intra-iteration (zero-delay) edges
//! only run forward along a random topological order, so the zero-delay
//! subgraph is a DAG by construction; backward edges always carry at
//! least one delay.

use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::{Dfg, OpKind};

/// Parameters for random DFG generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RandomDfgConfig {
    /// Number of computation nodes.
    pub nodes: usize,
    /// Probability of a zero-delay (forward) edge between an ordered
    /// pair of nodes.
    pub forward_density: f64,
    /// Probability of a delayed (backward or forward) edge between an
    /// ordered pair.
    pub feedback_density: f64,
    /// Maximum delays on a delayed edge (uniform in `1..=max_delays`).
    pub max_delays: u32,
    /// Fraction of nodes that are multiplications.
    pub mult_fraction: f64,
    /// Control steps per multiplication (additions always take 1).
    pub mult_steps: u32,
}

impl Default for RandomDfgConfig {
    fn default() -> Self {
        RandomDfgConfig {
            nodes: 20,
            forward_density: 0.15,
            feedback_density: 0.05,
            max_delays: 2,
            mult_fraction: 0.4,
            mult_steps: 2,
        }
    }
}

impl RandomDfgConfig {
    /// The default shape at `nodes` nodes, its densities scaled so every
    /// node keeps the per-node degree of a `degree_nodes`-node graph. The
    /// densities are per node pair, so unscaled edge counts would grow
    /// quadratically: real DFGs keep bounded fan-in, and a scaled graph is
    /// a bigger instance of the same shape rather than a denser one.
    /// Graphs of at most `degree_nodes` nodes keep the default densities.
    #[must_use]
    pub fn degree_scaled(nodes: usize, degree_nodes: usize) -> Self {
        let defaults = RandomDfgConfig::default();
        let scale = (degree_nodes as f64 / nodes as f64).min(1.0);
        RandomDfgConfig {
            nodes,
            forward_density: defaults.forward_density * scale,
            feedback_density: defaults.feedback_density * scale,
            ..defaults
        }
    }
}

/// Generates a random valid DFG from `config`, deterministically from
/// `seed`.
///
/// The graph is connected enough for scheduling but its cyclic structure
/// varies: some seeds produce acyclic graphs (no feedback edge hits),
/// most produce several recurrences.
#[must_use]
pub fn random_dfg(config: &RandomDfgConfig, seed: u64) -> Dfg {
    let mut rng = SplitMix64::new(seed);
    let mut g = Dfg::new(format!("random-{seed}"));
    let mut ids = Vec::with_capacity(config.nodes);
    for i in 0..config.nodes {
        let is_mult = rng.chance(config.mult_fraction);
        let (op, time) = if is_mult {
            (OpKind::Mul, config.mult_steps.max(1))
        } else {
            (OpKind::Add, 1)
        };
        ids.push(g.add_node(format!("n{i}"), op, time));
    }
    for i in 0..config.nodes {
        for j in 0..config.nodes {
            if i < j && rng.chance(config.forward_density) {
                g.add_edge(ids[i], ids[j], 0)
                    .expect("forward edge is valid");
            } else if i != j && rng.chance(config.feedback_density) {
                let d = rng.range_u32(1, config.max_delays.max(1));
                g.add_edge(ids[i], ids[j], d)
                    .expect("delayed edge is valid");
            }
        }
    }
    debug_assert!(g.validate().is_ok());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::analysis::iteration_bound;

    #[test]
    fn generated_graphs_are_valid() {
        for seed in 0..50 {
            let g = random_dfg(&RandomDfgConfig::default(), seed);
            g.validate().unwrap();
            // The iteration bound either exists (cyclic) or not; both
            // must compute without error.
            let _ = iteration_bound(&g).unwrap();
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomDfgConfig::default();
        let a = random_dfg(&cfg, 42);
        let b = random_dfg(&cfg, 42);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a
            .edges()
            .map(|(_, e)| (e.from(), e.to(), e.delays()))
            .collect();
        let eb: Vec<_> = b
            .edges()
            .map(|(_, e)| (e.from(), e.to(), e.delays()))
            .collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn densities_scale_edge_counts() {
        let sparse = random_dfg(
            &RandomDfgConfig {
                forward_density: 0.05,
                ..RandomDfgConfig::default()
            },
            7,
        );
        let dense = random_dfg(
            &RandomDfgConfig {
                forward_density: 0.5,
                ..RandomDfgConfig::default()
            },
            7,
        );
        assert!(dense.edge_count() > sparse.edge_count());
    }

    #[test]
    fn mult_fraction_zero_means_all_adders() {
        let g = random_dfg(
            &RandomDfgConfig {
                mult_fraction: 0.0,
                ..RandomDfgConfig::default()
            },
            3,
        );
        assert_eq!(g.count_op(OpKind::Mul), 0);
    }
}
