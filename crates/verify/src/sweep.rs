//! Kahn sweeps, and the graph facts one verifier call derives from them
//! once and shares among its readers.
//!
//! The **zero-delay sweep** is one Kahn pass over the unretimed
//! zero-delay subgraph. It answers two questions at once: whether a
//! zero-delay cycle exists (lint `E001`, the recurrence bound's guard,
//! the critical-cycle pass's guard) and how long each node's longest
//! zero-delay chain is (lint `W003`). The **full-graph sweep** runs the
//! same pass over every edge; it answers whether the graph has any
//! cycle at all (the guard of lint's iteration-boundary pass, and the
//! report's `acyclic` flag under an illegal retiming) wherever the
//! analysis' critical-cycle search has not already answered it.

use std::cell::OnceCell;

use rotsched_dfg::{CsrGraph, Dfg};

/// The outcome of one Kahn pass over a subgraph, forward along its
/// edges or backward against them.
#[derive(Debug)]
pub(crate) struct Sweep {
    /// Whether the pass ordered each node. The rest lie on a cycle of
    /// the subgraph, or after one in the sweep's direction.
    pub(crate) ordered: Vec<bool>,
    /// Per node: the total computation time of the longest subgraph
    /// path ending at it (starting at it, swept backward). Exact for
    /// ordered nodes.
    pub(crate) depth: Vec<u64>,
    stuck: usize,
}

impl Sweep {
    /// The forward pass over the zero-delay edges.
    pub(crate) fn zero_delay(dfg: &Dfg) -> Self {
        Sweep::run(dfg, true, true)
    }

    /// One Kahn pass over the zero-delay edges, or over every edge when
    /// `zero_delay_only` is false, along the edges when `forward`.
    pub(crate) fn run(dfg: &Dfg, forward: bool, zero_delay_only: bool) -> Self {
        let csr = dfg.csr();
        let range = if forward {
            CsrGraph::out_range
        } else {
            CsrGraph::in_range
        };
        let (heads, delays) = if forward {
            (csr.out_heads(), csr.out_delays())
        } else {
            (csr.in_tails(), csr.in_delays())
        };
        // The nodes one swept edge away from `v`.
        let next = |v| {
            range(csr, v)
                .filter(|&i| !zero_delay_only || delays[i] == 0)
                .map(|i| heads[i] as usize)
        };
        let n = csr.node_count();
        let mut degree = vec![0_usize; n];
        for w in (0..n).flat_map(next) {
            degree[w] += 1;
        }
        let times: Vec<u64> = dfg
            .nodes()
            .map(|(_, node)| u64::from(node.time()))
            .collect();
        let mut depth = times.clone();
        let mut ordered = vec![false; n];
        let mut stuck = n;
        let mut queue: Vec<usize> = (0..n).filter(|&v| degree[v] == 0).collect();
        while let Some(v) = queue.pop() {
            ordered[v] = true;
            stuck -= 1;
            for w in next(v) {
                depth[w] = depth[w].max(depth[v] + times[w]);
                degree[w] -= 1;
                if degree[w] == 0 {
                    queue.push(w);
                }
            }
        }
        Sweep {
            ordered,
            depth,
            stuck,
        }
    }

    /// Whether the swept subgraph has a cycle (some node stayed
    /// unordered).
    pub(crate) fn is_cyclic(&self) -> bool {
        self.stuck > 0
    }
}

/// The sweeps of one graph, each run on first use and then shared: one
/// `analyze` call hands its facts to the lint it ends with, and a
/// standalone `lint` shares one set among its passes.
#[derive(Debug)]
pub(crate) struct GraphFacts<'a> {
    dfg: &'a Dfg,
    zero_delay: OnceCell<Sweep>,
    cyclic: OnceCell<bool>,
}

impl<'a> GraphFacts<'a> {
    pub(crate) fn new(dfg: &'a Dfg) -> Self {
        GraphFacts {
            dfg,
            zero_delay: OnceCell::new(),
            cyclic: OnceCell::new(),
        }
    }

    /// The forward zero-delay sweep.
    pub(crate) fn zero_delay(&self) -> &Sweep {
        self.zero_delay.get_or_init(|| Sweep::zero_delay(self.dfg))
    }

    /// Whether the full graph (all edges, delays included) has any
    /// cycle: the full-graph sweep's answer, unless a pass that knows
    /// it recorded it first.
    pub(crate) fn has_cycle(&self) -> bool {
        *self
            .cyclic
            .get_or_init(|| Sweep::run(self.dfg, true, false).is_cyclic())
    }

    /// Records whether the graph has a cycle, as a pass found without
    /// the sweep. The first answer stays; every source gives the same.
    pub(crate) fn set_cyclic(&self, cyclic: bool) {
        let _ = self.cyclic.set(cyclic);
        debug_assert_eq!(self.cyclic.get(), Some(&cyclic));
    }
}
