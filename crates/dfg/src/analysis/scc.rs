//! Strongly connected components of the full DFG (all edges, regardless of
//! delay count), via an iterative Tarjan algorithm.
//!
//! Cycles — and therefore the iteration bound — live entirely inside SCCs,
//! so the iteration-bound computation and the cycle enumerator both start
//! here. An iterative formulation is used so that deep chains in large
//! random graphs cannot overflow the call stack.

use crate::graph::Dfg;
use crate::ids::NodeId;

/// The strongly connected components of a graph, in reverse topological
/// order (callees before callers), as produced by Tarjan's algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SccDecomposition {
    components: Vec<Vec<NodeId>>,
    component_of: Vec<usize>,
}

impl SccDecomposition {
    /// The components; each inner vector lists the member nodes.
    #[must_use]
    pub fn components(&self) -> &[Vec<NodeId>] {
        &self.components
    }

    /// Index (into [`SccDecomposition::components`]) of the component
    /// containing `v`.
    #[must_use]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.component_of[v.index()]
    }

    /// Components that can contain a cycle: more than one node, or a single
    /// node with a self loop.
    pub fn cyclic_components<'a>(&'a self, dfg: &'a Dfg) -> impl Iterator<Item = &'a Vec<NodeId>> {
        self.components.iter().filter(move |comp| {
            comp.len() > 1
                || dfg
                    .out_edges(comp[0])
                    .iter()
                    .any(|&e| dfg.edge(e).to() == comp[0])
        })
    }
}

/// Computes the strongly connected components of `dfg` considering **all**
/// edges (delays do not break connectivity — they are inter-iteration
/// dependencies, not absences of dependency). The walk runs over the
/// graph's flat CSR view, whose per-node edge order is the insertion
/// order.
#[must_use]
pub fn strongly_connected_components(dfg: &Dfg) -> SccDecomposition {
    const UNVISITED: usize = usize::MAX;
    let csr = dfg.csr();
    let n = csr.node_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0_usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0_usize;
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    let mut component_of = vec![usize::MAX; n];

    // Explicit DFS frames: (vertex, next out-edge position to try).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut edge_pos)) = frames.last_mut() {
            let out = csr.out_range(v);
            if out.start + *edge_pos < out.end {
                let w = csr.out_heads()[out.start + *edge_pos] as usize;
                *edge_pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("SCC stack holds the component");
                        on_stack[w] = false;
                        component_of[w] = components.len();
                        comp.push(NodeId::from_index(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    components.push(comp);
                }
            }
        }
    }

    SccDecomposition {
        components,
        component_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn add_nodes(g: &mut Dfg, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, 1))
            .collect()
    }

    #[test]
    fn two_loops_joined_by_a_bridge() {
        let mut g = Dfg::new("g");
        let v = add_nodes(&mut g, 5);
        // loop A: v0 <-> v1, loop B: v2 -> v3 -> v4 -> v2, bridge v1 -> v2.
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[0], 1).unwrap();
        g.add_edge(v[2], v[3], 0).unwrap();
        g.add_edge(v[3], v[4], 0).unwrap();
        g.add_edge(v[4], v[2], 1).unwrap();
        g.add_edge(v[1], v[2], 0).unwrap();

        let scc = strongly_connected_components(&g);
        assert_eq!(scc.components().len(), 2);
        assert_eq!(scc.component_of(v[0]), scc.component_of(v[1]));
        assert_eq!(scc.component_of(v[2]), scc.component_of(v[4]));
        assert_ne!(scc.component_of(v[1]), scc.component_of(v[2]));
        // Reverse topological order: the downstream loop B comes first.
        assert_eq!(scc.components()[0], vec![v[2], v[3], v[4]]);
    }

    #[test]
    fn acyclic_graph_has_singleton_components() {
        let mut g = Dfg::new("dag");
        let v = add_nodes(&mut g, 3);
        g.add_edge(v[0], v[1], 0).unwrap();
        g.add_edge(v[1], v[2], 0).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.components().len(), 3);
        assert_eq!(scc.cyclic_components(&g).count(), 0);
    }

    #[test]
    fn self_loop_is_a_cyclic_component() {
        let mut g = Dfg::new("self");
        let v = add_nodes(&mut g, 2);
        g.add_edge(v[0], v[0], 1).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.components().len(), 2);
        let cyclic: Vec<_> = scc.cyclic_components(&g).collect();
        assert_eq!(cyclic, vec![&vec![v[0]]]);
    }

    #[test]
    fn delayed_edges_count_for_connectivity() {
        let mut g = Dfg::new("delay");
        let v = add_nodes(&mut g, 2);
        g.add_edge(v[0], v[1], 3).unwrap();
        g.add_edge(v[1], v[0], 2).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.components().len(), 1);
    }

    #[test]
    fn cyclic_components_keep_loops_and_drop_acyclic_singletons() {
        let mut g = Dfg::new("mix");
        let v = add_nodes(&mut g, 4);
        g.add_edge(v[0], v[0], 1).unwrap(); // self loop
        g.add_edge(v[1], v[2], 0).unwrap(); // acyclic pair
        g.add_edge(v[2], v[3], 0).unwrap();
        g.add_edge(v[3], v[2], 1).unwrap(); // two-node loop
        let scc = strongly_connected_components(&g);
        let mut cyclic: Vec<_> = scc.cyclic_components(&g).collect();
        cyclic.sort();
        assert_eq!(cyclic, vec![&vec![v[0]], &vec![v[2], v[3]]]);
        for comp in scc.components() {
            for &u in comp {
                assert_eq!(&scc.components()[scc.component_of(u)], comp);
            }
        }
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut g = Dfg::new("deep");
        let v = add_nodes(&mut g, 50_000);
        for i in 0..v.len() - 1 {
            g.add_edge(v[i], v[i + 1], 0).unwrap();
        }
        g.add_edge(v[v.len() - 1], v[0], 1).unwrap();
        let scc = strongly_connected_components(&g);
        assert_eq!(scc.components().len(), 1);
    }
}
