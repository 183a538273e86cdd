//! A compressed-sparse-row (CSR) view of a [`Dfg`]'s adjacency.
//!
//! [`Dfg`] stores adjacency as `Vec<Vec<EdgeId>>`, which is convenient to
//! build incrementally but costs a pointer chase per node on every
//! traversal. The analysis passes (`topo`, `critical_path`, the
//! Bellman–Ford constraint solver) and the rotation hot path walk the
//! whole graph thousands of times per rotation search, so
//! [`Dfg::csr`](crate::Dfg::csr) exposes a flattened structure-of-arrays
//! view: all out-edge ids in one contiguous array indexed by a per-node
//! offset table, the same for in-edges, plus parallel arrays carrying the
//! data those traversals actually read — neighbor node indices, edge
//! delays, edge endpoints, and node computation times. A hot loop can
//! then run entirely over flat `u32` slices without touching
//! [`Dfg::edge`](crate::Dfg::edge) or [`Dfg::node`](crate::Dfg::node).
//! The view is built lazily on first use and cached inside the graph;
//! any mutation (adding a node or edge, or editing a node) invalidates
//! it.
//!
//! Per-node edge lists keep their **insertion order**, which is what
//! makes re-pointing a consumer from `Vec<Vec<EdgeId>>` iteration at
//! these arrays a bit-identical transformation.

use crate::graph::Dfg;
use crate::ids::{EdgeId, NodeId};

/// Flattened structure-of-arrays adjacency of a [`Dfg`], in
/// edge-insertion order per node.
///
/// Obtain one with [`Dfg::csr`](crate::Dfg::csr); it stays valid until
/// the graph is next mutated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    out_offsets: Vec<u32>,
    out_edges: Vec<EdgeId>,
    /// Head (target) node index of `out_edges[i]`.
    out_heads: Vec<u32>,
    /// Delay count of `out_edges[i]`.
    out_delays: Vec<u32>,
    in_offsets: Vec<u32>,
    in_edges: Vec<EdgeId>,
    /// Tail (source) node index of `in_edges[i]`.
    in_tails: Vec<u32>,
    /// Delay count of `in_edges[i]`.
    in_delays: Vec<u32>,
    /// Per-edge source node index, indexed by `EdgeId::index()`.
    edge_from: Vec<u32>,
    /// Per-edge target node index, indexed by `EdgeId::index()`.
    edge_to: Vec<u32>,
    /// Per-edge delay count, indexed by `EdgeId::index()`.
    edge_delays: Vec<u32>,
    /// Per-node occupancy, [`Node::steps`](crate::Node::steps), indexed by
    /// `NodeId::index()`.
    times: Vec<u32>,
}

impl CsrGraph {
    /// Builds the view by flattening `dfg`'s adjacency lists and node
    /// and edge attributes.
    #[must_use]
    pub fn build(dfg: &Dfg) -> Self {
        let n = dfg.node_count();
        let m = dfg.edge_count();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_edges = Vec::with_capacity(m);
        let mut out_heads = Vec::with_capacity(m);
        let mut out_delays = Vec::with_capacity(m);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_edges = Vec::with_capacity(m);
        let mut in_tails = Vec::with_capacity(m);
        let mut in_delays = Vec::with_capacity(m);
        out_offsets.push(0);
        in_offsets.push(0);
        for v in dfg.node_ids() {
            for &e in dfg.out_edges(v) {
                let edge = dfg.edge(e);
                out_edges.push(e);
                out_heads.push(edge.to().index() as u32);
                out_delays.push(edge.delays());
            }
            out_offsets.push(u32::try_from(out_edges.len()).expect("edge count fits in u32"));
            for &e in dfg.in_edges(v) {
                let edge = dfg.edge(e);
                in_edges.push(e);
                in_tails.push(edge.from().index() as u32);
                in_delays.push(edge.delays());
            }
            in_offsets.push(u32::try_from(in_edges.len()).expect("edge count fits in u32"));
        }
        let mut edge_from = Vec::with_capacity(m);
        let mut edge_to = Vec::with_capacity(m);
        let mut edge_delays = Vec::with_capacity(m);
        for (_, edge) in dfg.edges() {
            edge_from.push(edge.from().index() as u32);
            edge_to.push(edge.to().index() as u32);
            edge_delays.push(edge.delays());
        }
        let times = dfg.nodes().map(|(_, node)| node.steps()).collect();
        CsrGraph {
            out_offsets,
            out_edges,
            out_heads,
            out_delays,
            in_offsets,
            in_edges,
            in_tails,
            in_delays,
            edge_from,
            edge_to,
            edge_delays,
            times,
        }
    }

    /// Ids of the edges leaving `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the graph the view was built from.
    #[must_use]
    pub fn out(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Ids of the edges entering `v`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the graph the view was built from.
    #[must_use]
    pub fn inn(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// The half-open `out_edges`-array index range of `v`'s out-edges.
    /// Indexing `out_edge_ids()`, `out_heads()`, and `out_delays()` with
    /// positions from this range yields `v`'s edges in insertion order.
    #[must_use]
    pub fn out_range(&self, v: usize) -> core::ops::Range<usize> {
        self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize
    }

    /// The half-open `in_edges`-array index range of `v`'s in-edges.
    #[must_use]
    pub fn in_range(&self, v: usize) -> core::ops::Range<usize> {
        self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize
    }

    /// Out-edge ids parallel to [`CsrGraph::out_range`] positions.
    #[must_use]
    pub fn out_edge_ids(&self) -> &[EdgeId] {
        &self.out_edges
    }

    /// Head (target) node index of each flattened out-edge.
    #[must_use]
    pub fn out_heads(&self) -> &[u32] {
        &self.out_heads
    }

    /// Delay count of each flattened out-edge.
    #[must_use]
    pub fn out_delays(&self) -> &[u32] {
        &self.out_delays
    }

    /// In-edge ids parallel to [`CsrGraph::in_range`] positions.
    #[must_use]
    pub fn in_edge_ids(&self) -> &[EdgeId] {
        &self.in_edges
    }

    /// Tail (source) node index of each flattened in-edge.
    #[must_use]
    pub fn in_tails(&self) -> &[u32] {
        &self.in_tails
    }

    /// Delay count of each flattened in-edge.
    #[must_use]
    pub fn in_delays(&self) -> &[u32] {
        &self.in_delays
    }

    /// Per-edge source node index, indexed by `EdgeId::index()`.
    #[must_use]
    pub fn edge_from(&self) -> &[u32] {
        &self.edge_from
    }

    /// Per-edge target node index, indexed by `EdgeId::index()`.
    #[must_use]
    pub fn edge_to(&self) -> &[u32] {
        &self.edge_to
    }

    /// Per-edge delay count, indexed by `EdgeId::index()`.
    #[must_use]
    pub fn edge_delays(&self) -> &[u32] {
        &self.edge_delays
    }

    /// Per-node occupancy in control steps, `dfg.node(v).steps()`.
    #[must_use]
    pub fn times(&self) -> &[u32] {
        &self.times
    }

    /// Number of nodes the view covers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of edges the view covers.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_from.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn diamond() -> Dfg {
        let mut g = Dfg::new("diamond");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        let c = g.add_node("c", OpKind::Mul, 2);
        let d = g.add_node("d", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, c, 0).unwrap();
        g.add_edge(b, d, 0).unwrap();
        g.add_edge(c, d, 0).unwrap();
        g.add_edge(d, a, 2).unwrap();
        g
    }

    #[test]
    fn csr_matches_vec_adjacency() {
        let g = diamond();
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.node_count(), g.node_count());
        for v in g.node_ids() {
            assert_eq!(csr.out(v), g.out_edges(v), "out of {v}");
            assert_eq!(csr.inn(v), g.in_edges(v), "in of {v}");
        }
    }

    #[test]
    fn soa_arrays_mirror_edge_and_node_data() {
        let g = diamond();
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.edge_count(), g.edge_count());
        for (e, edge) in g.edges() {
            assert_eq!(csr.edge_from()[e.index()], edge.from().index() as u32);
            assert_eq!(csr.edge_to()[e.index()], edge.to().index() as u32);
            assert_eq!(csr.edge_delays()[e.index()], edge.delays());
        }
        for (v, node) in g.nodes() {
            assert_eq!(csr.times()[v.index()], node.steps());
        }
        for v in g.node_ids() {
            for i in csr.out_range(v.index()) {
                let e = csr.out_edge_ids()[i];
                assert_eq!(csr.out_heads()[i], g.edge(e).to().index() as u32);
                assert_eq!(csr.out_delays()[i], g.edge(e).delays());
            }
            for i in csr.in_range(v.index()) {
                let e = csr.in_edge_ids()[i];
                assert_eq!(csr.in_tails()[i], g.edge(e).from().index() as u32);
                assert_eq!(csr.in_delays()[i], g.edge(e).delays());
            }
        }
    }

    #[test]
    fn cached_view_invalidated_on_mutation() {
        let mut g = diamond();
        let before = g.csr().out(crate::NodeId::from_index(0)).len();
        let a = crate::NodeId::from_index(0);
        let d = crate::NodeId::from_index(3);
        g.add_edge(a, d, 1).unwrap();
        let after = g.csr().out(a).len();
        assert_eq!(after, before + 1, "cache rebuilt after add_edge");
        for v in g.node_ids() {
            assert_eq!(g.csr().out(v), g.out_edges(v));
            assert_eq!(g.csr().inn(v), g.in_edges(v));
        }
    }

    #[test]
    fn cached_view_invalidated_on_node_edit() {
        let mut g = diamond();
        let a = crate::NodeId::from_index(0);
        assert_eq!(g.csr().times()[a.index()], 1);
        g.node_mut(a).set_time(4);
        assert_eq!(g.csr().times()[a.index()], 4, "cache rebuilt");
    }

    #[test]
    fn cached_view_tracks_added_nodes() {
        let mut g = diamond();
        let _ = g.csr();
        let e = g.add_node("e", OpKind::Add, 1);
        assert_eq!(g.csr().node_count(), 5);
        assert!(g.csr().out(e).is_empty());
        assert!(g.csr().inn(e).is_empty());
    }

    #[test]
    fn empty_graph_has_empty_view() {
        let g = Dfg::new("empty");
        let csr = CsrGraph::build(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.out_edges.is_empty());
    }

    #[test]
    fn flat_out_edges_group_by_tail() {
        let g = diamond();
        let csr = CsrGraph::build(&g);
        let mut expected = Vec::new();
        for v in g.node_ids() {
            expected.extend_from_slice(g.out_edges(v));
        }
        assert_eq!(csr.out_edges, expected);
    }
}
