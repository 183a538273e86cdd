//! The data-flow graph `G = (V, E, d, t)`.

use std::sync::OnceLock;

use crate::csr::CsrGraph;
use crate::edge::Edge;
use crate::error::DfgError;
use crate::ids::{EdgeId, NodeId, NodeMap};
use crate::node::Node;
use crate::op::OpKind;

/// A loop modeled as a data-flow graph (Section 2 of the paper).
///
/// * `V` — computation nodes, each with an operation kind and computation
///   time `t(v)` in control steps ([`Node`]).
/// * `E` — directed precedence edges, each with a delay count `d(e)`
///   ([`Edge`]). An edge `u → v` with `d` delays means `v` at iteration `j`
///   depends on `u` at iteration `j − d`.
///
/// The graph may be cyclic, but every cycle must carry at least one delay:
/// the subgraph of zero-delay edges must be a DAG, which is what a static
/// schedule has to obey. [`Dfg::validate`] checks this.
///
/// Parallel edges are allowed (two values may flow between the same pair of
/// nodes through different numbers of delays); self loops are allowed only
/// with at least one delay.
///
/// # Examples
///
/// ```
/// use rotsched_dfg::{Dfg, OpKind};
///
/// # fn main() -> Result<(), rotsched_dfg::DfgError> {
/// // A two-node recurrence: y[j] = a * y[j-1] + x[j]
/// let mut g = Dfg::new("first-order IIR");
/// let m = g.add_node("a*y", OpKind::Mul, 2);
/// let s = g.add_node("y", OpKind::Add, 1);
/// g.add_edge(m, s, 0)?; // product used in the same iteration
/// g.add_edge(s, m, 1)?; // y fed back through one register
/// g.validate()?;
/// assert_eq!(g.node_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Dfg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    inn: Vec<Vec<EdgeId>>,
    /// Lazily built flattened adjacency ([`Dfg::csr`]); reset on mutation.
    csr: OnceLock<CsrGraph>,
    /// Lazily computed structure hash ([`Dfg::structure_fingerprint`]);
    /// reset on any mutation, including [`Dfg::node_mut`].
    fingerprint: OnceLock<u64>,
}

// The CSR cache is derived state: two graphs are equal iff their logical
// content is, regardless of which of them has materialized the view.
impl PartialEq for Dfg {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Eq for Dfg {}

impl Dfg {
    /// Creates an empty graph with a human-readable name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Dfg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            inn: Vec::new(),
            csr: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The graph's name (used in reports and DOT output).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a computation node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, op: OpKind, time: u32) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node::new(name, op, time));
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.csr = OnceLock::new();
        self.fingerprint = OnceLock::new();
        id
    }

    /// Adds a precedence edge with `delays` delays and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::UnknownNode`] if either endpoint does not exist,
    /// and [`DfgError::ZeroDelaySelfLoop`] for a self loop with zero delays
    /// (a node cannot precede itself within one iteration).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, delays: u32) -> Result<EdgeId, DfgError> {
        for endpoint in [from, to] {
            if endpoint.index() >= self.nodes.len() {
                return Err(DfgError::UnknownNode {
                    node: endpoint,
                    node_count: self.nodes.len(),
                });
            }
        }
        if from == to && delays == 0 {
            return Err(DfgError::ZeroDelaySelfLoop { node: from });
        }
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Edge::new(from, to, delays));
        self.out[from.index()].push(id);
        self.inn[to.index()].push(id);
        self.csr = OnceLock::new();
        self.fingerprint = OnceLock::new();
        Ok(id)
    }

    /// Number of nodes `|V|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges `|E|`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Borrows a node's data.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutably borrows a node's data (e.g. to change its computation time
    /// under a different timing model).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        // Node data (op kind, time) feeds both the structure
        // fingerprint and the CSR view's node-time arrays.
        self.fingerprint = OnceLock::new();
        self.csr = OnceLock::new();
        &mut self.nodes[id.index()]
    }

    /// Borrows an edge's data.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over `(NodeId, &Node)` pairs in index order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates over all edge ids in index order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterates over `(EdgeId, &Edge)` pairs in index order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::from_index(i), e))
    }

    /// Ids of the edges leaving `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    #[must_use]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out[v.index()]
    }

    /// Ids of the edges entering `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    #[must_use]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.inn[v.index()]
    }

    /// The flattened CSR adjacency view, built on first use and cached
    /// until the next mutation.
    ///
    /// Traversal-heavy passes should iterate this instead of
    /// [`Dfg::out_edges`]/[`Dfg::in_edges`]: the per-node edge lists are
    /// contiguous in one allocation, so a whole-graph sweep touches two
    /// flat arrays instead of `|V|` separate vectors.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        self.csr.get_or_init(|| CsrGraph::build(self))
    }

    /// A deterministic 64-bit hash of the graph's scheduling-relevant
    /// structure: every node's `(op, time)` and every edge's
    /// `(from, to, delays)`, in index order. Names are excluded.
    ///
    /// Computed on first use and cached until the next mutation. Lookups
    /// keyed by graph content (e.g. `solve_batch`'s deduplication) combine
    /// this with their own derived state instead of hashing the whole
    /// graph on every probe.
    #[must_use]
    pub fn structure_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = crate::rng::Fnv64::new();
            h.write_u64(self.nodes.len() as u64);
            for node in &self.nodes {
                h.write_u8(node.op() as u8);
                h.write_u32(node.time());
            }
            h.write_u64(self.edges.len() as u64);
            for edge in &self.edges {
                h.write_u32(edge.from().index() as u32);
                h.write_u32(edge.to().index() as u32);
                h.write_u32(edge.delays());
            }
            h.finish()
        })
    }

    /// Sum of all node computation times (used for resource lower bounds).
    #[must_use]
    pub fn total_time(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.time())).sum()
    }

    /// Sum of all edge delays (registers in the loop).
    #[must_use]
    pub fn total_delays(&self) -> u64 {
        self.edges.iter().map(|e| u64::from(e.delays())).sum()
    }

    /// Maximum computation time over all nodes.
    #[must_use]
    pub fn max_node_time(&self) -> u32 {
        self.nodes.iter().map(Node::time).max().unwrap_or(0)
    }

    /// Creates a fresh [`NodeMap`] with one entry per node.
    #[must_use]
    pub fn node_map<T: Clone>(&self, value: T) -> NodeMap<T> {
        NodeMap::filled(self.nodes.len(), value)
    }

    /// Checks the structural invariants required for scheduling:
    ///
    /// * every node has a positive computation time;
    /// * the subgraph of zero-delay edges is a DAG.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::ZeroTimeNode`] or [`DfgError::ZeroDelayCycle`].
    pub fn validate(&self) -> Result<(), DfgError> {
        for (id, node) in self.nodes() {
            if node.time() == 0 {
                return Err(DfgError::ZeroTimeNode { node: id });
            }
        }
        crate::analysis::topo::zero_delay_topological_order(self, None).map(|_| ())
    }

    /// Looks a node up by its human-readable name. Linear scan; intended
    /// for tests and example code, not inner loops.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes()
            .find(|(_, n)| n.name() == name)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_loop() -> (Dfg, NodeId, NodeId) {
        let mut g = Dfg::new("loop");
        let a = g.add_node("a", OpKind::Mul, 2);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 1).unwrap();
        (g, a, b)
    }

    #[test]
    fn counts_and_totals() {
        let (g, _, _) = two_node_loop();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.total_time(), 3);
        assert_eq!(g.total_delays(), 1);
        assert_eq!(g.max_node_time(), 2);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, a, b) = two_node_loop();
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(a).len(), 1);
        let e = g.edge(g.out_edges(a)[0]);
        assert_eq!(e.from(), a);
        assert_eq!(e.to(), b);
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_node("a", OpKind::Add, 1);
        let ghost = NodeId::from_index(5);
        assert!(matches!(
            g.add_edge(a, ghost, 0),
            Err(DfgError::UnknownNode { .. })
        ));
    }

    #[test]
    fn zero_delay_self_loop_rejected() {
        let mut g = Dfg::new("g");
        let a = g.add_node("a", OpKind::Add, 1);
        assert!(matches!(
            g.add_edge(a, a, 0),
            Err(DfgError::ZeroDelaySelfLoop { .. })
        ));
        // With a delay the self loop is a fine recurrence.
        assert!(g.add_edge(a, a, 1).is_ok());
    }

    #[test]
    fn validate_accepts_legal_loop() {
        let (g, _, _) = two_node_loop();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_delay_cycle() {
        let mut g = Dfg::new("g");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, a, 0).unwrap();
        assert!(matches!(g.validate(), Err(DfgError::ZeroDelayCycle { .. })));
    }

    #[test]
    fn validate_rejects_zero_time_node() {
        let mut g = Dfg::new("g");
        g.add_node("a", OpKind::Add, 0);
        assert!(matches!(g.validate(), Err(DfgError::ZeroTimeNode { .. })));
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Dfg::new("g");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, b, 2).unwrap();
        assert_eq!(g.out_edges(a).len(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn node_by_name_finds_node() {
        let (g, a, _) = two_node_loop();
        assert_eq!(g.node_by_name("a"), Some(a));
        assert_eq!(g.node_by_name("zzz"), None);
    }
}
