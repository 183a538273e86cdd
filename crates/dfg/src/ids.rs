//! Typed identifiers for nodes and edges of a [`Dfg`](crate::Dfg).
//!
//! Both identifiers are plain indices wrapped in newtypes so that a node
//! index can never be confused with an edge index (C-NEWTYPE). They are
//! `Copy` and cheap to pass around; all collections in this crate are indexed
//! densely by them.

use core::fmt;

/// Identifier of a computation node in a [`Dfg`](crate::Dfg).
///
/// Node ids are dense indices assigned in insertion order, starting at 0.
/// They are only meaningful relative to the graph that created them.
///
/// # Examples
///
/// ```
/// use rotsched_dfg::{Dfg, OpKind};
///
/// let mut g = Dfg::new("example");
/// let a = g.add_node("a", OpKind::Add, 1);
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests and when deserializing externally produced
    /// data; ids obtained this way must refer to an existing node of the
    /// graph they are used with.
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the underlying dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a precedence edge in a [`Dfg`](crate::Dfg).
///
/// Edge ids are dense indices assigned in insertion order, starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        EdgeId(index as u32)
    }

    /// Returns the underlying dense index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A dense map from [`NodeId`] to `T`, backed by a `Vec`.
///
/// This is the workhorse container for per-node attributes (retiming values,
/// schedule slots, priorities, …). Indexing with a node of a *different*
/// graph of the same size is not detectable; keep maps next to the graph
/// they belong to.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NodeMap<T> {
    values: Vec<T>,
}

impl<T> NodeMap<T> {
    /// Creates a map with `len` entries, each initialized to `value`.
    #[must_use]
    pub fn filled(len: usize, value: T) -> Self
    where
        T: Clone,
    {
        NodeMap {
            values: vec![value; len],
        }
    }

    /// Creates a map from a raw vector whose index `i` corresponds to the
    /// node with index `i`.
    #[must_use]
    pub fn from_vec(values: Vec<T>) -> Self {
        NodeMap { values }
    }

    /// Number of entries (equals the node count of the owning graph).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(NodeId, &T)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (NodeId::from_index(i), v))
    }

    /// Iterates over the values in index order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.values.iter()
    }

    /// Mutable iteration over the values in index order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.values.iter_mut()
    }

    /// Borrows the raw vector.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }
}

impl<T> core::ops::Index<NodeId> for NodeMap<T> {
    type Output = T;

    fn index(&self, id: NodeId) -> &T {
        &self.values[id.index()]
    }
}

impl<T> core::ops::IndexMut<NodeId> for NodeMap<T> {
    fn index_mut(&mut self, id: NodeId) -> &mut T {
        &mut self.values[id.index()]
    }
}

impl<T: fmt::Debug> fmt::Debug for NodeMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "n7");
        assert_eq!(format!("{id:?}"), "n7");
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::from_index(3);
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "e3");
    }

    #[test]
    fn node_ids_order_by_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }

    #[test]
    fn node_map_fill_and_index() {
        let mut m = NodeMap::filled(3, 0_i64);
        m[NodeId::from_index(1)] = 5;
        assert_eq!(m[NodeId::from_index(0)], 0);
        assert_eq!(m[NodeId::from_index(1)], 5);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn node_map_iter_pairs() {
        let m = NodeMap::from_vec(vec![10, 20]);
        let pairs: Vec<_> = m.iter().map(|(id, v)| (id.index(), *v)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20)]);
    }
}
