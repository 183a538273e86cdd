//! Retiming functions (Leiserson–Saxe, with the paper's sign convention).
//!
//! A retiming `r` maps each node to an integer. Following the paper
//! (footnote 1 of Section 2), `r(v)` is **positive when delays are pushed
//! through `v` along the direction of its edges** — from the incoming edges
//! to the outgoing edges. The retimed delay of an edge `e: u → v` is
//!
//! ```text
//! d_r(e) = d(e) + r(u) − r(v)
//! ```
//!
//! (the opposite sign from Leiserson & Saxe's original formulation, which
//! the authors argue is more natural for loop scheduling). A retiming is
//! *legal* when every retimed delay is non-negative.
//!
//! Rotation scheduling never materializes the retimed graph `G_r`; the
//! retiming function itself is the state of a rotation sequence, and
//! precedence in `G_r` is read off via [`Retiming::retimed_delay`].

use core::fmt;

use crate::error::DfgError;
use crate::graph::Dfg;
use crate::ids::{EdgeId, NodeId, NodeMap};

/// A retiming (node-labeling) function `r : V → ℤ`.
///
/// # Examples
///
/// Rotating the root of a small chain down turns it into a leaf:
///
/// ```
/// use rotsched_dfg::{Dfg, OpKind, Retiming};
///
/// # fn main() -> Result<(), rotsched_dfg::DfgError> {
/// let mut g = Dfg::new("chain");
/// let a = g.add_node("a", OpKind::Add, 1);
/// let b = g.add_node("b", OpKind::Add, 1);
/// g.add_edge(a, b, 0)?;
/// g.add_edge(b, a, 1)?; // feedback register
///
/// let r = Retiming::from_set(&g, [a]);
/// assert!(r.is_legal(&g));
/// // a -> b gains a delay, b -> a loses one:
/// let ab = g.out_edges(a)[0];
/// let ba = g.out_edges(b)[0];
/// assert_eq!(r.retimed_delay(&g, ab), 1);
/// assert_eq!(r.retimed_delay(&g, ba), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Retiming {
    values: NodeMap<i64>,
}

impl Retiming {
    /// The zero retiming for `dfg`: `G_r = G`.
    #[must_use]
    pub fn zero(dfg: &Dfg) -> Self {
        Retiming {
            values: dfg.node_map(0),
        }
    }

    /// The 0–1 retiming that is the indicator of a node set `X` — the
    /// retiming performed by one *down-rotation* of `X` (Definition 1).
    #[must_use]
    pub fn from_set<I: IntoIterator<Item = NodeId>>(dfg: &Dfg, set: I) -> Self {
        let mut r = Retiming::zero(dfg);
        for v in set {
            r.values[v] = 1;
        }
        r
    }

    /// Builds a retiming from raw per-node values (index order).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the graph's node count.
    #[must_use]
    pub fn from_values(dfg: &Dfg, values: Vec<i64>) -> Self {
        assert_eq!(
            values.len(),
            dfg.node_count(),
            "retiming must assign a value to every node"
        );
        Retiming {
            values: NodeMap::from_vec(values),
        }
    }

    /// The value `r(v)`.
    #[must_use]
    pub fn of(&self, v: NodeId) -> i64 {
        self.values[v]
    }

    /// Sets `r(v)`.
    pub fn set(&mut self, v: NodeId, value: i64) {
        self.values[v] = value;
    }

    /// Adds `delta` to `r(v)`. A down-rotation of a set increments each of
    /// its members by one.
    pub fn add(&mut self, v: NodeId, delta: i64) {
        self.values[v] += delta;
    }

    /// Number of nodes this retiming covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` for the retiming of an empty graph.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The retimed delay `d_r(e) = d(e) + r(u) − r(v)`, by
    /// [`Retiming::shift_delay`]: exact wherever it fits `i64`, clamped
    /// to the range otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `e` does not belong to `dfg` or the retiming was built for
    /// a graph with a different node count.
    #[must_use]
    pub fn retimed_delay(&self, dfg: &Dfg, e: EdgeId) -> i64 {
        let edge = dfg.edge(e);
        Retiming::shift_delay(
            edge.delays(),
            self.values[edge.from()],
            self.values[edge.to()],
        )
    }

    /// `d + r_from − r_to`: the retimed delay of an edge carrying `d`
    /// delays from a node retimed by `r_from` to one retimed by `r_to`.
    /// The sum is exact in `i128` and only the result clamps to the
    /// `i64` range, so every retimed delay that fits is exact and every
    /// cycle of in-range delays keeps its sum `Σ_C d_r = Σ_C d`. The one
    /// rule for every layer that retimes a delay: certify, lint and the
    /// analysis' traversal cache all call it.
    #[must_use]
    pub fn shift_delay(d: u32, r_from: i64, r_to: i64) -> i64 {
        let exact = i128::from(d) + i128::from(r_from) - i128::from(r_to);
        i64::try_from(exact).unwrap_or(if exact < 0 { i64::MIN } else { i64::MAX })
    }

    /// Whether every retimed delay is non-negative (legality).
    #[must_use]
    pub fn is_legal(&self, dfg: &Dfg) -> bool {
        self.check_legal(dfg).is_ok()
    }

    /// Checks legality, reporting the first violated edge.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::IllegalRetiming`] naming an edge whose retimed
    /// delay is negative.
    pub fn check_legal(&self, dfg: &Dfg) -> Result<(), DfgError> {
        for (id, edge) in dfg.edges() {
            let dr = self.retimed_delay(dfg, id);
            if dr < 0 {
                return Err(DfgError::IllegalRetiming {
                    from: edge.from(),
                    to: edge.to(),
                    retimed_delay: dr,
                });
            }
        }
        Ok(())
    }

    /// Adds `delta` to `r(v)` for every node of `set` **in place** — the
    /// delta form of composing with the indicator retiming of `set`
    /// scaled by `delta`. `apply_set(set, 1)` is one down-rotation of
    /// `set`, `apply_set(set, -1)` one up-rotation; both are equivalent
    /// to (but allocation-free compared with)
    /// `self.compose(&Retiming::from_set(dfg, set))` and its inverse.
    ///
    /// Rotation's hot loop uses this so that no `Retiming` is allocated
    /// per step; [`Retiming::undo_set`] rolls a speculative application
    /// back exactly.
    pub fn apply_set(&mut self, set: &[NodeId], delta: i64) {
        for &v in set {
            self.values[v] += delta;
        }
    }

    /// Rolls back a previous `apply_set(set, delta)` call — the exact
    /// inverse, for speculative legality probes (apply, check, roll
    /// back) without cloning the retiming.
    pub fn undo_set(&mut self, set: &[NodeId], delta: i64) {
        self.apply_set(set, -delta);
    }

    /// The raw retiming values as a flat slice indexed by
    /// `NodeId::index()` — the structure-of-arrays view the hot path
    /// combines with [`CsrGraph`](crate::CsrGraph) edge arrays to test
    /// `d(e) + r(u) − r(v) == 0` without touching edge objects.
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        self.values.as_slice()
    }

    /// Composition `r1 ∘ r2 (v) = r1(v) + r2(v)` — the combined effect of
    /// performing both retimings (the composite of a sequence of rotations
    /// is the composite of the retimings of the rotated sets).
    ///
    /// Each sum saturates at the `i64` range.
    ///
    /// # Panics
    ///
    /// Panics if the two retimings cover different node counts.
    #[must_use]
    pub fn compose(&self, other: &Retiming) -> Retiming {
        assert_eq!(self.len(), other.len(), "retimings cover different graphs");
        let values = self
            .values
            .values()
            .zip(other.values.values())
            .map(|(a, b)| a.saturating_add(*b))
            .collect();
        Retiming {
            values: NodeMap::from_vec(values),
        }
    }

    /// Minimum value over all nodes (0 for a normalized retiming).
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    #[must_use]
    pub fn min_value(&self) -> i64 {
        self.values
            .values()
            .copied()
            .min()
            .expect("retiming of an empty graph has no minimum")
    }

    /// Maximum value over all nodes.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    #[must_use]
    pub fn max_value(&self) -> i64 {
        self.values
            .values()
            .copied()
            .max()
            .expect("retiming of an empty graph has no maximum")
    }

    /// Whether `min_v r(v) = 0` (the paper considers only normalized
    /// retiming functions without loss of generality).
    #[must_use]
    pub fn is_normalized(&self) -> bool {
        self.is_empty() || self.min_value() == 0
    }

    /// Returns the normalized retiming `r'(v) = r(v) − min_u r(u)`, which
    /// retimes `G` to the same graph. A value whose distance from the
    /// minimum passes `i64::MAX` saturates there.
    #[must_use]
    pub fn to_normalized(&self) -> Retiming {
        if self.is_empty() {
            return self.clone();
        }
        let min = self.min_value();
        let values = self
            .values
            .values()
            .map(|v| v.saturating_sub(min))
            .collect();
        Retiming {
            values: NodeMap::from_vec(values),
        }
    }

    /// The depth of the loop pipeline represented by this retiming
    /// (Property 2): `1 + max_v r(v) − min_v r(v)`, computed in `i128`
    /// and clamped at `u32::MAX` for a spread past the `u32` range — the
    /// certificate's rule, so a claimed depth and code size re-derive
    /// exactly on any retiming.
    ///
    /// A retiming with depth `p` produces a pipeline with `p` stages; nodes
    /// with equal `r` belong to the same stage.
    ///
    /// # Panics
    ///
    /// Panics on an empty graph.
    #[must_use]
    pub fn depth(&self) -> u32 {
        let spread = i128::from(self.max_value()) - i128::from(self.min_value());
        u32::try_from(spread + 1).unwrap_or(u32::MAX)
    }

    /// Groups nodes into pipeline stages, **earliest stage first**: the
    /// nodes with the largest `r` form the first stage (they come from the
    /// most future iteration and appear first in the prologue).
    ///
    /// # Panics
    ///
    /// Panics when the depth `1 + max_v r(v) − min_v r(v)` passes
    /// `u32::MAX`, the spread [`Retiming::depth`] clamps: one stage per
    /// level would not fit in memory. A search's retimings stay far
    /// inside that range.
    #[must_use]
    pub fn stages(&self) -> Vec<Vec<NodeId>> {
        if self.is_empty() {
            return Vec::new();
        }
        let (min, max) = (self.min_value(), self.max_value());
        let depth = u32::try_from(i128::from(max) - i128::from(min) + 1)
            .expect("a retiming's stages are at most u32::MAX deep");
        let mut stages = vec![Vec::new(); depth as usize];
        for (id, &r) in self.values.iter() {
            // `0 ≤ max − r < depth ≤ u32::MAX`.
            stages[max.abs_diff(r) as usize].push(id);
        }
        stages
    }

    /// Iterates over `(NodeId, r(v))` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, i64)> + '_ {
        self.values.iter().map(|(id, &v)| (id, v))
    }
}

impl fmt::Debug for Retiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.values.iter().map(|(id, v)| (id, *v)))
            .finish()
    }
}

impl fmt::Display for Retiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{{")?;
        let mut first = true;
        for (id, v) in self.iter().filter(|&(_, v)| v != 0) {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{id}={v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    /// Figure 1's rotatability examples use this shape: a root feeding two
    /// chains that close through delays.
    fn diamond() -> (Dfg, Vec<NodeId>) {
        let mut g = Dfg::new("diamond");
        let ids: Vec<NodeId> = (0..4)
            .map(|i| g.add_node(format!("v{i}"), OpKind::Add, 1))
            .collect();
        g.add_edge(ids[0], ids[1], 0).unwrap();
        g.add_edge(ids[0], ids[2], 0).unwrap();
        g.add_edge(ids[1], ids[3], 0).unwrap();
        g.add_edge(ids[2], ids[3], 0).unwrap();
        g.add_edge(ids[3], ids[0], 2).unwrap();
        (g, ids)
    }

    #[test]
    fn zero_retiming_is_identity() {
        let (g, _) = diamond();
        let r = Retiming::zero(&g);
        for (id, e) in g.edges() {
            assert_eq!(r.retimed_delay(&g, id), i64::from(e.delays()));
        }
        assert!(r.is_legal(&g));
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn retimed_delay_saturates_past_the_i64_range() {
        // The minimal reproducer: `r(a) = i64::MAX`, `r(b) = −1` over
        // `a → b`. Plain `d + r(a) − r(b)` overflows (a debug build
        // panicked here); the sum clamps at `i64::MAX` instead, while
        // the opposite edge stays exact. Past the low end it clamps at
        // `i64::MIN`.
        let mut g = Dfg::new("far");
        let a = g.add_node("a", OpKind::Add, 1);
        let b = g.add_node("b", OpKind::Add, 1);
        let ab = g.add_edge(a, b, 0).unwrap();
        let ba = g.add_edge(b, a, 2).unwrap();
        let mut r = Retiming::zero(&g);
        r.set(a, i64::MAX);
        r.set(b, -1);
        assert_eq!(r.retimed_delay(&g, ab), i64::MAX);
        assert_eq!(r.retimed_delay(&g, ba), 1 - i64::MAX);
        r.set(a, i64::MIN);
        r.set(b, i64::MAX);
        assert_eq!(r.retimed_delay(&g, ab), i64::MIN);
    }

    #[test]
    fn retimed_delay_is_exact_where_the_sum_fits() {
        // `d + r(u)` passes `i64::MAX` on both edges, but each retimed
        // delay fits: a clamp before the subtraction read `0` and `5`
        // here and broke the cycle sum `Σ_C d_r = Σ_C d = 7`.
        let mut g = Dfg::new("far");
        let a = g.add_node("a", OpKind::Add, 10);
        let b = g.add_node("b", OpKind::Add, 10);
        let ab = g.add_edge(a, b, 6).unwrap();
        let ba = g.add_edge(b, a, 1).unwrap();
        let mut r = Retiming::zero(&g);
        r.set(a, i64::MAX - 5);
        r.set(b, i64::MAX);
        assert_eq!(r.retimed_delay(&g, ab), 1);
        assert_eq!(r.retimed_delay(&g, ba), 6);
        assert_eq!(Retiming::shift_delay(u32::MAX, i64::MAX, 0), i64::MAX);
        assert_eq!(Retiming::shift_delay(0, i64::MIN, 1), i64::MIN);
        assert_eq!(
            Retiming::shift_delay(u32::MAX, i64::MIN, i64::MIN),
            0xffff_ffff
        );
    }

    /// `r(a) = i64::MAX`, `r(b) = −1`: a spread of `2^63`, past both the
    /// `i64` and the `u32` range.
    fn far_spread() -> Retiming {
        let (g, ids) = diamond();
        let mut r = Retiming::zero(&g);
        r.set(ids[0], i64::MAX);
        r.set(ids[1], -1);
        r
    }

    #[test]
    fn depth_clamps_a_spread_past_u32() {
        assert_eq!(far_spread().depth(), u32::MAX);
        let (g, ids) = diamond();
        let mut r = Retiming::zero(&g);
        r.set(ids[0], i64::from(u32::MAX) - 2);
        assert_eq!(r.depth(), u32::MAX - 1, "exact below the clamp");
        r.set(ids[0], i64::from(u32::MAX));
        assert_eq!(r.depth(), u32::MAX);
    }

    #[test]
    fn normalize_and_compose_saturate() {
        let r = far_spread();
        let n = r.to_normalized();
        assert_eq!(n.as_slice(), &[i64::MAX, 0, 1, 1]);
        let c = r.compose(&r);
        assert_eq!(c.as_slice(), &[i64::MAX, -2, 0, 0]);
        let mut low = far_spread();
        low.set(NodeId::from_index(1), i64::MIN);
        assert_eq!(low.compose(&low).of(NodeId::from_index(1)), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "a retiming's stages are at most u32::MAX deep")]
    fn stages_past_u32_depth_panic_with_a_reason() {
        let _ = far_spread().stages();
    }

    #[test]
    fn root_set_is_rotatable_but_inner_set_is_not() {
        let (g, ids) = diamond();
        // {v0} is a root: all incoming edges carry delays.
        assert!(Retiming::from_set(&g, [ids[0]]).is_legal(&g));
        // {v1} has a zero-delay incoming edge from outside the set.
        assert!(!Retiming::from_set(&g, [ids[1]]).is_legal(&g));
        // {v0, v1, v2} is again rotatable.
        assert!(Retiming::from_set(&g, [ids[0], ids[1], ids[2]]).is_legal(&g));
    }

    #[test]
    fn check_legal_names_the_edge() {
        let (g, ids) = diamond();
        let r = Retiming::from_set(&g, [ids[3]]);
        match r.check_legal(&g) {
            Err(DfgError::IllegalRetiming { to, .. }) => assert_eq!(to, ids[3]),
            other => panic!("expected illegal retiming, got {other:?}"),
        }
    }

    #[test]
    fn compose_adds_values() {
        let (g, ids) = diamond();
        let r1 = Retiming::from_set(&g, [ids[0]]);
        let r2 = Retiming::from_set(&g, [ids[0], ids[1]]);
        let c = r1.compose(&r2);
        assert_eq!(c.of(ids[0]), 2);
        assert_eq!(c.of(ids[1]), 1);
        assert_eq!(c.of(ids[2]), 0);
    }

    #[test]
    fn apply_set_matches_compose_and_undo_restores() {
        let (g, ids) = diamond();
        let mut r = Retiming::from_set(&g, [ids[0]]);
        let composed = r.compose(&Retiming::from_set(&g, [ids[0], ids[1], ids[2]]));
        let set = [ids[0], ids[1], ids[2]];
        let before = r.clone();
        r.apply_set(&set, 1);
        assert_eq!(r, composed);
        r.undo_set(&set, 1);
        assert_eq!(r, before);
        // Negative deltas model up-rotations.
        r.apply_set(&[ids[3]], -1);
        assert_eq!(r.of(ids[3]), -1);
    }

    #[test]
    fn normalize_shifts_to_zero_minimum() {
        let (g, ids) = diamond();
        let mut r = Retiming::zero(&g);
        for &v in &ids {
            r.set(v, 3);
        }
        r.set(ids[2], 5);
        assert!(!r.is_normalized());
        let n = r.to_normalized();
        assert!(n.is_normalized());
        assert_eq!(n.of(ids[2]), 2);
        assert_eq!(n.of(ids[0]), 0);
        // Normalization preserves all retimed delays.
        for (id, _) in g.edges() {
            assert_eq!(n.retimed_delay(&g, id), r.retimed_delay(&g, id));
        }
    }

    #[test]
    fn depth_matches_property_2() {
        let (g, ids) = diamond();
        let mut r = Retiming::zero(&g);
        assert_eq!(r.depth(), 1);
        r.set(ids[0], 1);
        assert_eq!(r.depth(), 2);
        r.set(ids[1], -1);
        assert_eq!(r.depth(), 3);
    }

    #[test]
    fn stages_group_by_descending_r() {
        let (g, ids) = diamond();
        let mut r = Retiming::zero(&g);
        r.set(ids[0], 1);
        let stages = r.stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0], vec![ids[0]]);
        assert_eq!(stages[1], vec![ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn display_lists_nonzero_entries() {
        let (g, ids) = diamond();
        let r = Retiming::from_set(&g, [ids[1]]);
        assert_eq!(r.to_string(), "r{n1=1}");
    }

    #[test]
    #[should_panic(expected = "retiming must assign a value to every node")]
    fn from_values_checks_length() {
        let (g, _) = diamond();
        let _ = Retiming::from_values(&g, vec![0; 2]);
    }
}
