//! The pluggable objective core: packed lexicographic [`Score`]s and
//! the [`Objective`] that produces them.
//!
//! The paper's search minimizes one scalar — the wrapped kernel length.
//! This module generalizes that scalar to a *lexicographic* objective
//! without giving up any of the machinery built on scalar comparison:
//! a [`Score`] packs up to three criteria into a single totally-ordered
//! `u64`, so [`BestSet`](crate::BestSet) admission stays one integer
//! compare, the portfolio's [`SharedBound`](crate::SharedBound) stays a
//! single lock-free `fetch_min`, and the canonical-merge determinism
//! argument carries over byte for byte.
//!
//! ## Packing layout
//!
//! ```text
//! bit 63                    32 31        16 15         0
//!     +-----------------------+------------+------------+
//!     |   kernel length (u32) | registers  | code size  |
//!     +-----------------------+------------+------------+
//!                               saturated     saturated
//!                               at 0xFFFF     at 0xFFFF
//! ```
//!
//! The length occupies the full high 32 bits, so for the default
//! length-only objective (all secondary fields zero) comparing packed
//! scores is *exactly* comparing lengths — the pre-refactor `u32`
//! semantics, bit for bit. Secondary components saturate at `0xFFFF`:
//! saturation keeps ordering monotone (a larger true value never packs
//! below a smaller one) and can never wrap into a neighboring field.
//!
//! ## The criteria
//!
//! * **Length** — the wrapped kernel length (Section 4 of the paper),
//!   always the primary criterion.
//! * **Static registers** — `Σ_e max(d_r(e), 0)` over all edges, the
//!   exact rule of the verifier's register-pressure pass
//!   (`verify::analysis::pressure`, finding `A003`): every retimed
//!   delay is a value crossing an iteration boundary.
//! * **Code size** — the prologue + epilogue op count of the pipeline
//!   expansion: node `v` appears `R(v)` times in the prologue and
//!   `max R − R(v)` times in the epilogue, so the total is
//!   `|V| · (depth − 1)` with `depth = 1 + max R − min R`.

use rotsched_dfg::{Dfg, Retiming};

/// A packed, totally-ordered solution score: smaller is better.
///
/// See the [module docs](self) for the bit layout. The ordering is the
/// plain integer ordering of the packed `u64`, which realizes the
/// lexicographic order (length, registers, code size).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Score(u64);

impl Score {
    /// The "no solution yet" sentinel: worse than every real score.
    ///
    /// This is the packed all-ones word — the successor of the old
    /// `u32::MAX` length sentinel. Real solves never reach it: the
    /// length field of a genuine kernel is far below `u32::MAX`, so
    /// even with both secondary fields saturated a real score compares
    /// strictly below `NONE`.
    pub const NONE: Score = Score(u64::MAX);

    /// Each secondary component saturates at 16 bits.
    const FIELD_MAX: u64 = 0xFFFF;

    /// A length-only score: the length in the high 32 bits, zero
    /// secondaries. Comparing two such scores is exactly comparing the
    /// lengths as `u32`s — the pre-refactor scalar semantics.
    #[must_use = "constructing a score has no effect unless it is offered or compared"]
    pub const fn from_length(length: u32) -> Score {
        Score((length as u64) << 32)
    }

    /// Packs a full lexicographic score. `registers` and `code_size`
    /// saturate at `0xFFFF`; saturation is monotone (never inverts an
    /// ordering) and can never wrap into the length field.
    #[must_use = "constructing a score has no effect unless it is offered or compared"]
    pub const fn new(length: u32, registers: u64, code_size: u64) -> Score {
        let regs = if registers > Self::FIELD_MAX {
            Self::FIELD_MAX
        } else {
            registers
        };
        let code = if code_size > Self::FIELD_MAX {
            Self::FIELD_MAX
        } else {
            code_size
        };
        Score(((length as u64) << 32) | (regs << 16) | code)
    }

    /// The primary criterion: the wrapped kernel length.
    #[must_use]
    pub const fn length(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The packed static-register component (saturated at `0xFFFF`).
    #[must_use]
    pub const fn registers(self) -> u32 {
        ((self.0 >> 16) & Self::FIELD_MAX) as u32
    }

    /// The packed code-size component (saturated at `0xFFFF`).
    #[must_use]
    pub const fn code_size(self) -> u32 {
        (self.0 & Self::FIELD_MAX) as u32
    }

    /// True for the [`Score::NONE`] sentinel.
    #[must_use]
    pub const fn is_none(self) -> bool {
        self.0 == u64::MAX
    }

    /// True when this score sits at the proven kernel-length lower bound
    /// `bound`: at most [`Score::from_length`] of the bound, so the
    /// length reached the bound and every secondary component is zero.
    /// No kernel can score strictly better. For the default objective
    /// this is exactly "length reached the bound"; for multi-criteria
    /// objectives the zero-secondaries requirement is conservative
    /// (a search stopping less often can only explore more).
    /// [`Score::NONE`] never achieves a bound.
    #[must_use]
    pub(crate) const fn achieves_bound(self, bound: u32) -> bool {
        !self.is_none() && self.0 <= Score::from_length(bound).0
    }

    /// The raw packed word — the value the portfolio's shared atomic
    /// carries through `fetch_min`.
    #[must_use]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a score from its packed word (inverse of
    /// [`Score::to_bits`]).
    #[must_use]
    pub const fn from_bits(bits: u64) -> Score {
        Score(bits)
    }
}

impl std::fmt::Display for Score {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        write!(
            f,
            "{}/{}/{}",
            self.length(),
            self.registers(),
            self.code_size()
        )
    }
}

/// Which criteria the search minimizes, in lexicographic order.
///
/// The default is the paper's single scalar — kernel length — and with
/// it every score the engine produces is [`Score::from_length`], so the
/// whole pipeline behaves bit-identically to the pre-refactor scalar
/// path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the wrapped kernel length only (the paper's objective).
    #[default]
    Length,
    /// Minimize length, then static registers (`Σ_e max(d_r, 0)`).
    LengthRegs,
    /// Minimize length, then static registers, then prologue+epilogue
    /// code size.
    LengthRegsCode,
}

impl Objective {
    /// Every objective, in the fixed sweep order used by `--pareto`.
    pub const ALL: [Objective; 3] = [
        Objective::Length,
        Objective::LengthRegs,
        Objective::LengthRegsCode,
    ];

    /// The stable mnemonic used by the CLI (`--objective=`) and the
    /// wire protocol (`objective` directive).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Objective::Length => "length",
            Objective::LengthRegs => "length,regs",
            Objective::LengthRegsCode => "length,regs,code",
        }
    }

    /// Parses a mnemonic produced by [`Objective::mnemonic`].
    #[must_use]
    pub fn parse(text: &str) -> Option<Objective> {
        Objective::ALL.into_iter().find(|o| o.mnemonic() == text)
    }

    /// Scores a rotation state whose wrapped kernel length is already
    /// known. For [`Objective::Length`] this touches nothing but the
    /// length — the hot path stays as cheap as the scalar it replaces;
    /// the multi-criteria arms walk the edges once (`O(E)`).
    #[must_use]
    pub fn score(self, dfg: &Dfg, retiming: &Retiming, wrapped_length: u32) -> Score {
        match self {
            Objective::Length => Score::from_length(wrapped_length),
            Objective::LengthRegs => Score::new(wrapped_length, static_registers(dfg, retiming), 0),
            Objective::LengthRegsCode => Score::new(
                wrapped_length,
                static_registers(dfg, retiming),
                code_size(dfg, retiming),
            ),
        }
    }
}

/// `Σ_e max(d_r(e), 0)` — the static register count, matching the
/// verifier's pressure pass (`A003`) exactly, saturating at `u64::MAX`
/// like it.
#[must_use]
pub fn static_registers(dfg: &Dfg, retiming: &Retiming) -> u64 {
    dfg.edge_ids().fold(0_u64, |sum, e| {
        sum.saturating_add(retiming.retimed_delay(dfg, e).max(0) as u64)
    })
}

/// The prologue + epilogue op count of the pipeline expansion:
/// `|V| · (depth − 1)`.
#[must_use]
pub fn code_size(dfg: &Dfg, retiming: &Retiming) -> u64 {
    if dfg.node_count() == 0 || retiming.is_empty() {
        return 0;
    }
    (dfg.node_count() as u64) * u64::from(retiming.depth() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_dfg::{Dfg, OpKind};

    fn iir() -> Dfg {
        let mut g = Dfg::new("iir");
        let m = g.add_node("m", OpKind::Mul, 2);
        let a = g.add_node("a", OpKind::Add, 1);
        g.add_edge(m, a, 0).unwrap();
        g.add_edge(a, m, 1).unwrap();
        g
    }

    #[test]
    fn static_registers_saturate_on_near_i64_retimings() {
        // Three fanout edges retimed by nearly `i64::MAX` each: their
        // delays sum past `u64::MAX` and clamp there.
        let mut g = Dfg::new("far");
        let a = g.add_node("a", OpKind::Add, 1);
        for name in ["b", "c", "d"] {
            let v = g.add_node(name, OpKind::Add, 1);
            g.add_edge(a, v, 0).unwrap();
        }
        let mut r = Retiming::zero(&g);
        r.set(a, i64::MAX - 1);
        assert_eq!(static_registers(&g, &r), u64::MAX);
        r.set(a, 1);
        assert_eq!(static_registers(&g, &r), 3);
    }

    #[test]
    fn length_only_score_orders_exactly_like_u32() {
        for (a, b) in [(0_u32, 1), (3, 4), (7, 7), (1000, 999)] {
            assert_eq!(Score::from_length(a).cmp(&Score::from_length(b)), a.cmp(&b));
        }
    }

    #[test]
    fn lexicographic_order_breaks_ties_by_later_fields() {
        // Shorter length dominates regardless of secondaries.
        assert!(Score::new(3, 1000, 1000) < Score::new(4, 0, 0));
        // Equal length: fewer registers wins.
        assert!(Score::new(4, 2, 100) < Score::new(4, 3, 0));
        // Equal length and registers: smaller code wins.
        assert!(Score::new(4, 2, 5) < Score::new(4, 2, 6));
    }

    #[test]
    fn none_is_worse_than_every_real_score() {
        assert!(Score::new(u32::MAX - 1, u64::MAX, u64::MAX) < Score::NONE);
        assert!(Score::from_length(u32::MAX - 1) < Score::NONE);
        assert!(Score::NONE.is_none());
        assert!(!Score::new(0, 0, 0).is_none());
    }

    // ---- the saturating-arithmetic audit (mirrors `bound.rs`) ----

    #[test]
    fn near_overflow_components_saturate_instead_of_wrapping() {
        // A register count past 16 bits must clamp to the field max,
        // never spill into the length bits above it.
        let s = Score::new(7, u64::MAX, u64::MAX);
        assert_eq!(s.length(), 7);
        assert_eq!(s.registers(), 0xFFFF);
        assert_eq!(s.code_size(), 0xFFFF);
    }

    #[test]
    fn near_overflow_components_still_order_correctly() {
        // Ordering across the saturation boundary stays monotone: a
        // saturated score is never *below* an unsaturated one with
        // smaller true components.
        assert!(Score::new(5, 0xFFFE, 0) < Score::new(5, 0xFFFF, 0));
        assert!(Score::new(5, 0xFFFF, 0) <= Score::new(5, u64::MAX, 0));
        assert!(Score::new(5, 0, 0xFFFE) < Score::new(5, 0, u64::MAX));
        // Two past-saturation values collapse to equal — monotone,
        // never inverted.
        assert_eq!(Score::new(5, 1 << 20, 0), Score::new(5, 1 << 30, 0));
    }

    #[test]
    fn near_overflow_lengths_never_wrap() {
        // The full u32 length range packs losslessly.
        let near = Score::from_length(u32::MAX - 1);
        let max = Score::from_length(u32::MAX);
        assert_eq!(near.length(), u32::MAX - 1);
        assert_eq!(max.length(), u32::MAX);
        assert!(near < max);
        // Even the all-saturated near-MAX score stays below the
        // MAX-length floor and below NONE.
        assert!(Score::new(u32::MAX - 1, u64::MAX, u64::MAX) < max);
        assert!(max < Score::NONE);
    }

    #[test]
    fn bits_round_trip() {
        for s in [
            Score::NONE,
            Score::from_length(0),
            Score::from_length(u32::MAX),
            Score::new(42, 17, 99),
            Score::new(9, u64::MAX, 3),
        ] {
            assert_eq!(Score::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    fn mnemonics_round_trip() {
        for o in Objective::ALL {
            assert_eq!(Objective::parse(o.mnemonic()), Some(o));
        }
        assert_eq!(Objective::parse("regs"), None);
        assert_eq!(Objective::parse(""), None);
        assert_eq!(Objective::default(), Objective::Length);
    }

    #[test]
    fn length_objective_scores_are_pure_lengths() {
        let g = iir();
        let r = rotsched_dfg::Retiming::zero(&g);
        assert_eq!(Objective::Length.score(&g, &r, 6), Score::from_length(6));
    }

    #[test]
    fn register_component_matches_the_pressure_rule() {
        let g = iir();
        let r = rotsched_dfg::Retiming::zero(&g);
        // One edge with delay 1 -> one static register.
        assert_eq!(static_registers(&g, &r), 1);
        let s = Objective::LengthRegs.score(&g, &r, 6);
        assert_eq!((s.length(), s.registers(), s.code_size()), (6, 1, 0));
    }

    #[test]
    fn code_size_counts_prologue_and_epilogue_ops() {
        let g = iir();
        let mut r = rotsched_dfg::Retiming::zero(&g);
        // Depth-1 pipeline: no prologue or epilogue at all.
        assert_eq!(code_size(&g, &r), 0);
        // Rotate m once: depth 2, each of the 2 nodes appears once
        // outside the kernel.
        r.set(g.node_by_name("m").unwrap(), 1);
        assert_eq!(code_size(&g, &r), 2);
        let s = Objective::LengthRegsCode.score(&g, &r, 6);
        assert_eq!(s.code_size(), 2);
    }
}
