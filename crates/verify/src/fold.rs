//! Folding step ranges onto a kernel of `L` steps, arithmetically.
//!
//! A reservation or a lifetime of `len` consecutive steps from 0-based
//! kernel slot `start` covers every slot `len / L` times (its whole
//! wraps), plus the `len % L` slots from `start` on, which run past
//! slot `L − 1` at most once: at most two ranges. The certifier's
//! occupancy replay and the analysis profiles share this split, so none
//! of them walks a range step by step.

use std::ops::Range;

/// Folds `len` steps from 0-based slot `start` (reduced modulo `l`)
/// onto `l ≥ 1` kernel slots: the whole wraps, and the remainder's
/// slot ranges, the first from `start`, the second from slot 0 (either
/// may be empty).
pub(crate) fn wrap(start: u64, len: u64, l: u64) -> (u64, [Range<u64>; 2]) {
    let start = start % l;
    let end = start + len % l; // < 2l
    (len / l, [start..end.min(l), 0..end.saturating_sub(l)])
}

/// Dense slot storage is used while `l` is at most this many times the
/// number of breakpoints the expected ranges can produce; past that the
/// profile keeps the breakpoints themselves, so a kernel of near
/// `u32::MAX` steps costs memory in proportion to its ranges, not to
/// `l`.
const DENSE_PER_BREAKPOINT: u64 = 4;

/// Where a [`StepProfile`] keeps its remainder ranges.
enum Slots {
    /// A difference array of `l + 1` counters.
    Dense(Vec<i64>),
    /// The ranges' breakpoints `(slot, ±1)`, sorted when read.
    Sparse(Vec<(u64, i64)>),
}

/// Per-slot coverage counts over a kernel of `l` slots, built from
/// folded ranges: the whole wraps sum into one wide base and the
/// remainder ranges into breakpoints — a difference array of `l + 1`
/// counters when `l` is small next to the ranges, else the sorted
/// breakpoints. Both read the same counts, run by run in slot order;
/// adding `r` ranges and reading costs `O(r + l)` dense and
/// `O(r log r)` sparse.
pub(crate) struct StepProfile {
    l: u64,
    whole: u128,
    slots: Slots,
}

impl StepProfile {
    /// An empty profile over `l ≥ 1` slots that expects about `adds`
    /// calls to [`StepProfile::add`] (each adds at most two ranges).
    pub(crate) fn new(l: u64, adds: usize) -> Self {
        let breakpoints = 4 * adds as u64 + 4;
        let slots = if l <= DENSE_PER_BREAKPOINT.saturating_mul(breakpoints) {
            Slots::Dense(vec![0; l as usize + 1])
        } else {
            Slots::Sparse(Vec::with_capacity(4 * adds))
        };
        StepProfile { l, whole: 0, slots }
    }

    /// Covers `len` steps from 0-based slot `start` (see [`wrap`]).
    pub(crate) fn add(&mut self, start: u64, len: u64) {
        let (whole, ranges) = wrap(start, len, self.l);
        self.whole += u128::from(whole);
        match &mut self.slots {
            Slots::Dense(diff) => {
                for r in ranges {
                    diff[r.start as usize] += 1;
                    diff[r.end as usize] -= 1;
                }
            }
            Slots::Sparse(points) => {
                for r in ranges.into_iter().filter(|r| !r.is_empty()) {
                    points.extend([(r.start, 1), (r.end, -1)]);
                }
            }
        }
    }

    /// Calls `run(count, first, len)` for each maximal run of `len`
    /// slots from slot `first` on, in slot order, that dense storage
    /// would read as `count` slot by slot (dense storage reports every
    /// slot as a run of its own). Counts are clamped at `u64::MAX`: what
    /// saturating per-step additions of the same ranges would give,
    /// since every addend is non-negative.
    pub(crate) fn runs(&mut self, mut run: impl FnMut(u64, u64, u64)) {
        let whole = self.whole;
        let count = |covered: i64| u64::try_from(whole + covered as u128).unwrap_or(u64::MAX);
        let mut covered = 0_i64;
        match &mut self.slots {
            Slots::Dense(diff) => {
                for (slot, &d) in diff[..diff.len() - 1].iter().enumerate() {
                    covered += d;
                    run(count(covered), slot as u64, 1);
                }
            }
            Slots::Sparse(points) => {
                points.sort_unstable();
                let mut at = 0;
                let mut i = 0;
                while at < self.l {
                    while i < points.len() && points[i].0 == at {
                        covered += points[i].1;
                        i += 1;
                    }
                    let next = points.get(i).map_or(self.l, |p| p.0.min(self.l));
                    run(count(covered), at, next - at);
                    at = next;
                }
            }
        }
    }

    /// How many slots are covered at least `count` times.
    pub(crate) fn slots_at_least(&mut self, count: u64) -> u64 {
        let mut slots = 0;
        self.runs(|c, _, len| {
            if c >= count {
                slots += len;
            }
        });
        slots
    }

    /// The largest count and the first slot that reaches it; `(0, 0)`
    /// when no slot is covered.
    pub(crate) fn peak(&mut self) -> (u64, u64) {
        let (mut max, mut first) = (0, 0);
        self.runs(|c, slot, _| {
            if c > max {
                (max, first) = (c, slot);
            }
        });
        (max, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_splits_whole_wraps_and_at_most_two_ranges() {
        assert_eq!(wrap(0, 0, 3), (0, [0..0, 0..0]));
        assert_eq!(wrap(1, 2, 3), (0, [1..3, 0..0]));
        assert_eq!(wrap(2, 2, 3), (0, [2..3, 0..1]));
        assert_eq!(wrap(5, 7, 3), (2, [2..3, 0..0]));
        assert_eq!(wrap(7, 9, 1), (9, [0..0, 0..0]));
    }

    /// Each slot's count, expanded from the runs.
    fn per_slot(profile: &mut StepProfile) -> Vec<u64> {
        let mut out = Vec::new();
        profile.runs(|count, first, len| {
            assert_eq!(first, out.len() as u64, "runs are contiguous");
            out.extend((0..len).map(|_| count));
        });
        out
    }

    #[test]
    fn sparse_breakpoints_read_the_dense_counts() {
        let mut rng = rotsched_dfg::rng::SplitMix64::new(0x5EED);
        let mut next = |bound: u64| rng.below(bound);
        for case in 0..200 {
            let l = 1 + next(40);
            let adds = next(6) as usize;
            // The same ranges into dense storage (sized for many adds)
            // and sparse storage (sized for none).
            let mut dense = StepProfile::new(l, 64);
            let mut sparse = StepProfile {
                l,
                whole: 0,
                slots: Slots::Sparse(Vec::new()),
            };
            assert!(matches!(dense.slots, Slots::Dense(_)));
            for _ in 0..adds {
                let (start, len) = (next(3 * l), next(3 * l));
                dense.add(start, len);
                sparse.add(start, len);
            }
            assert_eq!(per_slot(&mut sparse), per_slot(&mut dense), "case {case}");
            for count in 0..4 {
                assert_eq!(sparse.slots_at_least(count), dense.slots_at_least(count));
            }
            assert_eq!(sparse.peak(), dense.peak(), "case {case}");
        }
    }

    #[test]
    fn long_kernels_keep_breakpoints_only() {
        let l = u64::from(u32::MAX);
        let mut profile = StepProfile::new(l, 3);
        assert!(matches!(profile.slots, Slots::Sparse(_)));
        profile.add(l - 2, 5); // wraps: slots l − 2, l − 1, 0, 1, 2
        profile.add(1, l + 1); // one whole wrap, then slot 1
        assert_eq!(profile.peak(), (3, 1));
        assert_eq!(profile.slots_at_least(2), 5);
        assert_eq!(profile.slots_at_least(3), 1);
        assert_eq!(profile.slots_at_least(1), l);
    }
}
