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

/// Per-slot coverage counts over a kernel of `l` slots, built from
/// folded ranges: the whole wraps sum into one wide base and the
/// remainder ranges into a difference array of `l + 1` counters, swept
/// once. Adding `r` ranges and reading the counts costs `O(r + l)`.
pub(crate) struct StepProfile {
    l: u64,
    whole: u128,
    diff: Vec<i64>,
}

impl StepProfile {
    /// An empty profile over `l ≥ 1` slots.
    pub(crate) fn new(l: u64) -> Self {
        StepProfile {
            l,
            whole: 0,
            diff: vec![0; l as usize + 1],
        }
    }

    /// Covers `len` steps from 0-based slot `start` (see [`wrap`]).
    pub(crate) fn add(&mut self, start: u64, len: u64) {
        let (whole, ranges) = wrap(start, len, self.l);
        self.whole += u128::from(whole);
        for r in ranges {
            self.diff[r.start as usize] += 1;
            self.diff[r.end as usize] -= 1;
        }
    }

    /// Each slot's count, in slot order, clamped at `u64::MAX`: what
    /// saturating per-step additions of the same ranges would give,
    /// since every addend is non-negative.
    pub(crate) fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        let mut covered = 0_i64;
        self.diff[..self.diff.len() - 1].iter().map(move |&d| {
            covered += d;
            u64::try_from(self.whole + covered as u128).unwrap_or(u64::MAX)
        })
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
}
