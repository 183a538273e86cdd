//! Reservation tables: per-class, per-control-step unit usage.
//!
//! The table supports the two placement disciplines of Section 4: *linear*
//! occupancy for a growing (unwrapped) schedule, and *cyclic* occupancy
//! (modulo a kernel length) for wrapped schedules, where the tail of a
//! multi-cycle operation re-enters the first control steps.

use crate::resources::{ResourceClassId, ResourceSet};

/// Tracks how many units of each class are busy in each control step.
///
/// Control steps are 1-based, matching the paper's tables.
///
/// The table supports an internal *origin offset* so that renumbering
/// every control step by a constant (what [`Schedule::normalize`] does
/// to a schedule after a rotation) is an O(1) bookkeeping update
/// ([`ReservationTable::shift_origin`]) instead of a physical move of
/// every reservation. External control steps stay 1-based throughout.
///
/// [`Schedule::normalize`]: crate::Schedule::normalize
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReservationTable {
    /// `usage[class][cs - 1 + origin]` = busy units; grows on demand.
    usage: Vec<Vec<u32>>,
    limits: Vec<u32>,
    /// Maps external control step `cs` to row index `cs - 1 + origin`.
    origin: i64,
}

/// Origin values beyond this trigger a physical compaction so dead
/// leading entries cannot accumulate across a long rotation sequence.
/// Kept small so row capacity tops out at `horizon + COMPACT_ORIGIN`
/// within the first compaction cycle — beyond that warm-up, placements
/// stay within capacity and a steady-state rotation step never touches
/// the heap (enforced by the `alloc_discipline` suite). Compaction
/// itself is a short allocation-free `drain`.
const COMPACT_ORIGIN: i64 = 64;

impl ReservationTable {
    /// An empty table for the given resource set.
    #[must_use]
    pub fn new(resources: &ResourceSet) -> Self {
        ReservationTable {
            usage: vec![Vec::new(); resources.classes().len()],
            limits: resources.classes().iter().map(|c| c.count()).collect(),
            origin: 0,
        }
    }

    /// Row index of external control step `cs`; negative when the step
    /// lies before the physical start of the rows.
    fn index_of(&self, cs: u32) -> i64 {
        i64::from(cs) - 1 + self.origin
    }

    /// Frees every reservation, keeping the rows' capacity, so a
    /// rotation context can place a whole schedule again without
    /// allocating.
    pub fn clear(&mut self) {
        for row in &mut self.usage {
            row.clear();
        }
        self.origin = 0;
    }

    /// Busy units of `class` in control step `cs` (1-based).
    #[must_use]
    pub fn used(&self, class: ResourceClassId, cs: u32) -> u32 {
        assert!(cs >= 1, "control steps are 1-based");
        let idx = self.index_of(cs);
        if idx < 0 {
            return 0;
        }
        self.usage[class.index()]
            .get(usize::try_from(idx).expect("non-negative index"))
            .copied()
            .unwrap_or(0)
    }

    /// Renumbers every external control step by `delta` (the reservation
    /// at step `s` is afterwards addressed as `s + delta`) in O(1), by
    /// moving the internal origin instead of the data. This is the
    /// incremental counterpart of shifting a schedule during
    /// normalization.
    pub fn shift_origin(&mut self, delta: i64) {
        self.origin -= delta;
        if self.origin >= COMPACT_ORIGIN {
            self.compact();
        }
    }

    /// Physically drops the dead leading entries accumulated by
    /// positive-origin shifts. Entries below the origin address external
    /// steps `<= 0`, which can never hold a reservation.
    fn compact(&mut self) {
        let drop = usize::try_from(self.origin).expect("compact only on positive origin");
        for row in &mut self.usage {
            let k = drop.min(row.len());
            debug_assert!(
                row[..k].iter().all(|&u| u == 0),
                "entries before the origin must be free"
            );
            row.drain(..k);
        }
        self.origin = 0;
    }

    /// Whether this table holds exactly the same reservations as
    /// `other` at every external control step, regardless of internal
    /// origin or row padding. This is the comparison the incremental
    /// scheduling cross-checks use.
    #[must_use]
    pub fn same_usage(&self, other: &ReservationTable) -> bool {
        if self.limits != other.limits {
            return false;
        }
        let last = self.horizon().max(other.horizon());
        (0..self.usage.len()).all(|class_idx| {
            let class = ResourceClassId::from_index(class_idx);
            (1..=last).all(|cs| self.used(class, cs) == other.used(class, cs))
        })
    }

    /// Whether one unit of `class` is free in **all** the given control
    /// steps.
    #[must_use]
    pub fn can_place(&self, class: ResourceClassId, steps: impl IntoIterator<Item = u32>) -> bool {
        steps
            .into_iter()
            .all(|cs| self.used(class, cs) < self.limits[class.index()])
    }

    /// Occupies one unit of `class` in each given control step.
    ///
    /// # Panics
    ///
    /// Panics if any step would exceed the class limit — call
    /// [`ReservationTable::can_place`] first.
    pub fn place(&mut self, class: ResourceClassId, steps: impl IntoIterator<Item = u32>) {
        for cs in steps {
            assert!(cs >= 1, "control steps are 1-based");
            if self.index_of(cs) < 0 {
                // A negative origin (the table was shifted later than its
                // physical start) needs a one-off rebase before this step
                // can be addressed.
                self.rebase(-self.index_of(cs));
            }
            let idx = usize::try_from(self.index_of(cs)).expect("rebased index");
            let row = &mut self.usage[class.index()];
            if row.len() <= idx {
                row.resize(idx + 1, 0);
            }
            row[idx] += 1;
            assert!(
                row[idx] <= self.limits[class.index()],
                "resource class over-subscribed at control step {cs}"
            );
        }
    }

    /// Prepends `extra` free entries to every row so that steps before
    /// the current physical start become addressable.
    fn rebase(&mut self, extra: i64) {
        let extra = usize::try_from(extra).expect("rebase by a positive amount");
        for row in &mut self.usage {
            let old = row.len();
            row.resize(old + extra, 0);
            row.rotate_right(extra);
        }
        self.origin += i64::try_from(extra).expect("rebase amount fits");
    }

    /// Releases one unit of `class` in each given control step.
    ///
    /// # Panics
    ///
    /// Panics if a step had no unit of the class occupied.
    pub fn remove(&mut self, class: ResourceClassId, steps: impl IntoIterator<Item = u32>) {
        for cs in steps {
            let idx = usize::try_from(self.index_of(cs)).unwrap_or(usize::MAX);
            let row = &mut self.usage[class.index()];
            assert!(
                idx < row.len() && row[idx] > 0,
                "removing an unplaced reservation at control step {cs}"
            );
            row[idx] -= 1;
        }
    }

    /// The largest occupied control step, or 0 when empty.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.usage
            .iter()
            .map(|row| {
                row.iter().rposition(|&u| u > 0).map_or(0, |idx| {
                    let external = i64::try_from(idx).expect("row index fits") - self.origin + 1;
                    u32::try_from(external.max(0)).unwrap_or(0)
                })
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceSet;
    use rotsched_dfg::OpKind;

    fn table() -> (ReservationTable, ResourceClassId, ResourceClassId) {
        let rs = ResourceSet::adders_multipliers(2, 1, false);
        let add = rs.class_for(OpKind::Add).unwrap();
        let mul = rs.class_for(OpKind::Mul).unwrap();
        (ReservationTable::new(&rs), add, mul)
    }

    #[test]
    fn place_and_query() {
        let (mut t, add, _) = table();
        assert!(t.can_place(add, [1, 2]));
        t.place(add, [1, 2]);
        assert_eq!(t.used(add, 1), 1);
        assert_eq!(t.used(add, 3), 0);
    }

    #[test]
    fn limit_is_enforced() {
        let (mut t, _, mul) = table();
        t.place(mul, [1]);
        assert!(!t.can_place(mul, [1]));
        assert!(t.can_place(mul, [2]));
    }

    #[test]
    fn remove_frees_the_step() {
        let (mut t, _, mul) = table();
        t.place(mul, [4, 5]);
        t.remove(mul, [4, 5]);
        assert!(t.can_place(mul, [4]));
        assert_eq!(t.horizon(), 0);
    }

    #[test]
    #[should_panic(expected = "removing an unplaced reservation")]
    fn removing_unplaced_panics() {
        let (mut t, add, _) = table();
        t.remove(add, [1]);
    }

    #[test]
    fn horizon_tracks_last_used_step() {
        let (mut t, add, _) = table();
        t.place(add, [7]);
        assert_eq!(t.horizon(), 7);
        t.remove(add, [7]);
        assert_eq!(t.horizon(), 0);
    }

    #[test]
    fn shift_origin_renumbers_in_place() {
        let (mut t, add, mul) = table();
        t.place(add, [3, 4]);
        t.place(mul, [3]);
        // Renumber so step 3 becomes step 1 (normalization by -2).
        t.shift_origin(-2);
        assert_eq!(t.used(add, 1), 1);
        assert_eq!(t.used(add, 2), 1);
        assert_eq!(t.used(mul, 1), 1);
        assert_eq!(t.used(add, 3), 0);
        assert_eq!(t.horizon(), 2);
        t.remove(add, [1, 2]);
        t.remove(mul, [1]);
        assert_eq!(t.horizon(), 0);
    }

    #[test]
    fn negative_origin_rebases_on_place() {
        let (mut t, add, _) = table();
        t.place(add, [1]);
        // Shift later: the old step 1 is now step 4; steps 1..3 are free
        // but lie before the physical rows until a place rebases them.
        t.shift_origin(3);
        assert_eq!(t.used(add, 4), 1);
        assert_eq!(t.used(add, 1), 0);
        assert!(t.can_place(add, [1]));
        t.place(add, [1]);
        assert_eq!(t.used(add, 1), 1);
        assert_eq!(t.used(add, 4), 1);
        assert_eq!(t.horizon(), 4);
    }

    #[test]
    fn shifted_tables_compare_by_usage() {
        let (mut a, add, _) = table();
        let (mut b, _, _) = table();
        a.place(add, [5]);
        a.shift_origin(-4); // now occupies external step 1
        b.place(add, [1]);
        assert!(a.same_usage(&b));
        assert_ne!(a, b, "derived equality sees the physical layout");
        b.place(add, [2]);
        assert!(!a.same_usage(&b));
    }

    #[test]
    fn repeated_shifts_compact_without_losing_usage() {
        let (mut t, add, _) = table();
        // Drive the origin far past the compaction threshold the way a
        // long rotation sequence does: place, free the head, renumber.
        for _ in 0..2000 {
            t.place(add, [1, 2]);
            t.remove(add, [1, 2]);
            t.place(add, [3]);
            t.shift_origin(-2);
            assert_eq!(t.used(add, 1), 1);
            t.remove(add, [1]);
        }
        assert_eq!(t.horizon(), 0);
    }

    #[test]
    fn two_adders_allow_two_placements() {
        let (mut t, add, _) = table();
        t.place(add, [1]);
        assert!(t.can_place(add, [1]));
        t.place(add, [1]);
        assert!(!t.can_place(add, [1]));
    }
}
