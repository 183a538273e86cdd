//! Cycle replay for rotation phases.
//!
//! A down-rotation reads the rotation function `R` only through the
//! retimed delays `d_R(e) = d(e) + R(u) − R(v)` (Sections 2–3), and so do
//! the wrapped-length probe and every objective. A phase state is
//! therefore determined, for everything that follows it, by its schedule
//! and by `R` *up to a constant*. Once a phase lands on a state it has
//! already held — same schedule, `R` shifted by a constant `c` — the rest
//! of the phase is periodic: rotation `k` repeats rotation `k − p` with
//! `R` shifted by `c`.
//!
//! [`CycleLog`] records the states one phase visits and finds the first
//! repeat. After that the phase no longer needs the rotation step: each
//! further rotation's node set and wrapped length are read off the log
//! ([`CycleLog::replay`]), and the exact final state is rebuilt once at
//! phase end ([`CycleLog::restore`]). Every replayed state repeats one
//! the phase already offered to `Q` with the same score, and such an
//! offer is always rejected, so a replayed rotation has nothing to offer.
//!
//! A logged state is stored whole and found through a 64-bit
//! fingerprint. A fingerprint match is confirmed by an exact comparison,
//! so a hash collision costs one comparison, never a wrong replay.

use rotsched_dfg::NodeId;

use crate::rotate::RotationState;

/// Header words of a state record: fingerprint, retiming minimum, the
/// wrapped length after the rotation that produced the state, and the
/// end of that rotation's node set in [`CycleLog`]'s set buffer.
const HEAD: usize = 4;

/// The log stops recording (and the phase runs on without replay) once
/// its records would pass this many words — 2 MiB. Only a phase that
/// never repeats a state gets there: its retiming spread keeps growing,
/// which takes parts of the graph with no recurrence between them.
const MAX_LOG_WORDS: usize = 1 << 18;

/// The first repeat of a phase: rotation `start + period` produced the
/// state logged after rotation `start` (rotation 0 is the phase start),
/// with every retiming value larger by `shift`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cycle {
    /// `m`: the rotation count at which the repeated state was first held.
    pub start: usize,
    /// `p`: the rotations between the two visits.
    pub period: usize,
    /// `c`: how much every retiming value grows per period.
    pub shift: i64,
}

/// The states one rotation phase has visited, with the node set and
/// wrapped length of the rotation that reached each.
///
/// Owned by its runner and reused from phase to phase: [`CycleLog::begin`]
/// clears it without freeing, so a warm log costs no allocation.
///
/// # Examples
///
/// A uniform ring under size-1 rotations repeats its state after `n`
/// rotations with every retiming value one larger.
///
/// ```
/// use rotsched_core::cycle::CycleLog;
/// use rotsched_core::{initial_state, RotationContext};
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::{ListScheduler, ResourceSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("ring")
///     .nodes("v", 4, OpKind::Add, 1)
///     .chain(&["v0", "v1", "v2", "v3"])
///     .edge("v3", "v0", 1)
///     .build()?;
/// let (sched, res) = (ListScheduler::default(), ResourceSet::adders_multipliers(1, 0, false));
/// let mut state = initial_state(&g, &sched, &res)?;
/// let mut ctx = RotationContext::new(&g, &sched, &res, &state)?;
/// let mut log = CycleLog::new();
/// log.begin(&state, 16);
/// while log.cycle().is_none() {
///     ctx.down_rotate_in_place(&g, &sched, &res, &mut state, 1)?;
///     log.record(ctx.rotated(), state.wrapped_length(&g, &res)?, &state);
/// }
/// let cycle = log.cycle().expect("the ring repeats");
/// assert_eq!((cycle.start, cycle.period, cycle.shift), (0, 4, 1));
/// // Rotation 6 replays rotation 2; the state after it is rebuilt whole.
/// let (set, _) = log.replay(6).expect("past the repeat");
/// assert_eq!(set.len(), 1);
/// log.restore(6, &mut state);
/// assert_eq!(state.retiming.min_value(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct CycleLog {
    /// Nodes per state (`|V|`).
    nodes: usize,
    /// One record per logged state `s_0, s_1, …`, `HEAD + 2|V|` words
    /// each: the header, then each node's start step (0 when
    /// unscheduled), then each node's retiming minus the minimum.
    records: Vec<i64>,
    /// The node sets of rotations `1, 2, …`, back to back.
    sets: Vec<NodeId>,
    /// The first repeat, once found.
    cycle: Option<Cycle>,
    /// Set when the log reached [`MAX_LOG_WORDS`]; no repeat is looked
    /// for during the rest of the phase.
    full: bool,
}

impl CycleLog {
    /// An empty log.
    #[must_use]
    pub const fn new() -> Self {
        CycleLog {
            nodes: 0,
            records: Vec::new(),
            sets: Vec::new(),
            cycle: None,
            full: false,
        }
    }

    fn stride(&self) -> usize {
        HEAD + 2 * self.nodes
    }

    /// Starts a phase at `state` (logged as `s_0`), forgetting the
    /// previous phase but keeping the buffers. `alpha`, the phase's
    /// rotation count, sizes the buffers so the first phase grows each
    /// one once.
    pub fn begin(&mut self, state: &RotationState, alpha: usize) {
        self.nodes = state.retiming.len();
        self.records.clear();
        self.sets.clear();
        self.cycle = None;
        self.full = false;
        let states = alpha.saturating_add(1);
        self.records
            .reserve(states.saturating_mul(self.stride()).min(MAX_LOG_WORDS));
        self.sets
            .reserve(alpha.saturating_mul(self.nodes).min(MAX_LOG_WORDS));
        self.push(&[], 0, state);
    }

    /// Logs the next rotation: its node set, the wrapped length after
    /// it, and the state it produced. When that state repeats a logged
    /// one, the phase has its [`Cycle`] and [`CycleLog::replay`] serves
    /// every later rotation. Call it only while [`CycleLog::cycle`] is
    /// `None`.
    pub fn record(&mut self, rotated: &[NodeId], wrapped: u32, state: &RotationState) {
        debug_assert!(self.cycle.is_none(), "a cycled phase replays");
        if self.full || !self.push(rotated, wrapped, state) {
            return;
        }
        let stride = self.stride();
        let j = self.records.len() / stride - 1;
        let (logged, new) = self.records.split_at(j * stride);
        self.cycle = logged
            .chunks_exact(stride)
            .position(|rec| rec[0] == new[0] && rec[HEAD..] == new[HEAD..])
            .map(|m| Cycle {
                start: m,
                period: j - m,
                shift: new[1] - logged[m * stride + 1],
            });
    }

    /// Appends one state record; `false` (and the log is full) when it
    /// would pass [`MAX_LOG_WORDS`].
    fn push(&mut self, rotated: &[NodeId], wrapped: u32, state: &RotationState) -> bool {
        if self.records.len() + self.stride() > MAX_LOG_WORDS {
            self.full = true;
            return false;
        }
        self.sets.extend_from_slice(rotated);
        let r = state.retiming.as_slice();
        let min = r.iter().copied().min().unwrap_or(0);
        let at = self.records.len();
        self.records.extend_from_slice(&[
            0,
            min,
            i64::from(wrapped),
            i64::try_from(self.sets.len()).expect("log is capped"),
        ]);
        self.records.extend((0..self.nodes).map(|i| {
            let start = state.schedule.start(NodeId::from_index(i));
            start.map_or(0, i64::from)
        }));
        self.records.extend(r.iter().map(|&x| x - min));
        self.records[at] = self.records[at + HEAD..]
            .iter()
            .fold(0_u64, |h, &x| {
                (h.rotate_left(5) ^ x.cast_unsigned()).wrapping_mul(0x517c_c1b7_2722_0a95)
            })
            .cast_signed();
        true
    }

    /// The phase's first repeat, once [`CycleLog::record`] found it.
    #[must_use]
    pub fn cycle(&self) -> Option<Cycle> {
        self.cycle
    }

    /// The node set and wrapped length of rotation `k` (1-based) of the
    /// phase, when it lies past the repeat and so repeats a logged
    /// rotation; `None` while the rotation must still be executed.
    #[must_use]
    pub fn replay(&self, k: usize) -> Option<(&[NodeId], u32)> {
        let Cycle { start, period, .. } = self.cycle?;
        if k <= start + period {
            return None;
        }
        let t = start + 1 + (k - 1 - start) % period;
        let rec = &self.records[t * self.stride()..];
        let prev = self.records[(t - 1) * self.stride() + 3];
        let set = &self.sets[prev as usize..rec[3] as usize];
        Some((set, u32::try_from(rec[2]).expect("a logged length")))
    }

    /// Rebuilds the state after rotation `k` of a phase whose rotations
    /// past the repeat were replayed: the state logged after rotation
    /// `m + (k − m) mod p`, with `⌊(k − m)/p⌋·c` added to every
    /// retiming value. Leaves `state` alone when rotation `k` was
    /// executed, since `state` then already holds it.
    pub fn restore(&self, k: usize, state: &mut RotationState) {
        let Some(Cycle {
            start,
            period,
            shift,
        }) = self.cycle
        else {
            return;
        };
        if k <= start + period {
            return;
        }
        let at = (start + (k - start) % period) * self.stride();
        let laps = i64::try_from((k - start) / period).expect("rotation counts fit in i64");
        let rec = &self.records[at..at + self.stride()];
        let base = rec[1] + laps * shift;
        let (starts, retiming) = rec[HEAD..].split_at(self.nodes);
        for (i, (&cs, &r)) in starts.iter().zip(retiming).enumerate() {
            let v = NodeId::from_index(i);
            match u32::try_from(cs) {
                Ok(cs) if cs > 0 => state.schedule.set(v, cs),
                _ => state.schedule.clear(v),
            }
            state.retiming.set(v, r + base);
        }
    }
}
