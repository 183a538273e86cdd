//! Cycle replay for rotation phases, and sweep replay for Heuristic 2.
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
//! Heuristic 2 repeats the same argument one level up: its phases run in
//! a fixed size order and `FullSchedule(G_R)` reads `R` only through
//! retimed delays too. Once a phase starts on the state an earlier phase
//! of its size started on, the rest of the sweep repeats the phases in
//! between, and the driver's sweep log replays them whole: node sets,
//! lengths and reschedules (see
//! [`SearchDriver::heuristic2`](crate::engine::SearchDriver::heuristic2)).
//!
//! A logged state is stored whole and found through a 64-bit
//! fingerprint. A fingerprint match is confirmed by an exact comparison,
//! so a hash collision costs one comparison, never a wrong replay. Both
//! levels share one record format and fingerprint.

use rotsched_dfg::NodeId;

use crate::rotate::RotationState;

/// Header words of a state record: fingerprint, retiming minimum, and
/// two words the owning log assigns (see [`StateRecords`]).
const HEAD: usize = 4;

/// A log stops recording (and its phase or sweep runs on without
/// replay) once its records would pass this many words — 2 MiB. Only a
/// phase that never repeats a state gets there: its retiming spread
/// keeps growing, which takes parts of the graph with no recurrence
/// between them. A sweep log holds one record per phase, plus the
/// node sets of its rotations.
const MAX_LOG_WORDS: usize = 1 << 18;

/// Normalized states, one fixed-stride record each: the [`HEAD`] words
/// — a 64-bit fingerprint of the rest, the retiming minimum, two words
/// for the owning log — then each node's start step (0 when
/// unscheduled), then each node's retiming minus the minimum. The one
/// record format and fingerprint behind both replay levels: the states
/// of a phase ([`CycleLog`]) and the phase starts of a sweep
/// ([`SweepLog`]).
#[derive(Clone, Debug, Default)]
struct StateRecords {
    /// Nodes per state (`|V|`).
    nodes: usize,
    words: Vec<i64>,
}

impl StateRecords {
    const fn new() -> Self {
        StateRecords {
            nodes: 0,
            words: Vec::new(),
        }
    }

    /// Forgets every record, keeping the buffer, for states of `nodes`
    /// nodes.
    fn reset(&mut self, nodes: usize) {
        self.nodes = nodes;
        self.words.clear();
    }

    fn stride(&self) -> usize {
        HEAD + 2 * self.nodes
    }

    fn len(&self) -> usize {
        self.words.len() / self.stride()
    }

    fn get(&self, i: usize) -> &[i64] {
        &self.words[i * self.stride()..(i + 1) * self.stride()]
    }

    /// Appends `state` with the owner's two header words; `false` (and
    /// nothing appended) when the records would pass `cap` words.
    fn push(&mut self, owner: [i64; 2], state: &RotationState, cap: usize) -> bool {
        if self.words.len() + self.stride() > cap {
            return false;
        }
        let r = state.retiming.as_slice();
        let min = r.iter().copied().min().unwrap_or(0);
        let at = self.words.len();
        self.words.extend_from_slice(&[0, min, owner[0], owner[1]]);
        self.words.extend((0..self.nodes).map(|i| {
            let start = state.schedule.start(NodeId::from_index(i));
            start.map_or(0, i64::from)
        }));
        self.words.extend(r.iter().map(|&x| x - min));
        self.words[at] = self.words[at + HEAD..]
            .iter()
            .fold(0_u64, |h, &x| {
                (h.rotate_left(5) ^ x.cast_unsigned()).wrapping_mul(0x517c_c1b7_2722_0a95)
            })
            .cast_signed();
        true
    }

    /// The first record `m` that `admit` accepts and that holds the
    /// last record's state (a fingerprint match confirmed by an exact
    /// comparison), with how much larger every retiming value is in the
    /// last record: `(m, c)`.
    fn repeat_of_last(&self, admit: impl Fn(&[i64]) -> bool) -> Option<(usize, i64)> {
        let stride = self.stride();
        let (logged, new) = self.words.split_at(self.words.len() - stride);
        logged
            .chunks_exact(stride)
            .position(|rec| rec[0] == new[0] && rec[HEAD..] == new[HEAD..] && admit(rec))
            .map(|m| (m, new[1] - logged[m * stride + 1]))
    }
}

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

/// The logged rotation that rotation `k` (1-based) of a phase with the
/// repeat `cycle` repeats: `k` itself up to the repeat, and
/// `m + 1 + (k − 1 − m) mod p` past it.
fn logged_rotation(cycle: Option<Cycle>, k: usize) -> usize {
    match cycle {
        Some(Cycle { start, period, .. }) if k > start + period => {
            start + 1 + (k - 1 - start) % period
        }
        _ => k,
    }
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
///     ctx.down_rotate_in_place(&g, &res, &mut state, 1)?;
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
    /// One record per logged state `s_0, s_1, …`; the owner's header
    /// words are the wrapped length after the rotation that produced the
    /// state and the end of that rotation's node set in `sets`.
    records: StateRecords,
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
            records: StateRecords::new(),
            sets: Vec::new(),
            cycle: None,
            full: false,
        }
    }

    /// Starts a phase at `state` (logged as `s_0`), forgetting the
    /// previous phase but keeping the buffers. `alpha`, the phase's
    /// rotation count, sizes the buffers so the first phase grows each
    /// one once.
    pub fn begin(&mut self, state: &RotationState, alpha: usize) {
        let nodes = state.retiming.len();
        self.records.reset(nodes);
        self.sets.clear();
        self.cycle = None;
        self.full = false;
        let states = alpha.saturating_add(1);
        self.records.words.reserve(
            states
                .saturating_mul(self.records.stride())
                .min(MAX_LOG_WORDS),
        );
        self.sets
            .reserve(alpha.saturating_mul(nodes).min(MAX_LOG_WORDS));
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
        let j = self.records.len() - 1;
        self.cycle = self
            .records
            .repeat_of_last(|_| true)
            .map(|(m, shift)| Cycle {
                start: m,
                period: j - m,
                shift,
            });
    }

    /// Appends one state record; `false` (and the log is full) when it
    /// would pass [`MAX_LOG_WORDS`].
    fn push(&mut self, rotated: &[NodeId], wrapped: u32, state: &RotationState) -> bool {
        let end = i64::try_from(self.sets.len() + rotated.len()).expect("log is capped");
        if !self
            .records
            .push([i64::from(wrapped), end], state, MAX_LOG_WORDS)
        {
            self.full = true;
            return false;
        }
        self.sets.extend_from_slice(rotated);
        true
    }

    /// The phase's first repeat, once [`CycleLog::record`] found it.
    #[must_use]
    pub fn cycle(&self) -> Option<Cycle> {
        self.cycle
    }

    /// The node set and wrapped length of logged rotation `t`.
    fn rotation(&self, t: usize) -> (&[NodeId], u32) {
        let rec = self.records.get(t);
        let begin = self.records.get(t - 1)[3] as usize;
        let set = &self.sets[begin..rec[3] as usize];
        (set, u32::try_from(rec[2]).expect("a logged length"))
    }

    /// The node set and wrapped length of rotation `k` (1-based) of the
    /// phase, when it lies past the repeat and so repeats a logged
    /// rotation; `None` while the rotation must still be executed.
    #[must_use]
    pub fn replay(&self, k: usize) -> Option<(&[NodeId], u32)> {
        let Cycle { start, period, .. } = self.cycle?;
        (k > start + period).then(|| self.rotation(logged_rotation(self.cycle, k)))
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
        let laps = i64::try_from((k - start) / period).expect("rotation counts fit in i64");
        let rec = self.records.get(start + (k - start) % period);
        let base = rec[1] + laps * shift;
        let nodes = self.records.nodes;
        let (starts, retiming) = rec[HEAD..].split_at(nodes);
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

/// One executed phase of a sweep, as [`SweepLog`] keeps it for replay.
#[derive(Clone, Copy, Debug)]
struct LoggedPhase {
    /// Its first logged rotation in [`SweepLog::ends`].
    first: usize,
    /// Its [`CycleLog`]'s repeat, which maps any rotation of the phase
    /// to a logged one.
    cycle: Option<Cycle>,
    /// The wrapped length of the reschedule that followed it.
    rescheduled: u32,
}

/// Sweep replay for Heuristic 2: the start state of every phase of one
/// sweep, and what it takes to replay each executed phase.
///
/// Heuristic 2 runs its phases in a fixed size order, round after
/// round, and reads `R` only through retimed delays, like a phase does:
/// rotation, the wrap probe and `FullSchedule(G_R)` alike. `Q`, the
/// budget and the prune signal only decide when the sweep stops. So once
/// a phase starts on the state an earlier phase of the same size
/// started on (up to a constant retiming shift), every later phase `i`
/// repeats phase `i − P`, `P` phases back: its rotations (node sets and
/// wrapped lengths) and the length of its reschedule. None of it can
/// improve `Q`, which already rejected every one of those states.
///
/// The log keeps each executed phase's start in a state record (the
/// record format of [`CycleLog`], with the phase size as the owner's
/// first header word) and copies the node sets of its logged rotations
/// out of the phase's [`CycleLog`]; the wrapped lengths are in the
/// phase's [`PhaseStats`](crate::PhaseStats). Owned by the driver and
/// reused from sweep to sweep; it stops logging, and the sweep runs on
/// without replay, once it would pass [`MAX_LOG_WORDS`] words.
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepLog {
    /// The start state of every executed phase, in execution order.
    starts: StateRecords,
    /// The node sets of the executed phases' logged rotations, back to
    /// back.
    sets: Vec<NodeId>,
    /// The end of each logged rotation's set in `sets`.
    ends: Vec<usize>,
    /// One entry per executed phase.
    phases: Vec<LoggedPhase>,
    /// `(q, P)` once phase `q` started on phase `q − P`'s start state:
    /// every phase from `q` on is replayed.
    repeat: Option<(usize, usize)>,
    /// Set when the log reached [`MAX_LOG_WORDS`] or a phase's node sets
    /// were not all logged; the rest of the sweep executes.
    full: bool,
}

impl SweepLog {
    /// Starts a sweep on states of `nodes` nodes, forgetting the
    /// previous sweep but keeping the buffers.
    pub(crate) fn begin(&mut self, nodes: usize) {
        self.starts.reset(nodes);
        self.sets.clear();
        self.ends.clear();
        self.phases.clear();
        self.repeat = None;
        self.full = false;
    }

    fn words(&self) -> usize {
        self.starts.words.len() + self.sets.len() + self.ends.len()
    }

    /// Phase `q` of the sweep, of size `size`, is about to start on
    /// `state`. Returns the executed phase it replays, if any: once one
    /// phase starts on the logged start of an earlier phase of its size,
    /// it and every later phase replay. Otherwise logs the start, and
    /// the phase executes.
    pub(crate) fn source(&mut self, q: usize, size: u32, state: &RotationState) -> Option<usize> {
        if let Some((at, period)) = self.repeat {
            return Some(at - period + (q - at) % period);
        }
        if self.full {
            return None;
        }
        debug_assert_eq!(self.starts.len(), q, "one start per executed phase");
        let cap = MAX_LOG_WORDS - (self.sets.len() + self.ends.len());
        if !self.starts.push([i64::from(size), 0], state, cap) {
            self.full = true;
            return None;
        }
        let (m, _) = self
            .starts
            .repeat_of_last(|rec| rec[2] == i64::from(size))?;
        self.repeat = Some((q, q - m));
        Some(m)
    }

    /// Logs the executed phase that just ended, from its cycle log,
    /// and the wrapped length of the reschedule that followed it.
    pub(crate) fn record(&mut self, phase: &CycleLog, rescheduled: u32) {
        debug_assert!(self.repeat.is_none(), "a repeating sweep replays");
        if self.full {
            return;
        }
        if phase.full {
            self.full = true; // rotations past the log's end have no node set
            return;
        }
        let logged = phase.records.len() - 1;
        if self.words() + phase.sets.len() + logged > MAX_LOG_WORDS {
            self.full = true;
            return;
        }
        let first = self.ends.len();
        let base = self.sets.len();
        self.sets.extend_from_slice(&phase.sets);
        self.ends.extend(
            (1..=logged).map(|t| base + usize::try_from(phase.records.get(t)[3]).expect("set end")),
        );
        self.phases.push(LoggedPhase {
            first,
            cycle: phase.cycle,
            rescheduled,
        });
    }

    /// The node set of rotation `k` (1-based) of executed phase `exec`,
    /// and whether that phase replayed rotation `k` from its own cycle
    /// log (it lies past the phase's repeat).
    pub(crate) fn rotation(&self, exec: usize, k: usize) -> (&[NodeId], bool) {
        let phase = &self.phases[exec];
        let t = logged_rotation(phase.cycle, k);
        let at = phase.first + t - 1;
        let begin = if at == 0 { 0 } else { self.ends[at - 1] };
        (&self.sets[begin..self.ends[at]], t != k)
    }

    /// How many of a sweep's `phases` phases were replayed.
    pub(crate) fn replayed(&self, phases: usize) -> usize {
        self.repeat.map_or(0, |(at, _)| phases.saturating_sub(at))
    }

    /// The wrapped length of the reschedule after executed phase `exec`.
    pub(crate) fn rescheduled(&self, exec: usize) -> u32 {
        self.phases[exec].rescheduled
    }
}

/// A driver's two replay logs, the phase level and the sweep level,
/// pooled together: owned by the driver and handed from item to item of
/// a batch solve so their buffers stay warm.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReplayLogs {
    /// The running phase's states.
    pub(crate) phase: CycleLog,
    /// The running Heuristic-2 sweep's phase starts.
    pub(crate) sweep: SweepLog,
}
