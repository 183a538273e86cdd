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
//! between, and the driver replays them whole from the same log: node
//! sets, lengths and reschedules (see
//! [`SearchDriver::heuristic2`](crate::engine::SearchDriver::heuristic2)).
//! Each executed rotation is logged once, and both levels read it back
//! the same way: map the rotation through its phase's [`Cycle`], then
//! read the logged node set and length.
//!
//! A logged state is stored whole and found through a 64-bit
//! fingerprint. A fingerprint match is confirmed by an exact comparison,
//! so a hash collision costs one comparison, never a wrong replay. Both
//! levels share one record format and fingerprint.

use rotsched_dfg::NodeId;

use crate::rotate::RotationState;

/// Header words of a state record: fingerprint, retiming minimum, and
/// a tag (see [`StateRecords`]).
const HEAD: usize = 3;

/// A log stops recording once it would pass this many words — 2 MiB —
/// counting its state records, node sets and rotation entries alike.
/// Its phase then runs on without cycle replay, and its sweep without
/// sweep replay. Only a phase that never repeats a state gets there:
/// its retiming spread keeps growing, which takes parts of the graph
/// with no recurrence between them.
const MAX_LOG_WORDS: usize = 1 << 18;

/// Normalized states, one fixed-stride record each: the [`HEAD`] words
/// — a 64-bit fingerprint of the rest, the retiming minimum, and a tag
/// (a sweep's phase size, 0 for a phase's states) — then each node's
/// start step (0 when unscheduled), then each node's retiming minus the
/// minimum. The one record format and fingerprint behind both replay
/// levels.
#[derive(Clone, Debug, Default)]
struct StateRecords {
    /// Nodes per state (`|V|`).
    nodes: usize,
    words: Vec<i64>,
}

impl StateRecords {
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

    /// Appends `state` with `tag`; `false` (and nothing appended) when
    /// the record would take more than `room` words.
    fn push(&mut self, tag: i64, state: &RotationState, room: usize) -> bool {
        if self.stride() > room {
            return false;
        }
        let r = state.retiming.as_slice();
        let min = r.iter().copied().min().unwrap_or(0);
        let at = self.words.len();
        self.words.extend_from_slice(&[0, min, tag]);
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

/// One executed phase of a sweep, as the log keeps it for sweep replay.
#[derive(Clone, Copy, Debug)]
struct LoggedPhase {
    /// Its rotation 1 in the log's `rotations`.
    first: usize,
    /// Its repeat, which maps any of its rotations to a logged one.
    cycle: Option<Cycle>,
    /// The rotations it ran, replayed ones included.
    rotations: usize,
    /// The wrapped length of the reschedule that followed it.
    rescheduled: u32,
}

/// The replay log: the states the running rotation phase has visited,
/// the node set and wrapped length of every rotation it executed, and,
/// during a Heuristic-2 sweep, what it takes to replay each executed
/// phase of the sweep.
///
/// Owned by its runner and reused from phase to phase and sweep to
/// sweep: [`CycleLog::begin`] clears it without freeing, so a warm log
/// costs no allocation. What persists is by level:
///
/// * **per rotation** — each executed rotation's node set, set end and
///   wrapped length, written once;
/// * **per phase** — the running phase's state records, cleared at each
///   phase start and dropped at its end;
/// * **per sweep** — each executed phase's start record, first
///   rotation, [`Cycle`], rotation count and reschedule length. A phase
///   outside a sweep starts on an empty log.
///
/// # Examples
///
/// A uniform ring under size-1 rotations repeats its state after `n`
/// rotations with every retiming value one larger.
///
/// ```
/// use rotsched_core::cycle::CycleLog;
/// use rotsched_core::initial_state;
/// use rotsched_dfg::{DfgBuilder, OpKind};
/// use rotsched_sched::{ListScheduler, ResourceSet, SchedContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = DfgBuilder::new("ring")
///     .nodes("v", 4, OpKind::Add, 1)
///     .chain(&["v0", "v1", "v2", "v3"])
///     .edge("v3", "v0", 1)
///     .build()?;
/// let (sched, res) = (ListScheduler::default(), ResourceSet::adders_multipliers(1, 0, false));
/// let mut state = initial_state(&g, &sched, &res)?;
/// let mut ctx = SchedContext::new(&g, &sched, &res, Some(&state.retiming), &state.schedule)?;
/// let (mut log, mut rotated) = (CycleLog::new(), Vec::new());
/// log.begin(&state, 16);
/// while log.cycle().is_none() {
///     ctx.down_rotate(&g, &res, &mut state.retiming, &mut state.schedule, 1, &mut rotated)?;
///     log.record(&rotated, state.wrapped_length(&g, &res)?, &state);
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
    /// The running phase's states `s_0, s_1, …`.
    states: StateRecords,
    /// The node sets of the logged rotations, back to back.
    sets: Vec<NodeId>,
    /// Per logged rotation: the end of its node set in `sets` and the
    /// wrapped length after it.
    rotations: Vec<(u32, u32)>,
    /// The running phase's rotation 1 in `rotations`.
    first: usize,
    /// The running phase's first repeat, once found.
    cycle: Option<Cycle>,
    /// Set when the running phase reached [`MAX_LOG_WORDS`]; no repeat
    /// is looked for during the rest of the phase.
    full: bool,
    /// The start state of every executed phase of the sweep, in
    /// execution order, tagged with its size.
    starts: StateRecords,
    /// One entry per executed phase of the sweep.
    phases: Vec<LoggedPhase>,
    /// Whether the running phase is part of a sweep the log still
    /// follows: set at the sweep's start, cleared once the log reached
    /// [`MAX_LOG_WORDS`] or a phase's rotations were not all logged.
    sweep: bool,
    /// `(q, P)` once phase `q` started on phase `q − P`'s start state:
    /// every phase from `q` on is replayed.
    repeat: Option<(usize, usize)>,
}

impl CycleLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets everything the log holds, keeping the buffers.
    fn clear(&mut self, nodes: usize) {
        self.states.reset(nodes);
        self.sets.clear();
        self.rotations.clear();
        self.starts.reset(nodes);
        self.phases.clear();
        self.repeat = None;
    }

    fn words(&self) -> usize {
        self.states.words.len() + self.sets.len() + self.rotations.len() + self.starts.words.len()
    }

    /// Starts a phase at `state` (logged as `s_0`) on an empty log,
    /// forgetting everything logged before but keeping the buffers.
    /// `alpha`, the phase's rotation count, sizes the buffers so the
    /// first phase grows each one once.
    pub fn begin(&mut self, state: &RotationState, alpha: usize) {
        self.sweep = false;
        self.begin_in_sweep(state, alpha);
    }

    /// Starts an executed phase of the sweep at `state`: as
    /// [`CycleLog::begin`], but the rotations the sweep's earlier phases
    /// logged stay, as long as the log still follows the sweep.
    pub(crate) fn begin_in_sweep(&mut self, state: &RotationState, alpha: usize) {
        let nodes = state.retiming.len();
        if !self.sweep {
            self.clear(nodes);
        }
        self.states.reset(nodes);
        self.first = self.rotations.len();
        self.cycle = None;
        let states = alpha.saturating_add(1);
        self.states.words.reserve(
            states
                .saturating_mul(self.states.stride())
                .min(MAX_LOG_WORDS),
        );
        self.sets
            .reserve(alpha.saturating_mul(nodes).min(MAX_LOG_WORDS));
        self.rotations.reserve(alpha.min(MAX_LOG_WORDS));
        let room = MAX_LOG_WORDS.saturating_sub(self.words());
        self.full = !self.states.push(0, state, room);
    }

    /// Logs the next rotation: its node set, the wrapped length after
    /// it, and the state it produced. When that state repeats a logged
    /// one, the phase has its [`Cycle`] and [`CycleLog::replay`] serves
    /// every later rotation. Call it only while [`CycleLog::cycle`] is
    /// `None`.
    pub fn record(&mut self, rotated: &[NodeId], wrapped: u32, state: &RotationState) {
        debug_assert!(self.cycle.is_none(), "a cycled phase replays");
        if self.full {
            return;
        }
        let room = MAX_LOG_WORDS.saturating_sub(self.words() + rotated.len() + 1);
        if !self.states.push(0, state, room) {
            self.full = true;
            return;
        }
        self.sets.extend_from_slice(rotated);
        let end = u32::try_from(self.sets.len()).expect("the log is capped");
        self.rotations.push((end, wrapped));
        let j = self.states.len() - 1;
        self.cycle = self
            .states
            .repeat_of_last(|_| true)
            .map(|(m, shift)| Cycle {
                start: m,
                period: j - m,
                shift,
            });
    }

    /// The phase's first repeat, once [`CycleLog::record`] found it.
    #[must_use]
    pub fn cycle(&self) -> Option<Cycle> {
        self.cycle
    }

    /// The node set and wrapped length of logged rotation `t` of the
    /// phase whose rotation 1 is `first` in `rotations`.
    fn rotation(&self, first: usize, t: usize) -> (&[NodeId], u32) {
        let at = first + t - 1;
        let begin = at.checked_sub(1).map_or(0, |i| self.rotations[i].0);
        let (end, wrapped) = self.rotations[at];
        (&self.sets[begin as usize..end as usize], wrapped)
    }

    /// The node set and wrapped length of rotation `k` (1-based) of the
    /// phase, when it lies past the repeat and so repeats a logged
    /// rotation; `None` while the rotation must still be executed.
    #[must_use]
    pub fn replay(&self, k: usize) -> Option<(&[NodeId], u32)> {
        let Cycle { start, period, .. } = self.cycle?;
        (k > start + period).then(|| self.rotation(self.first, logged_rotation(self.cycle, k)))
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
        let rec = self.states.get(start + (k - start) % period);
        let base = rec[1] + laps * shift;
        let nodes = self.states.nodes;
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

    /// Starts a Heuristic-2 sweep on states of `nodes` nodes, forgetting
    /// the previous sweep but keeping the buffers.
    pub(crate) fn begin_sweep(&mut self, nodes: usize) {
        self.clear(nodes);
        self.sweep = true;
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
        if !self.sweep {
            return None;
        }
        debug_assert_eq!(self.starts.len(), q, "one start per executed phase");
        let room = MAX_LOG_WORDS.saturating_sub(self.words());
        if !self.starts.push(i64::from(size), state, room) {
            self.sweep = false;
            return None;
        }
        let (m, _) = self
            .starts
            .repeat_of_last(|rec| rec[2] == i64::from(size))?;
        self.repeat = Some((q, q - m));
        Some(m)
    }

    /// Ends the executed phase of the sweep that ran `rotations`
    /// rotations and was followed by a reschedule of wrapped length
    /// `rescheduled`: drops its state records and keeps what replaying
    /// it takes.
    pub(crate) fn end_phase(&mut self, rotations: usize, rescheduled: u32) {
        debug_assert!(self.repeat.is_none(), "a repeating sweep replays");
        self.states.words.clear();
        self.sweep &= !self.full; // rotations past the cap have no node set
        if self.sweep {
            self.phases.push(LoggedPhase {
                first: self.first,
                cycle: self.cycle,
                rotations,
                rescheduled,
            });
        }
    }

    /// The node set and wrapped length of rotation `k` (1-based) of
    /// executed phase `exec`, and whether that phase replayed rotation
    /// `k` from its own repeat; `None` past the rotations it ran.
    pub(crate) fn replay_phase(&self, exec: usize, k: usize) -> Option<(&[NodeId], u32, bool)> {
        let phase = &self.phases[exec];
        (k <= phase.rotations).then(|| {
            let t = logged_rotation(phase.cycle, k);
            let (set, wrapped) = self.rotation(phase.first, t);
            (set, wrapped, t != k)
        })
    }

    /// The rotations executed phase `exec` ran.
    pub(crate) fn rotations_of(&self, exec: usize) -> usize {
        self.phases[exec].rotations
    }

    /// The wrapped length of the reschedule after executed phase `exec`.
    pub(crate) fn rescheduled(&self, exec: usize) -> u32 {
        self.phases[exec].rescheduled
    }

    /// How many of a sweep's `phases` phases were replayed.
    pub(crate) fn replayed(&self, phases: usize) -> usize {
        self.repeat.map_or(0, |(at, _)| phases.saturating_sub(at))
    }
}
