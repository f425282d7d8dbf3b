//! Memoised replay: a planned log's launch terms, reused while the
//! device's residency list repeats.
//!
//! Replaying a launch does two separable things. It *classifies* its
//! traffic through the L2 model — which read bytes hit, which missed, which
//! dirty bytes an eviction wrote back — and it *times* the launch: those
//! three byte counts, its descriptor and the device's constants fix its
//! [`LaunchTerms`] (resource-phase and service times, ledger counts), and
//! [`Timeline::advance`] moves the clocks and the ledger by them. The
//! classification of a whole log is a pure function of the L2 capacity,
//! the ordered resident list it starts from (each line's bytes and dirty
//! flag) and the sequence of buffers the log touches; the timing arithmetic
//! never feeds back into it. Only equality of buffer ids matters to the L2
//! model, never their values.
//!
//! So a replay names the lines it starts from: a buffer it touches gets
//! the caller's name for it (a cached plan names a pooled slot by the slot
//! and any other buffer by its position in the graph binding, names that
//! mean the same thing on every replay of that plan), and a line it never
//! touches is named only by its bytes and dirty flag. Two replays of one
//! log from equally named states touch corresponding buffers in the same
//! order, so they classify every launch identically and leave equally named
//! exit states. A [`ReplayMemo`] therefore records each launch's terms and
//! the exit state once, and a repeated replay from that state calls
//! `advance` over the stored terms — applying the log's fences, found by
//! their recorded event index, between them — and installs the exit state:
//! no L2 touch, no walk over the log's launches, no terms derived again.
//! The terms bake in the device's timing constants, so a memo is keyed on
//! all of them, not only the L2 capacity. A recorded replay keeps 80 bytes
//! per launch.

use std::cell::Cell;

use crate::log::{Event, EventLog};
use crate::mem::{BufferId, BufferMap};
use crate::timeline::{Constants, L2Model, LaunchTerms, Timeline};

/// One resident L2 line as a replay names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    /// The caller's name for the buffer; `None` for a buffer the replay
    /// never touches.
    name: Option<u64>,
    bytes: u64,
    dirty: bool,
}

/// Where an exit line's buffer comes from when a memo is applied.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// The buffer the caller resolves this name to.
    Named(u64),
    /// The buffer of the entry state's line at this position: a line the
    /// replay never touched.
    Entry(u32),
}

/// One recorded replay: the state it entered from, each launch's terms,
/// where the log's fences fall among them, and the state it left.
#[derive(Debug, Default)]
struct Recorded {
    entry: Vec<Line>,
    /// One per launch, in launch order.
    terms: Vec<LaunchTerms>,
    /// Each fence as `(launches before it, its index in the log)`.
    fences: Vec<(usize, usize)>,
    exit: Vec<(Source, u64, bool)>,
}

impl Recorded {
    /// Advances `timeline` by every stored launch and every fence of `log`,
    /// in the log's order.
    fn advance(&self, timeline: &mut Timeline, log: &EventLog) {
        let mut done = 0;
        for &(at, event) in &self.fences {
            for t in &self.terms[done..at] {
                timeline.advance(t);
            }
            done = at;
            let Event::Fence { signals, waiters } = log.get(event) else {
                unreachable!("a recorded fence index names a fence of its log");
            };
            timeline.fence(signals, waiters);
        }
        for t in &self.terms[done..] {
            timeline.advance(t);
        }
    }
}

/// The device's resident list named for one replay. Scratch the device
/// keeps for its capacity.
#[derive(Debug, Default)]
pub(crate) struct EntryState {
    ids: Vec<BufferId>,
    lines: Vec<Line>,
}

impl EntryState {
    /// Names every resident line of `l2`, least recently used first.
    pub(crate) fn fill(&mut self, l2: &L2Model, name: &impl Fn(BufferId) -> Option<u64>) {
        self.ids.clear();
        self.lines.clear();
        for (buf, bytes, dirty) in l2.residents() {
            self.ids.push(buf);
            self.lines.push(Line {
                name: name(buf),
                bytes,
                dirty,
            });
        }
    }
}

/// Most entry states one memo records, and most it remembers seeing once.
const STATES: usize = 4;

/// What one replayed log remembers between replays (see the module docs
/// and [`GpuSim::replay_memoised`](crate::GpuSim::replay_memoised)): the
/// launch terms and exit state of up to four replays, each from its own
/// entry state, and the entry states of the last four replays that found
/// no recorded match. A state is recorded the second time a replay that
/// finds no match enters from it.
///
/// A memo belongs to one log replayed under one naming, and is valid on any
/// device whose L2 capacity and timing constants (launch overhead, latency
/// floor, DRAM, L2 and int32 rates) equal those it was recorded on.
#[derive(Debug, Default)]
pub struct ReplayMemo {
    /// Device constants `recorded` and `seen` were made on.
    constants: Constants,
    /// Least recently applied first.
    recorded: Vec<Recorded>,
    /// Entry states of unmatched replays, oldest first.
    seen: Vec<Vec<Line>>,
}

impl ReplayMemo {
    /// Advances `timeline` by a recorded replay's terms and `log`'s fences
    /// and installs that replay's exit state — when the memo holds one
    /// entered from exactly `state` on a device of these constants. Returns
    /// whether it did.
    pub(crate) fn apply(
        &mut self,
        timeline: &mut Timeline,
        log: &EventLog,
        state: &EntryState,
        resolve: impl Fn(u64) -> BufferId,
    ) -> bool {
        if self.constants != timeline.constants() {
            return false;
        }
        let Some(at) = self.recorded.iter().position(|r| r.entry == state.lines) else {
            return false;
        };
        self.recorded[at..].rotate_left(1);
        let rec = self.recorded.last().expect("just found");
        rec.advance(timeline, log);
        timeline
            .l2
            .install(rec.exit.iter().map(|&(source, bytes, dirty)| {
                let buf = match source {
                    Source::Named(name) => resolve(name),
                    Source::Entry(k) => state.ids[k as usize],
                };
                (buf, bytes, dirty)
            }));
        true
    }

    /// Replays `log` through the L2 model as [`Timeline::replay`] does,
    /// from `state`, and records the replay if an earlier unmatched one
    /// entered from the same state.
    pub(crate) fn replay(
        &mut self,
        timeline: &mut Timeline,
        log: &EventLog,
        map: impl Fn(BufferId) -> BufferId,
        state: &EntryState,
        name: impl Fn(BufferId) -> Option<u64>,
    ) {
        let constants = timeline.constants();
        if self.constants != constants {
            self.constants = constants;
            self.recorded.clear();
            self.seen.clear();
        }
        let Some(seen) = self.seen.iter().position(|lines| *lines == state.lines) else {
            timeline.replay(log, map);
            if self.seen.len() == STATES {
                self.seen.remove(0);
            }
            self.seen.push(state.lines.clone());
            return;
        };
        let mut rec = Recorded {
            entry: self.seen.remove(seen),
            terms: Vec::with_capacity(log.launches()),
            fences: Vec::with_capacity(log.fences()),
            exit: Vec::new(),
        };
        // A log touching a buffer the naming misses cannot be memoised:
        // its terms would depend on that buffer's identity.
        let named = Cell::new(true);
        let map = |buf| {
            let to = map(buf);
            if name(to).is_none() {
                named.set(false);
            }
            to
        };
        timeline.replay_recording(log, map, &mut rec.terms, &mut rec.fences);
        if !named.get() {
            return;
        }
        let untouched: BufferMap<u32> = state
            .ids
            .iter()
            .zip(&state.lines)
            .enumerate()
            .filter(|(_, (_, line))| line.name.is_none())
            .map(|(k, (&buf, _))| (buf, k as u32))
            .collect();
        for (buf, bytes, dirty) in timeline.l2.residents() {
            let source = match (name(buf), untouched.get(&buf)) {
                (Some(name), _) => Source::Named(name),
                (None, Some(&k)) => Source::Entry(k),
                // Only a naming that is not one-to-one gets here.
                (None, None) => return,
            };
            rec.exit.push((source, bytes, dirty));
        }
        if self.recorded.len() == STATES {
            self.recorded.remove(0);
        }
        self.recorded.push(rec);
    }
}
