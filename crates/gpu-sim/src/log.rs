//! The flat event log: kernel launches and event fences as data.
//!
//! One [`EventLog`] is what a capture region records, what the scheduler
//! plans from and into, what a plan cache persists, and what
//! [`GpuSim::replay`](crate::GpuSim::replay) times. It keeps three arenas
//! instead of a small vector per launch:
//!
//! * a **header list**, one entry per launch or fence: stream, descriptor
//!   and `u32` index ranges into the two arenas below;
//! * an **access arena** of `(BufferId, bytes)` pairs — a launch's reads,
//!   then its writes;
//! * a **stream arena** — a fence's signalling streams, then its waiters.
//!
//! Recording a launch therefore appends to three vectors that only ever
//! grow, and dropping a log frees three allocations however many launches
//! it holds.

use crate::kernel::KernelDesc;
use crate::mem::BufferId;

/// One buffer a launch touches, with the bytes it moves there.
pub type Access = (BufferId, u64);

/// A header: a launch (`desc` is `Some`) or a fence (`desc` is `None`).
#[derive(Clone, Copy, Debug)]
struct Header {
    desc: Option<KernelDesc>,
    /// Launch stream (0 for fences).
    stream: u32,
    /// Launch: reads are `accesses[start..mid]`, writes `accesses[mid..end]`.
    /// Fence: signals are `streams[start..mid]`, waiters `streams[mid..end]`.
    start: u32,
    mid: u32,
    end: u32,
}

/// A recorded launch, borrowed from its [`EventLog`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Launch<'a> {
    /// Stream the launch was issued on.
    pub stream: usize,
    /// Kind, op count and access efficiency.
    pub desc: KernelDesc,
    /// Buffers read, with bytes read from each.
    pub reads: &'a [Access],
    /// Buffers written, with bytes written to each.
    pub writes: &'a [Access],
}

impl Launch<'_> {
    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.reads.iter().map(|&(_, b)| b).sum()
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.writes.iter().map(|&(_, b)| b).sum()
    }
}

/// One event of an [`EventLog`], borrowed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event<'a> {
    /// A kernel launch.
    Launch(Launch<'a>),
    /// An event fence: `waiters` wait for work issued on `signals`.
    Fence {
        /// Streams whose issued work is waited upon.
        signals: &'a [u32],
        /// Streams that wait.
        waiters: &'a [u32],
    },
}

/// Records the buffers one launch touches (see [`EventLog::launch`]).
#[derive(Debug)]
pub struct Accesses<'a> {
    reads: &'a mut Vec<Access>,
    writes: &'a mut Vec<Access>,
}

impl Accesses<'_> {
    /// Adds a read of `bytes` from `buf`.
    #[inline]
    pub fn read(&mut self, buf: BufferId, bytes: u64) -> &mut Self {
        self.reads.push((buf, bytes));
        self
    }

    /// Adds a write of `bytes` to `buf`.
    #[inline]
    pub fn write(&mut self, buf: BufferId, bytes: u64) -> &mut Self {
        self.writes.push((buf, bytes));
        self
    }
}

/// Launches and fences in program order, stored flat (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    headers: Vec<Header>,
    accesses: Vec<Access>,
    streams: Vec<u32>,
    launches: usize,
    /// Writes of the launch being recorded, moved behind its reads when the
    /// launch closes. Empty between launches; kept for its capacity.
    pending_writes: Vec<Access>,
}

fn index(len: usize) -> u32 {
    u32::try_from(len).expect("event log arena holds at most 2^32 - 1 entries")
}

fn stream_id(stream: usize) -> u32 {
    u32::try_from(stream).expect("stream id exceeds u32")
}

impl EventLog {
    /// Records a launch of `desc` on `stream`; `accesses` names the buffers
    /// it touches. Reads and writes keep their own order.
    #[inline]
    pub fn launch(
        &mut self,
        stream: usize,
        desc: KernelDesc,
        accesses: impl FnOnce(&mut Accesses<'_>),
    ) {
        // Left over only if an earlier `accesses` closure unwound.
        self.pending_writes.clear();
        let start = index(self.accesses.len());
        accesses(&mut Accesses {
            reads: &mut self.accesses,
            writes: &mut self.pending_writes,
        });
        let mid = index(self.accesses.len());
        self.accesses.append(&mut self.pending_writes);
        let end = index(self.accesses.len());
        self.headers.push(Header {
            desc: Some(desc),
            stream: stream_id(stream),
            start,
            mid,
            end,
        });
        self.launches += 1;
    }

    /// Records a fence: streams in `waiters` wait for work issued on
    /// `signals`.
    pub fn fence(
        &mut self,
        signals: impl IntoIterator<Item = usize>,
        waiters: impl IntoIterator<Item = usize>,
    ) {
        let start = index(self.streams.len());
        self.streams.extend(signals.into_iter().map(stream_id));
        let mid = index(self.streams.len());
        self.streams.extend(waiters.into_iter().map(stream_id));
        let end = index(self.streams.len());
        self.headers.push(Header {
            desc: None,
            stream: 0,
            start,
            mid,
            end,
        });
    }

    /// Appends a copy of one event (borrowed from this or another log).
    pub fn push(&mut self, event: Event<'_>) {
        match event {
            Event::Launch(l) => self.launch(l.stream, l.desc, |a| {
                a.reads.extend_from_slice(l.reads);
                a.writes.extend_from_slice(l.writes);
            }),
            Event::Fence { signals, waiters } => self.fence(
                signals.iter().map(|&s| s as usize),
                waiters.iter().map(|&s| s as usize),
            ),
        }
    }

    /// Appends every event of `other`, with each launch stream and fence
    /// endpoint shifted up by `offset`.
    pub fn append_offset(&mut self, other: &EventLog, offset: usize) {
        let offset = stream_id(offset);
        let shift = |s: u32| s.checked_add(offset).expect("stream id exceeds u32");
        let a0 = index(self.accesses.len());
        let s0 = index(self.streams.len());
        // Both arenas must stay `u32`-indexable after the append.
        index(self.accesses.len() + other.accesses.len());
        index(self.streams.len() + other.streams.len());
        self.accesses.extend_from_slice(&other.accesses);
        self.streams.extend(other.streams.iter().map(|&s| shift(s)));
        self.headers.extend(other.headers.iter().map(|h| {
            let (base, stream) = match h.desc {
                Some(_) => (a0, shift(h.stream)),
                None => (s0, 0),
            };
            Header {
                stream,
                start: h.start + base,
                mid: h.mid + base,
                end: h.end + base,
                ..*h
            }
        }));
        self.launches += other.launches;
    }

    /// Number of events (launches and fences).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Number of launches.
    pub fn launches(&self) -> usize {
        self.launches
    }

    /// Number of fences.
    pub fn fences(&self) -> usize {
        self.headers.len() - self.launches
    }

    /// Total `(buffer, bytes)` entries across every launch.
    pub fn access_count(&self) -> usize {
        self.accesses.len()
    }

    /// Total stream ids across every fence.
    pub fn fence_stream_count(&self) -> usize {
        self.streams.len()
    }

    /// One past the largest stream any launch or fence names (0 when
    /// empty).
    pub fn stream_bound(&self) -> usize {
        let launch = self.headers.iter().filter(|h| h.desc.is_some());
        launch
            .map(|h| h.stream)
            .chain(self.streams.iter().copied())
            .max()
            .map_or(0, |s| s as usize + 1)
    }

    /// The event at position `i`.
    ///
    /// # Panics
    ///
    /// If `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Event<'_> {
        self.view(&self.headers[i])
    }

    /// The events in program order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Event<'_>> + '_ {
        self.headers.iter().map(|h| self.view(h))
    }

    /// Forgets every event, keeping the arenas' capacity.
    pub fn clear(&mut self) {
        self.headers.clear();
        self.accesses.clear();
        self.streams.clear();
        self.launches = 0;
    }

    /// Rewrites the buffer id of every access in place through `f`.
    pub fn map_buffers(&mut self, mut f: impl FnMut(BufferId) -> BufferId) {
        for (buf, _) in &mut self.accesses {
            *buf = f(*buf);
        }
    }

    /// Releases spare arena capacity (for logs kept long, like cached
    /// plans).
    pub fn shrink_to_fit(&mut self) {
        self.headers.shrink_to_fit();
        self.accesses.shrink_to_fit();
        self.streams.shrink_to_fit();
        self.pending_writes = Vec::new();
    }

    #[inline]
    fn view(&self, h: &Header) -> Event<'_> {
        let (start, mid, end) = (h.start as usize, h.mid as usize, h.end as usize);
        match h.desc {
            Some(desc) => Event::Launch(Launch {
                stream: h.stream as usize,
                desc,
                reads: &self.accesses[start..mid],
                writes: &self.accesses[mid..end],
            }),
            None => Event::Fence {
                signals: &self.streams[start..mid],
                waiters: &self.streams[mid..end],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelKind;

    fn sample() -> EventLog {
        let mut log = EventLog::default();
        log.launch(1, KernelDesc::new(KernelKind::NttPhase1).ops(7), |a| {
            a.read(BufferId(1), 10)
                .write(BufferId(2), 20)
                .read(BufferId(3), 30);
        });
        log.fence([0, 1], [2]);
        log.launch(0, KernelDesc::new(KernelKind::Fill), |_| {});
        log
    }

    #[test]
    fn reads_and_writes_keep_their_own_order() {
        let log = sample();
        assert_eq!((log.len(), log.launches(), log.fences()), (3, 2, 1));
        assert_eq!(log.access_count(), 3);
        let Event::Launch(l) = log.get(0) else {
            panic!("launch first")
        };
        assert_eq!(l.stream, 1);
        assert_eq!(l.reads, [(BufferId(1), 10), (BufferId(3), 30)]);
        assert_eq!(l.writes, [(BufferId(2), 20)]);
        assert_eq!((l.bytes_read(), l.bytes_written()), (40, 20));
        assert_eq!(
            log.get(1),
            Event::Fence {
                signals: &[0, 1],
                waiters: &[2]
            }
        );
        let Event::Launch(empty) = log.get(2) else {
            panic!("launch last")
        };
        assert!(empty.reads.is_empty() && empty.writes.is_empty());
        assert_eq!(log.stream_bound(), 3);
    }

    #[test]
    fn push_copies_and_append_offset_shifts_streams() {
        let log = sample();
        let mut copy = EventLog::default();
        for ev in log.iter() {
            copy.push(ev);
        }
        assert!(copy.iter().eq(log.iter()), "push reproduces every event");

        let mut merged = sample();
        merged.append_offset(&log, 3);
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.launches(), 4);
        let Event::Launch(l) = merged.get(3) else {
            panic!("launch")
        };
        assert_eq!(l.stream, 4);
        assert_eq!(l.reads, [(BufferId(1), 10), (BufferId(3), 30)]);
        assert_eq!(
            merged.get(4),
            Event::Fence {
                signals: &[3, 4],
                waiters: &[5]
            }
        );
        assert!(merged.iter().take(3).eq(log.iter()), "prefix untouched");
        assert_eq!(merged.stream_bound(), 6);
    }

    #[test]
    fn map_buffers_rewrites_every_access() {
        let mut log = sample();
        log.map_buffers(|b| BufferId(b.0 * 10));
        let Event::Launch(l) = log.get(0) else {
            panic!("launch first")
        };
        assert_eq!(l.reads, [(BufferId(10), 10), (BufferId(30), 30)]);
        assert_eq!(l.writes, [(BufferId(20), 20)]);
        assert_eq!(log.get(1), sample().get(1), "fences untouched");
    }

    #[test]
    fn clear_forgets_events() {
        let mut log = sample();
        log.clear();
        assert!(log.is_empty());
        assert_eq!((log.launches(), log.access_count()), (0, 0));
        assert_eq!(log.stream_bound(), 0);
    }
}
