//! The recorded kernel graph: what the ops *would have launched*, as data.

use std::ops::Range;

use fides_gpu_sim::{BufferId, BufferMap, Capture, Event, EventLog, KernelKind};

/// The elementwise kernel class the planner may fuse: pointwise modular
/// arithmetic, fills/copies, centered modulus switches and the automorphism
/// pre-permute — every kernel whose work is a one-coefficient-in,
/// one-coefficient-out map (§III-F.5's fusion candidates). NTT/iNTT phases
/// and base conversions have cross-coefficient data flow and stay unfused.
/// (Also applied to fused descriptors, whose kind may have degraded to the
/// generic elementwise label.)
pub(crate) fn fusible_kind(kind: Option<KernelKind>) -> bool {
    matches!(
        kind,
        Some(
            KernelKind::Elementwise
                | KernelKind::Fill
                | KernelKind::SwitchModulus
                | KernelKind::Automorphism
        )
    )
}

/// The per-op (or per-batch) lazy kernel graph: every launch and fence one
/// scheduled region recorded, in program order, in the capture's own
/// [`EventLog`].
///
/// Each fence closes a *segment*: launches in different segments are
/// ordered by a cross-limb sync point (rescale / base conversion) and are
/// never fused or reordered across it. A launch's segment is the number of
/// fences before it.
#[derive(Clone, Debug, Default)]
pub struct ExecGraph {
    pub(crate) log: EventLog,
    /// Buffer ids the device pool handed out while the region recorded
    /// (see [`Capture::fresh_ids`]); a lookup hint for the plan cache's
    /// canonicalisation and the planner's buffer interning, never part of
    /// the graph's identity.
    pub(crate) fresh_ids: Range<u64>,
}

impl ExecGraph {
    /// Builds the graph from a closed capture region: its log, plus the
    /// range of buffer ids the region's allocations came from.
    pub fn from_capture(capture: Capture) -> Self {
        Self {
            log: capture.events,
            fresh_ids: capture.fresh_ids,
        }
    }

    /// The recorded launches and fences.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Number of recorded kernel launches.
    pub fn kernel_count(&self) -> usize {
        self.log.launches()
    }

    /// Number of barrier-delimited segments.
    pub fn segment_count(&self) -> usize {
        self.log.fences() + 1
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

impl From<EventLog> for ExecGraph {
    /// A graph over `log` with no fresh-id hint.
    fn from(log: EventLog) -> Self {
        Self {
            log,
            fresh_ids: 0..0,
        }
    }
}

/// Marks a [`BufferIndex`] table slot no buffer has claimed.
const UNSEEN: u32 = u32::MAX;

/// Most fresh ids the dense table covers (4 MB of indices); ids past it
/// fall back to the map.
const MAX_DENSE_IDS: u64 = 1 << 20;

/// A graph's buffers numbered `0..n` in first-occurrence order — the plan
/// cache's canonical renaming and the planner's dense index. Ids inside
/// the graph's fresh-id window (the region's own temporaries, nearly every
/// buffer it names) resolve by subtraction into one table; the few older
/// buffers it reads go through one [`BufferMap`].
///
/// Reusable: [`Self::begin`] forgets the last graph's numbering and starts
/// the next, the tables keeping their capacity. Between the two the
/// numbering stays readable through [`Self::position`] — how a memoised
/// replay names the L2 lines it enters from.
#[derive(Debug, Default)]
pub(crate) struct BufferIndex {
    base: u64,
    dense: Vec<u32>,
    sparse: BufferMap<u32>,
    /// Index → buffer: the first-occurrence binding.
    ids: Vec<BufferId>,
}

impl BufferIndex {
    /// Starts numbering the buffers of a graph whose fresh ids are `fresh`.
    pub(crate) fn begin(&mut self, fresh: &Range<u64>) {
        self.clear();
        self.ids.clear();
        self.base = fresh.start;
        let span = fresh.end.saturating_sub(fresh.start).min(MAX_DENSE_IDS) as usize;
        if self.dense.len() < span {
            self.dense.resize(span, UNSEEN);
        }
    }

    /// `buf`'s index, numbering it next if it is new.
    #[inline]
    pub(crate) fn index(&mut self, buf: BufferId) -> u32 {
        let index = match self.dense.get_mut(buf.offset_from(self.base)) {
            Some(index) => index,
            None => self.sparse.entry(buf).or_insert(UNSEEN),
        };
        if *index == UNSEEN {
            let next = self.ids.len() as u32;
            assert_ne!(next, UNSEEN, "a region naming 2^32 buffers");
            *index = next;
            self.ids.push(buf);
        }
        *index
    }

    /// `buf`'s index, if the graph names it.
    #[inline]
    pub(crate) fn position(&self, buf: BufferId) -> Option<u32> {
        let index = match self.dense.get(buf.offset_from(self.base)) {
            Some(&index) => index,
            None => *self.sparse.get(&buf)?,
        };
        (index != UNSEEN).then_some(index)
    }

    /// Every buffer numbered since [`Self::begin`], by index.
    pub(crate) fn ids(&self) -> &[BufferId] {
        &self.ids
    }

    /// Returns every claimed table slot to [`UNSEEN`] and the map to empty
    /// (the binding stays readable until the next [`Self::begin`]).
    pub(crate) fn clear(&mut self) {
        for buf in &self.ids {
            if let Some(index) = self.dense.get_mut(buf.offset_from(self.base)) {
                *index = UNSEEN;
            }
        }
        self.sparse.clear();
    }

    /// The binding, consuming the index.
    pub(crate) fn into_ids(self) -> Vec<BufferId> {
        self.ids
    }

    /// True when no slot is claimed.
    #[cfg(test)]
    pub(crate) fn is_clean(&self) -> bool {
        self.dense.iter().all(|&i| i == UNSEEN) && self.sparse.is_empty()
    }
}

/// The recorded events with each launch's segment index.
pub(crate) fn segmented(log: &EventLog) -> impl Iterator<Item = (usize, Event<'_>)> + '_ {
    let mut segment = 0usize;
    log.iter().map(move |ev| {
        let at = segment;
        if let Event::Fence { .. } = ev {
            segment += 1;
        }
        (at, ev)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::KernelDesc;

    fn launch(log: &mut EventLog, stream: usize, kind: KernelKind) {
        log.launch(stream, KernelDesc::new(kind), |_| {});
    }

    #[test]
    fn segments_split_at_fences() {
        let mut log = EventLog::default();
        launch(&mut log, 0, KernelKind::Elementwise);
        launch(&mut log, 1, KernelKind::NttPhase1);
        log.fence([0, 1], [0, 1]);
        launch(&mut log, 0, KernelKind::Elementwise);
        let g = ExecGraph::from(log);
        assert_eq!(g.kernel_count(), 3);
        assert_eq!(g.segment_count(), 2);
        let segs: Vec<usize> = segmented(g.log())
            .filter(|(_, ev)| matches!(ev, Event::Launch(_)))
            .map(|(seg, _)| seg)
            .collect();
        assert_eq!(segs, vec![0, 0, 1]);
    }

    #[test]
    fn fusibility_classes() {
        let kinds = [
            KernelKind::Elementwise,
            KernelKind::Fill,
            KernelKind::SwitchModulus,
            KernelKind::Automorphism,
            KernelKind::NttPhase1,
            KernelKind::BaseConv,
        ];
        let fusible: Vec<bool> = kinds.iter().map(|&k| fusible_kind(Some(k))).collect();
        assert_eq!(fusible, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn empty_graph() {
        let g = ExecGraph::from(EventLog::default());
        assert!(g.is_empty());
        assert_eq!(g.kernel_count(), 0);
        assert_eq!(g.segment_count(), 1);
    }
}
