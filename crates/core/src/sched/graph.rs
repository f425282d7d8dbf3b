//! The recorded kernel graph: what the ops *would have launched*, as data.

use std::ops::Range;

use fides_gpu_sim::{Capture, Event, EventLog, KernelKind};

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
    /// canonicalisation, never part of the graph's identity.
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
