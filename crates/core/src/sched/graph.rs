//! The recorded kernel graph: what the ops *would have launched*, as data.

use std::ops::Range;

use fides_gpu_sim::{Capture, GraphEvent, KernelDesc, KernelKind};

/// One recorded kernel launch with its scheduling metadata.
#[derive(Clone, Debug)]
pub struct KernelNode {
    /// Stream the recording assigned (round-robin over limb batches).
    pub stream: usize,
    /// The limb-batch descriptor eager execution would have launched:
    /// buffers touched, bytes, int32 ops, kind.
    pub desc: KernelDesc,
    /// Barrier-delimited segment index. Nodes in different segments are
    /// ordered by a cross-limb sync point (rescale / base conversion) and
    /// must never be fused or reordered across it.
    pub segment: usize,
}

impl KernelNode {
    /// True for the elementwise kernel class the planner may fuse: pointwise
    /// modular arithmetic, fills/copies, centered modulus switches and the
    /// automorphism pre-permute — every kernel whose work is a
    /// one-coefficient-in, one-coefficient-out map (§III-F.5's fusion
    /// candidates). NTT/iNTT phases and base conversions have cross-
    /// coefficient data flow and stay unfused.
    pub fn is_fusible(&self) -> bool {
        fusible_kind(self.desc.kind)
    }
}

/// The kind-level fusibility rule behind [`KernelNode::is_fusible`] (also
/// applied to fused descriptors, whose kind may have degraded to the
/// generic elementwise label).
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

/// A graph element: a kernel node or a stream barrier.
#[derive(Clone, Debug)]
pub enum GraphOp {
    /// A recorded kernel launch.
    Kernel(KernelNode),
    /// An event fence: `waiters` wait for everything recorded on `signals`.
    Barrier {
        /// Streams waited upon.
        signals: Vec<usize>,
        /// Streams that wait.
        waiters: Vec<usize>,
    },
}

/// The per-op (or per-batch) lazy kernel graph: every launch and fence one
/// scheduled region recorded, in program order.
#[derive(Clone, Debug, Default)]
pub struct ExecGraph {
    pub(crate) ops: Vec<GraphOp>,
    segments: usize,
    /// Buffer ids the device pool handed out while the region recorded
    /// (see [`Capture::fresh_ids`]); a lookup hint for the plan cache's
    /// canonicalisation, never part of the graph's identity.
    pub(crate) fresh_ids: Range<u64>,
}

impl ExecGraph {
    /// Builds the graph from a closed capture region: its events, plus the
    /// range of buffer ids the region's allocations came from.
    pub fn from_capture(capture: Capture) -> Self {
        Self {
            fresh_ids: capture.fresh_ids,
            ..Self::from_events(capture.events)
        }
    }

    /// Builds the graph from a capture-event stream, assigning segment
    /// indices at each fence.
    pub fn from_events(events: Vec<GraphEvent>) -> Self {
        let mut ops = Vec::with_capacity(events.len());
        let mut segment = 0usize;
        for ev in events {
            match ev {
                GraphEvent::Launch { stream, desc } => ops.push(GraphOp::Kernel(KernelNode {
                    stream,
                    desc,
                    segment,
                })),
                GraphEvent::Fence { signals, waiters } => {
                    segment += 1;
                    ops.push(GraphOp::Barrier { signals, waiters });
                }
            }
        }
        Self {
            ops,
            segments: segment + 1,
            fresh_ids: 0..0,
        }
    }

    /// Number of recorded kernel nodes.
    pub fn kernel_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, GraphOp::Kernel(_)))
            .count()
    }

    /// Number of barrier-delimited segments.
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates the recorded kernel nodes in program order.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelNode> {
        self.ops.iter().filter_map(|o| match o {
            GraphOp::Kernel(n) => Some(n),
            GraphOp::Barrier { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launch(stream: usize, kind: KernelKind) -> GraphEvent {
        GraphEvent::Launch {
            stream,
            desc: KernelDesc::new(kind),
        }
    }

    #[test]
    fn segments_split_at_fences() {
        let g = ExecGraph::from_events(vec![
            launch(0, KernelKind::Elementwise),
            launch(1, KernelKind::NttPhase1),
            GraphEvent::Fence {
                signals: vec![0, 1],
                waiters: vec![0, 1],
            },
            launch(0, KernelKind::Elementwise),
        ]);
        assert_eq!(g.kernel_count(), 3);
        assert_eq!(g.segment_count(), 2);
        let segs: Vec<usize> = g.kernels().map(|n| n.segment).collect();
        assert_eq!(segs, vec![0, 0, 1]);
    }

    #[test]
    fn fusibility_classes() {
        let g = ExecGraph::from_events(vec![
            launch(0, KernelKind::Elementwise),
            launch(0, KernelKind::Fill),
            launch(0, KernelKind::SwitchModulus),
            launch(0, KernelKind::Automorphism),
            launch(0, KernelKind::NttPhase1),
            launch(0, KernelKind::BaseConv),
        ]);
        let fusible: Vec<bool> = g.kernels().map(|n| n.is_fusible()).collect();
        assert_eq!(fusible, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn empty_graph() {
        let g = ExecGraph::from_events(Vec::new());
        assert!(g.is_empty());
        assert_eq!(g.kernel_count(), 0);
        assert_eq!(g.segment_count(), 1);
    }
}
