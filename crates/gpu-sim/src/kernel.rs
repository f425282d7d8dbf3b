//! Kernel descriptors and instruction-cost constants.
//!
//! Every simulated kernel carries the traffic and compute totals the timeline
//! model charges. The int32-op equivalences below convert the modular
//! arithmetic mix of §III-F.2 (Table III) into the 32-bit integer-op currency
//! of Table IV: GPUs lack 64-bit integer datapaths, so a 64×64→128-bit "wide"
//! multiply costs several 32-bit multiplies while a "low" 64×64→64 multiply
//! costs fewer.

use serde::{Deserialize, Serialize};

/// int32-op cost of a wide (64×64→128) multiply.
pub const WIDE_MUL_OPS: u64 = 10;
/// int32-op cost of a low (64×64→64) multiply.
pub const LOW_MUL_OPS: u64 = 4;
/// int32-op cost of a 64-bit add/sub/compare.
pub const ADD_OPS: u64 = 2;

/// Cost of one Barrett modular multiplication: 2 wide + 1 low multiply plus a
/// correction (Table III).
pub const BARRETT_MULMOD_OPS: u64 = 2 * WIDE_MUL_OPS + LOW_MUL_OPS + 2 * ADD_OPS;
/// Cost of one Shoup modular multiplication: 1 wide + 2 low multiplies plus a
/// correction (Table III).
pub const SHOUP_MULMOD_OPS: u64 = WIDE_MUL_OPS + 2 * LOW_MUL_OPS + 2 * ADD_OPS;
/// Cost of one modular addition/subtraction.
pub const MODADD_OPS: u64 = 2 * ADD_OPS;
/// Cost of one NTT butterfly: one Shoup multiply + modular add + modular sub.
pub const BUTTERFLY_OPS: u64 = SHOUP_MULMOD_OPS + 2 * MODADD_OPS;

/// Classification of simulated kernels, used for the per-kind ledger that
/// backs the microbenchmark output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KernelKind {
    /// Pointwise modular arithmetic (ModMult/ModAdd and fusions thereof).
    Elementwise,
    /// First (strided/column) pass of the hierarchical NTT.
    NttPhase1,
    /// Second (contiguous/row) pass of the hierarchical NTT.
    NttPhase2,
    /// First pass of the inverse NTT.
    InttPhase1,
    /// Second pass of the inverse NTT.
    InttPhase2,
    /// Fast base conversion (matrix–vector accumulation), §III-F.3.
    BaseConv,
    /// Evaluation-domain automorphism permutation.
    Automorphism,
    /// Centered modulus switch.
    SwitchModulus,
    /// Host↔device copy.
    Transfer,
    /// Key/Plaintext upload or other bulk fill.
    Fill,
}

impl KernelKind {
    /// Every kind, in declaration order (`ALL[k as usize] == k`).
    pub const ALL: [KernelKind; 10] = [
        KernelKind::Elementwise,
        KernelKind::NttPhase1,
        KernelKind::NttPhase2,
        KernelKind::InttPhase1,
        KernelKind::InttPhase2,
        KernelKind::BaseConv,
        KernelKind::Automorphism,
        KernelKind::SwitchModulus,
        KernelKind::Transfer,
        KernelKind::Fill,
    ];

    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Elementwise => "elementwise",
            KernelKind::NttPhase1 => "ntt_phase1",
            KernelKind::NttPhase2 => "ntt_phase2",
            KernelKind::InttPhase1 => "intt_phase1",
            KernelKind::InttPhase2 => "intt_phase2",
            KernelKind::BaseConv => "base_conv",
            KernelKind::Automorphism => "automorphism",
            KernelKind::SwitchModulus => "switch_modulus",
            KernelKind::Transfer => "transfer",
            KernelKind::Fill => "fill",
        }
    }
}

/// What one kernel launch costs besides its memory traffic: its kind, its
/// int32-equivalent op count and its access efficiency.
///
/// The buffers a launch touches are not part of the descriptor: they are
/// recorded next to it, into the flat arena of an [`EventLog`]
/// (see [`GpuSim::launch`](crate::GpuSim::launch)).
///
/// [`EventLog`]: crate::EventLog
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Kernel classification.
    pub kind: Option<KernelKind>,
    /// Total int32-equivalent operations executed.
    pub int32_ops: u64,
    /// Memory-access efficiency in `(0, 1]`: fraction of peak bandwidth the
    /// access pattern achieves (1.0 = fully coalesced). Phantom-style strided
    /// monolithic kernels use < 1.
    pub access_efficiency: f64,
}

impl KernelDesc {
    /// Starts a descriptor of the given kind with perfect coalescing.
    pub fn new(kind: KernelKind) -> Self {
        Self {
            kind: Some(kind),
            int32_ops: 0,
            access_efficiency: 1.0,
        }
    }

    /// Sets the int32-equivalent op count.
    pub fn ops(mut self, int32_ops: u64) -> Self {
        self.int32_ops = int32_ops;
        self
    }

    /// Derates the achieved memory bandwidth (e.g. uncoalesced strides).
    pub fn access_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.access_efficiency = eff;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferId, Event, EventLog};

    #[test]
    #[allow(clippy::assertions_on_constants)] // the orderings are the documented model
    fn cost_constants_reflect_table_iii_ordering() {
        // Shoup (1 wide + 2 low) is cheaper than Barrett mul (2 wide + 1 low).
        assert!(SHOUP_MULMOD_OPS < BARRETT_MULMOD_OPS);
        assert!(MODADD_OPS < SHOUP_MULMOD_OPS);
        assert!(BUTTERFLY_OPS > SHOUP_MULMOD_OPS);
    }

    #[test]
    fn all_kinds_index_by_discriminant() {
        for (i, k) in KernelKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{}", k.label());
        }
    }

    #[test]
    fn builder_accumulates() {
        let b0 = BufferId(7);
        let b1 = BufferId(9);
        let mut log = EventLog::default();
        let d = KernelDesc::new(KernelKind::Elementwise).ops(1234);
        log.launch(0, d, |a| {
            a.read(b0, 100).read(b1, 50).write(b1, 50);
        });
        let Some(Event::Launch(l)) = log.iter().next() else {
            panic!("one launch")
        };
        assert_eq!(l.bytes_read(), 150);
        assert_eq!(l.bytes_written(), 50);
        assert_eq!(d.int32_ops, 1234);
        assert_eq!(d.kind, Some(KernelKind::Elementwise));
        assert_eq!(d.access_efficiency, 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_access_efficiency_rejected() {
        KernelDesc::new(KernelKind::Elementwise).access_efficiency(0.0);
    }
}
