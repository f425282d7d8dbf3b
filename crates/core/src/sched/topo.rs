//! The scheduler's first-order cost model.
//!
//! Scheduling decisions — unit ranking and stream placement — need
//! *estimates* of kernel service time before anything executes. The single
//! source of truth for real timing stays the gpu-sim replay; this module
//! only prices choices, and it prices them from the **active device model**
//! instead of hard-coded RTX 4090 numbers, so cost estimates stay honest
//! when the simulated device is an A4500 or a V100.

use fides_gpu_sim::{DeviceSpec, Launch};

/// First-order per-device cost constants used to rank and place units.
///
/// `Copy` by design (all scalars): it rides inside
/// [`PlanConfig`](super::PlanConfig) without breaking the config's `Copy`,
/// and its raw bits feed the plan fingerprint so cached plans never
/// survive a device-model change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Host submission overhead per launch, µs.
    pub launch_us: f64,
    /// Kernel latency floor, µs.
    pub min_kernel_us: f64,
    /// Effective DRAM bandwidth, bytes per µs.
    pub bytes_per_us: f64,
    /// Effective int32 throughput, ops per µs.
    pub ops_per_us: f64,
}

impl Default for CostModel {
    /// The historical scheduler constants (rounded RTX 4090 figures):
    /// 2 µs launch, 1.6 µs floor, ~1 TB/s DRAM, ~13.6 G int32 ops/µs.
    fn default() -> Self {
        Self {
            launch_us: 2.0,
            min_kernel_us: 1.6,
            bytes_per_us: 1.0e6,
            ops_per_us: 13.6e6,
        }
    }
}

impl CostModel {
    /// Derives the cost model from a device specification — the calibrated
    /// path every live scheduler uses (the [`Default`] literals remain only
    /// as the config's device-free fallback).
    pub fn from_spec(spec: &DeviceSpec) -> Self {
        Self {
            launch_us: spec.kernel_launch_us,
            min_kernel_us: spec.min_kernel_us,
            bytes_per_us: spec.dram_bytes_per_us(),
            ops_per_us: spec.effective_int32_ops_per_us(),
        }
    }

    /// A unit's estimated service time on its stream, µs: the max of its
    /// memory time (scaled by access efficiency), compute time, and the
    /// latency floor — the same roofline shape the timeline charges.
    pub fn unit_cost(&self, launch: &Launch<'_>) -> f64 {
        let bytes = (launch.bytes_read() + launch.bytes_written()) as f64;
        let mem = bytes / (self.bytes_per_us * launch.desc.access_efficiency);
        let compute = launch.desc.int32_ops as f64 / self.ops_per_us;
        mem.max(compute).max(self.min_kernel_us)
    }

    /// Raw bit pattern of the four constants, for fingerprinting.
    pub(crate) fn fingerprint_words(&self) -> [u64; 4] {
        [
            self.launch_us.to_bits(),
            self.min_kernel_us.to_bits(),
            self.bytes_per_us.to_bits(),
            self.ops_per_us.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{Access, BufferId, KernelDesc, KernelKind};

    fn launch(desc: KernelDesc, reads: &[Access]) -> Launch<'_> {
        Launch {
            stream: 0,
            desc,
            reads,
            writes: &[],
        }
    }

    #[test]
    fn default_matches_historical_constants() {
        let c = CostModel::default();
        assert_eq!(c.launch_us, 2.0);
        assert_eq!(c.min_kernel_us, 1.6);
        assert_eq!(c.bytes_per_us, 1.0e6);
        assert_eq!(c.ops_per_us, 13.6e6);
    }

    #[test]
    fn from_spec_calibrates_to_device() {
        let spec = DeviceSpec::rtx_4090();
        let c = CostModel::from_spec(&spec);
        assert_eq!(c.launch_us, spec.kernel_launch_us);
        assert_eq!(c.min_kernel_us, spec.min_kernel_us);
        assert_eq!(c.bytes_per_us, spec.dram_bytes_per_us());
        assert_eq!(c.ops_per_us, spec.effective_int32_ops_per_us());
        // A different device gives a genuinely different model.
        let v100 = CostModel::from_spec(&DeviceSpec::v100());
        assert_ne!(c, v100);
        assert_ne!(c.fingerprint_words(), v100.fingerprint_words());
    }

    #[test]
    fn unit_cost_is_a_roofline() {
        let c = CostModel::default();
        // Tiny kernel: latency floor.
        let tiny = launch(KernelDesc::new(KernelKind::Elementwise).ops(10), &[]);
        assert_eq!(c.unit_cost(&tiny), c.min_kernel_us);
        // Memory-bound kernel: traffic over bandwidth.
        let memk = launch(
            KernelDesc::new(KernelKind::Elementwise),
            &[(BufferId(1), 64 << 20)],
        );
        assert!(c.unit_cost(&memk) > (64 << 20) as f64 / c.bytes_per_us - 1e-9);
        // Compute-bound kernel: ops over throughput.
        let compk = launch(
            KernelDesc::new(KernelKind::NttPhase1).ops(1_000_000_000),
            &[],
        );
        assert!((c.unit_cost(&compk) - 1.0e9 / c.ops_per_us).abs() < 1e-9);
    }
}
