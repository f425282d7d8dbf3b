//! Device topology and the scheduler's first-order cost model.
//!
//! Scheduling decisions — unit ranking, stream placement, graph
//! partitioning — need *estimates* of kernel service time and transfer
//! cost before anything executes. The single source of truth for real
//! timing stays the gpu-sim replay; this module only prices choices, and
//! it prices them from the **active device model** instead of hard-coded
//! RTX 4090 numbers, so cost estimates stay honest when the simulated
//! fleet is an A4500, a V100, or a heterogeneous mix.

use fides_gpu_sim::{DeviceSpec, InterconnectSpec, KernelDesc};

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
    pub fn unit_cost(&self, desc: &KernelDesc) -> f64 {
        let bytes = (desc.bytes_read() + desc.bytes_written()) as f64;
        let mem = bytes / (self.bytes_per_us * desc.access_efficiency);
        let compute = desc.int32_ops as f64 / self.ops_per_us;
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

/// An N-device execution topology: per-device specs plus the shared
/// interconnect they exchange data over.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Device models, in device-index order.
    pub devices: Vec<DeviceSpec>,
    /// The shared device-to-device link.
    pub interconnect: InterconnectSpec,
}

impl Topology {
    /// A single-device topology (the interconnect is never exercised but
    /// keeps the type uniform).
    pub fn single(spec: DeviceSpec) -> Self {
        Self {
            devices: vec![spec],
            interconnect: InterconnectSpec::pcie_gen4(),
        }
    }

    /// `n` identical devices joined by `link`.
    pub fn homogeneous(n: usize, spec: DeviceSpec, link: InterconnectSpec) -> Self {
        assert!(n >= 1, "a topology needs at least one device");
        Self {
            devices: vec![spec; n],
            interconnect: link,
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Per-device cost models, calibrated from each device's spec.
    pub fn cost_models(&self) -> Vec<CostModel> {
        self.devices.iter().map(CostModel::from_spec).collect()
    }

    /// Interconnect transfer time for `bytes`, µs (latency + wire time) —
    /// the partitioner's edge-weight scale.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        self.interconnect.latency_us + bytes as f64 / self.interconnect.bytes_per_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{BufferId, KernelKind};

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
        let tiny = KernelDesc::new(KernelKind::Elementwise).ops(10);
        assert_eq!(c.unit_cost(&tiny), c.min_kernel_us);
        // Memory-bound kernel: traffic over bandwidth.
        let memk = KernelDesc::new(KernelKind::Elementwise).read(BufferId(1), 64 << 20);
        assert!(c.unit_cost(&memk) > (64 << 20) as f64 / c.bytes_per_us - 1e-9);
        // Compute-bound kernel: ops over throughput.
        let compk = KernelDesc::new(KernelKind::NttPhase1).ops(1_000_000_000);
        assert!((c.unit_cost(&compk) - 1.0e9 / c.ops_per_us).abs() < 1e-9);
    }

    #[test]
    fn topology_shapes() {
        let t = Topology::single(DeviceSpec::rtx_4090());
        assert_eq!(t.num_devices(), 1);
        let t = Topology::homogeneous(4, DeviceSpec::rtx_4090(), InterconnectSpec::pcie_gen4());
        assert_eq!(t.num_devices(), 4);
        assert_eq!(t.cost_models().len(), 4);
        assert!(t.transfer_us(0) >= t.interconnect.latency_us);
        assert!(t.transfer_us(1 << 20) > t.transfer_us(0));
    }
}
