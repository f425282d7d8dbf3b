//! Multi-device simulation: a fleet of [`GpuSim`] devices sharing one
//! interconnect.
//!
//! The single-device simulator models a card in isolation; a sharded fleet
//! needs two more ingredients, both modelled here:
//!
//! 1. **A shared time origin.** Every device timeline in a cluster starts at
//!    t = 0 and advances in the same simulated microseconds, so a makespan
//!    taken as `max` over devices is meaningful, and a caller can carry one
//!    device's host clock over to another
//!    ([`GpuSim::advance_host_to`] / [`GpuSim::host_clock`]).
//! 2. **A shared link.** Device-to-device traffic serializes on one
//!    [`InterconnectSpec`]-modelled resource (a PCIe switch): a transfer
//!    occupies the link from `max(link_free, ready)` for
//!    `latency + bytes/bandwidth`, exactly the serialization rule the
//!    single-device [`Timeline`](crate::SimStats) applies to DRAM.
//!
//! The cluster does **not** schedule anything. The serve layer shards
//! tenants across its devices and moves a migrated tenant's key material
//! over the link; this module only prices those moves.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::GpuSim;

/// The shared device-to-device interconnect model: a single serialized
/// resource with fixed per-transfer latency and a flat bandwidth.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Human-readable link name.
    pub name: String,
    /// Sustained bandwidth in GB/s (10⁹ bytes per second).
    pub gbps: f64,
    /// Fixed per-transfer latency in µs (DMA setup + hop).
    pub latency_us: f64,
}

impl InterconnectSpec {
    /// PCIe Gen4 x16 through a shared switch: ~24 GB/s effective, ~5 µs
    /// per-transfer setup — matches the single-device H2D/D2H model.
    pub fn pcie_gen4() -> Self {
        Self {
            name: "pcie-gen4-x16".into(),
            gbps: 24.0,
            latency_us: 5.0,
        }
    }

    /// Bandwidth in bytes per simulated µs.
    pub fn bytes_per_us(&self) -> f64 {
        self.gbps * 1e3
    }
}

/// A fleet of simulated devices sharing one interconnect and one time
/// origin.
#[derive(Debug)]
pub struct GpuCluster {
    devices: Vec<Arc<GpuSim>>,
    interconnect: InterconnectSpec,
    /// When the link is next free (absolute simulated µs).
    link_free_us: Mutex<f64>,
}

impl GpuCluster {
    /// Builds a cluster around pre-existing devices (e.g. devices already
    /// owned by per-device contexts), joining them with `link`.
    pub fn from_devices(devices: Vec<Arc<GpuSim>>, link: InterconnectSpec) -> Arc<Self> {
        assert!(!devices.is_empty(), "a cluster needs at least one device");
        Arc::new(Self {
            devices,
            interconnect: link,
            link_free_us: Mutex::new(0.0),
        })
    }

    /// Device `i` (panics when out of range).
    pub fn device(&self, i: usize) -> &Arc<GpuSim> {
        &self.devices[i]
    }

    /// Prices one device-to-device transfer of `bytes` whose source data is
    /// ready at absolute time `ready_us`. The link is a serialized
    /// resource: the transfer starts at `max(link_free, ready_us)` and
    /// holds the link for `latency + bytes/bandwidth`. Returns the absolute
    /// completion time; the caller carries it to the destination device
    /// via [`GpuSim::advance_host_to`].
    pub fn transfer(&self, bytes: u64, ready_us: f64) -> f64 {
        let mut free_us = self.link_free_us.lock();
        let start = free_us.max(ready_us);
        let wire = self.interconnect.latency_us + bytes as f64 / self.interconnect.bytes_per_us();
        *free_us = start + wire;
        *free_us
    }

    /// Resets every device's stats window (the link-free clock keeps
    /// advancing monotonically).
    pub fn reset_stats(&self) {
        for d in &self.devices {
            d.reset_stats();
        }
    }

    /// Cluster-wide synchronize: the fleet makespan, `max` over device
    /// makespans and the link-free clock.
    pub fn sync_all(&self) -> f64 {
        let link = *self.link_free_us.lock();
        self.devices.iter().map(|d| d.sync()).fold(link, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferId, DeviceSpec, ExecMode, KernelDesc, KernelKind};

    fn cluster(n: usize) -> Arc<GpuCluster> {
        let devices = (0..n)
            .map(|_| GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly))
            .collect();
        GpuCluster::from_devices(devices, InterconnectSpec::pcie_gen4())
    }

    #[test]
    fn homogeneous_cluster_shares_time_origin() {
        let c = cluster(2);
        // Devices start at the same origin: identical work gives identical
        // makespans.
        let desc = KernelDesc::new(KernelKind::Elementwise).ops(1_000_000);
        let reads = |d: &mut crate::Accesses<'_>| {
            d.read(BufferId(1), 1 << 20);
        };
        c.device(0).launch(0, desc, reads).run(|| {});
        c.device(1).launch(0, desc, reads).run(|| {});
        assert!((c.device(0).sync() - c.device(1).sync()).abs() < 1e-9);
        assert!(c.sync_all() >= c.device(0).sync());
    }

    #[test]
    fn link_serializes_transfers() {
        let c = cluster(2);
        let link = InterconnectSpec::pcie_gen4();
        let bw = link.bytes_per_us();
        let lat = link.latency_us;
        // Two transfers ready at t=0: the second queues behind the first.
        let t1 = c.transfer(24_000, 0.0);
        assert!((t1 - (lat + 24_000.0 / bw)).abs() < 1e-9);
        let t2 = c.transfer(24_000, 0.0);
        assert!((t2 - 2.0 * (lat + 24_000.0 / bw)).abs() < 1e-9);
    }

    #[test]
    fn transfer_waits_for_source_readiness() {
        let c = cluster(2);
        // Source data ready late: the transfer cannot start before it.
        let done = c.transfer(1000, 100.0);
        assert!(done > 100.0);
    }

    #[test]
    fn shared_host_clock_round_trips() {
        let c = cluster(2);
        let d0 = c.device(0);
        let d1 = c.device(1);
        d0.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(100), |_| {})
            .run(|| {});
        let host = d0.host_clock();
        assert!(host > 0.0, "launch charges the host clock");
        // Impose device 0's host clock on device 1 (shared submission
        // thread): device 1's next launch cannot be submitted earlier.
        d1.advance_host_to(host);
        assert!(d1.host_clock() >= host);
        d1.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(100), |_| {})
            .run(|| {});
        assert!(d1.host_clock() > host);
    }
}
