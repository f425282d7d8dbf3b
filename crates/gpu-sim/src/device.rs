//! Device specifications (paper Table IV) and derived model constants.

use serde::{Deserialize, Serialize};

/// A compute-platform model: the Table IV columns plus the handful of derived
/// microarchitectural constants the timeline model needs.
///
/// All presets correspond to rows of Table IV in the paper; the derived
/// constants (`l2_gbps`, `compute_efficiency`, launch overhead, latency
/// floor) are calibration values documented next to each preset.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"RTX 4090"`.
    pub name: String,
    /// Boost clock in GHz.
    pub freq_ghz: f64,
    /// Peak 32-bit integer TOPS (Table IV).
    pub int32_tops: f64,
    /// Shared L2 cache capacity in bytes.
    pub l2_bytes: u64,
    /// Off-chip memory bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Device memory capacity in bytes.
    pub dram_bytes: u64,
    /// Aggregate L2 bandwidth in GB/s (several × DRAM on modern GPUs).
    pub l2_gbps: f64,
    /// Host-side CPU cost to launch one kernel, in µs. The paper identifies
    /// this as the bottleneck for small limb batches on fast GPUs (§III-F.1).
    pub kernel_launch_us: f64,
    /// Minimum wall time of any kernel once scheduled (latency floor), µs.
    pub min_kernel_us: f64,
    /// Fraction of peak integer throughput achievable by modular-arithmetic
    /// kernels (issue limits, instruction mix).
    pub compute_efficiency: f64,
}

impl DeviceSpec {
    /// NVIDIA RTX 4090 (Table IV): 128 SMs @ 2.24 GHz, 41.29 INT32 TOPS,
    /// 72 MB L2, 1 TB/s GDDR6X.
    pub fn rtx_4090() -> Self {
        Self {
            name: "RTX 4090".into(),
            freq_ghz: 2.24,
            int32_tops: 41.29,
            l2_bytes: 72 << 20,
            dram_gbps: 1008.0,
            dram_bytes: 24 << 30,
            l2_gbps: 5000.0,
            kernel_launch_us: 2.0,
            min_kernel_us: 1.6,
            compute_efficiency: 0.33,
        }
    }

    /// NVIDIA RTX 4060 Ti (Table IV): 34 SMs @ 2.31 GHz, 11.03 INT32 TOPS,
    /// 32 MB L2, 288 GB/s.
    pub fn rtx_4060_ti() -> Self {
        Self {
            name: "RTX 4060 Ti".into(),
            freq_ghz: 2.31,
            int32_tops: 11.03,
            l2_bytes: 32 << 20,
            dram_gbps: 288.0,
            dram_bytes: 16 << 30,
            l2_gbps: 1400.0,
            kernel_launch_us: 2.0,
            min_kernel_us: 1.6,
            compute_efficiency: 0.33,
        }
    }

    /// NVIDIA RTX A4500 (Table IV): 56 SMs @ 1.05 GHz, 11.83 INT32 TOPS,
    /// 6 MB L2, 640 GB/s.
    pub fn rtx_a4500() -> Self {
        Self {
            name: "RTX A4500".into(),
            freq_ghz: 1.05,
            int32_tops: 11.83,
            l2_bytes: 6 << 20,
            dram_gbps: 640.0,
            dram_bytes: 20 << 30,
            l2_gbps: 2200.0,
            kernel_launch_us: 2.0,
            min_kernel_us: 2.4,
            compute_efficiency: 0.33,
        }
    }

    /// NVIDIA V100 (Table IV): 80 SMs @ 1.25 GHz, 14.13 INT32 TOPS, 6 MB L2,
    /// 897 GB/s HBM2.
    pub fn v100() -> Self {
        Self {
            name: "V100".into(),
            freq_ghz: 1.25,
            int32_tops: 14.13,
            l2_bytes: 6 << 20,
            dram_gbps: 897.0,
            dram_bytes: 16 << 30,
            l2_gbps: 2500.0,
            kernel_launch_us: 2.0,
            min_kernel_us: 2.6,
            compute_efficiency: 0.33,
        }
    }

    /// All four GPU presets, in Table IV order.
    pub fn all_gpus() -> Vec<DeviceSpec> {
        vec![
            Self::rtx_4060_ti(),
            Self::rtx_a4500(),
            Self::v100(),
            Self::rtx_4090(),
        ]
    }

    /// Peak integer throughput in int32 ops per microsecond, after the
    /// efficiency derating.
    #[inline]
    pub fn effective_int32_ops_per_us(&self) -> f64 {
        self.int32_tops * 1e6 * self.compute_efficiency
    }

    /// DRAM bandwidth in bytes per microsecond.
    #[inline]
    pub fn dram_bytes_per_us(&self) -> f64 {
        self.dram_gbps * 1e3
    }

    /// L2 bandwidth in bytes per microsecond.
    #[inline]
    pub fn l2_bytes_per_us(&self) -> f64 {
        self.l2_gbps * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_iv() {
        let g = DeviceSpec::rtx_4090();
        assert_eq!(g.l2_bytes, 72 << 20);
        assert!((g.int32_tops - 41.29).abs() < 1e-9);
        assert_eq!(DeviceSpec::all_gpus().len(), 4);
    }

    #[test]
    fn unit_conversions() {
        let g = DeviceSpec::rtx_4090();
        // 1008 GB/s ≈ 1.008e6 bytes/µs.
        assert!((g.dram_bytes_per_us() - 1.008e6).abs() < 1.0);
        assert!(g.effective_int32_ops_per_us() > 1e6);
    }

    #[test]
    fn gpu_ordering_by_bandwidth() {
        let gpus = DeviceSpec::all_gpus();
        for w in gpus.windows(2) {
            assert!(
                w[0].dram_gbps < w[1].dram_gbps,
                "Table IV order is ascending bandwidth"
            );
        }
    }
}
