//! CKKS parameter sets (`CKKS::Parameters` in FIDESlib).
//!
//! Parameters follow the paper's `[log N, L, Δ, dnum]` notation plus the
//! GPU-execution knobs the paper exposes: the **limb batch** size (§III-F.1)
//! and kernel-fusion toggles (§III-F.5, used by the ablation benchmarks).

use fides_client::RawParams;
use serde::{Deserialize, Serialize};

use crate::error::{FidesError, Result};

/// Kernel-fusion configuration (all on by default, as in FIDESlib).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Fuse SwitchModulus + combine into the Rescale NTT kernels.
    pub rescale: bool,
    /// Fuse the `P^{-1}(x − NTT(x'))` sequence into the ModDown NTT kernels.
    pub mod_down: bool,
    /// Fuse digit scaling into iNTT and key inner products into NTT during
    /// key switching (the HMult fusion).
    pub key_switch: bool,
    /// Fuse dot-product accumulations into single kernels.
    pub dot_product: bool,
    /// Graph-level fusion: the scheduling pass
    /// ([`Planner`](crate::sched::Planner)) collapses adjacent same-stream
    /// elementwise-class launches (adds, scalar multiplies, fills,
    /// automorphism pre-permutes) into single launches.
    pub elementwise: bool,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self {
            rescale: true,
            mod_down: true,
            key_switch: true,
            dot_product: true,
            elementwise: true,
        }
    }
}

impl FusionConfig {
    /// Everything off — the ablation baseline.
    pub fn none() -> Self {
        Self {
            rescale: false,
            mod_down: false,
            key_switch: false,
            dot_product: false,
            elementwise: false,
        }
    }
}

/// A CKKS parameter set in the paper's `[log N, L, Δ, dnum]` notation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CkksParameters {
    /// log2 of the ring degree.
    pub log_n: usize,
    /// Multiplicative depth (number of scaling primes).
    pub levels: usize,
    /// log2 of the encoding scale `Δ`.
    pub scale_bits: u32,
    /// Bits of the first (decryption) modulus and the auxiliary primes.
    pub first_mod_bits: u32,
    /// Key-switching digit count.
    pub dnum: usize,
    /// Limbs per kernel launch (§III-F.1). Tunable per device; Fig. 7 sweeps
    /// this.
    pub limb_batch: usize,
    /// Kernel fusion toggles.
    pub fusion: FusionConfig,
    /// CUDA streams limb batches cycle over (round-robin). The planning
    /// pass ([`sched`](crate::sched)) schedules recorded launches onto this
    /// many streams.
    pub num_streams: usize,
    /// Fraction of peak memory bandwidth the NTT access pattern achieves
    /// (1.0 for FIDESlib's coalesced hierarchical scheme; lower for
    /// Phantom-style monolithic strided kernels).
    pub access_efficiency: f64,
    /// Multiplier on NTT butterfly compute (1.0 for Radix-2; higher for
    /// Radix-8, whose computational complexity the paper identifies as the
    /// primary NTT bottleneck, §III-F.4).
    pub ntt_op_factor: f64,
    /// Simulated devices the serving layer shards tenants across, one
    /// context per device. `1` (the default) is the classic single-device
    /// pipeline.
    pub num_devices: usize,
}

impl CkksParameters {
    /// Builds a parameter set; validates structural constraints.
    ///
    /// # Errors
    ///
    /// Returns [`FidesError::InvalidParams`] when sizes are inconsistent.
    pub fn new(
        log_n: usize,
        levels: usize,
        scale_bits: u32,
        dnum: usize,
    ) -> Result<CkksParameters> {
        let p = CkksParameters {
            log_n,
            levels,
            scale_bits,
            first_mod_bits: 60,
            dnum,
            limb_batch: 4,
            fusion: FusionConfig::default(),
            num_streams: crate::context::NUM_STREAMS,
            access_efficiency: 1.0,
            ntt_op_factor: 1.0,
            num_devices: 1,
        };
        p.validate()?;
        Ok(p)
    }

    /// Overrides the limb batch (builder style).
    pub fn with_limb_batch(mut self, batch: usize) -> Self {
        self.limb_batch = batch.max(1);
        self
    }

    /// Overrides fusion configuration (builder style).
    pub fn with_fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Overrides the first-modulus size (builder style).
    pub fn with_first_mod_bits(mut self, bits: u32) -> Self {
        self.first_mod_bits = bits;
        self
    }

    /// Overrides the stream count (builder style; clamped to ≥ 1).
    pub fn with_num_streams(mut self, streams: usize) -> Self {
        self.num_streams = streams.max(1);
        self
    }

    /// Overrides the NTT memory-access efficiency (builder style; used by
    /// the Phantom comparator).
    pub fn with_access_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0);
        self.access_efficiency = eff;
        self
    }

    /// Overrides the NTT butterfly compute factor (builder style; used by
    /// the Phantom comparator's Radix-8 profile).
    pub fn with_ntt_op_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0);
        self.ntt_op_factor = factor;
        self
    }

    /// Overrides the simulated device count (builder style; clamped to
    /// ≥ 1). Values above 1 make the serve layer shard tenants across
    /// that many device workers.
    pub fn with_num_devices(mut self, devices: usize) -> Self {
        self.num_devices = devices.max(1);
        self
    }

    fn validate(&self) -> Result<()> {
        if !(4..=17).contains(&self.log_n) {
            return Err(FidesError::InvalidParams(format!(
                "log_n {} out of range",
                self.log_n
            )));
        }
        if self.levels == 0 {
            return Err(FidesError::InvalidParams("need at least one level".into()));
        }
        if self.dnum == 0 || self.dnum > self.levels + 1 {
            return Err(FidesError::InvalidParams(format!(
                "dnum {} must be in 1..=L+1={}",
                self.dnum,
                self.levels + 1
            )));
        }
        if self.scale_bits >= self.first_mod_bits {
            return Err(FidesError::InvalidParams(
                "scale must be smaller than the first modulus".into(),
            ));
        }
        if self.first_mod_bits > 60 {
            return Err(FidesError::InvalidParams(
                "first modulus limited to 60 bits".into(),
            ));
        }
        // Primes must satisfy q ≡ 1 (mod 2N).
        if self.scale_bits as usize <= self.log_n + 1 {
            return Err(FidesError::InvalidParams(
                "scale too small for ring degree".into(),
            ));
        }
        Ok(())
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// The paper's evaluation default: `[2^16, 29, 2^59, 4]`.
    pub fn paper_default() -> CkksParameters {
        CkksParameters::new(16, 29, 59, 4).expect("paper parameters are valid")
    }

    /// The logistic-regression workload parameters: `[2^16, 26, 2^59, 4]`
    /// (Table VII).
    pub fn paper_lr() -> CkksParameters {
        CkksParameters::new(16, 26, 59, 4).expect("LR parameters are valid")
    }

    /// The five Fig. 8 parameter sets
    /// `[log N, L, Δ, dnum] ∈ {[13,5,36,2], [14,9,41,3], [15,15,47,3],
    /// [16,29,59,4], [17,44,59,4]}`.
    pub fn fig8_sets() -> Vec<CkksParameters> {
        vec![
            CkksParameters::new(13, 5, 36, 2)
                .unwrap()
                .with_first_mod_bits(48),
            CkksParameters::new(14, 9, 41, 3)
                .unwrap()
                .with_first_mod_bits(52),
            CkksParameters::new(15, 15, 47, 3)
                .unwrap()
                .with_first_mod_bits(55),
            CkksParameters::new(16, 29, 59, 4).unwrap(),
            CkksParameters::new(17, 44, 59, 4).unwrap(),
        ]
    }

    /// Small functional-test parameters: fast to execute bit-exactly.
    pub fn toy() -> CkksParameters {
        CkksParameters::new(10, 4, 40, 2)
            .expect("toy parameters are valid")
            .with_limb_batch(2)
    }

    /// Toy parameters deep enough for functional bootstrapping tests.
    pub fn toy_boot() -> CkksParameters {
        CkksParameters::new(11, 20, 50, 3)
            .expect("toy boot parameters are valid")
            .with_first_mod_bits(55)
    }

    /// Generates the concrete prime chains (shared client/server
    /// description).
    pub fn to_raw(&self) -> RawParams {
        RawParams::generate(
            self.log_n,
            self.levels,
            self.scale_bits,
            self.first_mod_bits,
            self.dnum,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let p = CkksParameters::paper_default();
        assert_eq!(p.n(), 1 << 16);
        assert_eq!(p.levels, 29);
        assert_eq!(p.dnum, 4);
        let raw = p.to_raw();
        assert_eq!(raw.moduli_q.len(), 30);
        assert_eq!(raw.moduli_p.len(), 8); // alpha = ceil(30/4)
        assert_eq!(raw.max_level(), 29);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(CkksParameters::new(3, 4, 40, 2).is_err(), "log_n too small");
        assert!(CkksParameters::new(12, 0, 40, 2).is_err(), "no levels");
        assert!(CkksParameters::new(12, 4, 40, 0).is_err(), "dnum 0");
        assert!(CkksParameters::new(12, 4, 40, 6).is_err(), "dnum too large");
        assert!(
            CkksParameters::new(12, 4, 60, 2).is_err(),
            "scale ≥ first mod"
        );
        assert!(
            CkksParameters::new(12, 4, 12, 2).is_err(),
            "scale too small for N"
        );
    }

    #[test]
    fn builder_overrides() {
        let p = CkksParameters::toy()
            .with_limb_batch(8)
            .with_fusion(FusionConfig::none());
        assert_eq!(p.limb_batch, 8);
        assert!(!p.fusion.rescale);
        assert!(!p.fusion.elementwise);
        let p = p.with_limb_batch(0);
        assert_eq!(p.limb_batch, 1, "batch clamped to 1");
    }

    #[test]
    fn scheduling_knobs() {
        let p = CkksParameters::toy();
        assert_eq!(p.num_streams, crate::context::NUM_STREAMS);
        assert!(p.fusion.elementwise);
        let p = p.with_num_streams(0);
        assert_eq!(p.num_streams, 1, "stream count clamped to 1");
        let p = p.with_num_streams(4);
        assert_eq!(p.num_streams, 4);
        assert_eq!(p.num_devices, 1, "single device is the default");
        let p = p.with_num_devices(0);
        assert_eq!(p.num_devices, 1, "device count clamped to 1");
        let p = p.with_num_devices(4);
        assert_eq!(p.num_devices, 4);
    }

    #[test]
    fn fig8_sets_match_paper() {
        let sets = CkksParameters::fig8_sets();
        assert_eq!(sets.len(), 5);
        assert_eq!(
            (
                sets[0].log_n,
                sets[0].levels,
                sets[0].scale_bits,
                sets[0].dnum
            ),
            (13, 5, 36, 2)
        );
        assert_eq!(
            (
                sets[4].log_n,
                sets[4].levels,
                sets[4].scale_bits,
                sets[4].dnum
            ),
            (17, 44, 59, 4)
        );
    }

    #[test]
    fn toy_raw_chain_is_consistent() {
        let raw = CkksParameters::toy().to_raw();
        assert_eq!(raw.moduli_q.len(), 5);
        // All primes NTT-friendly.
        for &q in raw.moduli_q.iter().chain(&raw.moduli_p) {
            assert_eq!(q % (2 * raw.n() as u64), 1);
        }
    }
}
