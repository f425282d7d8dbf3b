//! What the gpu-sim integration tests share: a seeded random event-log
//! generator and a bit-exact ledger comparison.

use std::sync::Arc;

use fides_gpu_sim::{
    BufferId, DeviceSpec, EventLog, ExecMode, GpuSim, KernelDesc, KernelKind, SimStats,
};

/// xorshift64: the sequences derive from one seed, so a failing case
/// reproduces from the seed proptest reports.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random sequence: launches on streams 0..8, each with 0..40 accesses
/// over a 24-id space (so ids alias within and across launches), sizes from
/// a few bytes past the 72 MB L2, and fences over random stream subsets.
pub fn sequence(seed: u64, len: usize) -> EventLog {
    let mut rng = Rng(seed | 1);
    let mut log = EventLog::default();
    for _ in 0..len {
        if rng.below(6) == 0 {
            let subset =
                |rng: &mut Rng| -> Vec<usize> { (0..8).filter(|_| rng.below(3) == 0).collect() };
            let (signals, waiters) = (subset(&mut rng), subset(&mut rng));
            log.fence(signals, waiters);
            continue;
        }
        let stream = rng.below(8) as usize;
        let mut desc = KernelDesc::new(KernelKind::ALL[rng.below(10) as usize])
            .ops(rng.below(1 << 30))
            .access_efficiency((1 + rng.below(100)) as f64 / 100.0);
        if rng.below(10) == 0 {
            desc.kind = None;
        }
        let accesses = rng.below(41);
        log.launch(stream, desc, |d| {
            for _ in 0..accesses {
                let buf = BufferId(rng.below(24));
                let bytes = 1 << rng.below(28);
                if rng.below(2) == 0 {
                    d.read(buf, bytes);
                } else {
                    d.write(buf, bytes);
                }
            }
        });
    }
    log
}

pub fn device() -> Arc<GpuSim> {
    GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly)
}

/// Every `SimStats` field, floats by bit pattern.
pub fn assert_same_stats(a: &SimStats, b: &SimStats) {
    assert_eq!(a.kernel_launches, b.kernel_launches);
    assert_eq!(a.dram_read_bytes, b.dram_read_bytes);
    assert_eq!(a.l2_hit_bytes, b.l2_hit_bytes);
    assert_eq!(a.write_bytes, b.write_bytes);
    assert_eq!(a.int32_ops, b.int32_ops);
    assert_eq!(a.h2d_bytes, b.h2d_bytes);
    assert_eq!(a.d2h_bytes, b.d2h_bytes);
    assert_eq!(a.per_kind.len(), b.per_kind.len());
    for ((ka, x), (kb, y)) in a.per_kind.iter().zip(&b.per_kind) {
        assert_eq!(ka, kb);
        assert_eq!(
            (x.count, x.busy_us.to_bits(), x.bytes),
            (y.count, y.busy_us.to_bits(), y.bytes),
            "per_kind[{ka}]"
        );
    }
    assert_eq!(a.per_stream.len(), b.per_stream.len());
    for (s, (x, y)) in a.per_stream.iter().zip(&b.per_stream).enumerate() {
        assert_eq!(
            (x.launches, x.busy_us.to_bits()),
            (y.launches, y.busy_us.to_bits()),
            "per_stream[{s}]"
        );
    }
    assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
    assert_eq!(a.current_alloc_bytes, b.current_alloc_bytes);
    assert_eq!(a.peak_alloc_bytes, b.peak_alloc_bytes);
    assert_eq!(a.peak_device_bytes, b.peak_device_bytes);
    assert_eq!(a.allocations, b.allocations);
    assert_eq!(a.plan_cache_hits, b.plan_cache_hits);
    assert_eq!(a.plan_cache_misses, b.plan_cache_misses);
    assert_eq!(a.replay_memo_hits, b.replay_memo_hits);
}
