//! The flat event log against the eager path: a random launch/fence
//! sequence timed eagerly, and the same sequence captured and replayed,
//! must leave bit-identical ledgers and clocks — with and without a
//! [`Rebinding`] translating buffer ids on the way in.

use std::sync::Arc;

use fides_gpu_sim::{
    BufferId, DeviceSpec, Event, EventLog, ExecMode, GpuSim, KernelDesc, KernelKind, Rebinding,
    SimStats,
};
use proptest::prelude::*;

/// xorshift64: the sequences derive from one seed, so a failing case
/// reproduces from the seed proptest reports.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random sequence: launches on streams 0..8, each with 0..40 accesses
/// over a 24-id space (so ids alias within and across launches), sizes from
/// a few bytes past the 72 MB L2, and fences over random stream subsets.
fn sequence(seed: u64, len: usize) -> EventLog {
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

/// Launches and fences every event of `log` one call at a time, each
/// buffer id passed through `map`.
fn run_eagerly(gpu: &GpuSim, log: &EventLog, map: impl Fn(BufferId) -> BufferId) {
    for event in log.iter() {
        match event {
            Event::Launch(l) => gpu
                .launch(l.stream, l.desc, |d| {
                    for &(buf, bytes) in l.reads {
                        d.read(map(buf), bytes);
                    }
                    for &(buf, bytes) in l.writes {
                        d.write(map(buf), bytes);
                    }
                })
                .run(|| {}),
            Event::Fence { signals, waiters } => {
                let streams = |s: &[u32]| s.iter().map(|&s| s as usize).collect::<Vec<_>>();
                gpu.fence(&streams(signals), &streams(waiters));
            }
        }
    }
}

/// `log`, recorded through a capture region on `gpu` and replayed there.
fn capture_and_replay(gpu: &GpuSim, log: &EventLog, rebind: &Rebinding) {
    assert!(gpu.begin_capture());
    run_eagerly(gpu, log, |buf| buf);
    let capture = gpu.end_capture();
    assert!(capture.events.iter().eq(log.iter()), "capture is the log");
    assert_eq!(gpu.stats().kernel_launches, 0, "capture times nothing");
    gpu.replay(&capture.events, rebind);
}

fn device() -> Arc<GpuSim> {
    GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly)
}

/// Every `SimStats` field, floats by bit pattern.
fn assert_same_stats(a: &SimStats, b: &SimStats) {
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
}

/// A translation over the 24-id space: a dense window over ids 4..12 and
/// sparse entries past it, some landing on ids the sequence also uses
/// untranslated.
fn rebinding(seed: u64) -> Rebinding {
    let mut rng = Rng(seed.rotate_left(17) | 1);
    let mut rebind = Rebinding::with_window(4..12);
    for id in 0..24 {
        if rng.below(2) == 0 {
            rebind.set(BufferId(id), BufferId(rng.below(40)));
        }
    }
    rebind
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replayed_log_times_like_eager_launches(seed in any::<u64>(), len in 0usize..120) {
        let log = sequence(seed, len);

        let eager = device();
        run_eagerly(&eager, &log, |buf| buf);
        let replayed = device();
        capture_and_replay(&replayed, &log, &Rebinding::default());
        assert_same_stats(&eager.stats(), &replayed.stats());
        prop_assert_eq!(eager.sync().to_bits(), replayed.sync().to_bits());

        let rebind = rebinding(seed);
        let translated = device();
        run_eagerly(&translated, &log, |buf| rebind.get(buf));
        let rebound = device();
        capture_and_replay(&rebound, &log, &rebind);
        assert_same_stats(&translated.stats(), &rebound.stats());
        prop_assert_eq!(translated.sync().to_bits(), rebound.sync().to_bits());
    }
}
