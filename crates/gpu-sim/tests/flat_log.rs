//! The flat event log against the eager path: a random launch/fence
//! sequence timed eagerly, and the same sequence captured and replayed,
//! must leave bit-identical ledgers and clocks — with and without a
//! [`Rebinding`] translating buffer ids on the way in.

mod common;

use common::{assert_same_stats, device, sequence, Rng};
use fides_gpu_sim::{BufferId, Event, EventLog, GpuSim, Rebinding};
use proptest::prelude::*;

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
