//! A memoised replay against a plain one: the same plan replayed round
//! after round onto shifted buffers, from random L2 states, through
//! [`GpuSim::replay_memoised`] on one device and [`GpuSim::replay`] on a
//! twin, must leave bit-identical ledgers, clocks and resident lists —
//! whether the memo was applied, recorded or passed over, and across a
//! reset of the measurement window. A memo recorded on one device must not
//! be applied on a device of other timing constants.

mod common;

use std::sync::Arc;

use common::{assert_same_stats, device, sequence, Rng};
use fides_gpu_sim::{
    BufferId, BufferMap, DeviceSpec, EventLog, ExecMode, GpuSim, KernelDesc, KernelKind, Rebinding,
    ReplayMemo, VectorGpu,
};
use proptest::prelude::*;

/// High-bit namespace of the pooled-slot ids a plan's temporaries are
/// presented as; several plan buffers share each of the five slots.
const SLOT: u64 = 1 << 63;

/// What the plan's buffer `p` (the log names ids `0..24`) is presented as.
#[derive(Clone, Copy)]
enum Role {
    /// A pooled slot, the same id every round.
    Slot(u64),
    /// One buffer allocated up front and kept (a key).
    Kept,
    /// A buffer allocated afresh each round (a ciphertext).
    Fresh,
}

/// Where a pre-state touch lands.
#[derive(Clone, Copy, Debug)]
enum Target {
    /// The round's buffer at binding position `p`.
    Position(usize),
    /// Pooled slot `s`.
    Slot(u64),
    /// The round's `k`-th bystander: a buffer the plan never names.
    Bystander(usize),
}

/// One eager pre-state launch: `(target, bytes, write)`.
type Touch = (Target, u64, bool);

const BYSTANDERS: usize = 4;

fn touches(rng: &mut Rng, n: u64) -> Vec<Touch> {
    (0..n)
        .map(|_| {
            let target = match rng.below(3) {
                0 => Target::Position(rng.below(24) as usize),
                1 => Target::Slot(rng.below(5)),
                _ => Target::Bystander(rng.below(BYSTANDERS as u64) as usize),
            };
            // Up to 128 MB: past the 72 MB L2, so some touches clamp.
            (target, 1 << rng.below(28), rng.below(2) == 0)
        })
        .collect()
}

/// The buffers one round names, on one device.
struct Round {
    /// Binding position → the id the replay presents it as.
    current: Vec<BufferId>,
    /// The round's fresh positions and bystanders, held to be dropped:
    /// dropping them evicts their lines.
    _owned: Vec<VectorGpu<u64>>,
    bystanders: Vec<BufferId>,
}

fn round(gpu: &Arc<GpuSim>, roles: &[Role], kept: &[VectorGpu<u64>]) -> Round {
    let mut owned = Vec::new();
    let alloc = |owned: &mut Vec<VectorGpu<u64>>| {
        let v = VectorGpu::<u64>::new(gpu, 8);
        let id = v.buffer();
        owned.push(v);
        id
    };
    let current = roles
        .iter()
        .enumerate()
        .map(|(p, role)| match *role {
            Role::Slot(s) => BufferId(SLOT | s),
            Role::Kept => kept[p].buffer(),
            Role::Fresh => alloc(&mut owned),
        })
        .collect();
    let bystanders = (0..BYSTANDERS).map(|_| alloc(&mut owned)).collect();
    Round {
        current,
        _owned: owned,
        bystanders,
    }
}

fn apply(gpu: &GpuSim, r: &Round, script: &[Touch]) {
    for &(target, bytes, write) in script {
        let buf = match target {
            Target::Position(p) => r.current[p],
            Target::Slot(s) => BufferId(SLOT | s),
            Target::Bystander(k) => r.bystanders[k],
        };
        gpu.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(1000), |d| {
            if write {
                d.write(buf, bytes);
            } else {
                d.read(buf, bytes);
            }
        })
        .run(|| {});
    }
}

fn bind(rebind: &mut Rebinding, current: &[BufferId]) {
    for (p, &to) in current.iter().enumerate() {
        rebind.set(BufferId(p as u64), to);
    }
}

/// Replays `log` for `rounds` rounds on a memoised device and a plain twin.
/// Each round allocates fresh buffers for the `Fresh` positions and the
/// bystanders and drops the last round's, replays the same pre-state script
/// (perturbed by extra touches in some rounds), then replays the plan. One
/// seeded round resets both ledgers just before its plan replay, so the
/// per-stream busy time of the replays from there on is clamped to the new
/// window. Returns how many replays the memo served.
fn run(seed: u64, log: &EventLog, rounds: usize) -> u64 {
    let mut rng = Rng(seed.rotate_left(29) | 1);
    let roles: Vec<Role> = (0..24)
        .map(|_| match rng.below(3) {
            0 => Role::Slot(rng.below(5)),
            1 => Role::Kept,
            _ => Role::Fresh,
        })
        .collect();
    let n = rng.below(12);
    let script = touches(&mut rng, n);
    let perturbed: Vec<Option<Vec<Touch>>> = (0..rounds)
        .map(|_| {
            let n = 1 + rng.below(3);
            (rng.below(3) == 0).then(|| touches(&mut rng, n))
        })
        .collect();
    let reset_at = rng.below(rounds as u64) as usize;

    let (memoised, plain) = (device(), device());
    let kept = |gpu| {
        (0..24)
            .map(|_| VectorGpu::<u64>::new(gpu, 8))
            .collect::<Vec<_>>()
    };
    let (kept_m, kept_p) = (kept(&memoised), kept(&plain));
    let mut memo = ReplayMemo::default();
    let (mut hits, mut window_hits) = (0, 0);
    let mut last: Option<[Round; 2]> = None;
    for (r, extra) in perturbed.iter().enumerate() {
        let m = round(&memoised, &roles, &kept_m);
        let p = round(&plain, &roles, &kept_p);
        drop(last.take());
        for (gpu, rd) in [(&memoised, &m), (&plain, &p)] {
            apply(gpu, rd, &script);
            if let Some(extra) = extra {
                apply(gpu, rd, extra);
            }
        }
        assert_eq!(m.current, p.current, "twins allocate alike");
        if r == reset_at {
            memoised.reset_stats();
            plain.reset_stats();
            window_hits = 0;
        }

        let positions: BufferMap<u64> = m
            .current
            .iter()
            .zip(&roles)
            .enumerate()
            .filter(|(_, (_, role))| !matches!(role, Role::Slot(_)))
            .map(|(p, (&buf, _))| (buf, p as u64))
            .collect();
        let hit = memoised.replay_memoised(
            log,
            0..24,
            |rebind| bind(rebind, &m.current),
            |buf| match buf.0 & SLOT {
                0 => positions.get(&buf).copied(),
                _ => Some(buf.0),
            },
            |name| match name & SLOT {
                0 => m.current[name as usize],
                _ => BufferId(name),
            },
            &mut memo,
        );
        let mut rebind = Rebinding::with_window(0..24);
        bind(&mut rebind, &p.current);
        plain.replay(log, &rebind);

        hits += u64::from(hit);
        window_hits += u64::from(hit);
        let mut stats = memoised.stats();
        assert_eq!(stats.replay_memo_hits, window_hits, "round {r}");
        stats.replay_memo_hits = 0;
        assert_same_stats(&stats, &plain.stats());
        assert_eq!(
            memoised.sync().to_bits(),
            plain.sync().to_bits(),
            "round {r}: clock"
        );
        assert_eq!(
            memoised.l2_residents(),
            plain.l2_residents(),
            "round {r}: resident list"
        );
        last = Some([m, p]);
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn memoised_replay_equals_plain_replay(seed in any::<u64>(), len in 0usize..80) {
        run(seed, &sequence(seed, len), 6);
    }
}

#[test]
fn memo_serves_a_repeating_state_and_only_that() {
    // A plan small enough to leave most of the L2 alone: the state repeats
    // once the fresh buffers' lines have turned over, and every round
    // after the second sighting of a state replays from the memo.
    let mut hits = 0;
    for seed in 1..=16u64 {
        let mut log = EventLog::default();
        let mut rng = Rng(seed | 1);
        for _ in 0..6 {
            let stream = rng.below(4) as usize;
            log.launch(
                stream,
                KernelDesc::new(KernelKind::NttPhase1).ops(1 << 20),
                |d| {
                    d.read(BufferId(rng.below(24)), 1 << 20)
                        .write(BufferId(rng.below(24)), 1 << 21);
                },
            );
            if rng.below(3) == 0 {
                log.fence([stream], [0, 1, 2, 3]);
            }
        }
        hits += run(seed, &log, 8);
    }
    assert!(
        hits >= 16,
        "steady rounds must be served from the memo: {hits}"
    );
}

/// A 4090 with half its DRAM bandwidth: the same L2 capacity, so the same
/// L2 classification, but other launch times.
fn half_dram() -> Arc<GpuSim> {
    let mut spec = DeviceSpec::rtx_4090();
    spec.dram_gbps /= 2.0;
    GpuSim::new(spec, ExecMode::CostOnly)
}

#[test]
fn a_memo_is_not_applied_on_a_device_of_other_timing_constants() {
    // 40 clean 2 MB reads over three streams, with fences: 80 MB cycles
    // through the 72 MB L2, so every replay misses every read (DRAM time
    // depends on the bandwidth) and leaves the state it entered from.
    let mut log = EventLog::default();
    for i in 0..40u64 {
        let stream = (i % 3) as usize;
        log.launch(
            stream,
            KernelDesc::new(KernelKind::NttPhase1).ops(1 << 20),
            |d| {
                d.read(BufferId(i), 2 << 20);
            },
        );
        if i % 10 == 9 {
            log.fence([stream], [0, 1, 2]);
        }
    }
    let replay = |gpu: &GpuSim, memo: &mut ReplayMemo| {
        gpu.replay_memoised(&log, 0..40, |_| {}, |buf| Some(buf.0), BufferId, memo)
    };

    let mut memo = ReplayMemo::default();
    let fast = device();
    let applied: Vec<bool> = (0..4).map(|_| replay(&fast, &mut memo)).collect();
    assert_eq!(applied, [false, false, false, true], "recorded on the 4090");

    let (slow, twin) = (half_dram(), half_dram());
    for gpu in [&slow, &twin] {
        gpu.replay(&log, &Rebinding::default());
    }
    assert_eq!(
        slow.l2_residents(),
        fast.l2_residents(),
        "the state the memo was recorded from"
    );
    let mut applied = Vec::new();
    for round in 0..4 {
        applied.push(replay(&slow, &mut memo));
        twin.replay(&log, &Rebinding::default());
        let mut stats = slow.stats();
        stats.replay_memo_hits = 0;
        assert_same_stats(&stats, &twin.stats());
        assert_eq!(
            slow.sync().to_bits(),
            twin.sync().to_bits(),
            "round {round}: clock"
        );
        assert_eq!(slow.l2_residents(), twin.l2_residents(), "round {round}");
    }
    assert_eq!(
        applied,
        [false, false, true, true],
        "re-recorded on the slower device, then applied there"
    );
    assert!(
        !replay(&fast, &mut memo),
        "and no longer applied on the 4090"
    );
}
