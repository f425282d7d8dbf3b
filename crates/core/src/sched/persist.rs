//! Binary codec for plan-cache entries — the payload behind the persist
//! layer's `PLAN` record kind.
//!
//! The record framing (magic, version, per-record CRC) lives in
//! [`fides_client::persist`]; this module only encodes the payload,
//! because an [`ExecPlan`] references scheduler and simulator types
//! (`EventLog`, `BufferId`) the client crate deliberately does not know.
//!
//! A serialized entry is `(fingerprint, plan, binding)` — exactly what
//! [`PlanCache`](super::PlanCache) holds. Buffer ids in the plan are the
//! *recording-time* ids; they are only meaningful relative to the stored
//! binding, and a hit ([`PlanCache::bind`](super::PlanCache::bind))
//! replays them onto the post-restore graph's fresh buffers through the
//! first-occurrence correspondence — the cached plan itself is never
//! rewritten. That is what makes a restored plan valid on a brand-new
//! device context.
//!
//! Decoding mirrors the wire layer's hostile-input discipline: every
//! length is bounds-checked before use, allocations are capped, kernel
//! tags and efficiencies are validated, and every failure is a typed
//! [`ClientError`] — never a panic.

use bytes::{Buf, BufMut};
use fides_client::ClientError;
use fides_gpu_sim::{Access, BufferId, Event, EventLog, KernelDesc, KernelKind, Launch};

use super::plan::{ExecPlan, SchedStats};

const STEP_LAUNCH: u8 = 0;
const STEP_FENCE: u8 = 1;
const KIND_NONE: u8 = 0xFF;

fn need(buf: &[u8], bytes: usize, what: &str) -> Result<(), ClientError> {
    if buf.remaining() < bytes {
        return Err(ClientError::Serialization(format!("truncated {what}")));
    }
    Ok(())
}

fn kind_tag(kind: Option<KernelKind>) -> u8 {
    match kind {
        None => KIND_NONE,
        Some(KernelKind::Elementwise) => 0,
        Some(KernelKind::NttPhase1) => 1,
        Some(KernelKind::NttPhase2) => 2,
        Some(KernelKind::InttPhase1) => 3,
        Some(KernelKind::InttPhase2) => 4,
        Some(KernelKind::BaseConv) => 5,
        Some(KernelKind::Automorphism) => 6,
        Some(KernelKind::SwitchModulus) => 7,
        Some(KernelKind::Transfer) => 8,
        Some(KernelKind::Fill) => 9,
    }
}

fn kind_from_tag(tag: u8) -> Result<Option<KernelKind>, ClientError> {
    Ok(match tag {
        KIND_NONE => None,
        0 => Some(KernelKind::Elementwise),
        1 => Some(KernelKind::NttPhase1),
        2 => Some(KernelKind::NttPhase2),
        3 => Some(KernelKind::InttPhase1),
        4 => Some(KernelKind::InttPhase2),
        5 => Some(KernelKind::BaseConv),
        6 => Some(KernelKind::Automorphism),
        7 => Some(KernelKind::SwitchModulus),
        8 => Some(KernelKind::Transfer),
        9 => Some(KernelKind::Fill),
        t => {
            return Err(ClientError::Serialization(format!(
                "invalid kernel kind tag {t}"
            )))
        }
    })
}

fn put_access_list(buf: &mut impl BufMut, list: &[Access]) {
    buf.put_u32(list.len() as u32);
    for &(BufferId(id), bytes) in list {
        buf.put_u64_le(id);
        buf.put_u64_le(bytes);
    }
}

/// Checks that a whole access list is present and returns its length.
fn access_list_len(buf: &[u8]) -> Result<usize, ClientError> {
    need(buf, 4, "access-list header")?;
    let n = (&buf[..4]).get_u32() as usize;
    need(&buf[4..], n.saturating_mul(16), "access-list entries")?;
    Ok(n)
}

/// Reads one access list whose presence [`access_list_len`] checked.
fn get_access_list(buf: &mut &[u8], mut entry: impl FnMut(BufferId, u64)) {
    let n = buf.get_u32() as usize;
    for _ in 0..n {
        let id = buf.get_u64_le();
        let bytes = buf.get_u64_le();
        entry(BufferId(id), bytes);
    }
}

fn put_launch(buf: &mut impl BufMut, launch: &Launch<'_>) {
    buf.put_u8(STEP_LAUNCH);
    buf.put_u32(launch.stream as u32);
    buf.put_u8(kind_tag(launch.desc.kind));
    put_access_list(buf, launch.reads);
    put_access_list(buf, launch.writes);
    buf.put_u64_le(launch.desc.int32_ops);
    buf.put_f64(launch.desc.access_efficiency);
}

/// Decodes one launch (after its step tag) straight into `log`. The whole
/// record is bounds-checked first, so the log never holds half a launch.
fn get_launch(buf: &mut &[u8], log: &mut EventLog) -> Result<(), ClientError> {
    need(buf, 4, "launch stream")?;
    need(&buf[4..], 1, "kernel descriptor")?;
    let kind = kind_from_tag(buf[4])?;
    let reads_at = 5;
    let n_reads = access_list_len(&buf[reads_at..])?;
    let writes_at = reads_at + 4 + 16 * n_reads;
    let n_writes = access_list_len(&buf[writes_at..])?;
    let tail_at = writes_at + 4 + 16 * n_writes;
    need(&buf[tail_at..], 16, "kernel descriptor tail")?;
    let mut tail = &buf[tail_at..tail_at + 16];
    let int32_ops = tail.get_u64_le();
    let access_efficiency = tail.get_f64();
    // The builder asserts this invariant; a decoder must reject instead.
    if !(access_efficiency > 0.0 && access_efficiency <= 1.0) {
        return Err(ClientError::Serialization(format!(
            "kernel access efficiency {access_efficiency} outside (0, 1]"
        )));
    }
    let stream = buf.get_u32() as usize;
    *buf = &buf[1..];
    let desc = KernelDesc {
        kind,
        int32_ops,
        access_efficiency,
    };
    log.launch(stream, desc, |d| {
        get_access_list(buf, |b, bytes| {
            d.read(b, bytes);
        });
        get_access_list(buf, |b, bytes| {
            d.write(b, bytes);
        });
    });
    *buf = &buf[16..];
    Ok(())
}

fn put_stream_list(buf: &mut impl BufMut, list: &[u32]) {
    buf.put_u32(list.len() as u32);
    for &s in list {
        buf.put_u32(s);
    }
}

/// Checks that a whole stream list is present and returns its length.
fn stream_list_len(buf: &[u8]) -> Result<usize, ClientError> {
    need(buf, 4, "stream-list header")?;
    let n = (&buf[..4]).get_u32() as usize;
    need(&buf[4..], n.saturating_mul(4), "stream-list entries")?;
    Ok(n)
}

/// Decodes one fence (after its step tag) straight into `log`.
fn get_fence(buf: &mut &[u8], log: &mut EventLog) -> Result<(), ClientError> {
    let bytes: &[u8] = buf;
    let n_signals = stream_list_len(bytes)?;
    let waiters_at = 4 + 4 * n_signals;
    let n_waiters = stream_list_len(&bytes[waiters_at..])?;
    let ids = |at: usize, n: usize| {
        bytes[at..at + 4 * n]
            .chunks_exact(4)
            .map(|mut id| id.get_u32() as usize)
    };
    log.fence(ids(4, n_signals), ids(waiters_at + 4, n_waiters));
    *buf = &bytes[waiters_at + 4 + 4 * n_waiters..];
    Ok(())
}

/// Length of the [`write_plan_entry`] payload, from the step and list
/// counts alone.
pub fn plan_entry_len(plan: &ExecPlan, binding: &[BufferId]) -> usize {
    let log = &plan.steps;
    let launch_len = 1 + 4 + 1 + 4 + 4 + 16;
    let fence_len = 1 + 4 + 4;
    let steps_len = launch_len * log.launches()
        + 16 * log.access_count()
        + fence_len * log.fences()
        + 4 * log.fence_stream_count();
    (8 + 4 + 8 * binding.len()) + (4 + steps_len) + 8 * (6 + 3) + (4 + 16 * plan.slots.len())
}

/// Appends one plan-cache entry (`fingerprint`, plan, first-occurrence
/// buffer binding) as a `PLAN` record payload to `buf` — a `Vec`, or the
/// persist layer's `RecordWriter::record_with` sink.
pub fn write_plan_entry(buf: &mut impl BufMut, fp: u64, plan: &ExecPlan, binding: &[BufferId]) {
    buf.put_u64_le(fp);
    buf.put_u32(binding.len() as u32);
    for &BufferId(id) in binding {
        buf.put_u64_le(id);
    }
    buf.put_u32(plan.steps.len() as u32);
    for step in plan.steps.iter() {
        match step {
            Event::Launch(launch) => put_launch(buf, &launch),
            Event::Fence { signals, waiters } => {
                buf.put_u8(STEP_FENCE);
                put_stream_list(buf, signals);
                put_stream_list(buf, waiters);
            }
        }
    }
    for v in [
        plan.stats.graphs,
        plan.stats.recorded_kernels,
        plan.stats.planned_launches,
        plan.stats.fused_kernels,
        plan.stats.plan_cache_hits,
        plan.stats.plan_cache_misses,
    ] {
        buf.put_u64_le(v);
    }
    for v in [
        plan.mem.peak_device_bytes,
        plan.mem.allocations,
        plan.mem.buffers,
    ] {
        buf.put_u64_le(v);
    }
    // Stored sorted by buffer id: snapshots of the same cache byte-compare.
    buf.put_u32(plan.slots.len() as u32);
    for &(BufferId(b), s) in &plan.slots {
        buf.put_u64_le(b);
        buf.put_u64_le(s);
    }
}

/// Serializes one plan-cache entry into a `PLAN` record payload
/// ([`write_plan_entry`] into a fresh, exactly sized `Vec`).
pub fn encode_plan_entry(fp: u64, plan: &ExecPlan, binding: &[BufferId]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(plan_entry_len(plan, binding));
    write_plan_entry(&mut buf, fp, plan, binding);
    buf
}

/// Deserializes a `PLAN` record payload back into `(fingerprint, plan,
/// binding)`, ready for
/// [`PlanCache::restore_entry`](super::PlanCache::restore_entry).
///
/// # Errors
///
/// [`ClientError::Serialization`] for truncation, trailing bytes, invalid
/// kernel tags, out-of-range efficiencies or a slot binding whose buffer
/// ids do not strictly increase — never panics on hostile bytes.
pub fn decode_plan_entry(
    mut payload: &[u8],
) -> Result<(u64, ExecPlan, Vec<BufferId>), ClientError> {
    let buf = &mut payload;
    need(buf, 12, "plan entry header")?;
    let fp = buf.get_u64_le();
    let n_binding = buf.get_u32() as usize;
    need(buf, n_binding.saturating_mul(8), "plan binding")?;
    let mut binding = Vec::with_capacity(n_binding.min(1 << 16));
    for _ in 0..n_binding {
        binding.push(BufferId(buf.get_u64_le()));
    }
    need(buf, 4, "plan step count")?;
    let n_steps = buf.get_u32() as usize;
    let mut steps = EventLog::default();
    for _ in 0..n_steps {
        need(buf, 1, "plan step tag")?;
        match buf.get_u8() {
            STEP_LAUNCH => get_launch(buf, &mut steps)?,
            STEP_FENCE => get_fence(buf, &mut steps)?,
            t => {
                return Err(ClientError::Serialization(format!(
                    "invalid plan step tag {t}"
                )))
            }
        }
    }
    need(buf, 6 * 8 + 3 * 8, "plan stats")?;
    let stats = SchedStats {
        graphs: buf.get_u64_le(),
        recorded_kernels: buf.get_u64_le(),
        planned_launches: buf.get_u64_le(),
        fused_kernels: buf.get_u64_le(),
        plan_cache_hits: buf.get_u64_le(),
        plan_cache_misses: buf.get_u64_le(),
        record_free_hits: 0,
    };
    let mem = super::mem::MemPlan {
        peak_device_bytes: buf.get_u64_le(),
        allocations: buf.get_u64_le(),
        buffers: buf.get_u64_le(),
    };
    need(buf, 4, "plan slot count")?;
    let n_slots = buf.get_u32() as usize;
    need(buf, n_slots.saturating_mul(16), "plan slots")?;
    let mut slots: Vec<(BufferId, u64)> = Vec::with_capacity(n_slots.min(1 << 16));
    for _ in 0..n_slots {
        let b = BufferId(buf.get_u64_le());
        let s = buf.get_u64_le();
        if slots.last().is_some_and(|&(prev, _)| prev >= b) {
            return Err(ClientError::Serialization(format!(
                "plan slot binding not strictly increasing at buffer {}",
                b.0
            )));
        }
        slots.push((b, s));
    }
    if !buf.is_empty() {
        return Err(ClientError::Serialization(format!(
            "{} trailing bytes after plan entry",
            buf.len()
        )));
    }
    let plan = ExecPlan {
        steps,
        stats,
        mem,
        slots,
    };
    Ok((fp, plan, binding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{fingerprint, ExecGraph, PlanConfig, Planner};

    fn sample_graph() -> ExecGraph {
        let mut log = EventLog::default();
        log.launch(0, KernelDesc::new(KernelKind::Elementwise).ops(1000), |d| {
            d.read(BufferId(10), 4096).write(BufferId(11), 4096);
        });
        log.fence([0], [1]);
        log.launch(1, KernelDesc::new(KernelKind::NttPhase1).ops(5000), |d| {
            d.read(BufferId(11), 8192).write(BufferId(12), 8192);
        });
        ExecGraph::from(log)
    }

    #[test]
    fn plan_entry_roundtrips() {
        let cfg = PlanConfig::default();
        let graph = sample_graph();
        let (fp, binding) = fingerprint(&graph, &cfg);
        let plan = Planner::new(cfg).plan(&graph);
        let payload = encode_plan_entry(fp, &plan, &binding);
        assert_eq!(payload.len(), plan_entry_len(&plan, &binding));
        let (fp2, plan2, binding2) = decode_plan_entry(&payload).unwrap();
        assert_eq!(fp, fp2);
        assert_eq!(binding, binding2);
        assert_eq!(plan.launch_count(), plan2.launch_count());
        assert_eq!(plan.stats(), plan2.stats());
        assert_eq!(plan.mem(), plan2.mem());
        assert_eq!(payload, encode_plan_entry(fp2, &plan2, &binding2));
    }

    /// A random graph: launches on streams 0..8 with 0..40 aliased
    /// accesses each, random kinds, op counts and efficiencies, and fences
    /// over random stream subsets (xorshift from `seed`).
    fn random_graph(seed: u64) -> ExecGraph {
        let mut x = seed | 1;
        let mut below = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut log = EventLog::default();
        for _ in 0..below(120) {
            if below(6) == 0 {
                let signals: Vec<usize> = (0..8).filter(|_| below(3) == 0).collect();
                let waiters: Vec<usize> = (0..8).filter(|_| below(3) == 0).collect();
                log.fence(signals, waiters);
                continue;
            }
            let stream = below(8) as usize;
            let mut desc = KernelDesc::new(KernelKind::ALL[below(10) as usize])
                .ops(below(1 << 30))
                .access_efficiency((1 + below(100)) as f64 / 100.0);
            if below(10) == 0 {
                desc.kind = None;
            }
            let accesses = below(41);
            log.launch(stream, desc, |d| {
                for _ in 0..accesses {
                    let (buf, bytes) = (BufferId(below(24)), 1 << below(28));
                    if below(2) == 0 {
                        d.read(buf, bytes);
                    } else {
                        d.write(buf, bytes);
                    }
                }
            });
        }
        ExecGraph::from(log)
    }

    #[test]
    fn random_plans_reencode_byte_identically() {
        for seed in 0..64u64 {
            let graph = random_graph(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for fuse_elementwise in [true, false] {
                let cfg = PlanConfig {
                    fuse_elementwise,
                    ..PlanConfig::default()
                };
                let (fp, binding) = fingerprint(&graph, &cfg);
                let plan = Planner::new(cfg).plan(&graph);
                let payload = encode_plan_entry(fp, &plan, &binding);
                assert_eq!(payload.len(), plan_entry_len(&plan, &binding));
                let (fp2, plan2, binding2) = decode_plan_entry(&payload).unwrap();
                assert!(plan2.steps().iter().eq(plan.steps().iter()), "seed {seed}");
                assert_eq!(payload, encode_plan_entry(fp2, &plan2, &binding2));
                // The recorded graph itself, stored as a plan's steps.
                let raw = ExecPlan {
                    steps: graph.log().clone(),
                    ..ExecPlan::default()
                };
                let payload = encode_plan_entry(fp, &raw, &binding);
                let (_, raw2, _) = decode_plan_entry(&payload).unwrap();
                assert_eq!(payload, encode_plan_entry(fp, &raw2, &binding));
            }
        }
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let cfg = PlanConfig::default();
        let graph = sample_graph();
        let (fp, binding) = fingerprint(&graph, &cfg);
        let plan = Planner::new(cfg).plan(&graph);
        let payload = encode_plan_entry(fp, &plan, &binding);
        for cut in 0..payload.len() {
            assert!(
                decode_plan_entry(&payload[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        let mut garbage = payload.clone();
        garbage.extend_from_slice(&[0u8; 3]);
        assert!(decode_plan_entry(&garbage).is_err(), "trailing bytes error");
    }

    #[test]
    fn duplicate_or_unsorted_slot_ids_are_typed_errors() {
        // A binding naming one buffer twice used to decode by silently
        // keeping the last slot; the decoder now accepts only the strictly
        // increasing ids the encoder writes.
        let plan = |slots: Vec<(BufferId, u64)>| ExecPlan {
            slots,
            ..ExecPlan::default()
        };
        let ok = encode_plan_entry(1, &plan(vec![(BufferId(3), 0), (BufferId(5), 0)]), &[]);
        assert_eq!(decode_plan_entry(&ok).unwrap().1.slot_binding().len(), 2);
        for slots in [
            vec![(BufferId(3), 0), (BufferId(3), 1)],
            vec![(BufferId(5), 0), (BufferId(3), 1)],
        ] {
            let payload = encode_plan_entry(1, &plan(slots.clone()), &[]);
            assert!(
                matches!(
                    decode_plan_entry(&payload),
                    Err(ClientError::Serialization(_))
                ),
                "{slots:?} must be rejected"
            );
        }
    }

    #[test]
    fn bad_efficiency_and_tags_are_typed_errors() {
        // Hand-build a launch whose efficiency is 0: must be rejected, not
        // asserted on.
        let mut steps = EventLog::default();
        steps.launch(
            0,
            KernelDesc {
                kind: Some(KernelKind::Fill),
                int32_ops: 0,
                access_efficiency: 1.0,
            },
            |_| {},
        );
        let plan = ExecPlan {
            steps,
            ..ExecPlan::default()
        };
        let mut payload = encode_plan_entry(1, &plan, &[]);
        let eff_at = payload.len() - (6 * 8 + 3 * 8 + 4 + 8);
        payload[eff_at..eff_at + 8].copy_from_slice(&0f64.to_be_bytes());
        assert!(matches!(
            decode_plan_entry(&payload),
            Err(ClientError::Serialization(_))
        ));
    }
}
