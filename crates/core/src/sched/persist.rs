//! Binary codec for plan-cache entries — the payload behind the persist
//! layer's `PLAN` record kind.
//!
//! The record framing (magic, version, per-record CRC) lives in
//! [`fides_client::persist`]; this module only encodes the payload,
//! because an [`ExecPlan`] references scheduler and simulator types
//! (`KernelDesc`, `BufferId`) the client crate deliberately does not know.
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

use std::collections::HashMap;

use bytes::{Buf, BufMut};
use fides_client::ClientError;
use fides_gpu_sim::{BufferId, KernelDesc, KernelKind};

use super::plan::{ExecPlan, PlanStep, SchedStats};

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

fn put_access_list(buf: &mut impl BufMut, list: &[(BufferId, u64)]) {
    buf.put_u32(list.len() as u32);
    for &(BufferId(id), bytes) in list {
        buf.put_u64_le(id);
        buf.put_u64_le(bytes);
    }
}

fn get_access_list(buf: &mut &[u8]) -> Result<Vec<(BufferId, u64)>, ClientError> {
    need(buf, 4, "access-list header")?;
    let n = buf.get_u32() as usize;
    need(buf, n.saturating_mul(16), "access-list entries")?;
    let mut list = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = buf.get_u64_le();
        let bytes = buf.get_u64_le();
        list.push((BufferId(id), bytes));
    }
    Ok(list)
}

fn put_desc(buf: &mut impl BufMut, desc: &KernelDesc) {
    buf.put_u8(kind_tag(desc.kind));
    put_access_list(buf, &desc.reads);
    put_access_list(buf, &desc.writes);
    buf.put_u64_le(desc.int32_ops);
    buf.put_f64(desc.access_efficiency);
}

fn get_desc(buf: &mut &[u8]) -> Result<KernelDesc, ClientError> {
    need(buf, 1, "kernel descriptor")?;
    let kind = kind_from_tag(buf.get_u8())?;
    let reads = get_access_list(buf)?;
    let writes = get_access_list(buf)?;
    need(buf, 16, "kernel descriptor tail")?;
    let int32_ops = buf.get_u64_le();
    let access_efficiency = buf.get_f64();
    // The builder asserts this invariant; a decoder must reject instead.
    if !(access_efficiency > 0.0 && access_efficiency <= 1.0) {
        return Err(ClientError::Serialization(format!(
            "kernel access efficiency {access_efficiency} outside (0, 1]"
        )));
    }
    Ok(KernelDesc {
        kind,
        reads,
        writes,
        int32_ops,
        access_efficiency,
    })
}

fn put_stream_list(buf: &mut impl BufMut, list: &[usize]) {
    buf.put_u32(list.len() as u32);
    for &s in list {
        buf.put_u32(s as u32);
    }
}

fn get_stream_list(buf: &mut &[u8]) -> Result<Vec<usize>, ClientError> {
    need(buf, 4, "stream-list header")?;
    let n = buf.get_u32() as usize;
    need(buf, n.saturating_mul(4), "stream-list entries")?;
    let mut list = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        list.push(buf.get_u32() as usize);
    }
    Ok(list)
}

/// Length of the [`write_plan_entry`] payload, from the step and list
/// counts alone.
pub fn plan_entry_len(plan: &ExecPlan, binding: &[BufferId]) -> usize {
    let steps = plan.steps.iter();
    let steps_len: usize = steps
        .map(|step| match step {
            PlanStep::Launch { desc, .. } => {
                1 + 4 + 1 + (4 + 16 * desc.reads.len()) + (4 + 16 * desc.writes.len()) + 16
            }
            PlanStep::Fence { signals, waiters } => {
                1 + (4 + 4 * signals.len()) + (4 + 4 * waiters.len())
            }
        })
        .sum();
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
    for step in &plan.steps {
        match step {
            PlanStep::Launch { stream, desc } => {
                buf.put_u8(STEP_LAUNCH);
                buf.put_u32(*stream as u32);
                put_desc(buf, desc);
            }
            PlanStep::Fence { signals, waiters } => {
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
    // Deterministic slot order: snapshots of the same cache byte-compare.
    let mut slots: Vec<(u64, u64)> = plan.slots.iter().map(|(&BufferId(b), &s)| (b, s)).collect();
    slots.sort_unstable();
    buf.put_u32(slots.len() as u32);
    for (b, s) in slots {
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
/// kernel tags or out-of-range efficiencies — never panics on hostile
/// bytes.
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
    let mut steps = Vec::with_capacity(n_steps.min(1 << 16));
    for _ in 0..n_steps {
        need(buf, 1, "plan step tag")?;
        match buf.get_u8() {
            STEP_LAUNCH => {
                need(buf, 4, "launch stream")?;
                let stream = buf.get_u32() as usize;
                let desc = get_desc(buf)?;
                steps.push(PlanStep::Launch { stream, desc });
            }
            STEP_FENCE => {
                let signals = get_stream_list(buf)?;
                let waiters = get_stream_list(buf)?;
                steps.push(PlanStep::Fence { signals, waiters });
            }
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
    };
    let mem = super::mem::MemPlan {
        peak_device_bytes: buf.get_u64_le(),
        allocations: buf.get_u64_le(),
        buffers: buf.get_u64_le(),
    };
    need(buf, 4, "plan slot count")?;
    let n_slots = buf.get_u32() as usize;
    need(buf, n_slots.saturating_mul(16), "plan slots")?;
    let mut slots = HashMap::with_capacity(n_slots.min(1 << 16));
    for _ in 0..n_slots {
        let b = buf.get_u64_le();
        let s = buf.get_u64_le();
        slots.insert(BufferId(b), s);
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
    use fides_gpu_sim::GraphEvent;

    fn sample_graph() -> ExecGraph {
        ExecGraph::from_events(vec![
            GraphEvent::Launch {
                stream: 0,
                desc: KernelDesc::new(KernelKind::Elementwise)
                    .read(BufferId(10), 4096)
                    .write(BufferId(11), 4096)
                    .ops(1000),
            },
            GraphEvent::Fence {
                signals: vec![0],
                waiters: vec![1],
            },
            GraphEvent::Launch {
                stream: 1,
                desc: KernelDesc::new(KernelKind::NttPhase1)
                    .read(BufferId(11), 8192)
                    .write(BufferId(12), 8192)
                    .ops(5000),
            },
        ])
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
    fn bad_efficiency_and_tags_are_typed_errors() {
        // Hand-build a launch whose efficiency is 0: must be rejected, not
        // asserted on.
        let plan = ExecPlan {
            steps: vec![PlanStep::Launch {
                stream: 0,
                desc: KernelDesc {
                    kind: Some(KernelKind::Fill),
                    reads: Vec::new(),
                    writes: Vec::new(),
                    int32_ops: 0,
                    access_efficiency: 1.0,
                },
            }],
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
