//! The benchmark's contract, as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` is `fides-benchmark manifest` written to a file,
//! and a unit test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 12;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether the per-layer metrics marked exact repeat exactly here. They
    /// do where one thread drives the server tick by tick or call by call;
    /// behind the socket, batch composition follows thread timing and the
    /// simulated numbers repeat to ~2%.
    pub repeats_exactly: bool,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "lr_score_socket",
        why: "LR scoring over one TCP connection, closed loop: key-switch and NTT math is ~97% of a tick, serving and codec ~3%",
        repeats_exactly: false,
    },
    WorkloadInfo {
        name: "affine_flood_ticks",
        why: "tiny affine requests, tick-indexed open loop at 50-200% load: fixed per-request serving costs, shedding and DRR fairness dominate",
        repeats_exactly: true,
    },
    WorkloadInfo {
        name: "boot_lr_cpu",
        why: "bootstrapped LR training on the CPU reference backend: 27-limb math with no simulated clock, the only post-bootstrap precision check",
        repeats_exactly: true,
    },
    WorkloadInfo {
        name: "boot_lr_paper_sim",
        why: "paper-scale LR iteration + bootstrap, cost-only: no functional math, host time is pure record/plan-cache/replay, sim time is Table VII",
        repeats_exactly: true,
    },
    WorkloadInfo {
        name: "churn_restart",
        why: "12 tenants over 8 session slots with snapshot/restore every 200 visits: the codec, registry and durability layers write here",
        repeats_exactly: true,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of 3 full set-ups: context, keygen, server, session opens, pre-encryption, warm-up",
    },
    EndToEnd {
        name: "wall_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        what: "correct ops / wall seconds of the timed window",
    },
    EndToEnd {
        name: "wall_op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        what: "median wall latency, issue -> response in hand (queue wait and re-upload included)",
    },
    EndToEnd {
        name: "wall_op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "the same at the highest percentile the workload's window supports steadily: p90 lr_score_socket, p99 affine_flood_ticks, p95 churn_restart; the two boot workloads time ~10 uniform ops, too few for a tail, and repeat the median",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the workload process at exit",
    },
];

/// How a per-layer number is obtained, all from outside the crates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// Span around a public call made by the benchmark.
    Span,
    /// Delta of a public counter (`ServeStats`, `SimStats`, `SchedStats`).
    Counter,
    /// The layer below called directly at the workload's own size.
    Probe,
    /// Computed from other metrics of the same run.
    Derived,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::Span => "S",
            Source::Counter => "C",
            Source::Probe => "P",
            Source::Derived => "D",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Same seed and code give the identical value (simulated clock and
    /// counts on the single-threaded, tick- or call-indexed workloads).
    pub exact: bool,
    /// The end-to-end metric (or demoted end-to-end metric) and workload it
    /// should move; elsewhere the prediction is no change.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    exact: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        exact,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Derived, Probe, Span};

/// A workload that never calls a layer reports that layer's metrics as 0.
pub const PER_LAYER: [PerLayer; 95] = [
    // What would be end-to-end metrics if every workload had them: the
    // simulated clock (boot_lr_cpu has none), failures and shedding (0 on
    // four workloads), precision (boot_lr_paper_sim has no values), restart
    // gap (churn_restart only).
    pl("sim_us_per_op", "sim_us", Lower, Counter, true, "the simulated clock's wall_ops_per_s; exact except on lr_score_socket (batch composition follows socket timing, ~2%)"),
    pl("sim_op_p95_us", "sim_us", Lower, Counter, true, "affine_flood_ticks: p95 simulated latency submit -> completion"),
    pl("sim_peak_device_mb", "MB", Lower, Counter, true, "planner pool high-water mark (paper III-D) over the window"),
    pl("failed_share", "ratio", Lower, Counter, true, "(errored + wrong + missing) / attempted; 0 everywhere by design"),
    pl("precision_bits_min", "bits", Higher, Derived, false, "min over checked outputs of -log2(max abs error vs plaintext reference); which outputs are checked follows the op count"),
    pl("restart_gap_ms", "ms", Lower, Span, false, "churn_restart: median snapshot start -> first post-restore response"),
    // math / rns: probes at the workload's ring degree and limb count.
    pl("math.ntt_fwd_ns_per_coeff", "ns/coeff", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,boot_lr_cpu; not on boot_lr_paper_sim's path"),
    pl("math.ntt_inv_ns_per_coeff", "ns/coeff", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,boot_lr_cpu"),
    pl("math.mul_ns_per_coeff", "ns/coeff", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,boot_lr_cpu"),
    pl("math.keyswitch_mac_ns_per_coeff", "ns/coeff", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,boot_lr_cpu"),
    pl("rns.base_conv_ns_per_coeff", "ns/coeff", Lower, Probe, false, "wall_ops_per_s@lr_score_socket (7->3 limbs),boot_lr_cpu (27->9)"),
    // client: spans around Session and wire calls.
    pl("client.encrypt_us_per_req", "us", Lower, Span, false, "setup_s@serving workloads (pre-encryption)"),
    pl("client.decrypt_us_per_resp", "us", Lower, Span, false, "verification only; off the timed path"),
    pl("client.wire.decode_req_us_per_mb", "us/MB", Lower, Span, false, "wall_op_p50_ms@affine_flood_ticks"),
    pl("client.wire.encode_resp_us_per_mb", "us/MB", Lower, Span, false, "wall_op_p50_ms@affine_flood_ticks"),
    pl("client.wire.session_decode_ms", "ms", Lower, Span, false, "wall_op_tail_ms@churn_restart; setup_s@lr_score_socket"),
    pl("client.persist.export_mb_per_s", "MB/s", Higher, Probe, false, "restart_gap_ms@churn_restart"),
    pl("client.persist.import_mb_per_s", "MB/s", Higher, Probe, false, "restart_gap_ms@churn_restart"),
    pl("client.wire.bytes_per_req", "B", Lower, Counter, true, "wire size of one request"),
    pl("client.wire.bytes_per_resp", "B", Lower, Counter, false, "mean wire size of a response (on churn_restart the UnknownSession replies spell out ever-longer session ids)"),
    // core ops: EvalBackend calls on the workload's own backend, top level.
    pl("core.op.hmult_us", "us", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,boot_lr_cpu"),
    pl("core.op.hrotate_us", "us", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,boot_lr_cpu"),
    pl("core.op.rescale_us", "us", Lower, Probe, false, "wall_ops_per_s@lr_score_socket,affine_flood_ticks"),
    pl("core.op.mul_plain_us", "us", Lower, Probe, false, "wall_ops_per_s@lr_score_socket"),
    pl("core.op.hadd_us", "us", Lower, Probe, false, "wall_ops_per_s@lr_score_socket"),
    pl("core.load_us", "us", Lower, Probe, false, "wall_ops_per_s@affine_flood_ticks"),
    pl("core.store_us", "us", Lower, Probe, false, "wall_ops_per_s@affine_flood_ticks"),
    pl("core.op.hmult_sim_us", "sim_us", Lower, Probe, true, "sim_us_per_op@boot_lr_paper_sim (Table V rung)"),
    pl("core.op.hrotate_sim_us", "sim_us", Lower, Probe, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.op.rescale_sim_us", "sim_us", Lower, Probe, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.op.hadd_sim_us", "sim_us", Lower, Probe, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.op.ptmult_sim_us", "sim_us", Lower, Probe, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.op.hoisted_rot8_sim_us", "sim_us", Lower, Probe, true, "sim_us_per_op@boot_lr_paper_sim (8 hoisted rotations)"),
    pl("core.exec_program_us_per_req", "us", Lower, Probe, false, "wall_ops_per_s@lr_score_socket: the request's program through exec_program, load -> ops -> store, no server"),
    // core bootstrap: Bootstrapper::bootstrap_phased (Table VIII rung).
    pl("core.boot.mod_raise_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.boot.fold_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.boot.cts_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.boot.eval_mod_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.boot.stc_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("core.boot.mod_raise_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    pl("core.boot.fold_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    pl("core.boot.cts_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    pl("core.boot.eval_mod_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    pl("core.boot.stc_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    // core sched: counters.
    pl("core.sched.launches_per_op", "count", Lower, Counter, true, "sim_us_per_op@lr_score_socket,boot_lr_paper_sim"),
    pl("core.sched.fused_share", "ratio", Higher, Counter, true, "sim_us_per_op@lr_score_socket,boot_lr_paper_sim (fused / recorded)"),
    pl("core.sched.plan_cache_hit_rate", "ratio", Higher, Counter, true, "wall_ops_per_s@boot_lr_paper_sim"),
    pl("core.sched.plan_ms_per_miss", "ms", Lower, Derived, false, "setup_s wherever a first tick plans"),
    pl("core.sched.host_us_per_launch", "us", Lower, Derived, false, "wall_ops_per_s@boot_lr_paper_sim (cost-only wall / planned launches); no change on boot_lr_cpu"),
    // gpu-sim: SimStats over the window.
    pl("gpu-sim.stream_occupancy_pct", "%", Higher, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.dram_mb_per_op", "MB", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim (bandwidth-bound)"),
    pl("gpu-sim.l2_hit_share", "ratio", Higher, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.allocations_per_op", "count", Lower, Counter, true, "sim_peak_device_mb"),
    pl("gpu-sim.h2d_mb_per_op", "MB", Lower, Counter, true, "sim_us_per_op@serving workloads (request upload)"),
    pl("gpu-sim.busy_us.ntt", "sim_us", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim; busy per op by kernel kind"),
    pl("gpu-sim.busy_us.intt", "sim_us", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.busy_us.base_conv", "sim_us", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.busy_us.elementwise", "sim_us", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.busy_us.automorphism", "sim_us", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.busy_us.switch_modulus", "sim_us", Lower, Counter, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("gpu-sim.busy_us.transfer", "sim_us", Lower, Counter, true, "sim_us_per_op@serving workloads"),
    // api / workloads: spans around engine and trainer calls.
    pl("api.bootstrap_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    pl("workloads.lr.iteration_wall_ms", "ms", Lower, Span, false, "wall_ops_per_s@boot_lr_cpu"),
    pl("workloads.lr.iteration_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim (Table VII row 1)"),
    pl("workloads.lr.bootstrap_sim_us", "sim_us", Lower, Span, true, "sim_us_per_op@boot_lr_paper_sim"),
    pl("workloads.lr.bootstraps_per_op", "count", Lower, Counter, true, "wall_ops_per_s@boot_lr_cpu"),
    // serve tick: spans around submit/run_tick plus ServeStats deltas.
    pl("serve.submit_us_per_req", "us", Lower, Span, false, "wall_op_p50_ms@affine_flood_ticks"),
    pl("serve.tick_wall_us_per_req", "us", Lower, Span, false, "wall_ops_per_s@lr_score_socket"),
    pl("serve.plan_us_per_tick", "us", Lower, Counter, false, "wall_ops_per_s@affine_flood_ticks"),
    pl("serve.replay_us_per_tick", "us", Lower, Counter, false, "wall_ops_per_s@affine_flood_ticks"),
    pl("serve.flush_us_per_tick", "us", Lower, Counter, false, "wall_ops_per_s@affine_flood_ticks"),
    pl("serve.tick_unattributed_pct", "%", Lower, Derived, false, "(tick wall - plan - replay - flush) / tick wall: the outside view of capture; wall_ops_per_s@lr_score_socket"),
    pl("serve.serving_share_pct", "%", Lower, Derived, false, "(wire decode/encode + submit + plan + replay + flush) / server-path wall: ~3x larger on affine_flood_ticks than on lr_score_socket, the workload separation"),
    pl("serve.mean_batch", "count", Higher, Counter, true, "wall_op_p50_ms@lr_score_socket (socket timing: not exact there)"),
    pl("serve.plan_cache_hit_rate", "ratio", Higher, Counter, true, "wall_ops_per_s; within +-2 misses on lr_score_socket"),
    pl("serve.plan_cache_misses", "count", Lower, Counter, true, "setup_s; 0 in a warmed window"),
    // serve admission / QoS (affine_flood_ticks).
    pl("serve.shed_share", "ratio", Lower, Counter, true, "wall_ops_per_s@affine_flood_ticks: shed / offered, by design at 150-200% load"),
    pl("serve.queue_wait_ticks_p95", "ticks", Lower, Counter, true, "sim_op_p95_us@affine_flood_ticks"),
    pl("serve.quiet_sim_p95_us", "sim_us", Lower, Counter, true, "the DRR promise: p95 over the 7 quiet tenants only"),
    pl("serve.sim_p95_us.load050", "sim_us", Lower, Counter, true, "sim_op_p95_us@affine_flood_ticks"),
    pl("serve.sim_p95_us.load100", "sim_us", Lower, Counter, true, "sim_op_p95_us@affine_flood_ticks"),
    pl("serve.sim_p95_us.load150", "sim_us", Lower, Counter, true, "sim_op_p95_us@affine_flood_ticks"),
    pl("serve.sim_p95_us.load200", "sim_us", Lower, Counter, true, "sim_op_p95_us@affine_flood_ticks"),
    // serve sessions / durability (churn_restart).
    pl("serve.open_session_ms", "ms", Lower, Span, false, "wall_op_tail_ms@churn_restart (re-upload visits are the tail); setup_s@lr_score_socket"),
    pl("serve.evict_retry_share", "ratio", Lower, Counter, true, "wall_op_tail_ms@churn_restart: visits answered UnknownSession and retried"),
    pl("serve.snapshot_ms", "ms", Lower, Span, false, "restart_gap_ms@churn_restart"),
    pl("serve.restore_ms", "ms", Lower, Span, false, "restart_gap_ms@churn_restart"),
    pl("serve.first_tick_after_restore_ms", "ms", Lower, Span, false, "restart_gap_ms@churn_restart"),
    pl("serve.snapshot_mb", "MB", Lower, Counter, false, "restart_gap_ms@churn_restart: size of the last snapshot (8 sessions + warm plans)"),
    pl("serve.post_restore_plan_misses", "count", Lower, Counter, true, "restart_gap_ms@churn_restart: 0 when plans restore warm"),
    // serve net.
    pl("serve.net.overhead_us_per_req", "us", Lower, Derived, false, "wall_op_p50_ms@lr_score_socket: socket wall/req - in-process wall/req"),
    // bench: the harness's own overhead and how much of a parent its children explain.
    pl("bench.trace_overhead_pct", "%", Lower, Derived, false, "spans recorded x measured cost per span / traced window"),
    pl("bench.explained_pct.serve.tick", "%", Higher, Derived, false, "(exec_program x requests + plan + replay + flush) / tick wall"),
    pl("bench.explained_pct.core.exec_program", "%", Higher, Derived, false, "(load + each op probed at its own level + store) / exec_program"),
    pl("bench.explained_pct.core.op.hmult", "%", Higher, Derived, false, "math and rns probes x hmult's kernel shape counts / hmult"),
];

/// BENCHMARK.json, exactly the keys the driver reads.
pub fn manifest() -> Json {
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let mut fields = vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ];
        if let Some(b) = bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

/// The README's metric tables, generated so they cannot drift.
pub fn markdown() -> String {
    let mut out = String::from(
        "# The benchmark's metrics\n\n\
         Generated by `fides-benchmark metrics` from `src/metrics.rs`; a unit test keeps this \
         file and `BENCHMARK.json` equal to the tables in the code.\n\n\
         ## End to end (untraced run, every workload reports all five)\n\n\
         | end-to-end | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0}% | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    out += "\n## Per layer (traced run)\n\n\
            Source: **S** span around a public call, **C** public counter delta, **P** probe of \
            the layer below at the workload's own size, **D** derived from the others. `=` marks \
            values that repeat exactly for the same seed and code on the in-process workloads \
            (`compare` enforces it). A workload that never calls a layer reports its metrics as 0. \
            The last column is the prediction: which end-to-end metric, on which workload, the \
            number should move; elsewhere, no change.\n\n\
            | per-layer | unit | better | source | exact | should move |\n|---|---|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source.letter(),
            if m.exact { "=" } else { "" },
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_obey_the_driver_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)), "bad unit");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `fides-benchmark manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn committed_metrics_md_is_generated() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md");
        assert_eq!(
            std::fs::read_to_string(path).expect("METRICS.md beside Cargo.toml"),
            markdown(),
            "regenerate with `fides-benchmark metrics > benchmark/METRICS.md`"
        );
    }
}
