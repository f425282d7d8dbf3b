//! The five workloads and what they share: the run configuration, the
//! measurement a run hands back, output checking, and the counter-to-metric
//! arithmetic for the simulated device and the scheduler.

pub mod affine_flood_ticks;
pub mod boot_lr_cpu;
pub mod boot_lr_paper_sim;
pub mod churn_restart;
pub mod lr_score_socket;
mod serving;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fides_gpu_sim::SimStats;

use crate::json::Json;
use crate::trace::Span;

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// 1.0 for a real run; smaller shrinks pools, warm-ups and the window
    /// for smoke tests (such runs print `SMOKE` and cannot write results).
    pub scale: f64,
    /// Test hook: damage one output before checking it. The run must then
    /// report a failure.
    pub corrupt: bool,
}

impl RunConfig {
    /// Full set-ups per run; `setup_s` is their median. A traced run does
    /// not report `setup_s` and sets up once.
    pub fn setups(&self) -> usize {
        if self.trace || self.scale < 1.0 {
            1
        } else {
            3
        }
    }

    /// `n` scaled for smoke runs, never below `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * self.scale)
    }
}

/// Per-layer metric values of a traced run; metrics never set read 0.
pub type Layer = BTreeMap<&'static str, f64>;

/// What one run of one workload measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed window.
    pub wall_s: f64,
    /// One wall latency per correct op.
    pub latencies_ms: Vec<f64>,
    /// The percentile `wall_op_tail_ms` reports: fixed per workload, the
    /// highest its window supports steadily (50 where it holds too few ops).
    pub tail_percentile: f64,
    pub attempted: u64,
    /// Errored, wrong, or missing. A by-design shed is not a failure: it is
    /// a checked reply, counted in `serve.shed_share`.
    pub failed: u64,
    pub layer: Layer,
    /// Spans recorded inside the timed window (the rest are set-up, checks
    /// and probes), for the tracing-overhead estimate.
    pub window_spans: usize,
    /// The workload's parameters, for the result stamp.
    pub params: Json,
    /// What this run happened to do (cycles, restarts, sheds...): recorded in
    /// the result file, but not configuration, so not part of the stamp.
    pub counts: Json,
    pub spans: Vec<Span>,
}

/// Runs the named workload in this process.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Measured, String> {
    Ok(match workload {
        "lr_score_socket" => lr_score_socket::run(cfg),
        "affine_flood_ticks" => affine_flood_ticks::run(cfg),
        "boot_lr_cpu" => boot_lr_cpu::run(cfg),
        "boot_lr_paper_sim" => boot_lr_paper_sim::run(cfg),
        "churn_restart" => churn_restart::run(cfg),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs `setup` the configured number of times, keeping the last state and
/// every duration. Earlier states are dropped first, so peak memory is one
/// state's.
pub fn repeat_setup<S>(cfg: &RunConfig, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..cfg.setups() {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

/// Checks decrypted outputs against plaintext references.
#[derive(Default)]
pub struct Checker {
    pub checked: u64,
    pub wrong: u64,
    max_err: f64,
}

impl Checker {
    pub fn check(&mut self, got: f64, want: f64, tolerance: f64) {
        let err = (got - want).abs();
        self.checked += 1;
        // NaN compares false with everything, so the test is for "inside".
        if err <= tolerance {
            self.max_err = self.max_err.max(err);
        } else {
            self.wrong += 1;
        }
    }

    /// `-log2(max abs error)` over the outputs inside tolerance.
    pub fn precision_bits(&self) -> f64 {
        -(self.max_err.max(f64::MIN_POSITIVE)).log2()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

const MB: f64 = 1024.0 * 1024.0;

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / MB
}

/// The gpu-sim layer's metrics from a `SimStats` ledger reset at the start
/// of the window, per op.
pub fn sim_layer(layer: &mut Layer, stats: &SimStats, ops: f64) {
    let ops = ops.max(1.0);
    layer.insert(
        "gpu-sim.stream_occupancy_pct",
        stats.stream_occupancy() * 100.0,
    );
    layer.insert("gpu-sim.dram_mb_per_op", mb(stats.dram_read_bytes) / ops);
    let reads = (stats.dram_read_bytes + stats.l2_hit_bytes).max(1);
    layer.insert(
        "gpu-sim.l2_hit_share",
        stats.l2_hit_bytes as f64 / reads as f64,
    );
    layer.insert("gpu-sim.allocations_per_op", stats.allocations as f64 / ops);
    layer.insert("gpu-sim.h2d_mb_per_op", mb(stats.h2d_bytes) / ops);
    layer.insert("sim_peak_device_mb", mb(stats.peak_device_bytes));
    let busy = |prefix: &str| -> f64 {
        stats
            .per_kind
            .iter()
            .filter(|(kind, _)| kind.starts_with(prefix))
            .map(|(_, k)| k.busy_us)
            .sum::<f64>()
            / ops
    };
    layer.insert("gpu-sim.busy_us.ntt", busy("ntt"));
    layer.insert("gpu-sim.busy_us.intt", busy("intt"));
    layer.insert("gpu-sim.busy_us.base_conv", busy("base_conv"));
    layer.insert("gpu-sim.busy_us.elementwise", busy("elementwise"));
    layer.insert("gpu-sim.busy_us.automorphism", busy("automorphism"));
    layer.insert("gpu-sim.busy_us.switch_modulus", busy("switch_modulus"));
    layer.insert("gpu-sim.busy_us.transfer", busy("transfer"));
}

/// Scheduler counters over a window (`SchedStats` or the same fields of
/// `ServeStats`).
#[derive(Clone, Copy, Default)]
pub struct SchedCounts {
    pub recorded: u64,
    pub planned: u64,
    pub fused: u64,
    pub hits: u64,
    pub misses: u64,
}

impl SchedCounts {
    pub fn since(self, earlier: SchedCounts) -> SchedCounts {
        SchedCounts {
            recorded: self.recorded - earlier.recorded,
            planned: self.planned - earlier.planned,
            fused: self.fused - earlier.fused,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

impl From<fides_core::SchedStats> for SchedCounts {
    fn from(s: fides_core::SchedStats) -> Self {
        SchedCounts {
            recorded: s.recorded_kernels,
            planned: s.planned_launches,
            fused: s.fused_kernels,
            hits: s.plan_cache_hits,
            misses: s.plan_cache_misses,
        }
    }
}

impl From<&fides_serve::ServeStats> for SchedCounts {
    fn from(s: &fides_serve::ServeStats) -> Self {
        SchedCounts {
            recorded: s.recorded_kernels,
            planned: s.planned_launches,
            fused: s.fused_kernels,
            hits: s.plan_cache_hits,
            misses: s.plan_cache_misses,
        }
    }
}

pub fn sched_layer(layer: &mut Layer, c: SchedCounts, ops: f64) {
    layer.insert(
        "core.sched.launches_per_op",
        c.planned as f64 / ops.max(1.0),
    );
    layer.insert(
        "core.sched.fused_share",
        c.fused as f64 / c.recorded.max(1) as f64,
    );
    layer.insert(
        "core.sched.plan_cache_hit_rate",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_out_of_tolerance_and_nan_as_wrong() {
        let mut c = Checker::default();
        c.check(1.0 + 1e-6, 1.0, 1e-3);
        c.check(2.0, 1.0, 1e-3);
        c.check(f64::NAN, 1.0, 1e-3);
        assert_eq!((c.checked, c.wrong), (3, 2));
        assert!(
            (c.precision_bits() - 19.93).abs() < 0.01,
            "{}",
            c.precision_bits()
        );
    }

    /// Every workload at 5% scale, traced so the probes run too: the run is
    /// correct, reports only declared metrics, and a damaged output fails it.
    fn smoke(workload: &str) {
        let cfg = RunConfig {
            seed: 7,
            seconds: 12.0,
            trace: true,
            scale: 0.05,
            corrupt: false,
        };
        let m = run(workload, &cfg).expect("known workload");
        assert_eq!(m.failed, 0, "{workload} failed ops");
        assert!(m.attempted > 0 && !m.latencies_ms.is_empty());
        assert!(m.wall_s > 0.0 && m.window_spans > 0 && !m.spans.is_empty());
        for name in m.layer.keys() {
            assert!(
                crate::metrics::PER_LAYER.iter().any(|d| d.name == *name),
                "{workload} reports undeclared {name}"
            );
        }
        assert!(m.layer.values().all(|v| v.is_finite()), "{:?}", m.layer);

        let damaged = RunConfig {
            trace: false,
            corrupt: true,
            ..cfg
        };
        let m = run(workload, &damaged).expect("known workload");
        assert!(m.failed > 0, "{workload} did not notice a damaged output");
    }

    #[test]
    fn smoke_lr_score_socket() {
        smoke("lr_score_socket");
    }

    #[test]
    fn smoke_affine_flood_ticks() {
        smoke("affine_flood_ticks");
    }

    #[test]
    fn smoke_boot_lr_cpu() {
        smoke("boot_lr_cpu");
    }

    #[test]
    fn smoke_boot_lr_paper_sim() {
        smoke("boot_lr_paper_sim");
    }

    #[test]
    fn smoke_churn_restart() {
        smoke("churn_restart");
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: 1.0,
            corrupt: false,
        };
        assert!(run("no_such_workload", &cfg).is_err());
    }

    #[test]
    fn setup_repeats_and_smoke_scaling() {
        let cfg = RunConfig {
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            corrupt: false,
        };
        let mut built = 0;
        let (last, times) = repeat_setup(&cfg, || {
            built += 1;
            built
        });
        assert_eq!((last, times.len()), (3, 3));
        let smoke = RunConfig { scale: 0.05, ..cfg };
        assert_eq!(smoke.setups(), 1);
        assert_eq!(smoke.scaled(200, 4), 10);
        assert_eq!(smoke.scaled(16, 4), 4);
        assert_eq!(smoke.window(), Duration::from_millis(500));
    }
}
