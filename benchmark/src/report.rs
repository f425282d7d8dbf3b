//! Turning a measurement into the result line and result file, running
//! every workload as child processes (`all`), and comparing two result
//! files against the benchmark's bounds (`compare`).

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::{span_cost_ns, spans_to_json};
use crate::workloads::{Measured, RunConfig};
use crate::SCRUBBED_ENV;

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The metrics object of the result line: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one. `m.latencies_ms`
/// is ascending.
fn metrics_json(cfg: &RunConfig, m: &mut Measured) -> Json {
    if !cfg.trace {
        let lat = &m.latencies_ms;
        let values = [
            median(&mut m.setup_s.clone()),
            lat.len() as f64 / m.wall_s,
            percentile(lat, 50.0),
            percentile(lat, m.tail_percentile),
            peak_rss_mb(),
        ];
        return Json::obj(
            END_TO_END
                .iter()
                .zip(values)
                .map(|(def, v)| (def.name, metric(v, def.unit))),
        );
    }
    m.layer.insert(
        "bench.trace_overhead_pct",
        100.0 * m.window_spans as f64 * span_cost_ns() / (m.wall_s * 1e9),
    );
    for name in m.layer.keys() {
        assert!(
            PER_LAYER.iter().any(|def| def.name == *name),
            "workload reported {name}, which BENCHMARK.json does not declare"
        );
    }
    Json::obj(PER_LAYER.iter().map(|def| {
        let mut v = m.layer.get(def.name).copied().unwrap_or(0.0);
        // Simulated times are differences of an ever-growing f64 clock:
        // identical work differs in the last bits depending on how far the
        // clock has run. Reported to the simulated nanosecond, they repeat.
        // Ratios of such times carry the same noise further down.
        if def.unit == "sim_us" {
            v = (v * 1e3).round() / 1e3;
        } else if def.exact {
            v = (v * 1e6).round() / 1e6;
        }
        (def.name, metric(v, def.unit))
    }))
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What must match for two result files to be comparable (all but `commit`).
fn stamp(workload: &str, cfg: &RunConfig, params: Json) -> Json {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"], here)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], here)),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("features", Json::str("default")),
        ("params", params),
    ])
}

/// Prints the result line (and writes the result files when asked).
/// Returns whether the run was correct.
pub fn finish(
    workload: &str,
    cfg: &RunConfig,
    mut m: Measured,
    out: Option<&str>,
) -> Result<bool, String> {
    let correct = m.failed == 0 && !m.latencies_ms.is_empty();
    let samples = m.latencies_ms.len();
    sorted(&mut m.latencies_ms);
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics_json(cfg, &mut m)),
    ]);
    if let Some(path) = out {
        let file = Json::obj([
            ("stamp", stamp(workload, cfg, m.params.clone())),
            ("counts", m.counts.clone()),
            ("samples", Json::Num(samples as f64)),
            (
                "highest_supported_percentile",
                highest_supported_percentile(samples).map_or(Json::Num(50.0), Json::Num),
            ),
            (
                "latency_ms",
                Json::obj(
                    [50.0, 75.0, 90.0, 95.0, 99.0, 100.0]
                        .map(|p| (format!("p{p}"), Json::Num(percentile(&m.latencies_ms, p)))),
                ),
            ),
            ("result", result.clone()),
        ]);
        let write = |path: &str, json: &Json| {
            if let Some(dir) = Path::new(path)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
            {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, json.to_pretty()).map_err(|e| format!("{path}: {e}"))
        };
        write(path, &file)?;
        if cfg.trace {
            let trace_path = format!("{}.trace.json", path.trim_end_matches(".json"));
            write(&trace_path, &spans_to_json(&m.spans))?;
        }
    }
    println!("{}", result.to_line());
    Ok(correct)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_values(file: &Json) -> Vec<(&str, f64)> {
    file.get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.as_str(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Applies the benchmark's bounds to `b` against `a`: an end-to-end metric
/// may be worse by at most its bound; a per-layer metric marked exact must
/// be identical. Refuses files whose stamps differ in anything but commit.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let comparable = |file: &Json| -> Vec<(String, Json)> {
        file.get("stamp")
            .and_then(Json::as_obj)
            .map(|s| s.iter().filter(|(k, _)| k != "commit").cloned().collect())
            .unwrap_or_default()
    };
    let (sa, sb) = (comparable(&a), comparable(&b));
    if sa.is_empty() || sa != sb {
        return Err(format!(
            "stamps differ: refusing to compare\n  {}\n  {}",
            Json::Obj(sa).to_line(),
            Json::Obj(sb).to_line()
        ));
    }
    let workload = a
        .get("stamp")
        .and_then(|s| s.get("workload"))
        .and_then(Json::as_str)
        .unwrap_or_default();
    let enforce_exact = WORKLOADS
        .iter()
        .any(|w| w.name == workload && w.repeats_exactly);
    let values_b = metric_values(&b);
    let mut ok = true;
    for (name, va) in metric_values(&a) {
        let Some(&(_, vb)) = values_b.iter().find(|(n, _)| *n == name) else {
            println!("{name:40} missing from {b_path}");
            ok = false;
            continue;
        };
        let verdict = if let Some(def) = END_TO_END.iter().find(|d| d.name == name) {
            let worse = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            if worse > def.bound {
                ok = false;
                format!(
                    "WORSE by {:.1}% (bound {:.0}%)",
                    worse * 100.0,
                    def.bound * 100.0
                )
            } else {
                format!("{:+.1}% (bound {:.0}%)", worse * 100.0, def.bound * 100.0)
            }
        } else if PER_LAYER.iter().any(|d| d.name == name && d.exact) && enforce_exact {
            if va == vb {
                "= exact".to_string()
            } else {
                ok = false;
                "DIFFERS (must be exact)".to_string()
            }
        } else {
            String::new()
        };
        println!("{name:40} {va:>16.6} {vb:>16.6}  {verdict}");
    }
    println!("{}", if ok { "within bounds" } else { "OUT OF BOUNDS" });
    Ok(ok)
}

/// Runs every workload, untraced then traced, each in a child process of
/// its own (so `peak_rss_mb` and `setup_s` are per workload), and prints
/// every metric by name with its unit.
pub fn all(seed: u64, seconds: f64, out_dir: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let out = format!(
                "{out_dir}/{}{}.json",
                w.name,
                if trace { ".traced" } else { "" }
            );
            let mut child = Command::new(&exe);
            child.args([
                "run",
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
                "--out",
                &out,
            ]);
            for name in SCRUBBED_ENV {
                child.env_remove(name);
            }
            let output = child.output().map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            println!(
                "\n== {} ({}) -> {out}",
                w.name,
                if trace {
                    "traced: per-layer"
                } else {
                    "untraced: end-to-end"
                }
            );
            let Ok(result) = Json::parse(line) else {
                println!(
                    "no result: {}",
                    String::from_utf8_lossy(&output.stderr).trim()
                );
                ok = false;
                continue;
            };
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
            println!(
                "correct {}  attempted {}  failed {}",
                result.get("correct") == Some(&Json::Bool(true)),
                num("attempted"),
                num("failed")
            );
            for (name, field) in result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                println!(
                    "  {name:40} {:>18.6} {}",
                    field
                        .get("value")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                    field.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
            ok &= output.status.success();
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Layer;

    fn measured(latency_ms: f64, sim_us: f64) -> Measured {
        Measured {
            setup_s: vec![1.0, 3.0, 2.0],
            wall_s: 2.0,
            latencies_ms: vec![latency_ms; 4],
            tail_percentile: 95.0,
            attempted: 4,
            failed: 0,
            layer: Layer::from([("sim_us_per_op", sim_us), ("serve.mean_batch", 3.5)]),
            window_spans: 10,
            params: Json::obj([("chain", Json::str("[10,4,40,3]"))]),
            counts: Json::obj([("cycles", Json::Num(latency_ms))]),
            spans: Vec::new(),
        }
    }

    fn cfg(seed: u64, trace: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds: 1.0,
            trace,
            scale: 1.0,
            corrupt: false,
        }
    }

    #[test]
    fn untraced_reports_every_end_to_end_metric_and_traced_every_per_layer_one() {
        let e2e = metrics_json(&cfg(1, false), &mut measured(5.0, 0.0));
        let fields = e2e.as_obj().unwrap();
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name));
        let value = |k: &str| e2e.get(k).unwrap().get("value").unwrap().as_f64().unwrap();
        assert_eq!(value("setup_s"), 2.0);
        assert_eq!(value("wall_ops_per_s"), 2.0);
        assert_eq!(value("wall_op_p50_ms"), 5.0);
        assert!(value("peak_rss_mb") > 0.0);

        let layers = metrics_json(&cfg(1, true), &mut measured(5.0, 1.000_000_4));
        assert_eq!(layers.as_obj().unwrap().len(), PER_LAYER.len());
        let value = |k: &str| {
            layers
                .get(k)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(
            value("sim_us_per_op"),
            1.0,
            "simulated times round to the ns"
        );
        assert_eq!(value("serve.mean_batch"), 3.5);
        assert_eq!(value("serve.shed_share"), 0.0, "unset metrics read 0");
        assert!(value("bench.trace_overhead_pct") > 0.0);
    }

    #[test]
    fn compare_applies_bounds_exactness_and_refuses_mismatched_stamps() {
        let dir = format!(
            "{}/results/.test-{}",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        );
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-written result files: a real run's peak RSS is whatever the
        // test process has reached.
        let write = |name: &str, seed: f64, commit: &str, metrics: &[(&str, f64)]| -> String {
            let file = Json::obj([
                (
                    "stamp",
                    Json::obj([
                        ("workload", Json::str("affine_flood_ticks")),
                        ("seed", Json::Num(seed)),
                        ("commit", Json::str(commit)),
                    ]),
                ),
                (
                    "result",
                    Json::obj([(
                        "metrics",
                        Json::obj(metrics.iter().map(|&(k, v)| (k, metric(v, "x")))),
                    )]),
                ),
            ]);
            let path = format!("{dir}/{name}.json");
            std::fs::write(&path, file.to_pretty()).unwrap();
            path
        };
        let e2e = |p50: f64, rate: f64| [("wall_op_p50_ms", p50), ("wall_ops_per_s", rate)];
        let base = write("base", 1.0, "aaa", &e2e(5.0, 100.0));
        let near = write("near", 1.0, "bbb", &e2e(5.2, 95.0));
        let slow = write("slow", 1.0, "bbb", &e2e(5.0, 80.0));
        let fast = write("fast", 1.0, "bbb", &e2e(2.0, 300.0));
        let other_seed = write("seed2", 2.0, "aaa", &e2e(5.0, 100.0));
        assert_eq!(compare(&base, &near), Ok(true), "4-5% worse is inside 15%");
        assert_eq!(compare(&base, &slow), Ok(false), "20% fewer ops/s is not");
        assert_eq!(
            compare(&base, &fast),
            Ok(true),
            "better is never out of bounds"
        );
        assert!(
            compare(&base, &other_seed).is_err(),
            "stamps differ beyond commit"
        );

        let layers = |sim: f64, wall: f64| [("sim_us_per_op", sim), ("core.op.hmult_us", wall)];
        let t1 = write("t1", 1.0, "aaa", &layers(22.256, 100.0));
        let t2 = write("t2", 1.0, "bbb", &layers(22.256, 180.0));
        let t3 = write("t3", 1.0, "bbb", &layers(22.257, 100.0));
        assert_eq!(
            compare(&t1, &t2),
            Ok(true),
            "wall per-layer metrics have no bound"
        );
        assert_eq!(compare(&t1, &t3), Ok(false), "an exact metric moved");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_writes_a_stamped_result_and_the_trace_beside_it() {
        let dir = format!(
            "{}/results/.test-finish-{}",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        );
        let path = format!("{dir}/run.json");
        let ok = finish(
            "churn_restart",
            &cfg(3, true),
            measured(5.0, 1.0),
            Some(&path),
        );
        assert_eq!(ok, Ok(true));
        let file = load(&path).unwrap();
        let stamp = file.get("stamp").unwrap();
        for key in [
            "workload", "seed", "seconds", "trace", "commit", "rustc", "nproc", "params",
        ] {
            assert!(stamp.get(key).is_some(), "stamp lacks {key}");
        }
        assert_eq!(
            file.get("counts").unwrap().get("cycles"),
            Some(&Json::Num(5.0))
        );
        assert_eq!(metric_values(&file).len(), PER_LAYER.len());
        assert_eq!(
            load(&format!("{dir}/run.trace.json")),
            Ok(Json::Arr(vec![]))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
