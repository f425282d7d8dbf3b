//! `fides-benchmark`: the repo's benchmark harness.
//!
//! ```text
//! fides-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--out <file.json>]
//! fides-benchmark all --seed <u64> --out-dir <dir> [--seconds <s>]
//! fides-benchmark compare <a.json> <b.json>
//! fides-benchmark manifest | metrics
//! ```
//!
//! `run` measures one workload in this process and prints one JSON object
//! as the last line of standard output; `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. See README.md.

mod gen;
mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::RunConfig;

/// Knobs of the library that a benchmark run must not inherit from whoever
/// launched it: every run measures the default configuration.
pub const SCRUBBED_ENV: [&str; 4] = [
    "FIDES_WORKERS",
    "FIDES_DEVICES",
    "FIDES_PLAN_AHEAD",
    "FIDES_SIMD",
];

struct Args(Vec<String>);

impl Args {
    /// Removes `--name <value>` and returns the value.
    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {name}: {v:?}"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.parse(name)?
            .ok_or_else(|| format!("{name} is required"))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn run(mut args: Args) -> Result<bool, String> {
    let workload: String = args.require("--workload")?;
    let seed: u64 = args.require("--seed")?;
    let seconds: f64 = args
        .parse("--seconds")?
        .unwrap_or(metrics::RUN_SECONDS as f64);
    let trace = match args.take("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let scale: f64 = args.parse("--scale")?.unwrap_or(1.0);
    let out: Option<String> = args.take("--out")?;
    args.finish()?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if scale < 1.0 {
        if out.is_some() {
            return Err("a scaled run is a smoke test: it cannot write --out".into());
        }
        println!("SMOKE (scale {scale}): numbers from this run mean nothing");
    }
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        scale,
        corrupt: false,
    };
    let measured = workloads::run(&workload, &cfg)?;
    report::finish(&workload, &cfg, measured, out.as_deref())
}

fn dispatch() -> Result<bool, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_string(),
    };
    let mut args = Args(argv);
    match command.as_str() {
        "run" => run(args),
        "all" => {
            let seed: u64 = args.require("--seed")?;
            let out_dir: String = args.require("--out-dir")?;
            let seconds: f64 = args
                .parse("--seconds")?
                .unwrap_or(metrics::RUN_SECONDS as f64);
            args.finish()?;
            report::all(seed, seconds, &out_dir)
        }
        "compare" => match args.0.as_slice() {
            [a, b] => report::compare(a, b),
            _ => Err("compare takes two result files".into()),
        },
        "manifest" => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        "metrics" => {
            print!("{}", metrics::markdown());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the library reads these lazily.
    for name in SCRUBBED_ENV {
        std::env::remove_var(name);
    }
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fides-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn bad_command_lines_are_refused_before_anything_runs() {
        let run_err = |list: &[&str]| run(args(list)).unwrap_err();
        assert!(run_err(&["--seed", "1"]).contains("--workload is required"));
        assert!(run_err(&["--workload", "x"]).contains("--seed is required"));
        assert!(run_err(&["--workload", "x", "--seed", "one"]).contains("bad value"));
        assert!(run_err(&["--workload", "x", "--seed", "1", "--trace", "yes"]).contains("0 or 1"));
        assert!(run_err(&["--workload", "x", "--seed", "1", "--seconds"]).contains("needs a value"));
        assert!(run_err(&["--workload", "x", "--seed", "1", "extra"]).contains("unexpected"));
        assert!(run_err(&["--workload", "x", "--seed", "1", "--seconds", "0"]).contains("seconds"));
        assert!(run_err(&["--workload", "nope", "--seed", "1"]).contains("unknown workload"));
    }

    #[test]
    fn a_scaled_run_cannot_write_results() {
        let err = run(args(&[
            "--workload",
            "affine_flood_ticks",
            "--seed",
            "1",
            "--scale",
            "0.05",
            "--out",
            "results/smoke.json",
        ]))
        .unwrap_err();
        assert!(err.contains("smoke"), "{err}");
    }
}
