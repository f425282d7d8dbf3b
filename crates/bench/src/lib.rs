//! # fides-bench
//!
//! The FIDESlib paper's evaluation (§IV) as binaries: `table5`–`table8`,
//! `fig4`–`fig8` and the two `ablate_*` views each print the paper's
//! rows/series next to the values this reproduction produces, on the
//! simulated clock. Performance is measured and gated elsewhere — by the
//! `fides-benchmark` ladder under `benchmark/`.

#![warn(missing_docs)]

use std::sync::Arc;

use fides_gpu_sim::GpuSim;

/// Times a closure in simulated microseconds: device-syncs, runs, syncs.
pub fn sim_time_us<F: FnOnce()>(gpu: &Arc<GpuSim>, f: F) -> f64 {
    let t0 = gpu.sync();
    f();
    gpu.sync() - t0
}

/// Formats microseconds adaptively (µs / ms / s).
pub fn fmt_us(us: f64) -> String {
    if us < 1_000.0 {
        format!("{us:8.2} µs")
    } else if us < 1_000_000.0 {
        format!("{:8.3} ms", us / 1_000.0)
    } else {
        format!("{:8.3} s ", us / 1_000_000.0)
    }
}

/// Prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("{}", line.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert!(fmt_us(12.5).contains("µs"));
        assert!(fmt_us(12_500.0).contains("ms"));
        assert!(fmt_us(12_500_000.0).contains("s"));
    }

    #[test]
    fn sim_time_is_non_negative() {
        let gpu = GpuSim::new(
            fides_gpu_sim::DeviceSpec::rtx_4090(),
            fides_gpu_sim::ExecMode::CostOnly,
        );
        let dt = sim_time_us(&gpu, || {});
        assert!(dt >= 0.0);
    }
}
