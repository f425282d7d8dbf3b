//! Table VIII: qualitative comparison of GPU CKKS libraries.
//!
//! Printed from the feature matrix the paper reports, with this
//! reproduction's coverage in the FIDESlib column (every FIDESlib feature is
//! implemented here, including the integration-test methodology).

use fides_bench::print_table;

fn main() {
    let features = [
        (
            "Open Source",
            vec!["✗", "✓", "✓", "✓", "✓", "✗", "✓", "✗", "✓"],
        ),
        (
            "Published",
            vec!["✓", "✗", "✓", "✗", "✓", "✓", "✗", "✓", "✓"],
        ),
        (
            "Bootstrapping",
            vec!["✓", "✓", "✓", "✗", "✗", "✓", "✓", "✓", "✓"],
        ),
        (
            "OpenFHE Inter.",
            vec!["✗", "✗", "✗", "✗", "✗", "✗", "✗", "✗", "✓"],
        ),
        (
            "Benchmarks",
            vec!["✓", "✗", "✓", "✗", "✓", "✗", "✗", "✗", "LR"],
        ),
        (
            "Microbench.",
            vec!["✓", "✓", "✓", "✓", "✓", "✗", "✓", "✗", "✓"],
        ),
        (
            "Unit Tests",
            vec!["✗", "✓", "✗", "✓", "✗", "✗", "✗", "✗", "✓"],
        ),
        (
            "Integration Tests",
            vec!["✗", "✗", "✗", "✗", "✗", "✗", "✗", "✗", "✓"],
        ),
        (
            "Multi-GPU",
            vec!["✗", "✗", "✗", "✓", "✗", "✗", "✓", "✗", "WIP"],
        ),
    ];
    let libs = [
        "HEaaN [17]",
        "HEonGPU [18]",
        "100x [19]",
        "Troy [20]",
        "Phantom [15]",
        "Cheddar [16]",
        "Liberate [23]",
        "TensorFHE [22]",
        "FIDESlib",
    ];
    let mut headers = vec!["feature"];
    headers.extend(libs);
    let rows: Vec<Vec<String>> = features
        .iter()
        .map(|(name, cells)| {
            let mut row = vec![name.to_string()];
            row.extend(cells.iter().map(|c| c.to_string()));
            row
        })
        .collect();
    print_table(
        "Table VIII: qualitative comparison of GPU CKKS libraries",
        &headers,
        &rows,
    );
    println!("\nThis reproduction implements the full FIDESlib column: every server-side");
    println!("primitive incl. bootstrapping, OpenFHE-style client interoperation through");
    println!("the adapter layer, the LR benchmark, per-table microbenchmarks, unit tests");
    println!("in every module, and client⇄server integration tests. The Phantom column's");
    println!("op coverage shows in `table5`, whose Phantom ScalarAdd and ScalarMult rows");
    println!("read N/A; Phantom has no HSquare, HoistedRotate or Bootstrap, as published.");
}
