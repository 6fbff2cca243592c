//! Quickstart: generate a synthetic device, "measure" it, recover the
//! resistor map and localize the anomaly.
//!
//! ```text
//! cargo run --release -p parma --example quickstart [n] [seed]
//! ```

use parma::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("Parma quickstart — {n}×{n} microelectrode array (seed {seed})");
    println!("================================================================");

    // 1. A synthetic device: healthy baseline with anomalous regions in the
    //    paper's wet-lab range (2,000–11,000 kΩ at 5 V).
    let grid = MeaGrid::square(n);
    let cfg = AnomalyConfig::default();
    let (ground_truth, regions) = cfg.generate(grid, seed);
    println!(
        "device: {} crossings, {} joints, resistance {:.0}–{:.0} kΩ, {} anomaly region(s)",
        grid.crossings(),
        grid.joints(),
        ground_truth.min(),
        ground_truth.max(),
        regions.len()
    );

    // 2. The measurement: pair-wise impedances through exact Kirchhoff
    //    nodal analysis (what the paper's physical device reports).
    let measured = ForwardSolver::new(&ground_truth)
        .expect("ground truth is physical")
        .solve_all();
    println!(
        "measured: Z ranges {:.1}–{:.1} kΩ across {} endpoint pairs",
        measured.min(),
        measured.max(),
        grid.pairs()
    );

    // 3. The topological bound on parallelism: β₁ of the device complex.
    println!(
        "topology: β₁ = {} independent Kirchhoff cycles (= (n−1)²)",
        parallelism_bound(grid)
    );

    // 4. Recover the resistor map from measurements alone.
    let t0 = std::time::Instant::now();
    let solution = ParmaSolver::new(ParmaConfig::default())
        .solve(&measured)
        .expect("solver converges");
    let elapsed = t0.elapsed();
    println!(
        "solve: {} iterations, residual {:.2e}, {:.1} ms",
        solution.iterations,
        solution.residual,
        elapsed.as_secs_f64() * 1e3
    );
    println!(
        "accuracy vs ground truth: max relative error {:.2e}",
        solution.resistors.rel_max_diff(&ground_truth)
    );

    // 5. Detect the anomaly on the recovered map.
    let report = detect_anomalies(&solution.resistors, 1.5);
    let (precision, recall) = report.score(&solution.resistors, &regions, 0.5 * cfg.baseline);
    println!(
        "detection: {} crossings above {:.0} kΩ (baseline {:.0} kΩ) — precision {:.0}%, recall {:.0}%",
        report.anomalies.len(),
        report.threshold,
        report.baseline,
        precision * 100.0,
        recall * 100.0
    );
}
