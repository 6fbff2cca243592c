//! Cross-crate integration test: the job executor must be an *exact*
//! stand-in for the sequential path. Whole `ParmaSolution`s — resistor
//! maps, iteration counts, residuals, histories, recovery logs — come back
//! bitwise identical whether solves run one at a time on the calling
//! thread or fan out over the work-stealing pool, at any thread count,
//! for healthy and degenerate datasets alike.

use parma::full_newton::{full_newton_inverse, FullNewtonOptions};
use parma::prelude::*;
use parma::{execute, Job, Outcome};

fn measurements(n: usize, seeds: &[u64]) -> Vec<ZMatrix> {
    seeds
        .iter()
        .map(|&seed| {
            let (truth, _) = AnomalyConfig::default().generate(MeaGrid::square(n), seed);
            ForwardSolver::new(&truth).unwrap().solve_all()
        })
        .collect()
}

/// A one-time-point session around `z`, so the executor's solve of it is
/// exactly `ParmaSolver::solve(z)`.
fn single(z: &ZMatrix) -> WetLabDataset {
    WetLabDataset {
        grid: z.grid(),
        measurements: vec![mea_model::Measurement {
            hours: 0,
            voltage: 5.0,
            z: z.clone(),
            ground_truth: None,
        }],
    }
}

/// Runs every dataset as job `i` through the executor.
fn run(
    config: ParmaConfig,
    datasets: &[WetLabDataset],
    threads: usize,
    sup: &SupervisorConfig,
    on_done: &(dyn Fn(usize, &Outcome) + Sync),
) -> Vec<Outcome> {
    let pipeline = Pipeline::new(config, 1.5).unwrap();
    let jobs: Vec<Job> = datasets
        .iter()
        .enumerate()
        .map(|(i, ds)| Job::loaded(i, ds))
        .collect();
    execute(&pipeline, &jobs, threads, sup, on_done)
}

fn no_retries() -> SupervisorConfig {
    SupervisorConfig {
        max_retries: 0,
        ..Default::default()
    }
}

fn assert_solutions_bitwise_equal(a: &ParmaSolution, b: &ParmaSolution, label: &str) {
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(
        a.residual.to_bits(),
        b.residual.to_bits(),
        "{label}: residual"
    );
    assert_eq!(a.history.len(), b.history.len(), "{label}: history length");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: history entry");
    }
    assert_eq!(a.recovery, b.recovery, "{label}: recovery log");
    for (i, (x, y)) in a
        .resistors
        .as_slice()
        .iter()
        .zip(b.resistors.as_slice())
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: resistor {i}");
    }
}

#[test]
fn batched_solutions_equal_sequential_solutions_bitwise() {
    let zs = measurements(6, &[501, 502, 503, 504, 505]);
    let solver = ParmaSolver::new(ParmaConfig::default());
    let sequential: Vec<ParmaSolution> = zs.iter().map(|z| solver.solve(z).unwrap()).collect();
    let datasets: Vec<WetLabDataset> = zs.iter().map(single).collect();
    for threads in [1usize, 2, 3, 4, 8] {
        let batched = run(
            ParmaConfig::default(),
            &datasets,
            threads,
            &SupervisorConfig::default(),
            &|_, _| {},
        );
        assert_eq!(batched.len(), sequential.len());
        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            assert_solutions_bitwise_equal(
                &b.as_ref().unwrap()[0].solution,
                s,
                &format!("item {i}, {threads} threads"),
            );
        }
    }
}

#[test]
fn degenerate_maps_recover_identically_in_batch() {
    // A near-short crossing trips the recovery ladder; the intervention
    // sequence and the final bits must match the sequential solve even
    // when the solve runs on a pool worker.
    let grid = MeaGrid::square(5);
    let mut zs = measurements(5, &[601, 602]);
    let (mut truth, _) = AnomalyConfig::default().generate(grid, 603);
    truth.set(2, 2, 1e-3); // pathological short
    if let Ok(forward) = ForwardSolver::new(&truth) {
        zs.push(forward.solve_all());
    }
    let cfg = ParmaConfig {
        max_iter: 900,
        ..Default::default()
    };
    let solver = ParmaSolver::new(cfg);
    let datasets: Vec<WetLabDataset> = zs.iter().map(single).collect();
    let batched = run(cfg, &datasets, 3, &no_retries(), &|_, _| {});
    for (i, (b, z)) in batched.iter().zip(&zs).enumerate() {
        let s = solver.solve(z).unwrap();
        assert_solutions_bitwise_equal(&b.as_ref().unwrap()[0].solution, &s, &format!("item {i}"));
    }
}

#[test]
fn batched_sessions_equal_sequential_pipeline_bitwise() {
    let datasets: Vec<WetLabDataset> = (0..3)
        .map(|k| {
            WetLabDataset::generate(MeaGrid::square(5), &AnomalyConfig::default(), 700 + k).unwrap()
        })
        .collect();
    let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
    let sequential: Vec<Vec<TimePointResult>> =
        datasets.iter().map(|d| pipeline.run(d).unwrap()).collect();
    let batched = run(
        ParmaConfig::default(),
        &datasets,
        2,
        &SupervisorConfig::default(),
        &|_, _| {},
    );
    for (d, (b, s)) in batched.iter().zip(&sequential).enumerate() {
        let b = b.as_ref().unwrap();
        assert_eq!(b.len(), s.len());
        for (tp_b, tp_s) in b.iter().zip(s) {
            assert_eq!(tp_b.hours, tp_s.hours);
            assert_solutions_bitwise_equal(
                &tp_b.solution,
                &tp_s.solution,
                &format!("dataset {d}, hour {}", tp_b.hours),
            );
            assert_eq!(
                tp_b.detection.anomalies, tp_s.detection.anomalies,
                "dataset {d}: detection must follow the identical map"
            );
        }
    }
}

#[test]
fn supervised_sessions_equal_plain_sessions_bitwise() {
    // The determinism contract of supervised execution: with retries
    // disabled and no deadlines, the supervisor is a pure pass-through —
    // session results carry exactly the plain pipeline's bits, per time
    // point, at any thread count, and `on_done` fires once per session.
    let datasets: Vec<WetLabDataset> = (0..3)
        .map(|k| {
            WetLabDataset::generate(MeaGrid::square(5), &AnomalyConfig::default(), 750 + k).unwrap()
        })
        .collect();
    let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
    let plain: Vec<Vec<TimePointResult>> =
        datasets.iter().map(|d| pipeline.run(d).unwrap()).collect();
    for threads in [1usize, 3] {
        let fired = std::sync::Mutex::new(Vec::new());
        let supervised = run(
            ParmaConfig::default(),
            &datasets,
            threads,
            &no_retries(),
            &|i, r| fired.lock().unwrap().push((i, r.is_ok())),
        );
        let mut fired = fired.into_inner().unwrap();
        fired.sort_unstable();
        assert_eq!(fired, vec![(0, true), (1, true), (2, true)]);
        assert_eq!(plain.len(), supervised.len());
        for (d, (p, s)) in plain.iter().zip(&supervised).enumerate() {
            let s = s.as_ref().unwrap();
            assert_eq!(p.len(), s.len());
            for (tp_p, tp_s) in p.iter().zip(s) {
                assert_eq!(tp_p.hours, tp_s.hours);
                assert_solutions_bitwise_equal(
                    &tp_s.solution,
                    &tp_p.solution,
                    &format!("dataset {d}, hour {}, {threads} threads", tp_p.hours),
                );
                assert_eq!(
                    tp_p.detection.anomalies, tp_s.detection.anomalies,
                    "dataset {d}: detection must follow the identical map"
                );
            }
        }
    }
}

#[test]
fn template_full_newton_agrees_with_production_batch() {
    // Third independent check that the symbolic-template Gauss-Newton path
    // and the executor's fixed-point path still meet at the same root.
    let zs = measurements(4, &[801, 802]);
    let datasets: Vec<WetLabDataset> = zs.iter().map(single).collect();
    let batched = run(
        ParmaConfig::default(),
        &datasets,
        2,
        &SupervisorConfig::default(),
        &|_, _| {},
    );
    for (z, res) in zs.iter().zip(&batched) {
        let fp = &res.as_ref().unwrap()[0].solution;
        let gn = full_newton_inverse(z, 5.0, &FullNewtonOptions::default()).unwrap();
        let diff = fp.resistors.rel_max_diff(&gn.resistors);
        assert!(
            diff < 1e-5,
            "independent formulations diverged: rel diff {diff}"
        );
    }
}
