//! Failure injection across the workspace: malformed inputs, non-physical
//! values and exhausted budgets must produce typed errors, never panics or
//! silent garbage.

use mea_model::DatasetError;
use parma::prelude::*;
use parma::ParmaError;

#[test]
fn nonphysical_measurements_are_rejected_everywhere() {
    let grid = MeaGrid::square(3);
    for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let z = CrossingMatrix::filled(grid, bad);
        assert!(
            matches!(
                ParmaSolver::new(ParmaConfig::default()).solve(&z),
                Err(ParmaError::InvalidMeasurement(_))
            ),
            "solver must reject Z = {bad}"
        );
        assert!(
            ForwardSolver::new(&z).is_err(),
            "forward must reject R = {bad}"
        );
    }
}

#[test]
fn dataset_parser_rejects_malformed_files() {
    let cases: &[(&str, &str)] = &[
        ("", "empty file"),
        ("garbage header\n", "bad header"),
        ("# parma-dataset v1\n", "missing dims"),
        ("# parma-dataset v1\nrows 2\n", "missing cols"),
        ("# parma-dataset v1\nrows 0\ncols 2\n", "zero rows"),
        (
            "# parma-dataset v1\nrows 2\ncols 2\nnot-a-measurement\n",
            "bad section",
        ),
        (
            "# parma-dataset v1\nrows 2\ncols 2\nmeasurement x 5\n",
            "bad hours",
        ),
        (
            "# parma-dataset v1\nrows 2\ncols 2\nmeasurement 0 5\n1.0\tbeef\n1.0\t1.0\n",
            "bad value",
        ),
        (
            "# parma-dataset v1\nrows 2\ncols 2\nmeasurement 0 5\n1.0\t2.0\n",
            "truncated",
        ),
    ];
    for (text, label) in cases {
        let err = WetLabDataset::read_text(text.as_bytes());
        assert!(
            matches!(err, Err(DatasetError::Parse(_))),
            "case {label:?} must raise a parse error, got {err:?}"
        );
    }
    // Structurally valid but physically corrupt values get the *typed*
    // rejection (the supervision taxonomy's non_finite_input), not Parse.
    for (text, label) in [
        (
            "# parma-dataset v1\nrows 1\ncols 2\nmeasurement 0 5\n1.0\t0.0\n",
            "zero impedance",
        ),
        (
            "# parma-dataset v1\nrows 1\ncols 2\nmeasurement 0 5\nNaN\t1.0\n",
            "NaN impedance",
        ),
        (
            "# parma-dataset v1\nrows 1\ncols 2\nmeasurement 0 5\n1.0\tinf\n",
            "infinite impedance",
        ),
    ] {
        let err = WetLabDataset::read_text(text.as_bytes());
        assert!(
            matches!(err, Err(DatasetError::NonPhysical { .. })),
            "case {label:?} must raise the typed non-physical error, got {err:?}"
        );
    }
}

#[test]
fn corrupt_fixture_files_are_rejected_at_ingestion() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    for name in ["corrupt_nan.txt", "corrupt_negative.txt"] {
        let path = fixtures.join(name);
        match WetLabDataset::load(&path) {
            Err(DatasetError::NonPhysical {
                hours,
                row,
                col,
                value,
            }) => {
                assert!(
                    !value.is_finite() || value <= 0.0,
                    "{name}: reported value {value} is physical"
                );
                assert!(row < 3 && col < 3, "{name}: location ({row}, {col})");
                assert!(hours <= 24, "{name}: hour stamp {hours}");
            }
            other => panic!("{name}: expected NonPhysical, got {other:?}"),
        }
    }
}

#[test]
fn budget_exhaustion_surfaces_partial_state() {
    let grid = MeaGrid::square(8);
    let (truth, _) = AnomalyConfig::default().generate(grid, 4);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();
    let cfg = ParmaConfig {
        max_iter: 1,
        tol: 1e-15,
        ..Default::default()
    };
    match ParmaSolver::new(cfg).solve(&z) {
        Err(ParmaError::NoConvergence {
            iterations,
            residual,
            partial,
        }) => {
            assert_eq!(iterations, 1);
            assert!(residual.is_finite() && residual > 0.0);
            assert!(partial.is_physical(), "partial iterate must stay physical");
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

#[test]
fn pathological_but_physical_measurements_do_not_panic() {
    // Wildly inconsistent Z (not produced by any physical R) must either
    // converge to *some* physical map or fail with a typed error.
    let grid = MeaGrid::square(4);
    let mut z = CrossingMatrix::filled(grid, 1000.0);
    z.set(0, 0, 1e-3);
    z.set(3, 3, 1e9);
    match ParmaSolver::new(ParmaConfig {
        max_iter: 50,
        ..Default::default()
    })
    .solve(&z)
    {
        Ok(sol) => assert!(sol.resistors.is_physical()),
        Err(ParmaError::NoConvergence { partial, .. }) => assert!(partial.is_physical()),
        Err(other) => panic!("unexpected error class: {other}"),
    }
}

#[test]
fn extreme_dynamic_range_stays_stable() {
    // Five orders of magnitude between crossings: the solver must still
    // round-trip.
    let grid = MeaGrid::square(4);
    let mut truth = CrossingMatrix::filled(grid, 2_000.0);
    truth.set(1, 1, 200_000.0);
    truth.set(2, 3, 20.0);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();
    let cfg = ParmaConfig {
        max_iter: 5_000,
        ..Default::default()
    };
    let sol = ParmaSolver::new(cfg).solve(&z).unwrap();
    assert!(
        sol.resistors.rel_max_diff(&truth) < 1e-4,
        "dynamic-range error {}",
        sol.resistors.rel_max_diff(&truth)
    );
}

#[test]
fn single_crossing_degenerate_device() {
    // n = 1: no cycles, no intermediates — Z IS the resistor.
    let grid = MeaGrid::square(1);
    let truth = CrossingMatrix::filled(grid, 4242.0);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();
    let sol = ParmaSolver::new(ParmaConfig::default()).solve(&z).unwrap();
    assert!((sol.resistors.get(0, 0) - 4242.0).abs() < 1e-6);
    assert_eq!(parma::parallelism_bound(grid), 0);
}

/// Builds the near-degenerate sparse map of the recovery acceptance test:
/// a 5×5 array that is open (1 GΩ) everywhere except nine live crossings
/// spanning a ~6000× dynamic range. Wires 3 (row) and 0/3 (columns) carry
/// no live crossing at all, so several conductance combinations are
/// observable only through ~1e-8-level changes in Z — the plain damped
/// sweep enters a slow mode with contraction rate ≈ 1 and plateaus just
/// above tolerance.
fn stalling_map() -> ResistorGrid {
    let grid = MeaGrid::square(5);
    let mut t = CrossingMatrix::filled(grid, 1.0e9);
    t.set(0, 1, 381907.3749711039);
    t.set(0, 2, 467995.7126771082);
    t.set(0, 4, 209645.12251302483);
    t.set(1, 1, 184644.70097808185);
    t.set(1, 2, 228353.59058863952);
    t.set(2, 2, 478005.4460925065);
    t.set(2, 4, 136805.4303249105);
    t.set(4, 1, 74914.31532065517);
    t.set(4, 4, 84194.91216249965);
    t
}

/// Measured impedances of a healthy 5×5 map degraded by `faults`.
fn faulted_measurement(faults: &[mea_model::faults::Fault]) -> ZMatrix {
    let grid = MeaGrid::square(5);
    let (healthy, _) = AnomalyConfig::default().generate(grid, 321);
    let degraded = mea_model::faults::apply_faults(&healthy, faults);
    ForwardSolver::new(&degraded).unwrap().solve_all()
}

/// The supervised-batch contract on pathological hardware: every item
/// either converges to a fully finite, physical map or comes back as a
/// classified [`FailureReport`] — never a panic, never NaN output.
fn assert_supervised_outcome_is_classified(z: ZMatrix, label: &str) {
    let pipeline = Pipeline::new(
        ParmaConfig {
            max_iter: 6_000,
            recovery: true,
            ..Default::default()
        },
        1.5,
    )
    .unwrap();
    let sup = SupervisorConfig {
        max_retries: 2,
        backoff: std::time::Duration::ZERO,
        ..Default::default()
    };
    let dataset = WetLabDataset {
        grid: z.grid(),
        measurements: vec![mea_model::Measurement {
            hours: 0,
            voltage: 5.0,
            z,
            ground_truth: None,
        }],
    };
    let out = parma::execute(
        &pipeline,
        &[parma::Job::loaded(0, &dataset)],
        2,
        &sup,
        &|_, _| {},
    );
    match &out[0] {
        Ok(tps) => {
            let sol = &tps[0].solution;
            assert!(
                sol.resistors.is_physical(),
                "{label}: converged output must be physical"
            );
            assert!(
                sol.resistors.as_slice().iter().all(|v| v.is_finite()),
                "{label}: converged output must be NaN-free"
            );
        }
        Err(report) => {
            assert!(
                matches!(
                    report.kind,
                    FailureKind::Divergence | FailureKind::Timeout | FailureKind::Internal
                ),
                "{label}: unexpected classification {:?}",
                report.kind
            );
            assert!(
                !report.attempts.is_empty(),
                "{label}: quarantine must log its attempts"
            );
        }
    }
}

#[test]
fn dead_wire_grids_converge_or_classify() {
    use mea_model::faults::Fault;
    for (label, faults) in [
        (
            "dead horizontal wire",
            vec![Fault::DeadHorizontalWire { i: 2 }],
        ),
        ("dead vertical wire", vec![Fault::DeadVerticalWire { j: 0 }]),
        (
            "two dead wires",
            vec![
                Fault::DeadHorizontalWire { i: 1 },
                Fault::DeadVerticalWire { j: 3 },
            ],
        ),
    ] {
        assert_supervised_outcome_is_classified(faulted_measurement(&faults), label);
    }
}

#[test]
fn shorted_crossing_grids_converge_or_classify() {
    use mea_model::faults::Fault;
    for (label, faults) in [
        (
            "single shorted crossing",
            vec![Fault::ShortCircuit { i: 2, j: 2 }],
        ),
        (
            "shorted pair sharing a wire",
            vec![
                Fault::ShortCircuit { i: 1, j: 1 },
                Fault::ShortCircuit { i: 1, j: 3 },
            ],
        ),
        (
            "short next to an open",
            vec![
                Fault::ShortCircuit { i: 0, j: 0 },
                Fault::OpenCircuit { i: 0, j: 1 },
            ],
        ),
    ] {
        assert_supervised_outcome_is_classified(faulted_measurement(&faults), label);
    }
}

#[test]
fn recovery_rescues_a_stalled_solve() {
    let truth = stalling_map();
    let z = ForwardSolver::new(&truth).unwrap().solve_all();
    let base = ParmaConfig {
        tol: 5e-9,
        max_iter: 4_000,
        ..Default::default()
    };

    // The plain sweep (ladder disarmed) stalls: it spends the whole budget
    // and still sits above tolerance.
    let plain = ParmaConfig {
        recovery: false,
        ..base
    };
    match ParmaSolver::new(plain).solve(&z) {
        Err(ParmaError::NoConvergence {
            iterations,
            residual,
            ..
        }) => {
            assert_eq!(iterations, 4_000);
            assert!(residual > base.tol, "stalled above tol, got {residual:.3e}");
        }
        other => panic!("plain sweep must stall on this map, got {other:?}"),
    }

    // The armed solver detects the plateau, extrapolates through the slow
    // mode, and finishes in a small fraction of the budget — with the
    // intervention recorded in the solution diagnostics.
    let sol = ParmaSolver::new(base)
        .solve(&z)
        .expect("recovery must rescue this solve");
    assert!(sol.residual <= base.tol);
    assert!(
        sol.iterations < 1_000,
        "recovery should finish quickly, took {}",
        sol.iterations
    );
    assert!(!sol.recovery.is_empty(), "the retry must be recorded");
    assert_eq!(sol.recovery[0].action, RecoveryAction::Extrapolate);
    assert!(sol.recovery[0].at_iteration > 0);
    assert!(sol.recovery[0].residual.is_finite());
}
