//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * the uniform-mode-scaled initial guess vs the naive `R⁰ = Z` seed,
//! * the optimal stationary damping vs over-damped multipliers,
//! * fine-grained parallel overhead at tiny scales (the paper's n = 10
//!   inversion where *Balanced Parallel* beats PyMP).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mea_parallel::Strategy;
use parma::form_equations_parallel;
use parma::prelude::*;
use parma_bench::Workload;
use std::hint::black_box;
use std::time::Duration;

fn bench_initial_guess(c: &mut Criterion) {
    let w = Workload::new(12);
    let mut group = c.benchmark_group("ablation_initial_guess_n12");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));
    group.bench_function("scaled_kappa_seed", |b| {
        b.iter(|| {
            black_box(
                ParmaSolver::new(ParmaConfig::default())
                    .solve(black_box(&w.z))
                    .unwrap()
                    .iterations,
            )
        });
    });
    group.bench_function("naive_z_seed", |b| {
        b.iter(|| {
            black_box(
                ParmaSolver::new(ParmaConfig::default())
                    .solve_supervised(
                        &SolvePlan::new(w.z.grid()),
                        black_box(&w.z),
                        Some(w.z.clone()),
                        &mut SolveScratch::new(),
                        &CancelToken::unbounded(),
                    )
                    .unwrap()
                    .iterations,
            )
        });
    });
    group.finish();
}

fn bench_damping(c: &mut Criterion) {
    let w = Workload::new(10);
    let mut group = c.benchmark_group("ablation_damping_n10");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));
    for multiplier in [1.0f64, 0.5, 0.25] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("alpha_x{multiplier}")),
            &multiplier,
            |b, &m| {
                let cfg = ParmaConfig {
                    damping: m,
                    max_iter: 20_000,
                    ..Default::default()
                };
                b.iter(|| {
                    black_box(
                        ParmaSolver::new(cfg)
                            .solve(black_box(&w.z))
                            .unwrap()
                            .iterations,
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_small_scale_overhead(c: &mut Criterion) {
    // At n = 4 the per-item work is tiny, so thread orchestration should
    // dominate — the regime where the paper sees PyMP lose to the static
    // schedules.
    let w = Workload::new(4);
    let mut group = c.benchmark_group("ablation_tiny_scale_n4");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for strategy in [
        Strategy::SingleThread,
        Strategy::BalancedParallel { threads: 4 },
        Strategy::FineGrained { threads: 4 },
        Strategy::WorkStealing { threads: 4 },
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &strategy,
            |b, &s| {
                b.iter(|| black_box(form_equations_parallel(black_box(&w.z), 5.0, s)));
            },
        );
    }
    group.finish();
}

fn bench_hetero_partitioning(c: &mut Criterion) {
    // Future-work ablation: naive vs speed-weighted partitioning on a
    // mixed-speed cluster, including the simulator's own overhead.
    use mea_parallel::hetero::{simulate_hetero, HeteroClusterModel, HeteroPartition};
    use mea_parallel::mpi_sim::ClusterModel;
    let model = HeteroClusterModel::mixed(ClusterModel::paper_hpc(), 64, 3.0, 1.0);
    let costs = vec![1e-4f64; 2500];
    let mut group = c.benchmark_group("ablation_hetero_partition");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for policy in [HeteroPartition::Naive, HeteroPartition::SpeedWeighted] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy:?}")),
            &policy,
            |b, &p| {
                b.iter(|| black_box(simulate_hetero(&model, black_box(&costs), 10, 20_000, p)));
            },
        );
    }
    group.finish();
}

fn bench_solver_variants(c: &mut Criterion) {
    // Three independent formulations of the same inverse problem.
    use parma::classical::{gauss_newton, GaussNewtonOptions};
    use parma::full_newton::{full_newton_inverse, FullNewtonOptions};
    let w = Workload::new(6);
    let kappa = 36.0 / 11.0;
    let mut seed = w.z.clone();
    for v in seed.as_mut_slice() {
        *v *= kappa;
    }
    let mut group = c.benchmark_group("ablation_solver_variants_n6");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(6));
    group.bench_function("parma_fixed_point", |b| {
        b.iter(|| {
            black_box(
                ParmaSolver::new(ParmaConfig::default())
                    .solve(black_box(&w.z))
                    .unwrap(),
            )
        });
    });
    group.bench_function("dense_gauss_newton", |b| {
        b.iter(|| {
            black_box(gauss_newton(black_box(&w.z), &seed, &GaussNewtonOptions::default()).unwrap())
        });
    });
    group.bench_function("full_system_newton", |b| {
        b.iter(|| {
            black_box(
                full_newton_inverse(black_box(&w.z), 5.0, &FullNewtonOptions::default()).unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_initial_guess,
    bench_damping,
    bench_small_scale_overhead,
    bench_hetero_partitioning,
    bench_solver_variants
);
criterion_main!(benches);
