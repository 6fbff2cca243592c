//! Regenerates every figure of the paper's evaluation section (Figs 6–10)
//! as text tables.
//!
//! ```text
//! cargo run --release -p parma-bench --bin figures -- all
//! cargo run --release -p parma-bench --bin figures -- fig6 [--full]
//! ```
//!
//! `--full` extends the sweeps to the paper's maxima (n = 100, k = 32,
//! 1,024 ranks); the default keeps laptop-friendly sizes. Shapes, not
//! absolute milliseconds, are the reproduction target — see EXPERIMENTS.md.

use mea_equations::{write_system, FormationCensus};
use mea_memtrack::{MemoryCdf, MemorySampler, TrackingAllocator};
use mea_parallel::mpi_sim::{measure_costs, simulate, ClusterModel};
use mea_parallel::Strategy;
use parma::form_equations_parallel;
use parma_bench::{
    default_scales, default_workers, ms, row, time_secs, time_secs_best_of, Workload,
};
use std::io::BufWriter;
use std::time::Duration;

// Figure 8 needs live allocation counters; the tracker is cheap enough to
// keep installed for every subcommand.
#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().position(|a| a == "--trace").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--trace needs a file path");
            std::process::exit(2);
        })
    });
    let which = args
        .iter()
        .enumerate()
        .find(|(i, a)| !(a.starts_with("--") || *i > 0 && args[i - 1] == "--trace"))
        .map(|(_, a)| a.clone())
        .unwrap_or_default();
    if trace.is_some() {
        mea_obs::reset();
        mea_obs::set_enabled(true);
    }
    match which.as_str() {
        "fig6" => fig6(full),
        "fig7" => fig7(full),
        "fig8" => fig8(full),
        "fig9" => fig9(full),
        "fig9-io" => fig9_io(quick),
        "fig10" => fig10(full),
        "fig10-real" => fig10_real(quick),
        // Hidden: a self-spawned bench worker process for fig10-real.
        "dist-worker" => dist_worker(&args),
        "throughput" => throughput(full),
        "kernels" => kernels(quick),
        "all" => {
            fig6(full);
            fig7(full);
            fig8(full);
            fig9(full);
            fig10(full);
            throughput(full);
        }
        other => {
            eprintln!("unknown figure {other:?}");
            eprintln!(
                "usage: figures <fig6|fig7|fig8|fig9|fig9-io|fig10|fig10-real|throughput|kernels|\
                 all> [--full] [--quick] [--trace <file>]"
            );
            std::process::exit(2);
        }
    }
    if let Some(path) = trace {
        mea_obs::set_enabled(false);
        let json = mea_obs::snapshot().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write trace {path:?}: {e}");
            std::process::exit(2);
        }
        eprintln!("trace written to {path}");
    }
}

/// Figure 6: equation-formation time of the four §V strategies vs n.
fn fig6(full: bool) {
    println!("\n=== Figure 6: strategy comparison (formation time, ms) ===");
    let strategies = [
        Strategy::SingleThread,
        Strategy::Parallel4,
        Strategy::BalancedParallel { threads: 4 },
        Strategy::FineGrained { threads: 4 },
        Strategy::WorkStealing { threads: 4 },
    ];
    let header: Vec<String> = strategies.iter().map(|s| s.label()).collect();
    println!("{}", row("n", &header));
    for n in default_scales(full) {
        let w = Workload::new(n);
        let cells: Vec<String> = strategies
            .iter()
            .map(|&s| {
                let (eqs, secs) = time_secs_best_of(3, || form_equations_parallel(&w.z, 5.0, s));
                assert_eq!(eqs.len(), w.grid.equations());
                drop(eqs);
                ms(secs)
            })
            .collect();
        println!("{}", row(&n.to_string(), &cells));
    }
}

/// Figure 7: PyMP-k formation time (no I/O) vs n, for each worker count.
fn fig7(full: bool) {
    println!("\n=== Figure 7: PyMP-k compute time, no I/O (ms) ===");
    let workers = default_workers(full);
    let header: Vec<String> = workers.iter().map(|k| format!("k={k}")).collect();
    println!("{}", row("n", &header));
    for n in default_scales(full) {
        let w = Workload::new(n);
        let cells: Vec<String> = workers
            .iter()
            .map(|&k| {
                let (eqs, secs) = time_secs_best_of(3, || {
                    form_equations_parallel(&w.z, 5.0, Strategy::FineGrained { threads: k })
                });
                drop(eqs);
                ms(secs)
            })
            .collect();
        println!("{}", row(&n.to_string(), &cells));
    }
}

/// Figure 8: memory-usage CDFs during formation at various (n, k).
fn fig8(full: bool) {
    println!("\n=== Figure 8: memory-usage CDFs during formation ===");
    let scales = if full {
        vec![20, 60, 100]
    } else {
        vec![10, 30, 50]
    };
    let workers = if full {
        vec![1usize, 2, 4, 8]
    } else {
        vec![1usize, 2, 4]
    };
    for n in scales {
        println!("\n-- n = {n} --");
        println!(
            "{}",
            row(
                "k",
                &[
                    "p10 MB".into(),
                    "p50 MB".into(),
                    "p90 MB".into(),
                    "peak MB".into(),
                    "%time<½·peak".into(),
                    "time ms".into()
                ]
            )
        );
        for &k in &workers {
            let w = Workload::new(n);
            mea_memtrack::reset_peak();
            let sampler = MemorySampler::start(Duration::from_micros(500));
            let (eqs, secs) = time_secs(|| {
                form_equations_parallel(&w.z, 5.0, Strategy::FineGrained { threads: k })
            });
            let samples = sampler.stop();
            let census = FormationCensus::of(&eqs);
            assert_eq!(census.equations, w.grid.equations());
            drop(eqs);
            let cdf = MemoryCdf::from_samples(&samples);
            let mb = |b: usize| format!("{:.1}", b as f64 / 1e6);
            let below_half = cdf.fraction_at_or_below(cdf.max() / 2) * 100.0;
            println!(
                "{}",
                row(
                    &k.to_string(),
                    &[
                        mb(cdf.quantile(0.10)),
                        mb(cdf.quantile(0.50)),
                        mb(cdf.quantile(0.90)),
                        mb(cdf.max()),
                        format!("{below_half:.0}%"),
                        ms(secs),
                    ]
                )
            );
        }
    }
}

/// Figure 9: end-to-end time including writing the equation files to disk.
fn fig9(full: bool) {
    println!("\n=== Figure 9: end-to-end time incl. disk I/O (ms) ===");
    let workers = default_workers(full);
    let header: Vec<String> = workers.iter().map(|k| format!("k={k}")).collect();
    println!("{}", row("n", &header));
    let dir = std::env::temp_dir().join("parma-fig9");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for n in default_scales(full) {
        let w = Workload::new(n);
        let cells: Vec<String> = workers
            .iter()
            .map(|&k| {
                let path = dir.join(format!("eqs-{n}-{k}.txt"));
                let (_, secs) = time_secs(|| {
                    let eqs =
                        form_equations_parallel(&w.z, 5.0, Strategy::FineGrained { threads: k });
                    let file = std::fs::File::create(&path).expect("create output");
                    write_system(&eqs, w.grid, BufWriter::new(file)).expect("write equations")
                });
                std::fs::remove_file(&path).ok();
                ms(secs)
            })
            .collect();
        println!("{}", row(&n.to_string(), &cells));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The PR8 I/O ladder (`fig9-io`): dataset ingest time per container —
/// the naive per-line-allocating text reader, the buffered text reader,
/// the `parma-bin/v1` binary container through a plain read, and the
/// binary container through the zero-copy mmap path — at wet-lab scales.
/// Writes `BENCH_PR8.json` (`parma-bench/kernels-v1`, so `parma bench
/// diff` gates it in CI); `--quick` keeps the n = 32 rows.
fn fig9_io(quick: bool) {
    use mea_model::{AnomalyConfig, MeaGrid, WetLabDataset};
    use std::hint::black_box;

    let dir = std::env::temp_dir().join("parma-fig9-io");
    std::fs::create_dir_all(&dir).expect("temp dir");

    println!("\n=== PR8 ingest ladder: text vs parma-bin/v1 (ms per load) ===");
    println!(
        "{}",
        row(
            "kernel",
            ["n", "bytes", "baseline", "this", "speedup"]
                .map(String::from)
                .as_ref()
        )
    );
    let sizes: &[usize] = if quick { &[32] } else { &[32, 64, 100] };
    let outer = if quick { 3 } else { 5 };
    let mut cells: Vec<KernelCell> = Vec::new();
    for &n in sizes {
        let session = WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), 0xF19)
            .expect("generation is physical");
        let text_path = dir.join(format!("fig9io-{n}.txt"));
        let bin_path = dir.join(format!("fig9io-{n}.pbin"));
        session.save(&text_path).expect("write text");
        session.save_binary(&bin_path).expect("write binary");
        let text_bytes = std::fs::metadata(&text_path).expect("stat").len() as usize;
        let bin_bytes = std::fs::metadata(&bin_path).expect("stat").len() as usize;
        // Repetitions sized to the work: parsing n = 100 text is ~10⁴×
        // slower than mapping its binary, so each rung gets its own count.
        let reps_text = if n >= 100 { 20 } else { 60 };
        let reps_bin = reps_text * 10;

        // The reader rung compares the two parsers on the same in-memory
        // bytes: the satellite fixed per-line allocation churn, and file
        // open/read syscalls would otherwise drown the few percent the
        // reused buffer wins back. The container rungs below measure the
        // full path from the filesystem, which is what they replace.
        let text_blob = std::fs::read(&text_path).expect("read text");
        let naive_text_ms = per_call_ms(outer.max(7), reps_text, || {
            black_box(WetLabDataset::read_text_naive(&text_blob[..]).expect("parse"));
        });
        let text_parse_ms = per_call_ms(outer.max(7), reps_text, || {
            black_box(WetLabDataset::read_text(&text_blob[..]).expect("parse"));
        });
        let text_ms = per_call_ms(outer, reps_text, || {
            black_box(WetLabDataset::load(&text_path).expect("parse"));
        });
        let bin_read_ms = per_call_ms(outer, reps_bin, || {
            let bytes = std::fs::read(&bin_path).expect("read binary");
            black_box(WetLabDataset::from_bytes(&bytes).expect("parse"));
        });
        let bin_mmap_ms = per_call_ms(outer, reps_bin, || {
            black_box(WetLabDataset::load(&bin_path).expect("parse"));
        });
        // Ladder rows: each rung's baseline is the status quo it replaces
        // — naive text → buffered text (the reader satellite), buffered
        // text → binary (the container), read → mmap (the zero-copy path).
        cells.push(KernelCell {
            name: "text parse (buffered)",
            n,
            dim: text_bytes,
            naive_ms: naive_text_ms,
            opt_ms: text_parse_ms,
        });
        cells.push(KernelCell {
            name: "binary load (read)",
            n,
            dim: bin_bytes,
            naive_ms: text_ms,
            opt_ms: bin_read_ms,
        });
        cells.push(KernelCell {
            name: "binary load (mmap)",
            n,
            dim: bin_bytes,
            naive_ms: text_ms,
            opt_ms: bin_mmap_ms,
        });
    }
    for c in &cells {
        println!(
            "{}",
            row(
                c.name,
                &[
                    c.n.to_string(),
                    c.dim.to_string(),
                    format!("{:.4}", c.naive_ms),
                    format!("{:.4}", c.opt_ms),
                    format!("{:.2}x", c.speedup()),
                ]
            )
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"parma-bench/kernels-v1\",\n");
    json.push_str("  \"pr\": 8,\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"dim\": {}, \"naive_ms\": {:.6}, \
             \"opt_ms\": {:.6}, \"speedup\": {:.3}}}{}\n",
            c.name,
            c.n,
            c.dim,
            c.naive_ms,
            c.opt_ms,
            c.speedup(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_PR8.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {path}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Throughput mode: solves/sec of the job executor vs one-at-a-time
/// sequential solving at n = 16, plus the symbolic-cache benefit
/// (template vs one-shot Jacobian assembly) that holds even on one core.
fn throughput(full: bool) {
    use parma::prelude::*;

    let n = 16usize;
    let count = if full { 32 } else { 16 };
    println!("\n=== Throughput: batched vs sequential solves (n = {n}, {count} datasets) ===");
    // One-time-point sessions: the executor's unit is a session, and a
    // single measurement keeps the rate a per-solve rate.
    let datasets: Vec<WetLabDataset> = (0..count)
        .map(|k| {
            let grid = MeaGrid::square(n);
            let (truth, _) = AnomalyConfig::default().generate(grid, 0xBA7C4 ^ k as u64);
            let z = ForwardSolver::new(&truth)
                .expect("generated maps are physical")
                .solve_all();
            WetLabDataset {
                grid,
                measurements: vec![mea_model::Measurement {
                    hours: 0,
                    voltage: 5.0,
                    z,
                    ground_truth: Some(truth),
                }],
            }
        })
        .collect();
    let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).expect("default config is valid");
    let (_, single_secs) = time_secs(|| {
        for ds in &datasets {
            std::hint::black_box(pipeline.run(ds).expect("exact data solves"));
        }
    });
    let jobs: Vec<parma::Job> = datasets
        .iter()
        .enumerate()
        .map(|(i, ds)| parma::Job::loaded(i, ds))
        .collect();
    let single_rate = count as f64 / single_secs;
    println!(
        "{}",
        row(
            "mode",
            &["time ms".into(), "solves/sec".into(), "speedup".into()]
        )
    );
    println!(
        "{}",
        row(
            "sequential",
            &[ms(single_secs), format!("{single_rate:.2}"), "1.00x".into()]
        )
    );
    for threads in [1usize, 2, 4, 8] {
        let sup = SupervisorConfig::default();
        let (outcomes, secs) =
            time_secs(|| parma::execute(&pipeline, &jobs, threads, &sup, &|_, _| {}));
        assert!(outcomes.iter().all(|r| r.is_ok()));
        let rate = count as f64 / secs;
        println!(
            "{}",
            row(
                &format!("batched k={threads}"),
                &[
                    ms(secs),
                    format!("{rate:.2}"),
                    format!("{:.2}x", rate / single_rate)
                ]
            )
        );
    }

    println!("\n--- Jacobian assembly: one-shot vs symbolic template (ms per assembly) ---");
    println!(
        "{}",
        row(
            "n",
            &["one-shot".into(), "template".into(), "speedup".into()]
        )
    );
    for n in [4usize, 8, 12] {
        let w = Workload::new(n);
        let sys = mea_equations::EquationSystem::assemble(&w.z, 5.0);
        let x = sys
            .exact_unknowns_for(&w.truth)
            .expect("truth satisfies its own system");
        let reps = 20usize;
        let (_, legacy) = time_secs_best_of(3, || {
            for _ in 0..reps {
                std::hint::black_box(mea_equations::jacobian(&sys, &x));
            }
        });
        let template = mea_equations::JacobianTemplate::analyze(&sys);
        let mut jac = template.matrix_zeroed();
        let (_, cached) = time_secs_best_of(3, || {
            for _ in 0..reps {
                template.numeric(&x, &mut jac);
                std::hint::black_box(&jac);
            }
        });
        println!(
            "{}",
            row(
                &n.to_string(),
                &[
                    ms(legacy / reps as f64),
                    ms(cached / reps as f64),
                    format!("{:.2}x", legacy / cached)
                ]
            )
        );
    }
}

/// Figure 10: strong scaling across simulated MPI ranks for several
/// workload sizes.
fn fig10(full: bool) {
    println!("\n=== Figure 10: simulated MPI strong scaling (time ms) ===");
    let ranks: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let workloads = if full {
        vec![10, 20, 50, 100]
    } else {
        vec![10, 20, 50]
    };
    let header: Vec<String> = ranks.iter().map(|r| format!("p={r}")).collect();
    println!("{}", row("n \\ ranks", &header));
    let cluster = ClusterModel::paper_hpc();
    for n in workloads {
        let w = Workload::new(n);
        let grid = w.grid;
        let costs = measure_costs(grid.pairs(), |p| {
            let (i, j) = (p / grid.cols(), p % grid.cols());
            std::hint::black_box(mea_equations::form_pair_equations(
                grid,
                i,
                j,
                5.0,
                w.z.get(i, j),
            ));
        });
        let bytes = 8 * grid.pairs();
        let cells: Vec<String> = ranks
            .iter()
            .map(|&p| ms(simulate(&cluster, p, &costs, 10, bytes).total_secs))
            .collect();
        println!("{}", row(&format!("{n}x{n}"), &cells));
    }
    println!("\nspeedup at p = 1024 (linear ⇒ ≈ compute-bound):");
    for n in if full {
        vec![10, 50, 100]
    } else {
        vec![10, 50]
    } {
        let w = Workload::new(n);
        let grid = w.grid;
        let costs = measure_costs(grid.pairs(), |p| {
            let (i, j) = (p / grid.cols(), p % grid.cols());
            std::hint::black_box(mea_equations::form_pair_equations(
                grid,
                i,
                j,
                5.0,
                w.z.get(i, j),
            ));
        });
        let rep = simulate(&cluster, 1024, &costs, 10, 8 * grid.pairs());
        println!(
            "  {n}x{n}: {:.1}x (efficiency {:.1}%)",
            rep.speedup(),
            rep.efficiency() * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// Figure 10, measured: the same pair-formation workload sharded across real
// `parma`-protocol worker processes, next to the mpi_sim prediction.
// ---------------------------------------------------------------------------

/// Per-shard work: form the pair equations for pairs `[lo, hi)` of the
/// scale-`n` workload, `rounds` times over. Returns the shard's first-round
/// equation count, which is round-invariant, so the coordinator can assert
/// a sharded run covered exactly the serial work.
fn form_pair_range(w: &Workload, lo: usize, hi: usize, rounds: usize) -> u64 {
    let grid = w.grid;
    let mut eqs_once = 0u64;
    for round in 0..rounds {
        for p in lo..hi {
            let (i, j) = (p / grid.cols(), p % grid.cols());
            let eqs = std::hint::black_box(mea_equations::form_pair_equations(
                grid,
                i,
                j,
                5.0,
                w.z.get(i, j),
            ));
            if round == 0 {
                eqs_once += eqs.len() as u64;
            }
        }
    }
    eqs_once
}

/// Hidden mode behind `figures dist-worker --connect <host:port>`: joins a
/// fig10-real coordinator over the parma-wire protocol. Tasks are
/// `{n, lo, hi, rounds}`; results are `{equations, compute_ns}`. The
/// workload is cached per scale so the timed window measures formation
/// only — an MPI rank's input is likewise resident before the timed region.
fn dist_worker(args: &[String]) {
    use mea_parallel::{PayloadReader, PayloadWriter};
    let addr = args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| {
            eprintln!("dist-worker needs --connect <host:port>");
            std::process::exit(2);
        });
    let cache: std::sync::Mutex<Option<(usize, Workload)>> = std::sync::Mutex::new(None);
    let handler = move |_ticket: u64, blob: &[u8]| -> Result<Vec<u8>, Vec<u8>> {
        let mut r = PayloadReader::new(blob);
        let fields = (|| {
            Ok::<_, mea_parallel::dist::DecodeError>((
                r.take_u64()? as usize,
                r.take_u64()? as usize,
                r.take_u64()? as usize,
                r.take_u64()? as usize,
            ))
        })();
        let (n, lo, hi, rounds) = match fields {
            Ok(t) => t,
            Err(e) => return Err(format!("bad bench task: {e}").into_bytes()),
        };
        let mut slot = cache.lock().expect("workload cache");
        if slot.as_ref().map(|(m, _)| *m) != Some(n) {
            *slot = Some((n, Workload::new(n)));
        }
        let w = &slot.as_ref().expect("cached workload").1;
        let t0 = std::time::Instant::now();
        let eqs = form_pair_range(w, lo, hi, rounds);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut out = PayloadWriter::new();
        out.put_u64(eqs);
        out.put_u64(ns);
        Ok(out.into_bytes())
    };
    let name = format!("bench-{}", std::process::id());
    if let Err(e) = parma::dist::worker::run_worker(addr, &name, &handler) {
        eprintln!("dist-worker: {e}");
        std::process::exit(1);
    }
}

/// Submits one task per shard, drains the decisions, and returns the total
/// equation count, the slowest shard's compute nanoseconds, and the set of
/// worker ids that did the work.
fn run_shards(
    coord: &parma::dist::Coordinator,
    n: usize,
    shards: &[std::ops::Range<usize>],
    rounds: usize,
) -> (u64, u64, std::collections::BTreeSet<u64>) {
    use mea_parallel::{PayloadReader, PayloadWriter};
    let p = shards.len();
    let mut tickets = std::collections::BTreeSet::new();
    for (k, r) in shards.iter().enumerate() {
        let mut task = PayloadWriter::new();
        task.put_u64(n as u64);
        task.put_u64(r.start as u64);
        task.put_u64(r.end as u64);
        task.put_u64(rounds as u64);
        tickets.insert(coord.submit(task.into_bytes(), (k, p)));
    }
    let (mut eqs, mut max_ns) = (0u64, 0u64);
    let mut seen = std::collections::BTreeSet::new();
    while !tickets.is_empty() {
        let (_ticket, outcome) = coord.take_decided(&mut tickets);
        match outcome {
            parma::dist::TaskOutcome::Ok { worker, blob } => {
                let mut r = PayloadReader::new(&blob);
                eqs += r.take_u64().expect("shard equation count");
                max_ns = max_ns.max(r.take_u64().expect("shard nanoseconds"));
                seen.insert(worker);
            }
            other => panic!("bench shard did not complete remotely: {other:?}"),
        }
    }
    (eqs, max_ns, seen)
}

/// Figure 10, for real: strong scaling of pair-equation formation across
/// actual worker *processes* (the `parma worker` protocol, self-spawned),
/// alongside the mpi_sim prediction at matching rank counts. The shards are
/// the exact `block_range` partition mpi_sim charges, so the two columns
/// disagree only where reality disagrees with the model. Writes
/// BENCH_PR9.json.
fn fig10_real(quick: bool) {
    use mea_parallel::shard_ranges;
    use parma::dist::{Coordinator, DistPolicy};
    use std::process::{Command, Stdio};
    use std::time::Instant;

    let sizes: Vec<usize> = if quick { vec![12] } else { vec![16, 24] };
    let ranks = [1usize, 2, 4];
    let rounds = 10usize;
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("\n=== Figure 10 (real): multi-process strong scaling vs mpi_sim ===");
    println!(
        "(host has {host_cores} core(s); real speedups are bounded by physical parallelism, \
         sim speedups model the paper's cluster)"
    );
    println!(
        "{}",
        row(
            "workload",
            &[
                "p".into(),
                "real ms".into(),
                "shard ms".into(),
                "sim ms".into(),
                "real speedup".into(),
                "sim speedup".into(),
            ]
        )
    );

    struct RealCell {
        name: String,
        n: usize,
        dim: usize,
        naive_ms: f64,
        opt_ms: f64,
        sim_ms: f64,
    }
    let exe = std::env::current_exe().expect("own binary path");
    let cluster = ClusterModel::paper_hpc();
    let mut cells: Vec<RealCell> = Vec::new();
    for &n in &sizes {
        let w = Workload::new(n);
        let grid = w.grid;
        let pairs = grid.pairs();
        let mut expect_eqs = 0u64;
        let (_, serial_secs) = time_secs_best_of(3, || {
            expect_eqs = form_pair_range(&w, 0, pairs, rounds);
        });
        let costs = measure_costs(pairs, |p| {
            let (i, j) = (p / grid.cols(), p % grid.cols());
            std::hint::black_box(mea_equations::form_pair_equations(
                grid,
                i,
                j,
                5.0,
                w.z.get(i, j),
            ));
        });
        for &p in &ranks {
            let coord =
                Coordinator::bind("127.0.0.1:0", DistPolicy::default()).expect("bind coordinator");
            let addr = coord.addr().to_string();
            let children: Vec<_> = (0..p)
                .map(|_| {
                    Command::new(&exe)
                        .args(["dist-worker", "--connect", &addr])
                        .stdout(Stdio::null())
                        .stdin(Stdio::null())
                        .spawn()
                        .expect("spawn bench worker")
                })
                .collect();
            assert!(
                coord.wait_for_workers(p, Duration::from_secs(30)),
                "bench workers failed to connect"
            );
            // Warm-up until every worker has built (and cached) the scale-n
            // workload, so the timed window holds formation work only. Empty
            // shards are nearly free; only a first task per worker is not.
            let mut warm = std::collections::BTreeSet::new();
            for _ in 0..20 {
                let (_, _, seen) = run_shards(&coord, n, &vec![0..0; p], 1);
                warm.extend(seen);
                if warm.len() >= p {
                    break;
                }
            }
            let (mut real_secs, mut max_shard_ns) = (f64::INFINITY, u64::MAX);
            for _ in 0..3 {
                let t0 = Instant::now();
                let (got_eqs, shard_ns, _) = run_shards(&coord, n, &shard_ranges(pairs, p), rounds);
                real_secs = real_secs.min(t0.elapsed().as_secs_f64());
                max_shard_ns = max_shard_ns.min(shard_ns);
                assert_eq!(
                    got_eqs, expect_eqs,
                    "sharded run must cover exactly the serial work"
                );
            }
            coord.shutdown();
            for mut child in children {
                child.kill().ok();
                child.wait().ok();
            }
            let sim = simulate(&cluster, p, &costs, rounds, 8 * pairs);
            println!(
                "{}",
                row(
                    &format!("{n}x{n}"),
                    &[
                        p.to_string(),
                        ms(real_secs),
                        ms(max_shard_ns as f64 / 1e9),
                        ms(sim.total_secs),
                        format!("{:.2}x", serial_secs / real_secs),
                        format!("{:.2}x", serial_secs / sim.total_secs),
                    ]
                )
            );
            cells.push(RealCell {
                name: format!("fig10-real p={p}"),
                n,
                dim: pairs,
                naive_ms: serial_secs * 1e3,
                opt_ms: real_secs * 1e3,
                sim_ms: sim.total_secs * 1e3,
            });
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"parma-bench/kernels-v1\",\n");
    json.push_str("  \"pr\": 9,\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"dim\": {}, \"naive_ms\": {:.6}, \
             \"opt_ms\": {:.6}, \"speedup\": {:.3}, \"sim_ms\": {:.6}}}{}\n",
            c.name,
            c.n,
            c.dim,
            c.naive_ms,
            c.opt_ms,
            c.naive_ms / c.opt_ms,
            c.sim_ms,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_PR9.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {path}");
}

// ---------------------------------------------------------------------------
// PR3 kernel trajectory: naive references vs the blocked/fused hot path.
// ---------------------------------------------------------------------------

/// One naive-vs-optimized kernel measurement (milliseconds per call).
struct KernelCell {
    name: &'static str,
    n: usize,
    dim: usize,
    naive_ms: f64,
    opt_ms: f64,
}

impl KernelCell {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.opt_ms
    }
}

/// One whole-solve comparison: the pre-workspace per-iteration pattern
/// (fresh Laplacian + naive factor/inverse + allocating sweep) against
/// `ParmaSolver::solve_supervised` on reused scratch (milliseconds per
/// outer iteration).
struct SolveCell {
    n: usize,
    legacy_iters: usize,
    new_iters: usize,
    legacy_ms_per_iter: f64,
    new_ms_per_iter: f64,
}

impl SolveCell {
    fn speedup(&self) -> f64 {
        self.legacy_ms_per_iter / self.new_ms_per_iter
    }
}

/// Best-of-`outer` timing of `inner` back-to-back calls, reported as
/// milliseconds per call.
fn per_call_ms(outer: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let ((), secs) = time_secs_best_of(outer, || {
        for _ in 0..inner {
            f();
        }
    });
    secs * 1e3 / inner as f64
}

/// The grounded Laplacian of the workload's planted map — the same matrix
/// `ForwardSolver::refactor` assembles (drop the last vertical wire).
fn grounded_laplacian(w: &Workload) -> mea_linalg::DenseMatrix {
    let (m, n) = (w.grid.rows(), w.grid.cols());
    let dim = m + n - 1;
    let mut lap = mea_linalg::DenseMatrix::zeros(dim, dim);
    for i in 0..m {
        for j in 0..n {
            let g = 1.0 / w.truth.get(i, j);
            let (a, b) = (i, m + j);
            lap[(a, a)] += g;
            if b < dim {
                lap[(b, b)] += g;
                lap[(a, b)] -= g;
                lap[(b, a)] -= g;
            }
        }
    }
    lap
}

/// Replays `iters` damped sweeps the way the pre-workspace solver did:
/// every iteration allocates and fills a fresh Laplacian, factors it with
/// the retained naive Cholesky, inverts via per-column solves, and
/// collects the sweep into fresh buffers. Update math matches
/// `ParmaSolver` so both sides do identical numeric work per iteration.
fn legacy_sweep_iterations(w: &Workload, config: &parma::ParmaConfig, iters: usize) {
    use mea_linalg::kernels::naive;
    let grid = w.grid;
    let (m, n) = (grid.rows(), grid.cols());
    let dim = m + n - 1;
    let kappa = (m * n) as f64 / (m + n - 1) as f64;
    let alpha = config.damping * 2.0 / (1.0 + kappa);
    let mut r = mea_model::ResistorGrid::filled(grid, 0.0);
    for (i, j) in grid.pair_iter() {
        r.set(i, j, kappa * w.z.get(i, j));
    }
    for _ in 0..iters {
        let mut lap = mea_linalg::DenseMatrix::zeros(dim, dim);
        for i in 0..m {
            for j in 0..n {
                let g = 1.0 / r.get(i, j);
                let (a, b) = (i, m + j);
                lap[(a, a)] += g;
                if b < dim {
                    lap[(b, b)] += g;
                    lap[(a, b)] -= g;
                    lap[(b, a)] -= g;
                }
            }
        }
        let l = naive::cholesky_factor(&lap).expect("laplacian is SPD");
        let minv = naive::cholesky_inverse(&l, dim);
        let eff = |i: usize, j: usize| {
            let (a, b) = (i, m + j);
            if b < dim {
                minv[(a, a)] + minv[(b, b)] - 2.0 * minv[(a, b)]
            } else {
                minv[(a, a)]
            }
        };
        let updates: Vec<(usize, usize, f64)> = grid
            .pair_iter()
            .map(|(i, j)| {
                let z_meas = w.z.get(i, j);
                let g_old = 1.0 / r.get(i, j);
                let g_new = g_old + alpha * (1.0 / z_meas - 1.0 / eff(i, j));
                let bounded = g_new
                    .clamp(g_old / 8.0, g_old * 8.0)
                    .min(1.0 / config.min_resistance)
                    .max(1e-12);
                (i, j, 1.0 / bounded)
            })
            .collect();
        let mut next = mea_model::ResistorGrid::filled(grid, 0.0);
        for (i, j, v) in updates {
            next.set(i, j, v);
        }
        r = next;
    }
    std::hint::black_box(&r);
}

/// The `kernels` mode: measures each retained naive kernel reference
/// against the blocked/fused hot path, the paper-scale per-pair
/// factorization (dense Cholesky+inverse vs the structured Schur path,
/// n = 32/64/100), and whole-solve per-iteration time up to n = 100,
/// then writes machine-readable `BENCH_PR6.json` to the current
/// directory. `--quick` shrinks sizes and repetition counts for CI smoke
/// (keeping one n = 32 scale row so the bench-diff gate sees the
/// structured path).
fn kernels(quick: bool) {
    use mea_linalg::{
        kernels::naive, vec_ops, BipartiteFactor, BipartiteSystem, CholeskyFactor, CooTriplets,
        DenseMatrix, InverseScope, Sequential,
    };
    use parma::{ParmaConfig, ParmaError, ParmaSolver, SolveScratch};
    use std::hint::black_box;

    let sizes: &[usize] = if quick { &[4, 8] } else { &[4, 8, 12, 16] };
    let outer = if quick { 3 } else { 5 };
    let budget = if quick { 400_000 } else { 4_000_000 };

    println!("\n=== PR3 kernels: naive reference vs blocked/fused (ms per call) ===");
    println!(
        "{}",
        row(
            "kernel",
            ["n", "dim", "naive", "blocked", "speedup"]
                .map(String::from)
                .as_ref()
        )
    );

    let mut cells: Vec<KernelCell> = Vec::new();
    for &n in sizes {
        let w = Workload::new(n);
        let dim = w.grid.rows() + w.grid.cols() - 1;
        let lap = grounded_laplacian(&w);
        let x: Vec<f64> = (0..dim).map(|i| 1.0 + 0.01 * i as f64).collect();
        let mut y = vec![0.0; dim];

        // Dense mat-vec: naive row loop vs 4-row register blocking.
        let inner = (budget / (dim * dim)).max(1_000);
        let naive_ms = per_call_ms(outer, inner, || {
            naive::mul_vec_into(&lap, &x, &mut y);
            black_box(&y);
        });
        let opt_ms = per_call_ms(outer, inner, || {
            lap.mul_vec_into(&x, &mut y);
            black_box(&y);
        });
        cells.push(KernelCell {
            name: "dense mul_vec",
            n,
            dim,
            naive_ms,
            opt_ms,
        });

        // Dense mat-mat: single-row ikj vs 4-row register-blocked ikj.
        let inner = (budget / (dim * dim * dim)).max(200);
        let naive_ms = per_call_ms(outer, inner, || {
            black_box(naive::mul(&lap, &lap));
        });
        let opt_ms = per_call_ms(outer, inner, || {
            black_box(lap.mul(&lap));
        });
        cells.push(KernelCell {
            name: "dense mul",
            n,
            dim,
            naive_ms,
            opt_ms,
        });

        // LU factor: allocating scalar elimination vs in-place 2-row
        // blocked refactor.
        let naive_ms = per_call_ms(outer, inner, || {
            black_box(naive::lu_factor(&lap).expect("nonsingular"));
        });
        let mut lu = mea_linalg::LuFactor::empty();
        let opt_ms = per_call_ms(outer, inner, || {
            lu.refactor_from(&lap).expect("nonsingular");
            black_box(&lu);
        });
        cells.push(KernelCell {
            name: "lu factor",
            n,
            dim,
            naive_ms,
            opt_ms,
        });

        // Cholesky factor: allocating scalar loop vs in-place row-pair
        // blocked refactor.
        let naive_ms = per_call_ms(outer, inner, || {
            black_box(naive::cholesky_factor(&lap).expect("SPD"));
        });
        let mut chol = CholeskyFactor::empty();
        let opt_ms = per_call_ms(outer, inner, || {
            chol.refactor_from(&lap).expect("SPD");
            black_box(&chol);
        });
        cells.push(KernelCell {
            name: "cholesky factor",
            n,
            dim,
            naive_ms,
            opt_ms,
        });

        // Cholesky inverse: per-column full solves vs unit-RHS skipping +
        // early-stopped backward solves + symmetry mirror.
        let l = naive::cholesky_factor(&lap).expect("SPD");
        let f = lap.cholesky().expect("SPD");
        let mut inv = DenseMatrix::zeros(dim, dim);
        let mut col = vec![0.0; dim];
        let naive_ms = per_call_ms(outer, inner, || {
            black_box(naive::cholesky_inverse(&l, dim));
        });
        let opt_ms = per_call_ms(outer, inner, || {
            f.inverse_into(&mut inv, &mut col);
            black_box(&inv);
        });
        cells.push(KernelCell {
            name: "cholesky inverse",
            n,
            dim,
            naive_ms,
            opt_ms,
        });

        // Reduction: serial-chain dot vs chunked 4-lane dot (CGLS-scale
        // vectors: one entry per matrix element).
        let len = dim * dim;
        let u: Vec<f64> = (0..len).map(|i| 1.0 + 0.001 * i as f64).collect();
        let v: Vec<f64> = (0..len).map(|i| 2.0 - 0.001 * i as f64).collect();
        let inner = (8 * budget / len).max(1_000);
        let naive_ms = per_call_ms(outer, inner, || {
            black_box(naive::dot(&u, &v));
        });
        let opt_ms = per_call_ms(outer, inner, || {
            black_box(vec_ops::dot(&u, &v));
        });
        cells.push(KernelCell {
            name: "dot",
            n,
            dim,
            naive_ms,
            opt_ms,
        });

        // Fused CGLS inner step: separate mat-vec + dot + axpy +
        // allocating transposed mat-vec vs the two fused passes.
        let mut coo = CooTriplets::new(dim, dim);
        for rr in 0..dim {
            for cc in 0..dim {
                let val = lap[(rr, cc)];
                if val != 0.0 {
                    coo.push(rr, cc, val);
                }
            }
        }
        let a = coo.to_csr();
        let p = x.clone();
        let mut q = vec![0.0; dim];
        let mut res = vec![1.0; dim];
        let mut s = vec![0.0; dim];
        // alpha = 0 keeps `res` at steady state across repetitions so
        // both sides time identical numeric work.
        let alpha = 0.0;
        let inner = (budget / (dim * dim)).max(1_000);
        let naive_ms = per_call_ms(outer, inner, || {
            a.mul_vec_into(&p, &mut q);
            let gamma = vec_ops::dot(&q, &q);
            for (r0, &q0) in res.iter_mut().zip(&q) {
                *r0 += alpha * gamma.min(0.0) * q0;
            }
            black_box(a.mul_vec_transposed(&res));
        });
        let opt_ms = per_call_ms(outer, inner, || {
            let gamma = a.mul_vec_norm_sq_into(&p, &mut q);
            a.axpy_mul_transposed_into(alpha * gamma.min(0.0), &q, &mut res, &mut s);
            black_box(&s);
        });
        cells.push(KernelCell {
            name: "cgls fused step",
            n,
            dim,
            naive_ms,
            opt_ms,
        });
    }
    for c in &cells {
        println!(
            "{}",
            row(
                c.name,
                &[
                    c.n.to_string(),
                    c.dim.to_string(),
                    format!("{:.4}", c.naive_ms),
                    format!("{:.4}", c.opt_ms),
                    format!("{:.2}x", c.speedup()),
                ]
            )
        );
    }

    // Paper-scale per-pair factorization: the dense routes (Laplacian
    // assembly + Cholesky + full inverse — the naive pre-workspace
    // reference first, the PR3 blocked refactor as a second row) against
    // the structured Schur path at its hot-path scope (SweepOnly — what
    // `ForwardSolver` runs inside the sweep). All sides include system
    // assembly, matching what a solver refactor actually pays.
    println!("\n=== PR6 per-pair factorization at scale: dense vs structured Schur ===");
    println!(
        "{}",
        row(
            "kernel",
            ["n", "dim", "dense", "structured", "speedup"]
                .map(String::from)
                .as_ref()
        )
    );
    let factor_sizes: &[usize] = if quick { &[32] } else { &[32, 64, 100] };
    let factor_row0 = cells.len();
    for &n in factor_sizes {
        let w = Workload::new(n);
        let (m, nc) = (w.grid.rows(), w.grid.cols());
        let dim = m + nc - 1;
        let inner = (budget / (dim * dim * dim)).max(2);
        let fill_lap = |lap: &mut DenseMatrix| {
            lap.as_mut_slice().fill(0.0);
            for i in 0..m {
                for j in 0..nc {
                    let g = 1.0 / w.truth.get(i, j);
                    let (a, b) = (i, m + j);
                    lap[(a, a)] += g;
                    if b < dim {
                        lap[(b, b)] += g;
                        lap[(a, b)] -= g;
                        lap[(b, a)] -= g;
                    }
                }
            }
        };
        let mut lap = DenseMatrix::zeros(dim, dim);
        let naive_dense_ms = per_call_ms(outer, inner, || {
            fill_lap(&mut lap);
            let l = naive::cholesky_factor(&lap).expect("laplacian is SPD");
            black_box(naive::cholesky_inverse(&l, dim));
        });
        let mut chol = CholeskyFactor::empty();
        let mut inv = DenseMatrix::zeros(dim, dim);
        let mut col = vec![0.0; dim];
        let blocked_dense_ms = per_call_ms(outer, inner, || {
            fill_lap(&mut lap);
            chol.refactor_from(&lap).expect("laplacian is SPD");
            chol.inverse_into(&mut inv, &mut col);
            black_box(&inv);
        });
        let mut sys = BipartiteSystem::new();
        let mut fac = BipartiteFactor::new();
        let mut out = DenseMatrix::zeros(dim, dim);
        let structured_ms = per_call_ms(outer, inner, || {
            sys.reset(m, nc - 1);
            for i in 0..m {
                for j in 0..nc {
                    let g = 1.0 / w.truth.get(i, j);
                    if j + 1 == nc {
                        sys.add_ground(i, g);
                    } else {
                        sys.add_cross(i, j, g);
                    }
                }
            }
            fac.factor_invert_into(&sys, &mut out, InverseScope::SweepOnly, &Sequential, None)
                .expect("laplacian is SPD");
            black_box(&out);
        });
        cells.push(KernelCell {
            name: "pair factor+invert",
            n,
            dim,
            naive_ms: naive_dense_ms,
            opt_ms: structured_ms,
        });
        cells.push(KernelCell {
            name: "pair factor+invert (blocked dense)",
            n,
            dim,
            naive_ms: blocked_dense_ms,
            opt_ms: structured_ms,
        });
    }
    for c in &cells[factor_row0..] {
        println!(
            "{}",
            row(
                c.name,
                &[
                    c.n.to_string(),
                    c.dim.to_string(),
                    format!("{:.4}", c.naive_ms),
                    format!("{:.4}", c.opt_ms),
                    format!("{:.2}x", c.speedup()),
                ]
            )
        );
    }

    println!("\n=== Whole solve: legacy per-iteration pattern vs workspaces (to n = 100) ===");
    println!(
        "{}",
        row(
            "n",
            ["legacy ms/it", "new ms/it", "speedup"]
                .map(String::from)
                .as_ref()
        )
    );
    let mut solves: Vec<SolveCell> = Vec::new();
    let solve_sizes: &[usize] = if quick {
        &[4, 8, 32]
    } else {
        &[4, 8, 12, 16, 32, 64, 100]
    };
    for &n in solve_sizes {
        // Large solves get a smaller iteration budget and fewer repeats:
        // per-iteration milliseconds is the recorded quantity either way.
        let iters = if n >= 32 {
            10
        } else if quick {
            20
        } else {
            40
        };
        let outer_n = if n >= 32 { 2 } else { outer };
        let w = Workload::new(n);
        let config = ParmaConfig {
            max_iter: iters,
            tol: 1e-30, // unreachable: both sides run the full budget
            recovery: false,
            ..Default::default()
        };
        let ((), legacy_secs) =
            time_secs_best_of(outer_n, || legacy_sweep_iterations(&w, &config, iters));
        let solver = ParmaSolver::new(config);
        let mut scratch = SolveScratch::new();
        let token = mea_parallel::CancelToken::unbounded();
        let mut new_iters = iters;
        let (_, new_secs) = time_secs_best_of(outer_n, || {
            match solver.solve_supervised(&w.z, None, &mut scratch, &token) {
                Ok(sol) => new_iters = sol.iterations,
                Err(ParmaError::NoConvergence { iterations, .. }) => new_iters = iterations,
                Err(e) => panic!("unexpected solver failure: {e}"),
            }
        });
        solves.push(SolveCell {
            n,
            legacy_iters: iters,
            new_iters,
            legacy_ms_per_iter: legacy_secs * 1e3 / iters as f64,
            new_ms_per_iter: new_secs * 1e3 / new_iters as f64,
        });
    }
    for s in &solves {
        println!(
            "{}",
            row(
                &format!("{0}x{0}", s.n),
                &[
                    format!("{:.4}", s.legacy_ms_per_iter),
                    format!("{:.4}", s.new_ms_per_iter),
                    format!("{:.2}x", s.speedup()),
                ]
            )
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"parma-bench/kernels-v1\",\n");
    json.push_str("  \"pr\": 6,\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"dim\": {}, \"naive_ms\": {:.6}, \
             \"opt_ms\": {:.6}, \"speedup\": {:.3}}}{}\n",
            c.name,
            c.n,
            c.dim,
            c.naive_ms,
            c.opt_ms,
            c.speedup(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"whole_solve\": [\n");
    for (i, s) in solves.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"legacy_iters\": {}, \"new_iters\": {}, \
             \"legacy_ms_per_iter\": {:.6}, \"new_ms_per_iter\": {:.6}, \"speedup\": {:.3}}}{}\n",
            s.n,
            s.legacy_iters,
            s.new_iters,
            s.legacy_ms_per_iter,
            s.new_ms_per_iter,
            s.speedup(),
            if i + 1 < solves.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_PR6.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {path}");
}
