//! The two batch workloads: `paper-cold` (in-process, paper-scale
//! sessions as `parma-bin/v1` files) and `sharded` (`--workers 2`, small
//! text sessions with a minority of 32×32 ones).
//!
//! Each workload is a list of units; one unit is one `parma batch`
//! invocation over its own directory. The number of units follows from
//! `--seconds` and a fixed per-unit estimate, so a seed always means the
//! same work and per-layer counts repeat exactly.

use crate::inputs::{self, Reference};
use crate::parse::{self, Accounting, Entry, Trace};
use crate::proc::{Finished, Product};
use crate::report::Metrics;
use crate::stats::{self, Rng};
use crate::{Ctx, Outcome};
use mea_model::WetLabDataset;
use mea_obs::timeline::DispatchTrace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Geometry of one paper-cold unit, as the paper's scale claim sets it.
const PAPER_UNIT: [usize; 5] = [32, 32, 64, 64, 100];
/// Seconds of `--seconds` per paper-cold unit. A unit's makespan is
/// 4.3–8.5 s on the shared 2-core reference box today, depending on the
/// host's load; four units per 20 s run give `setup_s` and goodput four
/// samples each.
const PAPER_UNIT_S: f64 = 5.0;
/// One sharded unit: this many 8×8 sessions and 32×32 sessions.
const SHARD_SMALL: usize = 60;
const SHARD_LARGE: usize = 3;
/// Seconds of `--seconds` per sharded unit; a unit's makespan is
/// 0.19–0.45 s on the reference box, so a 20 s run holds 40 units.
const SHARD_UNIT_S: f64 = 0.5;
/// Ceiling on a single product invocation.
const INVOCATION_TIMEOUT: Duration = Duration::from_secs(150);

struct Unit {
    dir: PathBuf,
    names: Vec<String>,
    sizes: Vec<usize>,
    sessions: Vec<WetLabDataset>,
    /// The files exactly as written, for fingerprints and ingest timing.
    files: Vec<Vec<u8>>,
}

fn write_unit(
    dir: PathBuf,
    items: Vec<(String, usize, u64)>,
    binary: bool,
) -> Result<Unit, String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let mut unit = Unit {
        dir,
        names: Vec::new(),
        sizes: Vec::new(),
        sessions: Vec::new(),
        files: Vec::new(),
    };
    for (name, n, seed) in items {
        let ds = inputs::session(n, seed);
        let path = unit.dir.join(&name);
        let saved = if binary {
            ds.save_binary(&path)
        } else {
            ds.save(&path)
        };
        saved.map_err(|e| format!("cannot write {path:?}: {e}"))?;
        unit.files
            .push(std::fs::read(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?);
        unit.names.push(name);
        unit.sizes.push(n);
        unit.sessions.push(ds);
    }
    Ok(unit)
}

fn unit_count(ctx: &Ctx, per_unit_s: f64) -> usize {
    ((ctx.seconds / per_unit_s).round() as usize).max(1)
}

/// One finished `parma batch` invocation.
struct Invocation {
    finished: Finished,
    /// The run time `parma batch` itself prints.
    run_ms: f64,
    entries: Vec<Entry>,
    /// The journal's dispatch-trace sidecar (traced sharded runs only).
    dispatches: Vec<DispatchTrace>,
    accounting: Accounting,
    trace: Option<Trace>,
}

impl Invocation {
    /// Process wall time outside the printed run time. A sharded batch
    /// spawns its workers and handshakes with them inside that run time,
    /// so they count against goodput, not set-up.
    fn setup_s(&self) -> f64 {
        self.finished.wall_s - self.run_ms / 1e3
    }
}

/// Pulls the run time out of `batch: N solves in X ms — …`.
fn printed_run_ms(stdout: &str) -> Result<f64, String> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("batch: "))
        .and_then(|l| l.split(" solves in ").nth(1))
        .and_then(|l| l.split(" ms").next())
        .and_then(|ms| ms.parse().ok())
        .ok_or_else(|| format!("no run time in parma batch output: {stdout:?}"))
}

fn invoke(
    ctx: &Ctx,
    unit: &Unit,
    tag: &str,
    sharded: bool,
    traced: bool,
) -> Result<Invocation, String> {
    let journal_path = ctx.work.join(format!("{tag}.journal"));
    let trace_path = ctx.work.join(format!("{tag}.trace.json"));
    let mut cmd = Command::new(&ctx.parma);
    cmd.arg("batch")
        .arg(&unit.dir)
        .arg("--journal")
        .arg(&journal_path);
    cmd.arg("--quiet");
    if sharded {
        cmd.args(["--workers", "2"]);
    } else {
        cmd.args(["--threads", "2"]);
    }
    if traced {
        cmd.arg("--trace").arg(&trace_path);
    }
    let finished =
        Product::spawn(cmd, &ctx.work.join(format!("{tag}.stderr")))?.finish(INVOCATION_TIMEOUT)?;
    let stderr =
        || std::fs::read_to_string(ctx.work.join(format!("{tag}.stderr"))).unwrap_or_default();
    let text = std::fs::read_to_string(&journal_path)
        .map_err(|e| format!("{tag}: no journal ({e}); stderr: {}", stderr()))?;
    let entries = parse::journal(&text).map_err(|e| format!("{tag}: {e}"))?;
    let accounting =
        parse::account_batch(&unit.names, &entries).map_err(|e| format!("{tag}: {e}"))?;
    parse::check_batch_exit(finished.code, &accounting)
        .map_err(|e| format!("{tag}: {e}; stderr: {}", stderr()))?;
    let run_ms = printed_run_ms(&finished.stdout)?;
    let trace = if traced {
        let t =
            std::fs::read_to_string(&trace_path).map_err(|e| format!("{tag}: no trace: {e}"))?;
        Some(parse::trace(&t)?)
    } else {
        None
    };
    let dispatches = if traced && sharded {
        parma_cli::journal::load_traces(&journal_path)?
            .into_iter()
            .flat_map(|j| j.dispatches)
            .collect()
    } else {
        Vec::new()
    };
    Ok(Invocation {
        finished,
        run_ms,
        entries,
        dispatches,
        accounting,
        trace,
    })
}

fn run_pass(
    ctx: &Ctx,
    units: &[Unit],
    pass: &str,
    sharded: bool,
    traced: bool,
) -> Result<Vec<Invocation>, String> {
    units
        .iter()
        .enumerate()
        .map(|(k, u)| invoke(ctx, u, &format!("{pass}-{k}"), sharded, traced))
        .collect()
}

/// Checks every session a pass decided ok against its reference, computing
/// each reference once into `refs`, keyed by (unit, session index).
fn check_outputs(
    units: &[Unit],
    passes: &[&[Invocation]],
    refs: &mut BTreeMap<(usize, usize), Reference>,
    mismatches: &mut Vec<String>,
) {
    let mut need: Vec<(usize, usize)> = Vec::new();
    for pass in passes {
        for (u, inv) in pass.iter().enumerate() {
            for e in inv.entries.iter().filter(|e| e.time_points.is_some()) {
                let i = units[u]
                    .names
                    .iter()
                    .position(|n| *n == e.path)
                    .expect("accounted name");
                if !refs.contains_key(&(u, i)) && !need.contains(&(u, i)) {
                    need.push((u, i));
                }
            }
        }
    }
    let sessions: Vec<&WetLabDataset> = need.iter().map(|&(u, i)| &units[u].sessions[i]).collect();
    for (key, r) in need.iter().zip(inputs::references(&sessions)) {
        match r {
            Ok(r) => {
                refs.insert(*key, r);
            }
            Err(e) => mismatches.push(format!(
                "{}: product converged but the reference did not: {e}",
                units[key.0].names[key.1]
            )),
        }
    }
    for pass in passes {
        for (u, inv) in pass.iter().enumerate() {
            for e in &inv.entries {
                let (Some(tps), Some(i)) = (
                    &e.time_points,
                    units[u].names.iter().position(|n| *n == e.path),
                ) else {
                    continue;
                };
                if let Some(r) = refs.get(&(u, i)) {
                    if let Err(m) = inputs::check(&e.path, tps, r) {
                        mismatches.push(m);
                    }
                }
            }
        }
    }
}

/// End-to-end metrics of an untraced pass.
fn end_to_end(m: &mut Metrics, pass: &[Invocation]) {
    // The median over invocations, so a burst of load from elsewhere on the
    // host that slows a few invocations does not move the figure.
    let ok: usize = pass.iter().map(|i| i.accounting.ok).sum();
    let rates: Vec<f64> = pass
        .iter()
        .map(|i| i.accounting.ok as f64 / (i.run_ms / 1e3))
        .collect();
    m.note(
        "goodput_per_s",
        stats::median(&rates),
        ok,
        "median over invocations",
    );
    // A batch has one load level: each invocation is one request whose
    // answer is the whole unit, so the light and heavy medians coincide
    // and the p99 is the nearest-rank p99 of the invocations.
    let walls: Vec<f64> = pass.iter().map(|i| i.finished.wall_s * 1e3).collect();
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let n = walls.len();
    let note = "per invocation, spawn to exit";
    m.note("latency_light_p50_ms", stats::median(&walls), n, note);
    m.note("latency_heavy_p50_ms", stats::median(&walls), n, note);
    let p99 = stats::percentile(&sorted, 99.0).unwrap_or(0.0);
    m.note("latency_heavy_p99_ms", p99, n, note);
    let setups: Vec<f64> = pass.iter().map(Invocation::setup_s).collect();
    m.set("setup_s", stats::median(&setups), n);
    let peak = pass
        .iter()
        .map(|i| i.finished.peak_rss_kb)
        .max()
        .unwrap_or(0);
    m.set("peak_rss_mb", peak as f64 / 1024.0, n);
}

fn accounting(pass: &[Invocation]) -> Accounting {
    let mut acc = Accounting::default();
    for inv in pass {
        acc.add(&inv.accounting);
    }
    acc
}

/// Harness-timed `Journal::record` of the pass's own entry lines into a
/// fresh file beside the product's journals: ≥ 1000 records so p99 has
/// ten samples beyond it.
pub fn journal_record_ms(work: &Path, lines: &[String]) -> Result<Vec<f64>, String> {
    if lines.is_empty() {
        return Ok(Vec::new());
    }
    let path = work.join("record-probe.journal");
    let j = parma_cli::journal::Journal::open_append(&path)?;
    let mut out = Vec::with_capacity(1010);
    for line in lines.iter().cycle().take(lines.len().max(1010)) {
        let t = Instant::now();
        j.record(line)?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
    }
    std::fs::remove_file(&path).map_err(|e| format!("cannot remove {path:?}: {e}"))?;
    Ok(out)
}

fn entry_lines(work: &Path, pass: &str, count: usize) -> Vec<String> {
    (0..count)
        .filter_map(|k| std::fs::read_to_string(work.join(format!("{pass}-{k}.journal"))).ok())
        .flat_map(|t| {
            t.lines()
                .filter(|l| l.starts_with("{\"schema\":\"parma-journal/v1\""))
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Per-layer metrics shared by both batch workloads.
fn per_layer(
    ctx: &Ctx,
    m: &mut Metrics,
    units: &[Unit],
    plain: &[Invocation],
    traced: &[Invocation],
    refs: &BTreeMap<(usize, usize), Reference>,
) -> Result<(), String> {
    let parse_ms: Vec<f64> = units
        .iter()
        .flat_map(|u| &u.files)
        .map(|bytes| inputs::parse_ms(bytes))
        .collect::<Result<_, _>>()?;
    m.set(
        "ingest.parse_ms.p50",
        stats::median(&parse_ms),
        parse_ms.len(),
    );

    // Converged iterations per time point, by array size, and attempts.
    let mut per_size: BTreeMap<usize, (u64, usize)> = BTreeMap::new();
    let (mut attempts, mut sessions) = (0usize, 0usize);
    for (u, inv) in traced.iter().enumerate() {
        for e in &inv.entries {
            let i = units[u]
                .names
                .iter()
                .position(|n| *n == e.path)
                .expect("accounted name");
            sessions += 1;
            match &e.time_points {
                Some(tps) => {
                    let slot = per_size.entry(units[u].sizes[i]).or_default();
                    for tp in tps {
                        slot.0 += tp.iterations;
                        slot.1 += 1;
                    }
                    attempts += refs.get(&(u, i)).map_or(1, |r| r.attempts);
                }
                None => attempts += e.attempts,
            }
        }
    }
    for (n, name) in [
        (8, "solve.iters_per_tp.n8"),
        (16, "solve.iters_per_tp.n16"),
        (32, "solve.iters_per_tp.n32"),
        (64, "solve.iters_per_tp.n64"),
        (100, "solve.iters_per_tp.n100"),
    ] {
        let present = units.iter().any(|u| u.sizes.contains(&n));
        match per_size.get(&n) {
            Some(&(iters, tps)) => m.set(name, iters as f64 / tps as f64, tps),
            None if present => m.note(name, 0.0, 0, "no converged time point"),
            None => {}
        }
    }
    m.set("supervise.attempts_total", attempts as f64, sessions);
    m.set(
        "supervise.attempts_per_session",
        attempts as f64 / sessions as f64,
        sessions,
    );

    let run_ms: f64 = traced.iter().map(|i| i.run_ms).sum();
    let plain_ms: f64 = plain.iter().map(|i| i.run_ms).sum();
    m.note(
        "trace_overhead_frac",
        run_ms / plain_ms - 1.0,
        traced.len(),
        "traced over untraced printed run time",
    );

    let lines = entry_lines(&ctx.work, "traced", traced.len());
    let rec = journal_record_ms(&ctx.work, &lines)?;
    m.summary("journal.record_ms.p50", "journal.record_ms.p99", &rec);
    Ok(())
}

/// Sums of the product's own trace spans and counters over a pass.
fn trace_totals(pass: &[Invocation]) -> Trace {
    let mut t = Trace::default();
    for inv in pass {
        let Some(tr) = &inv.trace else { continue };
        for (k, &(c, ms)) in &tr.spans {
            let e = t.spans.entry(k.clone()).or_insert((0, 0.0));
            e.0 += c;
            e.1 += ms;
        }
        for (k, v) in &tr.counters {
            *t.counters.entry(k.clone()).or_default() += v;
        }
    }
    t
}

fn finish(
    ctx: &Ctx,
    units: &[Unit],
    sharded: bool,
    params: Vec<(&'static str, String)>,
) -> Result<Outcome, String> {
    let fingerprints: Vec<u64> = units
        .iter()
        .flat_map(|u| &u.files)
        .map(|b| inputs::fingerprint(b))
        .collect();
    let mut o = Outcome {
        fingerprints,
        params,
        ..Default::default()
    };
    let plain = run_pass(ctx, units, "plain", sharded, false)?;
    let traced = if ctx.traced {
        run_pass(ctx, units, "traced", sharded, true)?
    } else {
        Vec::new()
    };
    let mut refs = BTreeMap::new();
    check_outputs(units, &[&plain, &traced], &mut refs, &mut o.mismatches);
    if sharded {
        for (pass, invs) in [("untraced", &plain), ("traced", &traced)] {
            let local = invs
                .iter()
                .flat_map(|i| &i.entries)
                .filter(|e| e.worker.is_none())
                .count();
            if local > 0 {
                o.mismatches.push(format!(
                    "{pass} pass solved {local} session(s) in-process: the run fell back and did not \
                     measure the sharded path"
                ));
            }
        }
    }
    let shown = if ctx.traced { &traced } else { &plain };
    o.accounting = accounting(shown);
    o.metrics.set(
        "failed_frac",
        o.accounting.failed_frac(),
        o.accounting.attempted,
    );
    end_to_end(&mut o.metrics, &plain);
    if !ctx.traced {
        return Ok(o);
    }
    per_layer(ctx, &mut o.metrics, units, &plain, &traced, &refs)?;
    let m = &mut o.metrics;
    let run_ms: f64 = traced.iter().map(|i| i.run_ms).sum();
    let journal_iters: u64 = traced
        .iter()
        .flat_map(|i| &i.entries)
        .filter_map(|e| e.time_points.as_ref())
        .flatten()
        .map(|tp| tp.iterations)
        .sum();
    if sharded {
        let dispatches: Vec<&DispatchTrace> = traced.iter().flat_map(|i| &i.dispatches).collect();
        let overhead: Vec<f64> = dispatches
            .iter()
            .map(|d| parse::shard_overhead_ms(d))
            .collect();
        m.summary(
            "wire.shard_overhead_ms.p50",
            "wire.shard_overhead_ms.p99",
            &overhead,
        );
        m.set("wire.shards", dispatches.len() as f64, dispatches.len());
        let entries: Vec<&Entry> = traced.iter().flat_map(|i| &i.entries).collect();
        let remote = entries.iter().filter(|e| e.worker.is_some()).count();
        m.set(
            "wire.remote_frac",
            remote as f64 / entries.len() as f64,
            entries.len(),
        );
        // Skew per invocation (its own pair of workers), then the median.
        let skews: Vec<f64> = traced
            .iter()
            .filter_map(|i| {
                let busy = parse::worker_busy_us(&i.dispatches);
                let (lo, hi) = (busy.values().min()?, busy.values().max()?);
                (busy.len() == 2 && *lo > 0).then(|| *hi as f64 / *lo as f64)
            })
            .collect();
        m.note(
            "wire.worker_skew",
            stats::median(&skews),
            skews.len(),
            "median over invocations",
        );
        let busy_ms: f64 = traced
            .iter()
            .flat_map(|i| parse::worker_busy_us(&i.dispatches).into_values())
            .sum::<u64>() as f64
            / 1e3;
        m.set("batch.busy_frac", busy_ms / (2.0 * run_ms), traced.len());
        let in_flight_ms: f64 = dispatches
            .iter()
            .map(|d| d.ack_us.saturating_sub(d.dispatch_us) as f64 / 1e3)
            .sum();
        m.note(
            "unattributed_frac",
            1.0 - in_flight_ms / (2.0 * run_ms),
            traced.len(),
            "worker time with no shard in flight",
        );
        // Worker solver spans stay inside the worker processes; only the
        // journal's converged iterations are visible from outside.
        m.note(
            "solve.iters_total",
            journal_iters as f64,
            traced.len(),
            "converged attempts, from the journal",
        );
        m.note(
            "solve.useful_iter_frac",
            1.0,
            traced.len(),
            "journal-only by construction",
        );
        m.note(
            "plan.hit_frac",
            0.0,
            traced.len(),
            "workers rebuild plans per task",
        );
    } else {
        let t = trace_totals(&traced);
        let iters = t.counter("parma.solver.iterations");
        m.set("solve.iters_total", iters, traced.len());
        m.set(
            "solve.useful_iter_frac",
            journal_iters as f64 / iters,
            traced.len(),
        );
        m.set(
            "solve.recoveries",
            t.counter("parma.solver.recoveries"),
            traced.len(),
        );
        let (_, refactor) = t.leaf("refactor");
        let (_, sweep) = t.leaf("sweep");
        let (detects, detect) = t.leaf("detect");
        let (items, item_ms) = t.leaf("item");
        m.set("refactor.ms_per_iter", refactor / iters, iters as usize);
        m.set("sweep.ms_per_iter", sweep / iters, iters as usize);
        m.set(
            "detect.ms",
            detect / detects.max(1) as f64,
            detects as usize,
        );
        m.set("batch.busy_frac", item_ms / (2.0 * run_ms), items as usize);
        m.note(
            "unattributed_frac",
            (item_ms - refactor - sweep - detect) / item_ms,
            items as usize,
            "item time outside refactor, sweep and detect spans",
        );
    }
    Ok(o)
}

/// `paper-cold`: cold device sessions at the paper's scale.
pub fn paper_cold(ctx: &Ctx) -> Result<Outcome, String> {
    let count = unit_count(ctx, PAPER_UNIT_S);
    let mut units = Vec::with_capacity(count);
    for u in 0..count {
        let mut rng = Rng::new(ctx.seed, 1000 + u as u64);
        let mut letter = BTreeMap::<usize, u8>::new();
        let items = PAPER_UNIT
            .iter()
            .map(|&n| {
                let l = letter.entry(n).or_insert(b'a');
                let name = format!("n{n:03}-{}.pbin", *l as char);
                *l += 1;
                (name, n, rng.next_u64())
            })
            .collect();
        units.push(write_unit(ctx.work.join(format!("unit-{u}")), items, true)?);
    }
    finish(
        ctx,
        &units,
        false,
        vec![
            ("units", count.to_string()),
            ("unit", "2x n32, 2x n64, 1x n100".into()),
        ],
    )
}

/// `sharded`: mostly 8×8 sessions with a few 32×32 ones, as text files in
/// seed-shuffled order, over two worker processes.
pub fn sharded(ctx: &Ctx) -> Result<Outcome, String> {
    let count = unit_count(ctx, SHARD_UNIT_S);
    let mut units = Vec::with_capacity(count);
    for u in 0..count {
        let mut rng = Rng::new(ctx.seed, 2000 + u as u64);
        let mut sizes: Vec<usize> = [vec![8; SHARD_SMALL], vec![32; SHARD_LARGE]].concat();
        rng.shuffle(&mut sizes);
        let items = sizes
            .into_iter()
            .enumerate()
            .map(|(k, n)| (format!("s{k:03}.txt"), n, rng.next_u64()))
            .collect();
        units.push(write_unit(
            ctx.work.join(format!("unit-{u}")),
            items,
            false,
        )?);
    }
    finish(
        ctx,
        &units,
        true,
        vec![
            ("units", count.to_string()),
            (
                "unit",
                format!("{SHARD_SMALL}x n8 + {SHARD_LARGE}x n32, shuffled, 2 workers"),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_time_is_read_from_the_batch_summary() {
        let out = "d: 5 dataset(s), 2 thread(s)\nbatch: 8 solves in 6713.7 ms — 1.2 solves/sec, 3 failure(s)\n";
        assert_eq!(printed_run_ms(out), Ok(6713.7));
        assert!(printed_run_ms("nothing").is_err());
    }
}
