//! End-to-end benchmark of the `parma` binary.
//!
//! One command runs one workload from a seed: it generates every input,
//! drives the product through its own entry points at default solver and
//! supervisor settings, checks every output against a reference solve,
//! and prints each metric with its unit and sample count, ending with a
//! one-line JSON result. `README.md` in this directory explains the
//! workloads and which layer metric should move which end-to-end metric.
//!
//! ```text
//! bash e2ebench/run.sh --workload <paper-cold|serve-mix|sharded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures untraced and prints the end-to-end metrics;
//! `--trace 1` runs the same inputs untraced and then traced, and prints
//! the per-layer metrics (plus the tracing overhead between the two).

mod batch;
mod inputs;
mod parse;
mod proc;
mod report;
mod serve;
mod stats;

use parse::Accounting;
use report::Metrics;
use std::path::PathBuf;

/// What every workload gets.
pub struct Ctx {
    /// The product binary.
    pub parma: PathBuf,
    /// Scratch directory for this run's inputs, journals and traces.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Whether this run reports per-layer metrics from a traced pass.
    pub traced: bool,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Sessions attempted and how they ended.
    pub accounting: Accounting,
    /// Output-check failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Metrics,
    /// FNV-1a fingerprints of every generated input, in input order.
    pub fingerprints: Vec<u64>,
    /// Workload parameters worth recording with the result.
    pub params: Vec<(&'static str, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --parma <bin> --work <dir> --workload <paper-cold|serve-mix|sharded> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = std::collections::BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").unwrap_or_else(|| usage());
        let value = it.next().unwrap_or_else(|| usage());
        opts.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| opts.get(k).cloned().unwrap_or_else(|| usage());
    let workload = get("workload");
    let seed: u64 = get("seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("seconds").parse().unwrap_or_else(|_| usage());
    let traced = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage();
    }
    let ctx = Ctx {
        parma: PathBuf::from(get("parma")),
        work: PathBuf::from(get("work")).join(format!("{workload}-{seed}-{}", std::process::id())),
        seed,
        seconds,
        traced,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("e2ebench: cannot create {:?}: {e}", ctx.work);
        std::process::exit(1);
    }
    let result = match workload.as_str() {
        "paper-cold" => batch::paper_cold(&ctx),
        "sharded" => batch::sharded(&ctx),
        "serve-mix" => serve::serve_mix(&ctx),
        _ => {
            let _ = std::fs::remove_dir_all(&ctx.work);
            usage()
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.mismatches {
        eprintln!("e2ebench: output check failed: {m}");
    }
    let correct = outcome.mismatches.is_empty();
    let acc = &outcome.accounting;
    let title = format!(
        "e2ebench {workload} seed={seed} seconds={seconds} trace={}: {} session(s) attempted, \
         {} ok, {} quarantined, {} rejected, {} lost",
        u8::from(traced),
        acc.attempted,
        acc.ok,
        acc.quarantined,
        acc.rejected,
        acc.lost
    );
    let shown: Vec<(&str, &str)> = if traced {
        report::PER_LAYER.to_vec()
    } else {
        [report::END_TO_END.as_slice(), &report::END_TO_END_REPORTED].concat()
    };
    print!("{}", report::lines(&title, &shown, &outcome.metrics));
    println!("{}", provenance(&ctx, &workload, &outcome));
    let list: &[(&str, &str)] = if traced {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    // `failed` counts operations that went wrong — sessions refused at
    // admission or lost — not sessions the solver could not converge,
    // which `failed_frac` and goodput account for.
    println!(
        "{}",
        report::result_line(
            correct,
            acc.attempted,
            acc.rejected + acc.lost,
            list,
            &outcome.metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

/// One JSON line recording where and on what the run measured.
fn provenance(ctx: &Ctx, workload: &str, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut out = String::new();
    let mut obj = mea_obs::json::Object::begin(&mut out);
    obj.field_str("schema", "parma-e2ebench-provenance/v1");
    obj.field_str("workload", workload);
    obj.field_u64("seed", ctx.seed);
    obj.field_f64("seconds", ctx.seconds);
    obj.field_u64("trace", u64::from(ctx.traced));
    obj.field_u64("nproc", nproc as u64);
    obj.field_str("cpu_model", &cpu);
    obj.field_str("commit", &commit);
    for (k, v) in &o.params {
        obj.field_str(k, v);
    }
    obj.field_u64("inputs", o.fingerprints.len() as u64);
    obj.field_str(
        "inputs_fnv1a",
        &format!("{:016x}", inputs::digest(&o.fingerprints)),
    );
    obj.end();
    out
}
