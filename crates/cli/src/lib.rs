//! Library half of the `parma` command-line tool: argument parsing and
//! command implementations, separated from `main` so they are unit- and
//! integration-testable without spawning processes.

pub mod args;
pub mod commands;
pub mod dist_cmd;
pub mod journal;
pub mod obs_cmd;
pub mod serve;

pub use args::{ArgError, Args};

/// Exit status for a batch that finished but quarantined at least one
/// item: distinct from usage/runtime errors (2) so schedulers can tell
/// "rerun the stragglers" from "the invocation itself is broken".
pub const EXIT_QUARANTINED: i32 = 3;

/// Exit status for `parma bench diff` when a kernel slowed down past
/// `--tolerance`: distinct from usage errors (2) so CI can make the
/// perf gate a soft (or hard) check without string-matching output.
pub const EXIT_REGRESSION: i32 = 4;

/// A command failure: the message to print and the process exit status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Process exit status (2 = usage/runtime error, 3 = quarantined items).
    pub code: i32,
    /// Human-readable description, printed to stderr.
    pub message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 2, message }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Entry point shared by `main` and the tests: dispatches a raw argument
/// list to a command, writing human output to `out`.
pub fn run<W: std::io::Write>(raw: &[String], out: &mut W) -> Result<(), CliError> {
    if raw.is_empty() {
        return Err(usage().into());
    }
    let command = raw[0].as_str();
    // `--help` or `-h` anywhere among a command's tokens asks for the
    // usage. It is answered before parsing, where it would read as a flag
    // missing its value.
    if flags_read_by(command).is_some() && raw[1..].iter().any(|t| t == "--help" || t == "-h") {
        let _ = writeln!(out, "{}", usage());
        return Ok(());
    }
    // `batch` takes a positional operand (the dataset directory) plus the
    // value-less `--resume`/`--quiet` switches; `bench` and `obs` take a
    // subcommand with file operands; every other command is pure
    // `--key value`.
    let args = match command {
        "batch" => Args::parse_with_switches(&raw[1..], &["resume", "quiet"]),
        "bench" | "convert" | "obs" => Args::parse_with_positionals(&raw[1..]),
        _ => Args::parse(&raw[1..]),
    }
    .map_err(|e| CliError::from(format!("{e}\n\n{}", usage())))?;
    if let Some(flag) = flags_read_by(command).and_then(|known| args.unknown_flag(known)) {
        return Err(format!("unknown flag --{flag} for parma {command}\n\n{}", usage()).into());
    }
    match command {
        "generate" => commands::generate(&args, out).map_err(CliError::from),
        "solve" => commands::solve(&args, out).map_err(CliError::from),
        "convert" => commands::convert(&args, out).map_err(CliError::from),
        "batch" => commands::batch(&args, out),
        "serve" => serve::serve(&args, out),
        "worker" => dist_cmd::worker(&args, out),
        "obs" => obs_cmd::obs(&args, out),
        "bench" => commands::bench(&args, out),
        "topology" => commands::topology(&args, out).map_err(CliError::from),
        "equations" => commands::equations(&args, out).map_err(CliError::from),
        "verify" => commands::verify(&args, out).map_err(CliError::from),
        "--help" | "-h" | "help" => {
            let _ = writeln!(out, "{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{}", usage()).into()),
    }
}

/// Every flag a command's code reads; `None` for an unknown command.
fn flags_read_by(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "generate" => &["n", "rows", "cols", "seed", "regions", "out"],
        "solve" => &["input", "tol", "detect", "prominence", "trace"],
        "convert" => &["to"],
        "batch" => &[
            "threads",
            "tol",
            "detect",
            "trace",
            "journal",
            "resume",
            "max-retries",
            "deadline",
            "solve-deadline",
            "backoff-ms",
            "metrics-addr",
            "metrics-addr-file",
            "metrics-linger",
            "quiet",
            "workers",
            "heartbeat-ms",
        ],
        "serve" => &[
            "addr",
            "addr-file",
            "threads",
            "queue",
            "tol",
            "detect",
            "max-retries",
            "solve-deadline",
            "backoff-ms",
            "journal",
            "hold-ms",
            "for",
            "workers-addr",
            "workers-addr-file",
        ],
        "worker" => &["connect", "name", "metrics-addr", "metrics-addr-file"],
        "bench" => &["tolerance"],
        "topology" => &["n", "rows", "cols"],
        "equations" => &["n", "rows", "cols", "seed", "out"],
        "verify" => &["n", "rows", "cols", "input"],
        "obs" | "--help" | "-h" | "help" => &[],
        _ => return None,
    })
}

/// The usage text.
pub fn usage() -> String {
    "\
parma — microelectrode-array parametrization (Tawose et al., IPDPS 2022)

USAGE:
  parma generate  --n <N> [--rows R --cols C] [--seed S] [--regions K] --out <file>
  parma solve     --input <file> [--tol E] [--detect F] [--prominence P]
                  [--trace <file>]   write a JSON trace (stage timings,
                                     solver and scheduler counters)
  parma convert   <in> <out> [--to text|binary]
  parma batch     <dir> [--threads T] [--tol E] [--detect F] [--trace <file>|-]
                  [--journal <file>] [--resume] [--max-retries N]
                  [--deadline S] [--solve-deadline S] [--backoff-ms MS]
                  [--metrics-addr HOST:PORT] [--metrics-addr-file <file>]
                  [--metrics-linger S] [--quiet]
                  [--workers N] [--heartbeat-ms MS]
  parma serve     [--addr HOST:PORT] [--addr-file <file>] [--threads T]
                  [--queue N] [--tol E] [--detect F] [--max-retries N]
                  [--solve-deadline S] [--backoff-ms MS] [--journal <file>]
                  [--hold-ms MS] [--for S]
                  [--workers-addr HOST:PORT] [--workers-addr-file <file>]
  parma worker    --connect HOST:PORT [--name N]
  parma obs       timeline <journal> [trace-hex...]
  parma bench     diff <old.json> <new.json> [--tolerance F]
  parma topology  --n <N> [--rows R --cols C]
  parma equations --n <N> [--seed S] --out <file>
  parma verify    --n <N> --input <equation-file>

COMMANDS:
  generate   synthesize a wet-lab session (0/6/12/24 h) and write the text dataset
  solve      recover resistor maps from a dataset file and report anomalies
             (text or parma-bin/v1 binary — the reader sniffs the format)
  convert    translate a dataset between the text container and the
             checksummed parma-bin/v1 binary container; the direction
             defaults to the opposite of the (sniffed) input format and
             --to text|binary forces one; conversions are lossless, so
             text -> binary -> text is byte-identical
  batch      solve every dataset in a directory concurrently (one session per
             worker; results are deterministic and in filename order), with
             panic isolation, per-item retries (--max-retries, --backoff-ms)
             and deadlines (--deadline, --solve-deadline, in seconds); every
             file (text or binary) is parsed and validated before solving
             starts, and a file that fails is quarantined unsolved;
             with --journal every finished item is fsync'd to an append-only
             JSON-lines sidecar and --resume skips already-journaled items;
             exits with status 3 when any item is quarantined; with
             --metrics-addr a live HTTP listener serves Prometheus text at
             /metrics, full JSON at /snapshot and the flight-recorder ring
             at /events while the run makes one-line stderr progress
             reports (--quiet silences per-item and progress lines;
             --metrics-linger keeps the listener up after the run;
             --metrics-addr-file writes the bound address, so --metrics-addr
             with port 0 is discoverable); --trace - streams the trace to
             standard output; --workers N shards whole datasets across N
             self-spawned `parma worker` processes (same deterministic
             block partition as the mpi_sim ranks, bitwise-identical
             output) with heartbeat death detection (--heartbeat-ms),
             automatic shard reassignment and in-process fallback when
             the last worker dies
  serve      long-lived solve daemon: POST a dataset body to /jobs (append
             ?session=ID to warm-start a device from its previous solution),
             poll GET /jobs/<id>, fetch GET /jobs/<id>/result; jobs run
             under the batch supervisor (retries, deadlines, quarantine),
             a full queue answers 429 + Retry-After, and /metrics,
             /snapshot and /events stay live on the same listener;
             POST /shutdown (or --for S) drains queued jobs and exits 0;
             --journal appends the batch journal format keyed job-<id>;
             --addr-file publishes the bound address atomically once
             ready, so --addr with port 0 is discoverable;
             --workers-addr opens a second listener for `parma worker`
             processes and offloads session-less jobs to them (worker
             death falls back to in-process solving, bitwise identical)
  worker     join a coordinator (`parma batch --workers` or `parma serve
             --workers-addr`) over the checksummed parma-wire/v2 protocol
             and solve assigned datasets until released; a worker is
             stateless between tasks, so any shard can run on any worker;
             each assignment carries the batch trace id and a per-dispatch
             span id, and workers ship counters, latency histograms and
             flight-recorder events back on heartbeats (never blocking a
             solve; payloads are dropped, not queued, under contention)
  obs        offline observability tooling; `obs timeline <journal>`
             reconstructs the cross-process causal timeline of a
             distributed run from its journal's trace sidecar lines
             (clock-offset corrected, clamped into each dispatch's causal
             window) and prints parma-timeline/v1 JSONL on stdout with a
             per-worker straggler report on stderr; optional trace-id
             operands narrow the view to those batches
  bench      diff two `parma-bench/kernels-v1` files (see `figures kernels`)
             kernel by kernel; exits with status 4 when any kernel slowed
             down by more than --tolerance (default 0.25 = 25%)
  topology   print the device's topological invariants (joints, Betti numbers, cycles)
  equations  form the 2n³ joint-constraint system and write it as text
  verify     parse an equation file back and check it is complete"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&raw, &mut out)
            .map(|_| String::from_utf8(out).unwrap())
            .map_err(|e| e.message)
    }

    #[test]
    fn help_prints_usage() {
        let text = run_str(&["help"]).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("generate"));
    }

    #[test]
    fn command_help_prints_usage_and_succeeds() {
        for command in ["solve", "batch", "serve"] {
            let text = run_str(&[command, "--help"])
                .unwrap_or_else(|e| panic!("parma {command} --help failed: {e}"));
            assert!(text.contains("USAGE"), "{command}: {text}");
        }
        let text = run_str(&["solve", "--tol", "1e-9", "-h"]).unwrap();
        assert!(text.contains("USAGE"), "{text}");
    }

    #[test]
    fn empty_and_unknown_commands_error() {
        assert!(run(&[], &mut Vec::new()).is_err());
        let err = run_str(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn end_to_end_generate_then_solve() {
        let dir = std::env::temp_dir().join("parma-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.txt");
        let path_s = path.to_str().unwrap();

        let gen_out = run_str(&["generate", "--n", "6", "--seed", "9", "--out", path_s]).unwrap();
        assert!(gen_out.contains("4 measurements"));
        assert!(path.exists());

        let solve_out = run_str(&["solve", "--input", path_s]).unwrap();
        assert!(solve_out.contains("hour  0"), "{solve_out}");
        assert!(solve_out.contains("residual"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn topology_reports_invariants() {
        let text = run_str(&["topology", "--n", "4"]).unwrap();
        assert!(text.contains("β₁ = 9"), "{text}");
        assert!(text.contains("32 joints"), "{text}");
    }

    #[test]
    fn equations_writes_file_and_verify_accepts_it() {
        let dir = std::env::temp_dir().join("parma-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("eqs.txt");
        let path_s = path.to_str().unwrap();
        let text = run_str(&["equations", "--n", "3", "--out", path_s]).unwrap();
        assert!(text.contains("54 equations")); // 2·27
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("U/Z[A,I]"));
        // The reader accepts its own writer's output.
        let verify_out = run_str(&["verify", "--n", "3", "--input", path_s]).unwrap();
        assert!(verify_out.contains("file is complete"), "{verify_out}");
        // And rejects it against the wrong geometry.
        assert!(run_str(&["verify", "--n", "4", "--input", path_s]).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Trace-producing tests share the process-global observability
    /// registry; serialize them so resets never interleave.
    fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn solve_trace_to_stdout_with_dash() {
        let _guard = obs_guard();
        let dir = std::env::temp_dir().join("parma-cli-trace-stdout");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("session.txt");
        run_str(&[
            "generate",
            "--n",
            "4",
            "--seed",
            "8",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&["solve", "--input", data.to_str().unwrap(), "--trace", "-"]).unwrap();
        assert!(
            out.contains("{\"schema\":\"parma-trace/v1\",\"version\":\""),
            "{out}"
        );
        assert!(out.contains("\"config_hash\":\""), "{out}");
        assert!(out.contains("\"parma/solve\""), "{out}");
        assert!(!out.contains("trace written"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_trace_flag_writes_json_trace() {
        let _guard = obs_guard();
        let dir = std::env::temp_dir().join("parma-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("trace-session.txt");
        let trace = dir.join("trace.json");
        run_str(&[
            "generate",
            "--n",
            "5",
            "--seed",
            "3",
            "--out",
            data.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&[
            "solve",
            "--input",
            data.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let text = text.trim();
        assert!(
            text.starts_with('{') && text.ends_with('}'),
            "not a JSON object"
        );
        for marker in ["\"parma/solve\"", "parma.solver.iterations", "total_ms"] {
            assert!(text.contains(marker), "trace missing {marker}");
        }
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn batch_solves_a_directory() {
        let dir = std::env::temp_dir().join("parma-cli-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, seed) in [("a.txt", 11u64), ("b.txt", 12), ("c.txt", 13)] {
            run_str(&[
                "generate",
                "--n",
                "4",
                "--seed",
                &seed.to_string(),
                "--out",
                dir.join(name).to_str().unwrap(),
            ])
            .unwrap();
        }
        let out = run_str(&["batch", dir.to_str().unwrap(), "--threads", "2"]).unwrap();
        assert!(out.contains("3 dataset(s), 2 thread(s)"), "{out}");
        for name in ["a.txt", "b.txt", "c.txt"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("12 solves"), "{out}"); // 3 sessions × 4 hours
        assert!(out.contains("solves/sec"), "{out}");
        assert!(out.contains("0 failure(s)"), "{out}");
        // Filename order, regardless of scheduling.
        let (a, b) = (out.find("a.txt").unwrap(), out.find("b.txt").unwrap());
        assert!(a < b && b < out.find("c.txt").unwrap(), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_round_trips_text_to_binary_and_back_byte_identically() {
        let dir = std::env::temp_dir().join("parma-cli-convert-test");
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("session.txt");
        let bin = dir.join("session.pbin");
        let back = dir.join("back.txt");
        run_str(&[
            "generate",
            "--n",
            "5",
            "--seed",
            "21",
            "--out",
            text.to_str().unwrap(),
        ])
        .unwrap();
        // Direction is sniffed: text input converts to binary…
        let out = run_str(&["convert", text.to_str().unwrap(), bin.to_str().unwrap()]).unwrap();
        assert!(out.contains("(text) ->"), "{out}");
        assert!(out.contains("(binary)"), "{out}");
        // …and the binary converts back to the *same bytes* of text.
        let out = run_str(&["convert", bin.to_str().unwrap(), back.to_str().unwrap()]).unwrap();
        assert!(out.contains("(binary) ->"), "{out}");
        assert_eq!(
            std::fs::read(&text).unwrap(),
            std::fs::read(&back).unwrap(),
            "text -> binary -> text must be byte-identical"
        );
        // Solving either container gives the same report.
        let a = run_str(&["solve", "--input", text.to_str().unwrap()]).unwrap();
        let b = run_str(&["solve", "--input", bin.to_str().unwrap()]).unwrap();
        assert_eq!(
            a.lines().skip(1).collect::<Vec<_>>(),
            b.lines().skip(1).collect::<Vec<_>>(),
            "text and binary solves must report identically"
        );
        // Bad inputs are rejected with usage or typed messages.
        assert!(run_str(&["convert"]).unwrap_err().contains("usage"));
        let err = run_str(&[
            "convert",
            text.to_str().unwrap(),
            bin.to_str().unwrap(),
            "--to",
            "xml",
        ])
        .unwrap_err();
        assert!(err.contains("unknown --to"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_requires_a_directory_operand() {
        let err = run_str(&["batch"]).unwrap_err();
        assert!(err.contains("missing dataset directory"), "{err}");
        let err = run_str(&["batch", "/nonexistent/nowhere"]).unwrap_err();
        assert!(err.contains("cannot read directory"), "{err}");
        let dir = std::env::temp_dir().join("parma-cli-batch-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_str(&["batch", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("no dataset files"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_quiet_suppresses_per_item_lines() {
        let dir = std::env::temp_dir().join("parma-cli-quiet-test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        run_str(&[
            "generate",
            "--n",
            "4",
            "--seed",
            "5",
            "--out",
            dir.join("a.txt").to_str().unwrap(),
        ])
        .unwrap();
        let out = run_str(&["batch", dir.to_str().unwrap(), "--quiet"]).unwrap();
        assert!(!out.contains("a.txt:"), "per-item line leaked: {out}");
        assert!(out.contains("batch: 4 solves"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_diff_passes_within_tolerance_and_exits_4_past_it() {
        let dir = std::env::temp_dir().join("parma-cli-bench-diff");
        std::fs::create_dir_all(&dir).unwrap();
        let old = dir.join("old.json");
        let new = dir.join("new.json");
        std::fs::write(
            &old,
            r#"{"schema":"parma-bench/kernels-v1","kernels":[
                {"name":"dense mul","n":4,"naive_ms":1.0,"opt_ms":0.50},
                {"name":"dot","n":4,"naive_ms":0.1,"opt_ms":0.08}]}"#,
        )
        .unwrap();
        std::fs::write(
            &new,
            r#"{"schema":"parma-bench/kernels-v1","kernels":[
                {"name":"dense mul","n":4,"naive_ms":1.0,"opt_ms":0.55},
                {"name":"dot","n":4,"naive_ms":0.1,"opt_ms":0.08}]}"#,
        )
        .unwrap();
        // +10% on one kernel: inside the default 25% tolerance.
        let text = run_str(&[
            "bench",
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
        ])
        .unwrap();
        assert!(text.contains("2 kernel(s) compared"), "{text}");
        assert!(text.contains("+10.0%"), "{text}");
        // The same diff fails a 5% tolerance with the distinct exit code.
        let raw: Vec<String> = [
            "bench",
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--tolerance",
            "0.05",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&raw, &mut Vec::new()).unwrap_err();
        assert_eq!(err.code, EXIT_REGRESSION);
        assert!(err.message.contains("dense mul"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_diff_rejects_bad_inputs() {
        let err = run_str(&["bench", "diff"]).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        let err = run_str(&["bench", "frobnicate", "a", "b"]).unwrap_err();
        assert!(err.contains("unknown bench subcommand"), "{err}");
        let dir = std::env::temp_dir().join("parma-cli-bench-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let bogus = dir.join("bogus.json");
        std::fs::write(&bogus, r#"{"schema":"something-else","kernels":[]}"#).unwrap();
        let p = bogus.to_str().unwrap();
        let err = run_str(&["bench", "diff", p, p]).unwrap_err();
        assert!(err.contains("parma-bench/kernels-v1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_finite_tolerance_is_an_invalid_configuration() {
        let dir = std::env::temp_dir().join("parma-cli-tol-inf");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.txt");
        let p = path.to_str().unwrap();
        run_str(&["generate", "--n", "4", "--seed", "3", "--out", p]).unwrap();
        let d = dir.to_str().unwrap();
        for args in [
            ["solve", "--input", p, "--tol", "inf"],
            ["batch", d, "--tol", "inf", "--quiet"],
        ] {
            let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&raw, &mut Vec::new()).unwrap_err();
            assert_eq!(err.code, 2, "{args:?}: {}", err.message);
            assert!(
                err.message.contains("invalid configuration"),
                "{args:?}: {}",
                err.message
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_missing_input_errors() {
        let err = run_str(&["solve", "--input", "/nonexistent/nope.txt"]).unwrap_err();
        assert!(err.contains("dataset"), "{err}");
    }

    #[test]
    fn bad_flag_reports_usage() {
        let dir = std::env::temp_dir().join("parma-cli-bad-flag");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("session.txt");
        run_str(&["generate", "--n", "4", "--out", data.to_str().unwrap()]).unwrap();
        let d = dir.to_str().unwrap();
        let f = data.to_str().unwrap();
        // `--for` bounds a serve that wrongly accepted its flags.
        for (args, flag) in [
            (&["generate", "--n"][..], "--n"),
            (&["solve", "--input", f, "--strategy", "pymp"], "--strategy"),
            (&["solve", "--input", f, "--threads", "2"], "--threads"),
            (&["batch", d, "--stream"], "--stream"),
            (&["batch", d, "--stream", "--quiet"], "--stream"),
            (&["batch", d, "--treads", "1"], "--treads"),
            (
                &["serve", "--adress", "127.0.0.1:0", "--for", "0.1"],
                "--adress",
            ),
        ] {
            let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&raw, &mut Vec::new()).unwrap_err();
            assert_eq!(err.code, 2, "{args:?}: {}", err.message);
            assert!(err.message.contains("USAGE"), "{args:?}: {}", err.message);
            assert!(err.message.contains(flag), "{args:?}: {}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_deadlines_are_flag_errors_not_panics() {
        let dir = std::env::temp_dir().join("parma-cli-huge-deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("session.txt");
        run_str(&["generate", "--n", "4", "--out", data.to_str().unwrap()]).unwrap();
        let d = dir.to_str().unwrap();
        let serve = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--for",
            "0.1",
            "--solve-deadline",
            "1e300",
        ];
        for (args, flag) in [
            (&["batch", d, "--deadline", "1e300"][..], "--deadline"),
            (
                &["batch", d, "--solve-deadline", "1e20"],
                "--solve-deadline",
            ),
            (&serve, "--solve-deadline"),
        ] {
            let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&raw, &mut Vec::new()).unwrap_err();
            assert_eq!(err.code, 2, "{args:?}: {}", err.message);
            assert!(err.message.contains(flag), "{args:?}: {}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
