//! Golden-trace regression test: a pinned dataset run with `--trace`
//! must produce JSON whose *schema* — the stage span paths with their
//! counts, the counter keys, and their relative ordering — never drifts.
//! Wall times are machine noise and are deliberately not pinned; keys,
//! counts and structure are the contract downstream tooling parses.

use std::sync::{Mutex, MutexGuard, OnceLock};

/// The observability registry is process-global; trace-producing tests
/// serialize on this lock so their snapshots never interleave.
fn obs_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn run(args: &[&str]) -> Result<String, String> {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    parma_cli::run(&raw, &mut out)
        .map(|_| String::from_utf8(out).unwrap())
        .map_err(|e| e.message)
}

/// Asserts `needle` occurs in `hay` and returns its byte offset.
fn offset_of(hay: &str, needle: &str) -> usize {
    hay.find(needle)
        .unwrap_or_else(|| panic!("trace is missing {needle:?}"))
}

/// The trace's spans as `(path, count)`, in document order.
fn spans(json: &str) -> Vec<(String, u64)> {
    let doc = mea_obs::json::parse(json.trim()).expect("the trace is one JSON value");
    doc.get("spans")
        .and_then(|s| s.as_arr())
        .expect("the trace has a spans array")
        .iter()
        .map(|s| {
            let path = s.get("path").and_then(|p| p.as_str()).expect("span path");
            let count = s.get("count").and_then(|c| c.as_f64()).expect("span count");
            (path.to_string(), count as u64)
        })
        .collect()
}

/// A counter of the trace, 0 when absent.
fn counter(json: &str, name: &str) -> u64 {
    let doc = mea_obs::json::parse(json.trim()).expect("the trace is one JSON value");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .map_or(0, |v| v as u64)
}

#[test]
fn solve_trace_schema_is_stable() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("parma-golden-solve");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("session.txt");
    let trace = dir.join("trace.json");
    run(&[
        "generate",
        "--n",
        "5",
        "--seed",
        "17",
        "--out",
        data.to_str().unwrap(),
    ])
    .unwrap();
    run(&[
        "solve",
        "--input",
        data.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ])
    .unwrap();
    let json = std::fs::read_to_string(&trace).unwrap();
    let json = json.trim();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not a JSON object"
    );

    // Top-level sections, in order; residual curves are not in the trace.
    let spans_at = offset_of(json, "\"spans\":[");
    let counters_at = offset_of(json, "\"counters\":{");
    assert!(spans_at < counters_at);
    assert!(!json.contains("\"series\""), "{json}");

    // Exactly the stages of one session solve, in name order: the forward
    // refactor, then detection, solve and sweep per time point.
    let spans = spans(json);
    let paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        paths,
        [
            "model/forward/refactor",
            "parma/detect",
            "parma/solve",
            "parma/sweep"
        ]
    );
    // Every span record carries the full stat schema.
    for field in ["\"path\":", "\"count\":", "\"total_ms\":", "\"max_ms\":"] {
        assert!(json.contains(field), "span records missing {field}");
    }

    // Counters the solver always emits (recoveries only when the ladder
    // fires).
    for key in ["\"parma.solver.solves\":", "\"parma.solver.iterations\":"] {
        assert!(json.contains(key), "missing counter {key}");
    }
    // One solve and one detection per time point (0/6/12/24 h); every
    // solve converges, and each refactors and sweeps once per iteration
    // plus once for the converging one.
    let time_points = 4;
    assert_eq!(counter(json, "parma.solver.solves"), time_points);
    let per_iteration = counter(json, "parma.solver.iterations") + time_points;
    let count = |path: &str| spans.iter().find(|(p, _)| p == path).unwrap().1;
    assert_eq!(count("parma/solve"), time_points);
    assert_eq!(count("parma/detect"), time_points);
    assert_eq!(count("parma/sweep"), per_iteration);
    assert_eq!(count("model/forward/refactor"), per_iteration);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_trace_schema_is_stable() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("parma-golden-batch");
    let data_dir = dir.join("data");
    std::fs::create_dir_all(&data_dir).unwrap();
    for (name, seed) in [("one.txt", "21"), ("two.txt", "22")] {
        run(&[
            "generate",
            "--n",
            "4",
            "--seed",
            seed,
            "--out",
            data_dir.join(name).to_str().unwrap(),
        ])
        .unwrap();
    }
    let trace = dir.join("trace.json");
    run(&[
        "batch",
        data_dir.to_str().unwrap(),
        "--threads",
        "2",
        "--trace",
        trace.to_str().unwrap(),
    ])
    .unwrap();
    let json = std::fs::read_to_string(&trace).unwrap();

    // The session stages, plus one item per dataset: every attempt is
    // timed, and these healthy datasets need one attempt each.
    let spans = spans(&json);
    let paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(
        paths,
        [
            "model/forward/refactor",
            "parma/batch/item",
            "parma/detect",
            "parma/solve",
            "parma/sweep"
        ]
    );
    let count = |path: &str| spans.iter().find(|(p, _)| p == path).unwrap().1;
    assert_eq!(count("parma/batch/item"), 2);
    assert_eq!(count("parma/solve"), 8);
    assert_eq!(count("parma/detect"), 8);

    // Batch counters.
    offset_of(&json, "\"parma.batch.items\":2");
    offset_of(&json, "\"parma.batch.failures\":0");
    assert!(!json.contains("\"series\""), "{json}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_report_and_journal_schema_are_stable() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("parma-golden-quarantine");
    let data_dir = dir.join("data");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&data_dir).unwrap();
    run(&[
        "generate",
        "--n",
        "4",
        "--seed",
        "21",
        "--out",
        data_dir.join("good.txt").to_str().unwrap(),
    ])
    .unwrap();
    std::fs::write(
        data_dir.join("corrupt.txt"),
        "# parma-dataset v1\nrows 1\ncols 2\nmeasurement 0 5\nNaN\t1.0\n",
    )
    .unwrap();
    let journal = dir.join("journal.jsonl");

    let raw: Vec<String> = [
        "batch",
        data_dir.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut out = Vec::new();
    let err = parma_cli::run(&raw, &mut out).unwrap_err();
    assert_eq!(err.code, parma_cli::EXIT_QUARANTINED, "{}", err.message);
    let text = String::from_utf8(out).unwrap();

    // The human-facing failure summary: per-item quarantine line with the
    // taxonomy label in brackets, then the per-kind table. Downstream
    // tooling greps these; the shapes are pinned.
    offset_of(&text, "corrupt.txt: QUARANTINED [non_finite_input]");
    let table_at = offset_of(&text, "failures by kind:");
    let row_at = offset_of(&text, "\n  non_finite_input 1");
    assert!(table_at < row_at, "table header precedes its rows");
    offset_of(&text, "1 failure(s)");

    // The journal: a provenance header, then one complete
    // `parma-journal/v1` line per item, with the key order pinned
    // (schema, path, status, payload).
    let jtext = std::fs::read_to_string(&journal).unwrap();
    assert_eq!(jtext.lines().count(), 3);
    let header = jtext.lines().next().unwrap();
    assert!(
        header.starts_with("{\"schema\":\"parma-journal-header/v1\",\"version\":\""),
        "journal header prefix drifted: {header}"
    );
    assert!(
        header.contains("\"config_hash\":\""),
        "header must stamp the config hash: {header}"
    );
    for line in jtext.lines().skip(1) {
        assert!(
            line.starts_with("{\"schema\":\"parma-journal/v1\",\"path\":\""),
            "journal line prefix drifted: {line}"
        );
        assert!(line.ends_with('}'), "torn line in a healthy run: {line}");
    }
    // The success entry pins the solve's exact bits.
    offset_of(
        &jtext,
        "\"status\":\"ok\",\"time_points\":[{\"hours\":0,\"iterations\":",
    );
    offset_of(&jtext, "\"residual_bits\":\"");
    offset_of(&jtext, "\"resistors_fnv1a\":\"");
    // The quarantine entry embeds the full failure report.
    offset_of(
        &jtext,
        "\"status\":\"failed\",\"report\":{\"schema\":\"parma-failure/v1\",\"item\":",
    );
    offset_of(&jtext, "\"kind\":\"non_finite_input\"");
    offset_of(&jtext, "\"attempts\":[{\"attempt\":0,");
    // PR 5 provenance fields ride at the report's tail so the prefix
    // greps above keep working.
    offset_of(&jtext, "\"version\":\"");
    offset_of(&jtext, "\"events\":[");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_runs_are_schema_identical_across_repeats() {
    let _guard = obs_guard();
    let dir = std::env::temp_dir().join("parma-golden-repeat");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("session.txt");
    run(&[
        "generate",
        "--n",
        "4",
        "--seed",
        "33",
        "--out",
        data.to_str().unwrap(),
    ])
    .unwrap();

    // The schema skeleton — every key, in order, with numbers stripped —
    // must be identical run to run; only wall-time digits may differ.
    let skeleton = |json: &str| -> String {
        json.chars()
            .filter(|c| !(c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e'))
            .collect()
    };
    let mut skeletons = Vec::new();
    for i in 0..2 {
        let trace = dir.join(format!("trace-{i}.json"));
        run(&[
            "solve",
            "--input",
            data.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        skeletons.push(skeleton(&std::fs::read_to_string(&trace).unwrap()));
    }
    assert_eq!(
        skeletons[0], skeletons[1],
        "trace schema must not drift between identical runs"
    );

    std::fs::remove_dir_all(&dir).ok();
}
