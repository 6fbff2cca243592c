//! Append-only JSON-lines journal for `parma batch`: one fsync'd record
//! per decided item (success or quarantine), so a killed batch can be
//! `--resume`d without re-solving — or re-journaling — finished work.
//!
//! Entries are keyed by dataset *file name*, not batch index, so a resumed
//! run (which solves only the leftover subset) writes lines bitwise
//! identical to the uninterrupted run. Success entries pin the solve's
//! exact bits: the residual's IEEE-754 pattern and an FNV-1a-64 hash over
//! the recovered resistor map. A torn final line — the process died
//! mid-write — is tolerated on load and simply re-solved.

use mea_obs::{fnv, json};
use parma::prelude::*;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Schema tag carried by every journal line.
pub const SCHEMA: &str = "parma-journal/v1";

/// Schema tag of the provenance header written once at the top of a fresh
/// journal. The tag deliberately differs from [`SCHEMA`] so resume logic
/// (and older readers), which match entry lines by their exact schema
/// prefix, skip it without special casing.
pub const HEADER_SCHEMA: &str = "parma-journal-header/v1";

/// Schema tag of dispatch-trace *sidecar* lines: one per dispatch attempt
/// of a distributed shard, carrying trace/span ids, both clocks' stamps
/// and the clock-offset estimate. Sidecar, not entry: the
/// resharding-stability contract compares `parma-journal/v1` entry lines
/// byte for byte across topologies, and dispatch history legitimately
/// differs per run — so provenance that varies rides its own schema,
/// which entry readers (and [`load`]) skip by prefix, untouched.
pub const TRACE_SCHEMA: &str = "parma-journal-trace/v1";

/// FNV-1a 64 over raw bytes ([`mea_obs::fnv`]): a cheap, dependency-free
/// content hash.
pub fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    fnv::fnv1a64(bytes)
}

/// FNV-1a 64 over the little-endian IEEE-754 bit patterns of a value
/// slice: changes iff any output bit changes. Public because the serve
/// result endpoint pins solution bits with the same hash the journal
/// uses, so a journal line and an HTTP result for the same solve always
/// agree.
pub fn fnv1a64(values: &[f64]) -> u64 {
    values.iter().fold(fnv::OFFSET, |h, v| {
        fnv::extend(h, &v.to_bits().to_le_bytes())
    })
}

/// The provenance header line: who wrote this journal and under what
/// configuration. Deterministic for a given build + configuration, so the
/// resume contract ("kill + resume reproduces the uninterrupted journal
/// bitwise") extends to the header.
pub fn entry_header(config_hash: &str) -> String {
    let mut out = String::with_capacity(96);
    let mut obj = json::Object::begin(&mut out);
    obj.field_str("schema", HEADER_SCHEMA);
    obj.field_str("version", env!("CARGO_PKG_VERSION"));
    obj.field_str("config_hash", config_hash);
    obj.end();
    out
}

/// The JSON array of per-time-point records shared by journal `ok`
/// entries and the serve result endpoint: each element pins the solve's
/// exact bits (`residual_bits`, `resistors_fnv1a`), which is what makes
/// "cache-hit results are bitwise identical to cold results" a testable
/// claim over plain HTTP.
pub fn time_points_json(time_points: &[TimePointResult]) -> String {
    let mut tps = String::from("[");
    for (k, tp) in time_points.iter().enumerate() {
        if k > 0 {
            tps.push(',');
        }
        let mut rec = json::Object::begin(&mut tps);
        rec.field_u64("hours", u64::from(tp.hours));
        rec.field_u64("iterations", tp.solution.iterations as u64);
        rec.field_str(
            "residual_bits",
            &format!("{:016x}", tp.solution.residual.to_bits()),
        );
        rec.field_str(
            "resistors_fnv1a",
            &format!("{:016x}", fnv1a64(tp.solution.resistors.as_slice())),
        );
        rec.field_u64("anomalies", tp.detection.anomalies.len() as u64);
        rec.end();
    }
    tps.push(']');
    tps
}

/// The journal line for a dataset whose every time point solved.
pub fn entry_ok(name: &str, time_points: &[TimePointResult]) -> String {
    entry_ok_with_worker(name, time_points, None)
}

/// [`entry_ok`] with the solving worker's id appended as a trailing
/// `worker` field. The field is *provenance, not payload*: the
/// resharding-stability contract compares journals with worker fields
/// stripped, because which worker solved a shard legitimately varies
/// across topologies while the solution bits may not.
pub fn entry_ok_with_worker(
    name: &str,
    time_points: &[TimePointResult],
    worker: Option<u64>,
) -> String {
    let tps = time_points_json(time_points);
    let mut out = String::with_capacity(tps.len() + 80);
    let mut obj = json::Object::begin(&mut out);
    obj.field_str("schema", SCHEMA);
    obj.field_str("path", name);
    obj.field_str("status", "ok");
    obj.field_raw("time_points", &tps);
    if let Some(w) = worker {
        obj.field_u64("worker", w);
    }
    obj.end();
    out
}

/// The journal line for a quarantined dataset, embedding the full
/// `parma-failure/v1` report.
pub fn entry_failed(name: &str, report: &FailureReport) -> String {
    entry_failed_with_worker(name, report, None)
}

/// [`entry_failed`] with the worker id as a trailing provenance field —
/// see [`entry_ok_with_worker`].
pub fn entry_failed_with_worker(name: &str, report: &FailureReport, worker: Option<u64>) -> String {
    let mut out = String::with_capacity(192);
    let mut obj = json::Object::begin(&mut out);
    obj.field_str("schema", SCHEMA);
    obj.field_str("path", name);
    obj.field_str("status", "failed");
    obj.field_raw("report", &report.to_json());
    if let Some(w) = worker {
        obj.field_u64("worker", w);
    }
    obj.end();
    out
}

/// The sidecar line for one dispatch attempt of one distributed shard.
/// Worker-clock stamps (`solve_start_us`, `solve_end_us`) are written
/// raw, alongside the offset estimate — mapping to the coordinator clock
/// happens at read time (`parma obs timeline`), so the journal keeps the
/// evidence, not a conclusion.
pub fn entry_trace(
    path: &str,
    trace_id: u64,
    ticket: u64,
    attempt: u64,
    d: &mea_obs::timeline::DispatchTrace,
) -> String {
    use mea_obs::context::format_id;
    let mut out = String::with_capacity(256);
    let mut obj = json::Object::begin(&mut out);
    obj.field_str("schema", TRACE_SCHEMA);
    obj.field_str("path", path);
    obj.field_str("trace", &format_id(trace_id));
    obj.field_str("span", &format_id(d.span_id));
    if d.parent_span == 0 {
        obj.field_raw("parent_span", "null");
    } else {
        obj.field_str("parent_span", &format_id(d.parent_span));
    }
    obj.field_u64("ticket", ticket);
    obj.field_u64("attempt", attempt);
    // `worker_id`, not `worker`: entry lines reserve the bare key as
    // their strippable trailing provenance field, and the resharding
    // suite counts its occurrences across the whole journal file.
    obj.field_u64("worker_id", d.worker);
    obj.field_str("worker_name", &d.worker_name);
    obj.field_u64("dispatch_us", d.dispatch_us);
    obj.field_u64("ack_us", d.ack_us);
    obj.field_u64("solve_start_us", d.solve_start_us);
    obj.field_u64("solve_end_us", d.solve_end_us);
    obj.field_raw("offset_us", &d.offset_us.to_string());
    obj.field_str(
        "outcome",
        if d.outcome.is_empty() {
            "unknown"
        } else {
            &d.outcome
        },
    );
    obj.end();
    out
}

/// Reads the dispatch-trace sidecar lines back as per-job dispatch
/// histories, grouped by (trace, ticket) and sorted by attempt. Entry
/// lines, headers and torn lines are skipped — the sidecar is forensic
/// data, so a damaged line loses one record, never the load.
pub fn load_traces(path: &Path) -> Result<Vec<mea_obs::timeline::JobTrace>, String> {
    use mea_obs::context::parse_id;
    use mea_obs::timeline::{DispatchTrace, JobTrace};
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal {path:?}: {e}"))?;
    let mut jobs: BTreeMap<(u64, u64), JobTrace> = BTreeMap::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with("{\"schema\":\"parma-journal-trace/v1\"") || !balanced(trimmed) {
            continue;
        }
        let Ok(v) = json::parse(trimmed) else {
            continue;
        };
        let str_of = |key: &str| v.get(key).and_then(|x| x.as_str().map(String::from));
        let u64_of = |key: &str| v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        let Some(trace_id) = str_of("trace").as_deref().and_then(parse_id) else {
            continue;
        };
        let ticket = u64_of("ticket");
        let attempt = u64_of("attempt");
        let d = DispatchTrace {
            span_id: str_of("span").as_deref().and_then(parse_id).unwrap_or(0),
            parent_span: str_of("parent_span")
                .as_deref()
                .and_then(parse_id)
                .unwrap_or(0),
            worker: u64_of("worker_id"),
            worker_name: str_of("worker_name").unwrap_or_default(),
            dispatch_us: u64_of("dispatch_us"),
            ack_us: u64_of("ack_us"),
            solve_start_us: u64_of("solve_start_us"),
            solve_end_us: u64_of("solve_end_us"),
            offset_us: v.get("offset_us").and_then(|x| x.as_f64()).unwrap_or(0.0) as i64,
            outcome: str_of("outcome").unwrap_or_default(),
        };
        let job = jobs.entry((trace_id, ticket)).or_insert_with(|| JobTrace {
            trace_id,
            ticket,
            path: str_of("path").unwrap_or_default(),
            dispatches: Vec::new(),
        });
        // Attempts journal in dispatch order; tolerate rewrites by
        // slotting on the attempt index.
        let idx = attempt as usize;
        if job.dispatches.len() <= idx {
            job.dispatches.resize(idx + 1, DispatchTrace::default());
        }
        job.dispatches[idx] = d;
    }
    Ok(jobs.into_values().collect())
}

/// An open journal file. `record` serializes concurrent `on_done`
/// callbacks and forces every line to disk before returning, so a line's
/// presence guarantees the result it describes was fully decided.
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Opens (or creates) the journal for appending.
    pub fn open_append(path: &Path) -> Result<Self, String> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {path:?}: {e}"))?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// Appends one entry, flushed and fsync'd before returning.
    pub fn record(&self, line: &str) -> Result<(), String> {
        let mut file = self.file.lock().map_err(|_| "journal lock poisoned")?;
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        file.write_all(buf.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("journal write failed: {e}"))
    }
}

/// Reads a journal back as `file name → status` ("ok" | "failed") over
/// every *complete* entry.
///
/// Robustness policy, and why it is this strict:
///
/// * **Only the final line may be torn.** Our writer fsyncs each line
///   before appending the next, so the one write a crash can interrupt
///   is the last. A torn (or otherwise incomplete) *final* line is
///   tolerated — its item simply re-solves. An incomplete line anywhere
///   *earlier* cannot be our own crash artifact; it means the file was
///   edited or corrupted, and silently skipping it could mark a decided
///   item undone (double-solve) or worse — so it is a load error.
/// * **Same-key entries dedup last-complete-wins.** Reassignment after a
///   worker death is at-least-once dispatch; if a redispatched shard
///   lands twice (e.g. a resumed run re-journals a quarantine that later
///   succeeds), the latest complete entry is the decided one.
pub fn load(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read journal {path:?}: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    let mut done = BTreeMap::new();
    for (idx, line) in lines.iter().enumerate() {
        if !entry_is_complete(line) {
            // Blank lines and header/foreign-schema lines are not entries;
            // only a *broken entry* line trips the corruption check.
            let trimmed = line.trim();
            if trimmed.is_empty() || !trimmed.starts_with("{\"schema\":\"parma-journal/v1\"") {
                continue;
            }
            if idx + 1 == lines.len() {
                continue; // torn tail of a killed run: tolerated
            }
            return Err(format!(
                "journal {path:?}: corrupt entry at line {} (only the final line may be torn)",
                idx + 1
            ));
        }
        if let (Some(name), Some(status)) =
            (string_field(line, "path"), string_field(line, "status"))
        {
            done.insert(name, status); // last complete entry wins
        }
    }
    Ok(done)
}

/// A complete entry is one balanced JSON object with our schema tag.
/// Balance is checked outside string literals, so truncation at any inner
/// `}` still fails the check.
fn entry_is_complete(line: &str) -> bool {
    let line = line.trim();
    line.starts_with("{\"schema\":\"parma-journal/v1\"") && line.ends_with('}') && balanced(line)
}

fn balanced(line: &str) -> bool {
    let (mut braces, mut brackets) = (0i64, 0i64);
    let (mut in_str, mut escaped) = (false, false);
    for c in line.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => braces += 1,
            '}' => braces -= 1,
            '[' => brackets += 1,
            ']' => brackets -= 1,
            _ => {}
        }
        if braces < 0 || brackets < 0 {
            return false;
        }
    }
    braces == 0 && brackets == 0 && !in_str
}

/// Extracts and unescapes the first `"key":"…"` string value. Sufficient
/// for our own writer's output (top-level fields precede any embedded
/// report, so the first match is the outer one).
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&code, 16).ok()?)?);
                }
                other => out.push(other),
            },
            other => out.push(other),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use parma::AttemptFailure;

    fn sample_report() -> FailureReport {
        FailureReport {
            item: 3,
            kind: FailureKind::Divergence,
            detail: "did not converge".into(),
            attempts: vec![AttemptFailure {
                attempt: 0,
                kind: FailureKind::Divergence,
                detail: "did not converge".into(),
            }],
            events: Vec::new(),
        }
    }

    #[test]
    fn failed_entries_embed_the_failure_schema() {
        let line = entry_failed("bad.txt", &sample_report());
        assert!(
            line.starts_with("{\"schema\":\"parma-journal/v1\""),
            "{line}"
        );
        assert!(line.contains("\"status\":\"failed\""), "{line}");
        assert!(line.contains("\"schema\":\"parma-failure/v1\""), "{line}");
        assert!(line.contains("\"kind\":\"divergence\""), "{line}");
        assert!(entry_is_complete(&line), "{line}");
    }

    #[test]
    fn ok_entries_pin_the_solution_bits() {
        let dataset =
            WetLabDataset::generate(MeaGrid::square(3), &AnomalyConfig::default(), 7).unwrap();
        let tps = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&dataset)
            .unwrap();
        let line = entry_ok("a.txt", &tps);
        assert!(entry_is_complete(&line), "{line}");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        assert_eq!(line.matches("\"residual_bits\":\"").count(), tps.len());
        // The pinned bits are exactly the solution's.
        let hex = format!("{:016x}", tps[0].solution.residual.to_bits());
        assert!(line.contains(&hex), "{line}");
        // Identical solves journal identical lines (the resume contract).
        let tps2 = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&dataset)
            .unwrap();
        assert_eq!(line, entry_ok("a.txt", &tps2));
    }

    #[test]
    fn load_round_trips_and_tolerates_a_torn_tail() {
        let dir = std::env::temp_dir().join("parma-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let ok = entry_failed("done.txt", &sample_report()).replace("failed", "ok");
        let failed = entry_failed("bad.txt", &sample_report());
        // Truncate a valid line at an inner `}` so it still *ends* with a
        // brace: the balance check must reject it anyway.
        let torn = &failed[..failed.find('}').unwrap() + 1];
        std::fs::write(&path, format!("{ok}\n{failed}\n{torn}")).unwrap();
        let done = load(&path).unwrap();
        assert_eq!(done.get("done.txt").map(String::as_str), Some("ok"));
        assert_eq!(done.get("bad.txt").map(String::as_str), Some("failed"));
        assert_eq!(done.len(), 2, "the torn tail must not load: {done:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_appends_one_line_per_call() {
        let dir = std::env::temp_dir().join("parma-journal-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        std::fs::remove_file(&path).ok();
        let j = Journal::open_append(&path).unwrap();
        j.record(&entry_failed("x.txt", &sample_report())).unwrap();
        j.record(&entry_failed("y.txt", &sample_report())).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_lines_are_complete_json_but_never_load_as_entries() {
        let header = entry_header("00000000deadbeef");
        assert!(
            header.starts_with("{\"schema\":\"parma-journal-header/v1\",\"version\":\""),
            "{header}"
        );
        assert!(header.contains("\"config_hash\":\"00000000deadbeef\""));
        assert!(balanced(&header), "{header}");
        // The entry filter must skip it — its schema tag is not SCHEMA.
        assert!(!entry_is_complete(&header), "{header}");
        let dir = std::env::temp_dir().join("parma-journal-header");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.jsonl");
        let ok = entry_failed("done.txt", &sample_report()).replace("failed", "ok");
        std::fs::write(&path, format!("{header}\n{ok}\n")).unwrap();
        let done = load(&path).unwrap();
        assert_eq!(done.len(), 1, "header must not load as an item: {done:?}");
        assert_eq!(done.get("done.txt").map(String::as_str), Some("ok"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dedups_same_key_entries_last_complete_wins() {
        let dir = std::env::temp_dir().join("parma-journal-dedup");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.jsonl");
        let failed = entry_failed("x.txt", &sample_report());
        let ok = failed.replace("\"status\":\"failed\"", "\"status\":\"ok\"");
        // A quarantine journaled, then the redispatched shard succeeds:
        // the later complete entry decides the item.
        std::fs::write(&path, format!("{failed}\n{ok}\n")).unwrap();
        let done = load(&path).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done.get("x.txt").map(String::as_str), Some("ok"));
        // And symmetrically, a torn duplicate at the tail never demotes
        // the complete entry before it.
        let torn = &failed[..failed.len() - 10];
        std::fs::write(&path, format!("{ok}\n{torn}")).unwrap();
        let done = load(&path).unwrap();
        assert_eq!(done.get("x.txt").map(String::as_str), Some("ok"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_a_torn_line_that_is_not_final() {
        let dir = std::env::temp_dir().join("parma-journal-midtorn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let ok = entry_failed("a.txt", &sample_report()).replace("failed", "ok");
        let torn = &ok[..ok.len() - 5];
        std::fs::write(&path, format!("{torn}\n{ok}\n")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("corrupt entry at line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_field_is_trailing_provenance_and_round_trips() {
        let dataset =
            WetLabDataset::generate(MeaGrid::square(3), &AnomalyConfig::default(), 7).unwrap();
        let tps = Pipeline::new(ParmaConfig::default(), 1.5)
            .unwrap()
            .run(&dataset)
            .unwrap();
        let plain = entry_ok("a.txt", &tps);
        let tagged = entry_ok_with_worker("a.txt", &tps, Some(2));
        assert!(entry_is_complete(&tagged), "{tagged}");
        assert!(tagged.ends_with(",\"worker\":2}"), "{tagged}");
        // Stripping the trailing worker field recovers the plain line —
        // the invariant the resharding-stability test relies on.
        assert_eq!(tagged.replace(",\"worker\":2", ""), plain);
        let failed = entry_failed_with_worker("b.txt", &sample_report(), Some(7));
        assert!(entry_is_complete(&failed), "{failed}");
        assert!(failed.ends_with(",\"worker\":7}"), "{failed}");
        let dir = std::env::temp_dir().join("parma-journal-worker");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.jsonl");
        std::fs::write(&path, format!("{tagged}\n{failed}\n")).unwrap();
        let done = load(&path).unwrap();
        assert_eq!(done.get("a.txt").map(String::as_str), Some("ok"));
        assert_eq!(done.get("b.txt").map(String::as_str), Some("failed"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_sidecar_lines_round_trip_and_never_load_as_entries() {
        let d = mea_obs::timeline::DispatchTrace {
            span_id: 0xabc,
            parent_span: 0x9,
            worker: 2,
            worker_name: "w2".into(),
            dispatch_us: 1_000,
            ack_us: 9_000,
            solve_start_us: 55_000,
            solve_end_us: 58_000,
            offset_us: -52_000,
            outcome: "ok".into(),
        };
        let line = entry_trace("s3.txt", 0xfeed, 7, 1, &d);
        assert!(
            line.starts_with("{\"schema\":\"parma-journal-trace/v1\""),
            "{line}"
        );
        assert!(balanced(&line), "{line}");
        // Sidecar lines are invisible to the entry reader...
        assert!(!entry_is_complete(&line));
        let dir = std::env::temp_dir().join("parma-journal-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let ok = entry_failed("s3.txt", &sample_report()).replace("failed", "ok");
        let first = entry_trace(
            "s3.txt",
            0xfeed,
            7,
            0,
            &mea_obs::timeline::DispatchTrace {
                span_id: 0x9,
                worker_name: "w0".into(),
                dispatch_us: 10,
                outcome: "lost".into(),
                ..Default::default()
            },
        );
        std::fs::write(&path, format!("{first}\n{ok}\n{line}\n")).unwrap();
        let done = load(&path).unwrap();
        assert_eq!(done.len(), 1, "sidecar lines must not load as items");
        // ...and round-trip losslessly through the trace reader, grouped
        // by job and ordered by attempt.
        let jobs = load_traces(&path).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].trace_id, 0xfeed);
        assert_eq!(jobs[0].ticket, 7);
        assert_eq!(jobs[0].path, "s3.txt");
        assert_eq!(jobs[0].dispatches.len(), 2);
        assert_eq!(jobs[0].dispatches[0].outcome, "lost");
        assert_eq!(jobs[0].dispatches[1].span_id, 0xabc);
        assert_eq!(jobs[0].dispatches[1].parent_span, 0x9);
        assert_eq!(jobs[0].dispatches[1].offset_us, -52_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv1a64_bytes_is_stable() {
        // Pinned value: the hash feeds config provenance stamps, which the
        // resume bitwise contract depends on.
        assert_eq!(fnv1a64_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64_bytes(b"ab"), fnv1a64_bytes(b"ba"));
    }

    #[test]
    fn string_field_unescapes() {
        let line = r#"{"schema":"parma-journal/v1","path":"we\"ird\\name.txt","status":"ok"}"#;
        assert_eq!(
            string_field(line, "path").unwrap(),
            "we\"ird\\name.txt".to_string()
        );
        assert!(balanced(line));
    }
}
