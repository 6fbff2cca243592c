//! Readers for the telemetry the product already exports — journal
//! entries, the dispatch-trace sidecar, `--trace` JSON and Prometheus
//! text — plus the failure accounting built on them.

use mea_obs::json::{self, Value};
use mea_obs::timeline::DispatchTrace;
use std::collections::{BTreeMap, BTreeSet};

/// One time point of a solved session, as journal lines and serve result
/// documents pin it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimePoint {
    pub hours: u64,
    pub iterations: u64,
    pub residual_bits: u64,
    pub resistors_fnv1a: u64,
}

/// One `parma-journal/v1` entry line.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Dataset file name, or `job-<id>` for serve.
    pub path: String,
    /// Time points of an `ok` entry; `None` for a quarantined one.
    pub time_points: Option<Vec<TimePoint>>,
    /// Attempts recorded in a failure report (0 for `ok` entries).
    pub attempts: usize,
    /// The solving worker, when a sharded run journaled it.
    pub worker: Option<u64>,
}

/// Coordinator round trip of one shard minus the worker's own solve time,
/// in ms: what the wire, the codec and both event loops cost it. The round
/// trip is on the coordinator's clock and the solve on the worker's, so
/// each difference stays within one clock.
pub fn shard_overhead_ms(d: &DispatchTrace) -> f64 {
    let round_trip = d.ack_us.saturating_sub(d.dispatch_us);
    let solve = d.solve_end_us.saturating_sub(d.solve_start_us);
    round_trip as f64 / 1e3 - solve as f64 / 1e3
}

fn hex_field(v: &Value, key: &str) -> Result<u64, String> {
    let s = v
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing {key}"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("bad {key} {s:?}: {e}"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    let x = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing {key}"))?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!("{key} is not a count: {x}"));
    }
    Ok(x as u64)
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(String::from)
        .ok_or_else(|| format!("missing {key}"))
}

/// Parses a `time_points` array (journal `ok` entries and serve result
/// documents share it).
pub fn time_points(v: &Value) -> Result<Vec<TimePoint>, String> {
    let arr = v
        .get("time_points")
        .and_then(Value::as_arr)
        .ok_or("missing time_points")?;
    arr.iter()
        .map(|tp| {
            Ok(TimePoint {
                hours: u64_field(tp, "hours")?,
                iterations: u64_field(tp, "iterations")?,
                residual_bits: hex_field(tp, "residual_bits")?,
                resistors_fnv1a: hex_field(tp, "resistors_fnv1a")?,
            })
        })
        .collect()
}

/// Parses one entry line's JSON value.
pub fn entry(v: &Value) -> Result<Entry, String> {
    let path = str_field(v, "path")?;
    let worker = v.get("worker").and_then(Value::as_f64).map(|w| w as u64);
    match str_field(v, "status")?.as_str() {
        "ok" => Ok(Entry {
            path,
            time_points: Some(time_points(v)?),
            attempts: 0,
            worker,
        }),
        "failed" => {
            let attempts = v
                .get("report")
                .and_then(|r| r.get("attempts"))
                .and_then(Value::as_arr)
                .map_or(0, <[Value]>::len);
            Ok(Entry {
                path,
                time_points: None,
                attempts,
                worker,
            })
        }
        other => Err(format!("unknown status {other:?}")),
    }
}

/// Parses a complete journal's entry lines, skipping its header and the
/// dispatch-trace sidecar lines (`parma_cli::journal::load_traces` reads
/// those). The harness reads journals only after their writer has exited
/// or fsync'd them, so any line that does not parse is an error, not a
/// torn tail.
pub fn journal(text: &str) -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for (k, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("journal line {}: {e}", k + 1))?;
        let at = |e: String| format!("journal line {}: {e}", k + 1);
        match str_field(&v, "schema").map_err(at)?.as_str() {
            "parma-journal-header/v1" | "parma-journal-trace/v1" => {}
            "parma-journal/v1" => out.push(entry(&v).map_err(at)?),
            other => return Err(at(format!("unknown schema {other:?}"))),
        }
    }
    Ok(out)
}

/// Per-worker busy time (µs of worker-side solving) from the sidecar.
pub fn worker_busy_us(dispatches: &[DispatchTrace]) -> BTreeMap<u64, u64> {
    let mut busy = BTreeMap::new();
    for d in dispatches {
        *busy.entry(d.worker).or_default() += d.solve_end_us.saturating_sub(d.solve_start_us);
    }
    busy
}

/// Prometheus text exposition → `series{labels}` → value.
pub fn prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Cumulative `(le, count)` buckets of histogram `name`, ascending, with
/// `+Inf` as `f64::INFINITY`.
pub fn buckets(metrics: &BTreeMap<String, f64>, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    let mut out: Vec<(f64, f64)> = metrics
        .iter()
        .filter_map(|(k, &v)| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, v))
        })
        .collect();
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

/// Percentile `q` of the observations that landed between two scrapes of
/// one histogram, as the upper bound of the bucket holding that rank (the
/// exposition's resolution). `None` when nothing landed.
pub fn bucket_percentile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> Option<f64> {
    let old = |le: f64| {
        before
            .iter()
            .find(|(b, _)| *b == le)
            .map_or(0.0, |(_, c)| *c)
    };
    let delta: Vec<(f64, f64)> = after.iter().map(|&(le, c)| (le, c - old(le))).collect();
    let total = delta.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let want = (q / 100.0 * total).ceil().max(1.0);
    let finite_max = delta
        .iter()
        .rev()
        .find(|(le, _)| le.is_finite())
        .map_or(0.0, |(le, _)| *le);
    delta
        .iter()
        .find(|(_, c)| *c >= want)
        .map(|&(le, _)| if le.is_finite() { le } else { finite_max })
}

/// The `--trace` JSON of one `parma batch` run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Span path → (count, total ms).
    pub spans: BTreeMap<String, (u64, f64)>,
    /// Counter name → value.
    pub counters: BTreeMap<String, f64>,
}

impl Trace {
    /// Count and total ms over every span whose last path component is
    /// `leaf` (so nested and un-nested instances both count).
    pub fn leaf(&self, leaf: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|(p, _)| p.rsplit('/').next() == Some(leaf))
            .fold((0, 0.0), |(c, t), (_, &(c2, t2))| (c + c2, t + t2))
    }

    /// A counter, 0 when the run never touched it.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

/// Parses a `parma-trace/v1` document.
pub fn trace(text: &str) -> Result<Trace, String> {
    let v = json::parse(text.trim()).map_err(|e| format!("trace: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some("parma-trace/v1") {
        return Err("trace: not a parma-trace/v1 document".into());
    }
    let mut out = Trace::default();
    for s in v.get("spans").and_then(Value::as_arr).unwrap_or(&[]) {
        let path = str_field(s, "path")?;
        let count = u64_field(s, "count")?;
        let total = s.get("total_ms").and_then(Value::as_f64).unwrap_or(0.0);
        out.spans.insert(path, (count, total));
    }
    if let Some(Value::Obj(fields)) = v.get("counters") {
        for (k, c) in fields {
            if let Some(x) = c.as_f64() {
                out.counters.insert(k.clone(), x);
            }
        }
    }
    Ok(out)
}

/// How every attempted session ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Sessions handed to the product.
    pub attempted: usize,
    /// Sessions whose every time point converged.
    pub ok: usize,
    /// Sessions the supervisor quarantined.
    pub quarantined: usize,
    /// Sessions refused at admission (HTTP 429/503).
    pub rejected: usize,
    /// Sessions admitted but never decided.
    pub lost: usize,
}

impl Accounting {
    /// Quarantined, rejected or lost, over attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.quarantined + self.rejected + self.lost) as f64 / self.attempted as f64
    }

    /// Adds another run's counts.
    pub fn add(&mut self, o: &Accounting) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.quarantined += o.quarantined;
        self.rejected += o.rejected;
        self.lost += o.lost;
    }
}

/// Accounts a batch journal against the file names the batch was given:
/// every name must be decided exactly once, and nothing else may appear.
pub fn account_batch(expected: &[String], entries: &[Entry]) -> Result<Accounting, String> {
    let want: BTreeSet<&str> = expected.iter().map(String::as_str).collect();
    let mut seen = BTreeSet::new();
    let mut acc = Accounting {
        attempted: expected.len(),
        ..Default::default()
    };
    for e in entries {
        if !want.contains(e.path.as_str()) {
            return Err(format!(
                "journal names {:?}, which the run never had",
                e.path
            ));
        }
        if !seen.insert(e.path.as_str()) {
            return Err(format!("journal decides {:?} twice", e.path));
        }
        if e.time_points.is_some() {
            acc.ok += 1;
        } else {
            acc.quarantined += 1;
        }
    }
    if let Some(missing) = want.difference(&seen).next() {
        return Err(format!(
            "no journal entry for {missing:?} ({} of {} missing)",
            want.len() - seen.len(),
            want.len()
        ));
    }
    Ok(acc)
}

/// `parma batch` exits 0 when everything solved and 3 when it quarantined
/// items; anything else (or a code that disagrees with the journal) is a
/// broken run.
pub fn check_batch_exit(code: Option<i32>, acc: &Accounting) -> Result<(), String> {
    match code {
        Some(0) if acc.quarantined == 0 => Ok(()),
        Some(3) if acc.quarantined > 0 => Ok(()),
        Some(c) => Err(format!(
            "parma batch exited {c} with {} quarantined session(s)",
            acc.quarantined
        )),
        None => Err("parma batch was killed by a signal".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"schema":"parma-journal/v1","path":"a.pbin","status":"ok","time_points":[{"hours":0,"iterations":319,"residual_bits":"3ddb0f5926ec8241","resistors_fnv1a":"4cc033a0f14ec519","anomalies":96},{"hours":6,"iterations":12,"residual_bits":"0000000000000001","resistors_fnv1a":"ffffffffffffffff","anomalies":0}]}"#;
    const FAILED: &str = r#"{"schema":"parma-journal/v1","path":"b.pbin","status":"failed","report":{"schema":"parma-failure/v1","item":1,"kind":"divergence","detail":"x","attempts":[{"attempt":0,"kind":"divergence","detail":"x"},{"attempt":1,"kind":"divergence","detail":"x"},{"attempt":2,"kind":"divergence","detail":"x"}],"events":[]},"worker":1}"#;
    const SIDECAR: &str = r#"{"schema":"parma-journal-trace/v1","path":"a1.txt","trace":"7181340e4218","span":"4cd0af40876b","parent_span":null,"ticket":0,"attempt":0,"worker_id":0,"worker_name":"w0","dispatch_us":6005,"ack_us":20334,"solve_start_us":5417,"solve_end_us":12967,"offset_us":-3115,"outcome":"ok"}"#;
    const HEADER: &str = r#"{"schema":"parma-journal-header/v1","version":"0.1.0","config_hash":"906fc4c01e6aec52"}"#;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn journal_entries_parse_and_sidecar_lines_are_left_to_load_traces() {
        let text = format!("{HEADER}\n{SIDECAR}\n{OK}\n{FAILED}\n");
        let entries = journal(&text).unwrap();
        assert_eq!(entries.len(), 2);
        let ok = &entries[0];
        assert_eq!(
            (ok.path.as_str(), ok.worker, ok.attempts),
            ("a.pbin", None, 0)
        );
        let tps = ok.time_points.as_ref().unwrap();
        assert_eq!(tps[0].iterations, 319);
        assert_eq!(tps[0].residual_bits, 0x3ddb_0f59_26ec_8241);
        assert_eq!(tps[1].resistors_fnv1a, u64::MAX);
        let failed = &entries[1];
        assert_eq!(
            (failed.time_points.is_none(), failed.attempts, failed.worker),
            (true, 3, Some(1))
        );
    }

    #[test]
    fn sidecar_dispatches_give_shard_overhead_and_worker_busy_time() {
        let path =
            std::env::temp_dir().join(format!("e2ebench-sidecar-{}.journal", std::process::id()));
        std::fs::write(&path, format!("{HEADER}\n{SIDECAR}\n{OK}\n")).unwrap();
        let traces = parma_cli::journal::load_traces(&path);
        std::fs::remove_file(&path).unwrap();
        let dispatches: Vec<DispatchTrace> = traces
            .unwrap()
            .into_iter()
            .flat_map(|j| j.dispatches)
            .collect();
        assert_eq!(dispatches.len(), 1);
        let d = &dispatches[0];
        assert_eq!((d.worker, d.dispatch_us, d.ack_us), (0, 6005, 20334));
        // Round trip 14.329 ms, of which the worker solved 7.55 ms.
        assert!((shard_overhead_ms(d) - 6.779).abs() < 1e-9);
        assert_eq!(worker_busy_us(&dispatches)[&0], 7550);
    }

    #[test]
    fn journal_rejects_damaged_lines() {
        assert!(journal(&format!("{OK}\n{{\"schema\":\"parma-journal/v1\",\"pa")).is_err());
        assert!(journal(r#"{"schema":"parma-journal/v2","path":"a"}"#).is_err());
        let bad_bits = OK.replace("3ddb0f5926ec8241", "not-hex");
        assert!(journal(&bad_bits).is_err());
        assert!(journal(&OK.replace("\"ok\"", "\"maybe\"")).is_err());
    }

    #[test]
    fn accounting_counts_quarantines_and_catches_missing_or_extra_entries() {
        let entries = journal(&format!("{OK}\n{FAILED}")).unwrap();
        let acc = account_batch(&names(&["a.pbin", "b.pbin"]), &entries).unwrap();
        assert_eq!((acc.attempted, acc.ok, acc.quarantined), (2, 1, 1));
        assert_eq!(acc.failed_frac(), 0.5);
        // Exit 3 is the quarantine signal, not a crash; 0 would contradict it.
        assert!(check_batch_exit(Some(3), &acc).is_ok());
        assert!(check_batch_exit(Some(0), &acc).is_err());
        assert!(check_batch_exit(Some(2), &acc).is_err());
        assert!(check_batch_exit(None, &acc).is_err());
        let clean = account_batch(&names(&["a.pbin"]), &entries[..1]).unwrap();
        assert!(check_batch_exit(Some(0), &clean).is_ok());
        assert!(check_batch_exit(Some(3), &clean).is_err());
        // A session the journal never decided is an error, as is one it
        // decided twice or one the run never had.
        let err = account_batch(&names(&["a.pbin", "b.pbin", "c.pbin"]), &entries).unwrap_err();
        assert!(err.contains("c.pbin"), "{err}");
        let twice = [entries[0].clone(), entries[0].clone()];
        assert!(account_batch(&names(&["a.pbin"]), &twice).is_err());
        assert!(account_batch(&names(&["b.pbin"]), &entries).is_err());

        let mut total = Accounting::default();
        total.add(&acc);
        total.add(&Accounting {
            attempted: 2,
            ok: 1,
            rejected: 1,
            ..Default::default()
        });
        assert_eq!(
            (total.attempted, total.ok, total.failed_frac()),
            (4, 2, 0.5)
        );
    }

    #[test]
    fn prometheus_histograms_diff_between_scrapes() {
        let before = prometheus(
            "# TYPE x histogram\nx_bucket{le=\"1.0\"} 2\nx_bucket{le=\"2.0\"} 3\nx_bucket{le=\"+Inf\"} 3\nparma_plan_cache_hits_total 7\n",
        );
        let after = prometheus(
            "x_bucket{le=\"1.0\"} 2\nx_bucket{le=\"2.0\"} 10\nx_bucket{le=\"4.0\"} 12\nx_bucket{le=\"+Inf\"} 13\n",
        );
        assert_eq!(before["parma_plan_cache_hits_total"], 7.0);
        let (b, a) = (buckets(&before, "x"), buckets(&after, "x"));
        assert_eq!(a.last(), Some(&(f64::INFINITY, 13.0)));
        // Ten new observations: seven ≤ 2, two in (2, 4], one beyond.
        assert_eq!(bucket_percentile(&b, &a, 50.0), Some(2.0));
        assert_eq!(bucket_percentile(&b, &a, 90.0), Some(4.0));
        assert_eq!(bucket_percentile(&b, &a, 100.0), Some(4.0));
        assert_eq!(bucket_percentile(&a, &a, 50.0), None);
    }

    #[test]
    fn trace_spans_sum_by_leaf() {
        let t = trace(
            r#"{"schema":"parma-trace/v1","spans":[{"path":"parma/batch/item","count":3,"total_ms":8.0,"max_ms":3.0},{"path":"parma/batch/item/pipeline/run/time_point/parma/solve/refactor","count":10,"total_ms":5.0,"max_ms":1.0},{"path":"parma/solve/refactor","count":2,"total_ms":1.0,"max_ms":1.0}],"counters":{"parma.solver.iterations":1172},"series":{}}"#,
        )
        .unwrap();
        assert_eq!(t.leaf("refactor"), (12, 6.0));
        assert_eq!(t.leaf("item"), (3, 8.0));
        assert_eq!(t.counter("parma.solver.iterations"), 1172.0);
        assert_eq!(t.counter("parma.solver.recoveries"), 0.0);
        assert!(trace(r#"{"schema":"other"}"#).is_err());
    }
}
