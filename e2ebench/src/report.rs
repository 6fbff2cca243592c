//! Metric names, units and the printed report.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), as BENCHMARK.json lists them:
/// the ones every workload has and that hold steady from run to run on a
/// shared 2-core host.
pub const END_TO_END: [(&str, &str); 3] = [
    ("goodput_per_s", "sessions/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end figures printed with the gated ones but not gated: failures
/// are 0 on two workloads, and request latency swings with the host's
/// fsync and wake-up latency by more than any bound could absorb.
pub const END_TO_END_REPORTED: [(&str, &str); 4] = [
    ("latency_light_p50_ms", "ms"),
    ("latency_heavy_p50_ms", "ms"),
    ("latency_heavy_p99_ms", "ms"),
    ("failed_frac", "fraction"),
];

/// Per-layer metrics (traced runs), as BENCHMARK.json lists them. A
/// workload that has no such layer reports 0 with 0 samples. The latency
/// figures come from the run's untraced pass.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("latency_light_p50_ms", "ms"),
    ("latency_heavy_p50_ms", "ms"),
    ("latency_heavy_p99_ms", "ms"),
    ("failed_frac", "fraction"),
    ("ingest.parse_ms.p50", "ms"),
    ("queue.wait_ms.p50", "ms"),
    ("queue.wait_ms.p99", "ms"),
    ("queue.depth_max", "count"),
    ("plan.hit_frac", "fraction"),
    ("plan.misses", "count"),
    ("solve.iters_total", "count"),
    ("solve.useful_iter_frac", "fraction"),
    ("solve.iters_per_tp.n8", "iterations"),
    ("solve.iters_per_tp.n16", "iterations"),
    ("solve.iters_per_tp.n32", "iterations"),
    ("solve.iters_per_tp.n64", "iterations"),
    ("solve.iters_per_tp.n100", "iterations"),
    ("solve.recoveries", "count"),
    ("refactor.ms_per_iter", "ms"),
    ("sweep.ms_per_iter", "ms"),
    ("detect.ms", "ms"),
    ("supervise.attempts_per_session", "count"),
    ("supervise.attempts_total", "count"),
    ("batch.busy_frac", "fraction"),
    ("service.job_ms.p50", "ms"),
    ("service.job_ms.p99", "ms"),
    ("service.warm_iter_ratio", "ratio"),
    ("http.rtt_ms.post.p50", "ms"),
    ("http.rtt_ms.post.p99", "ms"),
    ("http.rtt_ms.get.p50", "ms"),
    ("http.rtt_ms.get.p99", "ms"),
    ("http.requests_per_job", "count"),
    ("journal.record_ms.p50", "ms"),
    ("journal.record_ms.p99", "ms"),
    ("wire.shard_overhead_ms.p50", "ms"),
    ("wire.shard_overhead_ms.p99", "ms"),
    ("wire.worker_skew", "ratio"),
    ("wire.remote_frac", "fraction"),
    ("wire.shards", "count"),
    ("gen.late_ms_max", "ms"),
    ("trace_overhead_frac", "fraction"),
    ("unattributed_frac", "fraction"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Observations behind the value (runs, requests, sessions…).
    pub samples: usize,
    /// How it was obtained, when that needs saying (e.g. "p95: too few
    /// samples for p99", "estimated").
    pub note: String,
}

/// The values one run measured, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Value>);

impl Metrics {
    /// Records `name`; the name must be one of the listed metrics.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.note(name, value, samples, "");
    }

    /// Records `name` with an explanatory note.
    pub fn note(&mut self, name: &'static str, value: f64, samples: usize, note: &str) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(
            name,
            Value {
                value,
                samples,
                note: note.to_string(),
            },
        );
    }

    /// Records `p50` and `p99` of `samples`; a p99 without ten samples
    /// beyond it falls back to the highest percentile that has them, and
    /// the note says which.
    pub fn summary(&mut self, p50: &'static str, p99: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.set(p50, s.p50, s.count);
            self.tail(p99, samples);
        }
    }

    /// Records the p99 of `samples` as [`Metrics::summary`] does.
    pub fn tail(&mut self, name: &'static str, samples: &[f64]) {
        if let Some((q, v)) = Summary::at_most(samples, 99.0) {
            let note = if q == 99.0 {
                String::new()
            } else {
                format!("p{q}: too few samples for p99")
            };
            self.note(name, v, samples.len(), &note);
        }
    }

    fn get(&self, name: &str) -> Value {
        self.0.get(name).cloned().unwrap_or(Value {
            value: 0.0,
            samples: 0,
            note: "not measured on this workload".into(),
        })
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Human-readable lines: every metric of `list` with unit, sample count
/// and note.
pub fn lines(title: &str, list: &[(&'static str, &'static str)], m: &Metrics) -> String {
    let mut out = format!("{title}\n");
    for (name, unit) in list {
        let v = m.get(name);
        let note = if v.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", v.note)
        };
        out.push_str(&format!(
            "  {name:<32} {:>14.6} {unit:<10} n={}{note}\n",
            v.value, v.samples
        ));
    }
    out
}

/// The one-line JSON result that ends every run.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    list: &[(&'static str, &'static str)],
    m: &Metrics,
) -> String {
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(m.get(name).value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_once_as_json() {
        let mut m = Metrics::default();
        m.set("goodput_per_s", 1.25, 6);
        m.set("setup_s", f64::NAN, 3);
        let line = result_line(true, 10, 0, &END_TO_END, &m);
        let v = mea_obs::json::parse(&line).unwrap();
        let metrics = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let got = metrics.get(name).unwrap();
            assert_eq!(got.get("unit").and_then(|u| u.as_str()), Some(unit));
            assert!(got.get("value").and_then(|x| x.as_f64()).is_some());
        }
        assert_eq!(
            metrics
                .get("goodput_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(10.0));
        let text = lines("t", &END_TO_END, &m);
        assert!(
            text.contains("n=6") && text.contains("not measured"),
            "{text}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = mea_obs::json::parse(&text).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(|x| x.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
