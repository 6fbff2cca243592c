//! Prometheus text exposition format 0.0.4 rendering.
//!
//! Renders a [`crate::Snapshot`] into the plain-text format Prometheus
//! (and every compatible scraper) understands: `# TYPE` headers, one
//! sample per line, histograms as cumulative `_bucket{le="…"}` series
//! plus `_sum`/`_count`, and pre-computed p50/p90/p99 convenience gauges
//! so a bare `curl` is enough to read latency quantiles without a PromQL
//! engine.
//!
//! Metric names are sanitized (dots → underscores) and counters get the
//! conventional `_total` suffix. A timed stage is an ordinary histogram
//! family (`parma_sweep_ms`).

use crate::hist::{bucket_upper, HistSnapshot};
use crate::Snapshot;
use std::fmt::Write;

/// Content type to serve alongside the rendered text.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Maps an instrument name onto the Prometheus name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

/// Renders the full snapshot as Prometheus text format 0.0.4.
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();

    for (name, value) in &snap.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {value}");
    }

    for (name, value) in &snap.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(*value));
    }

    for (name, h) in &snap.hists {
        histogram_block(&mut out, &sanitize(name), h);
    }

    out
}

/// Renders one histogram family: cumulative sparse buckets, `_sum`,
/// `_count`, and p50/p90/p99/min/max convenience gauges.
fn histogram_block(out: &mut String, name: &str, h: &HistSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for &(idx, n) in &h.buckets {
        cum += n;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cum}",
            fmt_f64(bucket_upper(idx))
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum));
    let _ = writeln!(out, "{name}_count {}", h.count);
    for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
        let _ = writeln!(out, "# TYPE {name}_{tag} gauge");
        let _ = writeln!(out, "{name}_{tag} {}", fmt_f64(h.quantile(q)));
    }
    let _ = writeln!(out, "# TYPE {name}_min gauge");
    let _ = writeln!(out, "{name}_min {}", fmt_f64(h.min));
    let _ = writeln!(out, "# TYPE {name}_max gauge");
    let _ = writeln!(out, "{name}_max {}", fmt_f64(h.max));
}

/// Structural validity check used by tests and the CI smoke job helper:
/// every non-comment line is `name[{labels}] value`, every `# TYPE` line
/// is well-formed, and histogram bucket counts are cumulative.
pub fn looks_like_valid_exposition(text: &str) -> bool {
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(_name), Some(kind)) = (parts.next(), parts.next()) else {
                return false;
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return false;
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name_part, value_part)) = line.rsplit_once(' ') else {
            return false;
        };
        let value_ok =
            value_part.parse::<f64>().is_ok() || matches!(value_part, "+Inf" | "-Inf" | "NaN");
        if !value_ok {
            return false;
        }
        let bare = name_part.split('{').next().unwrap_or("");
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return false;
        }
        if let Some(family) = bare.strip_suffix("_bucket") {
            let count: u64 = match value_part.parse() {
                Ok(c) => c,
                Err(_) => return false,
            };
            if let Some((prev_family, prev_count)) = &last_bucket {
                if prev_family == family && count < *prev_count {
                    return false;
                }
            }
            last_bucket = Some((family.to_string(), count));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("parma.solver.solves"), "parma_solver_solves");
        assert_eq!(sanitize("9lives"), "_lives");
        assert_eq!(sanitize("ok_name:x0"), "ok_name:x0");
    }

    #[test]
    fn exposition_is_deterministic_for_a_fixed_snapshot() {
        let mut snap = Snapshot::default();
        snap.counters.push(("parma.solver.solves".to_string(), 42));
        snap.gauges.push(("parallel.pool.threads".to_string(), 4.0));
        let h = hist::HistSnapshot::from_values(&[1.0, 1.0, 2.0, 4.0]);
        snap.hists.push(("parma.solve_ms".to_string(), h));

        let text = prometheus(&snap);
        let expected = "\
# TYPE parma_solver_solves_total counter
parma_solver_solves_total 42
# TYPE parallel_pool_threads gauge
parallel_pool_threads 4.0
# TYPE parma_solve_ms histogram
parma_solve_ms_bucket{le=\"1.25\"} 2
parma_solve_ms_bucket{le=\"2.5\"} 3
parma_solve_ms_bucket{le=\"5.0\"} 4
parma_solve_ms_bucket{le=\"+Inf\"} 4
parma_solve_ms_sum 8.0
parma_solve_ms_count 4
# TYPE parma_solve_ms_p50 gauge
parma_solve_ms_p50 1.125
# TYPE parma_solve_ms_p90 gauge
parma_solve_ms_p90 4.0
# TYPE parma_solve_ms_p99 gauge
parma_solve_ms_p99 4.0
# TYPE parma_solve_ms_min gauge
parma_solve_ms_min 1.0
# TYPE parma_solve_ms_max gauge
parma_solve_ms_max 4.0
";
        assert_eq!(text, expected);
        assert!(looks_like_valid_exposition(&text));
    }

    #[test]
    fn validity_checker_rejects_garbage() {
        assert!(looks_like_valid_exposition(""));
        assert!(!looks_like_valid_exposition("no value here"));
        assert!(!looks_like_valid_exposition("name notanumber"));
        assert!(!looks_like_valid_exposition("# TYPE x summary\n"));
        assert!(!looks_like_valid_exposition(
            "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
        ));
    }
}
