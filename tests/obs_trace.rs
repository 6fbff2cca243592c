//! End-to-end observability: a full `Pipeline::run` under tracing must
//! emit a snapshot that covers every stage, and its JSON form must be
//! well-formed.
//!
//! The obs registry is process-global, so everything lives in one test
//! function — this file is its own test binary, isolated from the rest of
//! the suite.

use parma::prelude::*;

/// A minimal recursive-descent JSON well-formedness checker (RFC 8259
/// values; enough to validate the trace without external crates). Returns
/// the remainder after one value, or `None` on malformed input.
fn skip_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

fn parse_value(s: &str) -> Option<&str> {
    let s = skip_ws(s);
    let mut chars = s.chars();
    match chars.next()? {
        '{' => parse_members(&s[1..], parse_pair, '}'),
        '[' => parse_members(&s[1..], parse_value, ']'),
        '"' => parse_string(s),
        't' => s.strip_prefix("true"),
        'f' => s.strip_prefix("false"),
        'n' => s.strip_prefix("null"),
        '-' | '0'..='9' => {
            let rest = s.trim_start_matches([
                '-', '+', '.', 'e', 'E', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9',
            ]);
            (rest.len() < s.len()).then_some(rest)
        }
        _ => None,
    }
}

fn parse_string(s: &str) -> Option<&str> {
    let mut rest = s.strip_prefix('"')?;
    loop {
        let esc = rest.find('\\');
        let end = rest.find('"')?;
        match esc {
            Some(e) if e < end => rest = &rest[e + 2..],
            _ => return Some(&rest[end + 1..]),
        }
    }
}

fn parse_pair(s: &str) -> Option<&str> {
    let s = parse_string(skip_ws(s))?;
    let s = skip_ws(s).strip_prefix(':')?;
    parse_value(s)
}

fn parse_members<'a>(
    mut s: &'a str,
    item: fn(&'a str) -> Option<&'a str>,
    close: char,
) -> Option<&'a str> {
    s = skip_ws(s);
    if let Some(rest) = s.strip_prefix(close) {
        return Some(rest);
    }
    loop {
        s = skip_ws(item(s)?);
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s.strip_prefix(close);
        }
    }
}

fn assert_valid_json(text: &str) {
    let rest = parse_value(text).unwrap_or_else(|| panic!("malformed JSON: {text}"));
    assert!(
        skip_ws(rest).is_empty(),
        "trailing garbage after JSON value: {rest:?}"
    );
}

#[test]
fn pipeline_run_emits_a_complete_trace() {
    let grid = MeaGrid::square(5);
    let session = WetLabDataset::generate(grid, &AnomalyConfig::default(), 23).unwrap();
    let hours = session.measurements.len() as u64;

    mea_obs::reset();
    mea_obs::set_enabled(true);
    let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
    let results = pipeline.run(&session).unwrap();
    mea_obs::set_enabled(false);
    let snap = mea_obs::snapshot();

    assert_eq!(results.len(), hours as usize);

    // Every stage of the session is a stage histogram with its wall time:
    // one solve and one detection per time point, and one refactor and
    // one sweep per iteration plus the converging one of each solve.
    let stage = |name: &str| {
        snap.hist(name)
            .unwrap_or_else(|| panic!("no {name} stage"))
            .clone()
    };
    let iters: u64 = results.iter().map(|r| r.solution.iterations as u64).sum();
    let solve = stage("parma.solve_ms");
    assert_eq!(solve.count, hours);
    assert_eq!(stage("parma.detect_ms").count, hours);
    let sweep = stage("parma.sweep_ms");
    let refactor = stage("model.forward.refactor_ms");
    assert_eq!(sweep.count, iters + hours);
    assert_eq!(refactor.count, iters + hours);
    assert!(
        solve.sum >= sweep.sum + refactor.sum,
        "nested stages cannot exceed their parent"
    );
    assert!(solve.max <= solve.sum);

    // Solver counters; the residual curves live on the solutions.
    assert_eq!(snap.counter("parma.solver.solves"), Some(hours));
    assert_eq!(snap.counter("parma.solver.iterations"), Some(iters));
    for r in &results {
        assert_eq!(r.solution.history.len(), r.solution.iterations + 1);
        assert!(r.solution.history.iter().all(|v| v.is_finite()));
    }

    // The JSON rendering is one well-formed value carrying all of it.
    let json = snap.to_json();
    assert_valid_json(&json);
    for marker in [
        "\"parma/solve\"",
        "\"parma/detect\"",
        "\"model/forward/refactor\"",
        "\"parma.solver.solves\"",
        "\"total_ms\"",
    ] {
        assert!(json.contains(marker), "trace JSON is missing {marker}");
    }
    assert!(!json.contains("\"series\""), "{json}");

    // Once disabled, nothing further is recorded.
    {
        static LATE: mea_obs::hist::Hist = mea_obs::hist::Hist::new("late_ms");
        let _late = LATE.time();
        mea_obs::counter_add("late.counter", 1);
    }
    let after = mea_obs::snapshot();
    assert!(after.hist("late_ms").is_none());
    assert_eq!(after.counter("late.counter"), None);
}
