//! Input generation and the output check: every session the product
//! decides ok must match, bit for bit, a reference `Pipeline::run` of the
//! same in-memory dataset.

use crate::parse::TimePoint;
use mea_model::{AnomalyConfig, MeaGrid, WetLabDataset};
use parma::prelude::*;
use parma_cli::journal::{fnv1a64, fnv1a64_bytes};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Solver tolerance, detection factor and retry budget: the product's
/// defaults, which every workload runs at.
pub const TOL: f64 = 1e-10;
pub const DETECT: f64 = 1.5;
pub const MAX_RETRIES: usize = 2;

/// Largest relative error against the generator's ground truth a
/// reference solve may show. Converged n = 8–40 sessions measure at most
/// 1.5e-8 today; a solver change that still converges but lands on a
/// worse fixed point fails the run.
pub const GROUND_TRUTH_MAX: f64 = 1e-7;

/// A synthetic 0/6/12/24 h session on an n×n array.
pub fn session(n: usize, seed: u64) -> WetLabDataset {
    WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), seed)
        .expect("the generator accepts every square geometry the workloads use")
}

/// FNV-1a 64 of an input's bytes, for the provenance record.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a64_bytes(bytes)
}

/// Folds per-input fingerprints (in input order) into one digest.
pub fn digest(fingerprints: &[u64]) -> u64 {
    let bytes: Vec<u8> = fingerprints.iter().flat_map(|f| f.to_le_bytes()).collect();
    fnv1a64_bytes(&bytes)
}

/// Harness-timed ingest: milliseconds `WetLabDataset::from_bytes` takes
/// to parse and validate one input exactly as the product receives it.
pub fn parse_ms(bytes: &[u8]) -> Result<f64, String> {
    let t = Instant::now();
    let ds = WetLabDataset::from_bytes(std::hint::black_box(bytes));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(ds)
        .map(|_| ms)
        .map_err(|e| e.to_string())
}

/// The reference outcome of one session.
#[derive(Clone, Debug)]
pub struct Reference {
    pub time_points: Vec<TimePoint>,
    /// Attempts the supervisor needs: 1 + the escalation level that
    /// converged.
    pub attempts: usize,
    /// Worst ground-truth error over the time points.
    pub ground_truth_error: f64,
}

fn pin(tp: &TimePointResult) -> TimePoint {
    TimePoint {
        hours: u64::from(tp.hours),
        iterations: tp.solution.iterations as u64,
        residual_bits: tp.solution.residual.to_bits(),
        resistors_fnv1a: fnv1a64(tp.solution.resistors.as_slice()),
    }
}

/// Runs `Pipeline::run` up the supervisor's escalation ladder (the
/// configurations its retries use) and returns the first attempt that
/// converges — the bits every entry point must reproduce.
pub fn reference(ds: &WetLabDataset) -> Result<Reference, String> {
    let base = ParmaConfig {
        tol: TOL,
        ..Default::default()
    };
    let mut last = String::new();
    for level in 0..=MAX_RETRIES {
        let config = parma::supervisor::escalated(&base, level);
        let pipeline = Pipeline::new(config, DETECT).map_err(|e| e.to_string())?;
        match pipeline.run(ds) {
            Ok(tps) => {
                let mut worst = 0.0f64;
                for tp in &tps {
                    let err = tp
                        .ground_truth_error
                        .ok_or("reference dataset carries no ground truth")?;
                    worst = worst.max(err);
                }
                return Ok(Reference {
                    time_points: tps.iter().map(pin).collect(),
                    attempts: level + 1,
                    ground_truth_error: worst,
                });
            }
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("no reference attempt converged: {last}"))
}

/// References for many sessions on two threads (the box's core count).
pub fn references(sessions: &[&WetLabDataset]) -> Vec<Result<Reference, String>> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Result<Reference, String>>>> =
        Mutex::new((0..sessions.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(ds) = sessions.get(i) else { break };
                let r = reference(ds);
                out.lock().expect("reference results lock")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("reference results lock")
        .into_iter()
        .map(|r| r.expect("every session gets a reference"))
        .collect()
}

/// Checks a product result against its reference: same time points, same
/// iteration counts, same residual and resistor-map bits, and a reference
/// that stays within [`GROUND_TRUTH_MAX`] of the truth.
pub fn check(name: &str, got: &[TimePoint], want: &Reference) -> Result<(), String> {
    if want.ground_truth_error > GROUND_TRUTH_MAX {
        return Err(format!(
            "{name}: reference ground-truth error {:.3e} exceeds {GROUND_TRUTH_MAX:e}",
            want.ground_truth_error
        ));
    }
    if got.len() != want.time_points.len() {
        return Err(format!(
            "{name}: {} time points, reference has {}",
            got.len(),
            want.time_points.len()
        ));
    }
    for (g, w) in got.iter().zip(&want.time_points) {
        if g != w {
            return Err(format!(
                "{name}: hour {} differs from the reference: got {g:?}, want {w:?}",
                w.hours
            ));
        }
    }
    Ok(())
}

/// A warm-started result legitimately differs in bits; it must still
/// report every time point converged to the tolerance.
pub fn check_warm(name: &str, got: &[TimePoint], hours: usize) -> Result<(), String> {
    if got.len() != hours {
        return Err(format!(
            "{name}: {} time points, expected {hours}",
            got.len()
        ));
    }
    for tp in got {
        let r = f64::from_bits(tp.residual_bits);
        if r.is_nan() || r > TOL {
            return Err(format!(
                "{name}: hour {} residual {r:e} above tol {TOL:e}",
                tp.hours
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_itself_and_flags_a_flipped_bit() {
        let ds = session(4, 5);
        let r = reference(&ds).unwrap();
        assert_eq!(r.attempts, 1);
        assert_eq!(r.time_points.len(), ds.measurements.len());
        assert!(check("s", &r.time_points, &r).is_ok());
        let mut bad = r.time_points.clone();
        bad[1].resistors_fnv1a ^= 1;
        assert!(check("s", &bad, &r).is_err());
        assert!(check("s", &r.time_points[..1], &r).is_err());
        assert!(check_warm("s", &r.time_points, ds.measurements.len()).is_ok());
        bad[0].residual_bits = 1e-3f64.to_bits();
        assert!(check_warm("s", &bad, ds.measurements.len()).is_err());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let text = |seed| {
            let mut v = Vec::new();
            session(4, seed).write_text(&mut v).unwrap();
            v
        };
        assert_eq!(fingerprint(&text(9)), fingerprint(&text(9)));
        assert_ne!(fingerprint(&text(9)), fingerprint(&text(10)));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
    }
}
