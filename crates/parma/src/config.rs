//! Solver configuration.

use crate::error::ParmaError;
use mea_parallel::Strategy;

/// Configuration of [`crate::ParmaSolver`].
#[derive(Clone, Copy, Debug)]
pub struct ParmaConfig {
    /// Applied end-to-end voltage `U_ij` (volts; 5 V in the paper's lab).
    pub voltage: f64,
    /// Damping factor α of the conductance fixed point, in (0, 1].
    pub damping: f64,
    /// Convergence target on the relative impedance mismatch
    /// `maxᵢⱼ |Z_model − Z_meas| / Z_meas`.
    pub tol: f64,
    /// Outer-iteration budget.
    pub max_iter: usize,
    /// Execution strategy for the per-pair updates.
    pub strategy: Strategy,
    /// Smallest admissible resistance (kΩ); updates are clamped here to
    /// keep iterates physical.
    pub min_resistance: f64,
    /// Whether the convergence-failure recovery ladder is armed. On by
    /// default; turning it off gives the plain damped sweep (useful for
    /// A/B-ing an intervention and for the paper's original behavior).
    pub recovery: bool,
}

impl Default for ParmaConfig {
    fn default() -> Self {
        ParmaConfig {
            voltage: 5.0,
            damping: 1.0,
            tol: 1e-10,
            max_iter: 500,
            strategy: Strategy::SingleThread,
            min_resistance: 1e-6,
            recovery: true,
        }
    }
}

impl ParmaConfig {
    /// Same configuration under a different execution strategy.
    pub fn with_strategy(self, strategy: Strategy) -> Self {
        ParmaConfig { strategy, ..self }
    }

    /// Checks that every value is in range; the solver calls this before
    /// the first sweep, so a bad configuration surfaces as a recoverable
    /// [`ParmaError::InvalidConfig`] instead of a panic.
    pub fn validate(&self) -> Result<(), ParmaError> {
        let fail = |msg: String| Err(ParmaError::InvalidConfig(msg));
        if !(self.voltage > 0.0 && self.voltage.is_finite()) {
            return fail(format!(
                "voltage must be positive and finite, got {}",
                self.voltage
            ));
        }
        if !(self.damping > 0.0 && self.damping <= 1.0) {
            return fail(format!("damping must be in (0, 1], got {}", self.damping));
        }
        if !(self.tol > 0.0 && self.tol.is_finite()) {
            return fail(format!(
                "tolerance must be positive and finite, got {}",
                self.tol
            ));
        }
        if self.max_iter == 0 {
            return fail("need at least one iteration".into());
        }
        if !(self.min_resistance > 0.0 && self.min_resistance.is_finite()) {
            return fail(format!(
                "minimum resistance must be positive and finite, got {}",
                self.min_resistance
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ParmaConfig::default().validate().unwrap();
    }

    #[test]
    fn with_strategy_replaces_only_strategy() {
        let c = ParmaConfig::default().with_strategy(Strategy::FineGrained { threads: 4 });
        assert_eq!(c.strategy, Strategy::FineGrained { threads: 4 });
        assert_eq!(c.voltage, 5.0);
    }

    #[test]
    fn bad_values_are_reported_not_panicked() {
        for (cfg, word) in [
            (
                ParmaConfig {
                    damping: 1.5,
                    ..Default::default()
                },
                "damping",
            ),
            (
                ParmaConfig {
                    damping: 0.0,
                    ..Default::default()
                },
                "damping",
            ),
            (
                ParmaConfig {
                    voltage: 0.0,
                    ..Default::default()
                },
                "voltage",
            ),
            (
                ParmaConfig {
                    voltage: f64::NAN,
                    ..Default::default()
                },
                "voltage",
            ),
            (
                ParmaConfig {
                    tol: 0.0,
                    ..Default::default()
                },
                "tolerance",
            ),
            (
                ParmaConfig {
                    tol: f64::INFINITY,
                    ..Default::default()
                },
                "tolerance",
            ),
            (
                ParmaConfig {
                    max_iter: 0,
                    ..Default::default()
                },
                "iteration",
            ),
            (
                ParmaConfig {
                    min_resistance: -1.0,
                    ..Default::default()
                },
                "resistance",
            ),
            (
                ParmaConfig {
                    min_resistance: f64::INFINITY,
                    ..Default::default()
                },
                "resistance",
            ),
        ] {
            let err = cfg.validate().unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, crate::ParmaError::InvalidConfig(_)) && msg.contains(word),
                "expected InvalidConfig mentioning {word:?}, got: {msg}"
            );
        }
    }
}
