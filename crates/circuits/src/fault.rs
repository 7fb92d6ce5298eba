//! Deterministic fault injection for chaos-testing the estimation
//! pipeline.
//!
//! [`FaultInjector`] wraps any [`Testbench`] and corrupts its Monte Carlo
//! draws at configurable rates: outright simulation failures, NaN'd
//! performance values (a failed measurement that still "returned"), and
//! gross outliers (a mis-probed die). The fault decisions are drawn from
//! the **same RNG** the wrapped bench consumes — under
//! [`crate::monte_carlo::run_monte_carlo_seeded`] that is the per-sample
//! private stream derived via `derive_seed`, so an injected fault mix is
//! bit-identical for every thread count, exactly like clean data.
//!
//! The injector exists to *test* the robustness layer
//! (`bmf_core::pipeline::RobustPipeline` and the data-quality guard), not
//! to model real silicon; rates default to zero.

use crate::monte_carlo::{Stage, Testbench};
use crate::{CircuitError, Result};
use bmf_linalg::Vector;
use rand::Rng;

/// Outlier severity: a corrupted metric is shifted by
/// `±OUTLIER_MAGNITUDE · (1 + |value|)`, so it is gross at any metric
/// scale.
const OUTLIER_MAGNITUDE: f64 = 50.0;

/// Fault rates for a [`FaultInjector`]; each defaults to zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability that a draw fails outright with
    /// [`CircuitError::InjectedFault`] (exercises the retry path).
    pub sim_failure_rate: f64,
    /// Probability that one metric of an otherwise-successful draw is
    /// replaced by NaN (exercises the data-quality guard).
    pub nan_rate: f64,
    /// Probability that one metric of an otherwise-successful draw is
    /// perturbed into a gross outlier (exercises MAD flagging).
    pub outlier_rate: f64,
}

impl FaultConfig {
    /// A config injecting only simulation failures at `rate`.
    pub fn failures(rate: f64) -> Self {
        FaultConfig {
            sim_failure_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// Validates rates (each in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let rates = [
            ("fault sim_failure_rate", self.sim_failure_rate),
            ("fault nan_rate", self.nan_rate),
            ("fault outlier_rate", self.outlier_rate),
        ];
        for (what, value) in rates {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(CircuitError::InvalidValue {
                    what,
                    value,
                    constraint: "0 <= rate <= 1",
                });
            }
        }
        Ok(())
    }

    /// `true` when every rate is zero (the injector is a pass-through).
    pub fn is_quiet(&self) -> bool {
        self.sim_failure_rate == 0.0 && self.nan_rate == 0.0 && self.outlier_rate == 0.0
    }
}

/// Checks the simulation-failure rate a study runs at, as `bmf generate`
/// and a sharded study ([`crate::shard::StudyConfig::validate`]) both
/// take it: finite and in `[0, 1)`. At a rate of 1 every draw fails, so
/// the study could only burn its retry budget; it is refused up front.
/// ([`FaultConfig::validate`] keeps `[0, 1]` for the injector itself,
/// where a certain fault is a useful test.)
///
/// # Errors
///
/// Returns [`CircuitError::InvalidValue`] naming `what`.
pub fn check_study_fault_rate(what: &'static str, rate: f64) -> Result<()> {
    if (0.0..1.0).contains(&rate) {
        Ok(())
    } else {
        Err(CircuitError::InvalidValue {
            what,
            value: rate,
            constraint: "0 <= rate < 1",
        })
    }
}

/// A [`Testbench`] wrapper that deterministically injects faults into the
/// wrapped bench's draws. Nominal simulations are never faulted — the
/// nominal corner is a deterministic design property, and the estimation
/// pipeline treats its failure as a bug rather than a statistical event.
///
/// # Example
///
/// ```
/// use bmf_circuits::fault::{FaultConfig, FaultInjector};
/// use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
/// use bmf_circuits::opamp::OpAmpTestbench;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// let tb = FaultInjector::new(
///     OpAmpTestbench::default_45nm(),
///     FaultConfig { sim_failure_rate: 0.1, nan_rate: 0.02, ..FaultConfig::default() },
/// )?;
/// // Failures are retried away; NaN corruption survives into the matrix
/// // for the downstream guard to find. Bit-identical at any thread count.
/// let data = run_monte_carlo_seeded(&tb, Stage::PostLayout, 20, 7, 2)?;
/// assert_eq!(data.sample_count(), 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector<T: Testbench> {
    inner: T,
    config: FaultConfig,
}

impl<T: Testbench> FaultInjector<T> {
    /// Wraps `inner` with the given fault configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for an invalid config.
    pub fn new(inner: T, config: FaultConfig) -> Result<Self> {
        config.validate()?;
        Ok(FaultInjector { inner, config })
    }

    /// The wrapped testbench.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The active fault configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }
}

impl<T: Testbench> Testbench for FaultInjector<T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn metric_names(&self) -> Vec<&'static str> {
        self.inner.metric_names()
    }

    fn nominal(&self, stage: Stage) -> Result<Vector> {
        self.inner.nominal(stage)
    }

    fn sample(&self, stage: Stage, rng: &mut dyn rand::RngCore) -> Result<Vector> {
        // All fault decisions come from the caller's RNG — the per-sample
        // private stream under the seeded runner — so injected faults are
        // as thread-count invariant as clean draws. The failure roll
        // happens *before* the inner draw: a failed simulation never
        // consumed its process-variation sample, and each retry re-rolls.
        let u_fail: f64 = rng.gen();
        if u_fail < self.config.sim_failure_rate {
            bmf_obs::counters::FAULT_INJECTIONS.incr();
            bmf_obs::event!(Debug, "fault.injected", "fault": "sim_failure");
            return Err(CircuitError::InjectedFault {
                kind: "simulation failure",
            });
        }
        let mut v = self.inner.sample(stage, rng)?;
        let d = v.len();
        let u_nan: f64 = rng.gen();
        let nan_col = rng.gen_range(0..d.max(1));
        let u_out: f64 = rng.gen();
        let out_col = rng.gen_range(0..d.max(1));
        let out_sign: bool = rng.gen();
        if u_out < self.config.outlier_rate && d > 0 {
            bmf_obs::counters::FAULT_INJECTIONS.incr();
            bmf_obs::event!(Debug, "fault.injected", "fault": "outlier", "col": out_col);
            let shift = OUTLIER_MAGNITUDE * (1.0 + v[out_col].abs());
            v[out_col] += if out_sign { shift } else { -shift };
        }
        // NaN after outlier so a doubly-unlucky draw ends up NaN — the
        // harder case for the downstream guard.
        if u_nan < self.config.nan_rate && d > 0 {
            bmf_obs::counters::FAULT_INJECTIONS.incr();
            bmf_obs::event!(Debug, "fault.injected", "fault": "nan", "col": nan_col);
            v[nan_col] = f64::NAN;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_monte_carlo_seeded, run_monte_carlo_seeded_with_policy};
    use crate::monte_carlo::{RetryPolicy, StageData};
    use crate::opamp::OpAmpTestbench;

    fn bits(data: &StageData) -> Vec<u64> {
        let (n, d) = data.samples.shape();
        let mut out = Vec::with_capacity(n * d);
        for i in 0..n {
            for j in 0..d {
                out.push(data.samples[(i, j)].to_bits());
            }
        }
        out
    }

    #[test]
    fn config_validation_rejects_bad_rates() {
        assert!(FaultConfig::default().validate().is_ok());
        assert!(FaultConfig::default().is_quiet());
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(FaultConfig::failures(bad).validate().is_err(), "{bad}");
        }
        assert!(
            FaultInjector::new(OpAmpTestbench::default_45nm(), FaultConfig::failures(2.0)).is_err()
        );
    }

    #[test]
    fn quiet_injector_delegates_shape_and_nominal() {
        let inner = OpAmpTestbench::default_45nm();
        let tb = FaultInjector::new(inner.clone(), FaultConfig::default()).unwrap();
        assert_eq!(tb.dim(), 5);
        assert_eq!(tb.metric_names(), Testbench::metric_names(&inner));
        assert_eq!(
            Testbench::nominal(&tb, Stage::Schematic).unwrap(),
            Testbench::nominal(&inner, Stage::Schematic).unwrap()
        );
        assert!(tb.config().is_quiet());
        assert_eq!(tb.inner().dim(), 5);
    }

    #[test]
    fn certain_failure_exhausts_retries_with_injected_fault() {
        let tb =
            FaultInjector::new(OpAmpTestbench::default_45nm(), FaultConfig::failures(1.0)).unwrap();
        let policy = RetryPolicy { max_attempts: 3 };
        let err = run_monte_carlo_seeded_with_policy(&tb, Stage::Schematic, 4, 1, 1, &policy)
            .unwrap_err();
        assert!(
            matches!(err, CircuitError::InjectedFault { .. }),
            "expected injected fault, got {err}"
        );
        assert!(err.to_string().contains("injected"));
    }

    #[test]
    fn nan_corruption_reaches_the_sample_matrix() {
        let tb = FaultInjector::new(
            OpAmpTestbench::default_45nm(),
            FaultConfig {
                nan_rate: 1.0,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let data = run_monte_carlo_seeded(&tb, Stage::PostLayout, 10, 3, 1).unwrap();
        for i in 0..10 {
            let row_has_nan = (0..5).any(|j| data.samples[(i, j)].is_nan());
            assert!(row_has_nan, "row {i} escaped NaN injection");
        }
    }

    #[test]
    fn outliers_are_gross_at_any_metric_scale() {
        let clean_tb = OpAmpTestbench::default_45nm();
        let clean = run_monte_carlo_seeded(&clean_tb, Stage::Schematic, 10, 5, 1).unwrap();
        let tb = FaultInjector::new(
            clean_tb,
            FaultConfig {
                outlier_rate: 1.0,
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let dirty = run_monte_carlo_seeded(&tb, Stage::Schematic, 10, 5, 1).unwrap();
        // Every row has exactly one corrupted metric, displaced by at
        // least `OUTLIER_MAGNITUDE` (the shift is magnitude·(1+|v|)).
        let clean_norm: f64 = (0..10)
            .map(|i| (0..5).map(|j| clean.samples[(i, j)].abs()).sum::<f64>())
            .sum();
        let dirty_norm: f64 = (0..10)
            .map(|i| (0..5).map(|j| dirty.samples[(i, j)].abs()).sum::<f64>())
            .sum();
        assert!(
            dirty_norm > clean_norm + 10.0 * OUTLIER_MAGNITUDE,
            "outliers not gross: clean {clean_norm:.3}, dirty {dirty_norm:.3}"
        );
    }

    #[test]
    fn fault_mix_is_bit_identical_across_thread_counts() {
        let tb = FaultInjector::new(
            OpAmpTestbench::default_45nm(),
            FaultConfig {
                sim_failure_rate: 0.1,
                nan_rate: 0.05,
                outlier_rate: 0.05,
            },
        )
        .unwrap();
        let reference = run_monte_carlo_seeded(&tb, Stage::PostLayout, 30, 99, 1).unwrap();
        for threads in [2, 7] {
            let par = run_monte_carlo_seeded(&tb, Stage::PostLayout, 30, 99, threads).unwrap();
            // NaN-safe comparison: equal bit patterns cell by cell.
            assert_eq!(bits(&par), bits(&reference), "threads = {threads}");
        }
    }
}
