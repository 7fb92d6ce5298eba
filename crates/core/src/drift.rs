//! Streaming drift monitor over windowed late-stage batches.
//!
//! The BMF prior assumes the early- and late-stage populations share a
//! distribution up to the §4.1 shift/scale; when a process drifts (or
//! the populations decorrelate, as the multiple-population work warns),
//! that assumption silently decays. [`DriftMonitor`] watches for this:
//! late-stage samples stream in, every full window of [`WINDOW`] samples
//! is closed into a [`DriftWindow`] comparing the window's sample
//! moments against the early-stage reference — Gaussian KL divergence
//! `KL(N_window ‖ N_early)` plus the mean distance and the relative
//! Frobenius drift of the covariance — and each window is classified
//! by [`classify_drift`], the documented thresholds of
//! [`bmf_obs::health`].
//!
//! Monitoring is strictly passive: the monitor only *reads* sample
//! values, never touches an RNG stream, and its outputs feed telemetry
//! (the `drift.windows` / `drift.alerts` counters and the dashboard),
//! never an estimator. Estimates are bit-identical with a monitor
//! attached or not.

use crate::{BmfError, MomentEstimate, Result};
use bmf_linalg::{Cholesky, Matrix};
use bmf_obs::health::{
    classify_drift, DriftTimeline, DriftWindow, Severity, DRIFT_KL_CRITICAL, DRIFT_KL_WARN,
};
use bmf_stats::descriptive;

/// Samples per window. A window must exceed the data dimension `d`, or
/// its covariance is always singular; 32 keeps the finite-window KL bias
/// `(d + d(d+1)/2)/(2·WINDOW)` well below the warn threshold for the
/// dimensionalities in this repo.
pub const WINDOW: usize = 32;

/// Streaming monitor comparing windowed late-stage batches against a
/// fixed early-stage reference model. See the module docs.
#[derive(Debug)]
pub struct DriftMonitor {
    early: MomentEstimate,
    chol_early: Cholesky,
    ln_det_early: f64,
    early_frob: f64,
    /// Row-major buffer of the current (not yet closed) window.
    buffer: Vec<f64>,
    samples_seen: usize,
    timeline: DriftTimeline,
}

impl DriftMonitor {
    /// Creates a monitor against the early-stage reference `early`.
    ///
    /// # Errors
    ///
    /// [`BmfError::InvalidConfig`] when [`WINDOW`] does not exceed the
    /// dimension; propagates the Cholesky error when the reference
    /// covariance is not SPD.
    pub fn new(early: &MomentEstimate) -> Result<Self> {
        let d = early.dim();
        if WINDOW <= d {
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "drift window = {WINDOW} must exceed the dimension d = {d} \
                     (a smaller window has a singular sample covariance)"
                ),
            });
        }
        early.validate()?;
        let chol_early = Cholesky::new(&early.cov)?;
        let ln_det_early = chol_early.ln_det();
        let early_frob = early.cov.norm_frobenius();
        Ok(DriftMonitor {
            early: early.clone(),
            chol_early,
            ln_det_early,
            early_frob,
            buffer: Vec::with_capacity(WINDOW * d),
            samples_seen: 0,
            timeline: DriftTimeline::default(),
        })
    }

    /// Feeds one sample (length `d`).
    ///
    /// # Errors
    ///
    /// [`BmfError::InvalidSamples`] when the sample length differs from
    /// the reference dimension.
    pub fn push_sample(&mut self, row: &[f64]) -> Result<()> {
        let d = self.early.dim();
        if row.len() != d {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "drift sample has {} entries, reference dimension is {d}",
                    row.len()
                ),
            });
        }
        self.buffer.extend_from_slice(row);
        self.samples_seen += 1;
        if self.buffer.len() == WINDOW * d {
            self.close_window();
        }
        Ok(())
    }

    /// Feeds every row of `samples` in order.
    ///
    /// # Errors
    ///
    /// As [`DriftMonitor::push_sample`].
    pub fn push_batch(&mut self, samples: &Matrix) -> Result<()> {
        let d = self.early.dim();
        if samples.ncols() != d {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "drift batch has {} columns, reference dimension is {d}",
                    samples.ncols()
                ),
            });
        }
        for i in 0..samples.nrows() {
            let row: Vec<f64> = (0..d).map(|j| samples[(i, j)]).collect();
            self.push_sample(&row)?;
        }
        Ok(())
    }

    /// Closed windows and alerts so far. Samples still in the partial
    /// buffer are not represented (they close with the next full window).
    pub fn timeline(&self) -> &DriftTimeline {
        &self.timeline
    }

    /// Consumes the monitor, returning the timeline.
    pub fn into_timeline(self) -> DriftTimeline {
        self.timeline
    }

    fn close_window(&mut self) {
        let d = self.early.dim();
        let n = WINDOW;
        let index = self.timeline.windows.len();
        let start_sample = self.samples_seen - n;
        let window = Matrix::from_fn(n, d, |i, j| self.buffer[i * d + j]);
        self.buffer.clear();

        let (kl, mean_dist, cov_frob) = self.window_divergence(&window);
        let severity = classify_drift(kl);
        bmf_obs::counters::DRIFT_WINDOWS.incr();
        if severity >= Severity::Warn {
            bmf_obs::counters::DRIFT_ALERTS.incr();
            // Runtime-computed level (Warn vs Error) so the raw `emit`
            // entry point is used instead of the `event!` macro.
            let level = if severity == Severity::Critical {
                bmf_obs::Level::Error
            } else {
                bmf_obs::Level::Warn
            };
            if bmf_obs::event::stream_on(level) {
                let mut fields = String::new();
                bmf_obs::event::push_field(&mut fields, "window", &index);
                bmf_obs::event::push_field(&mut fields, "kl", &kl);
                bmf_obs::event::push_field(&mut fields, "mean_dist", &mean_dist);
                bmf_obs::event::push_field(&mut fields, "cov_frob", &cov_frob);
                bmf_obs::event::push_field(&mut fields, "severity", &severity.label());
                bmf_obs::event::emit(level, "drift.alert", fields);
            }
            self.timeline.alerts.push(format!(
                "window {index} (samples {start_sample}..{}): KL = {kl:.4} nats > {} threshold {} \
                 (mean dist {mean_dist:.4}, cov drift {cov_frob:.4})",
                start_sample + n,
                severity.label(),
                if severity == Severity::Critical {
                    DRIFT_KL_CRITICAL
                } else {
                    DRIFT_KL_WARN
                },
            ));
        }
        self.timeline.windows.push(DriftWindow {
            index,
            start_sample,
            n,
            kl,
            mean_dist,
            cov_frob,
            severity,
        });
        // Live view: a scraper polling /health mid-run sees the drift
        // state as of the last closed window, not just at exit. Gated so
        // the recording-off path stays a single relaxed load.
        if bmf_obs::is_enabled() {
            bmf_obs::serve::publish_drift(&self.timeline);
        }
    }

    /// `(KL, mean distance, relative Frobenius drift)` of one window
    /// against the early reference. A window whose sample covariance is
    /// not SPD reports `KL = +∞` (maximal drift signal) rather than an
    /// error: a degenerate window *is* an anomaly.
    fn window_divergence(&self, window: &Matrix) -> (f64, f64, f64) {
        let d = self.early.dim() as f64;
        let Ok(mu_w) = descriptive::mean_vector(window) else {
            return (f64::INFINITY, f64::NAN, f64::NAN);
        };
        let Ok(sigma_w) = descriptive::covariance_mle(window) else {
            return (f64::INFINITY, f64::NAN, f64::NAN);
        };

        let mut mean_dist_sq = 0.0;
        for j in 0..self.early.dim() {
            let delta = mu_w[j] - self.early.mean[j];
            mean_dist_sq += delta * delta;
        }
        let mean_dist = mean_dist_sq.sqrt();

        let mut diff = sigma_w.clone();
        diff -= &self.early.cov;
        let cov_frob = if self.early_frob > 0.0 {
            diff.norm_frobenius() / self.early_frob
        } else {
            f64::NAN
        };

        // KL(N_w ‖ N_E) = ½ [ tr(Σ_E⁻¹ Σ_w) + (μ_E−μ_w)ᵀ Σ_E⁻¹ (μ_E−μ_w)
        //                     − d + ln det Σ_E − ln det Σ_w ]
        let trace_term = match self.chol_early.solve_mat(&sigma_w).and_then(|m| m.trace()) {
            Ok(t) => t,
            Err(_) => return (f64::INFINITY, mean_dist, cov_frob),
        };
        let maha = match self.chol_early.mahalanobis_sq(&mu_w, &self.early.mean) {
            Ok(m) => m,
            Err(_) => return (f64::INFINITY, mean_dist, cov_frob),
        };
        let ln_det_w = match Cholesky::new(&sigma_w) {
            Ok(chol) => chol.ln_det(),
            Err(_) => return (f64::INFINITY, mean_dist, cov_frob),
        };
        let kl = 0.5 * (trace_term + maha - d + self.ln_det_early - ln_det_w);
        // Numerical round-off can nudge a zero-drift KL fractionally
        // negative; clamp so classification sees a proper divergence.
        (kl.max(0.0), mean_dist, cov_frob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::Vector;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serialises the tests that close windows: a window closed on another
    /// test thread while `drift_counters_track_windows_and_alerts` records
    /// would land in the process-wide `drift.windows` counter it reads.
    fn window_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn reference(d: usize) -> MomentEstimate {
        MomentEstimate {
            mean: Vector::zeros(d),
            cov: Matrix::from_fn(d, d, |i, j| if i == j { 1.0 } else { 0.2 }),
        }
    }

    fn gaussian_ish(d: usize, n: usize, seed: u64, offset: f64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, _| {
            // Sum of uniforms ≈ normal; exact shape is irrelevant, the
            // windows just need realistic spread around `offset`.
            let s: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum();
            offset + (s - 6.0) * 0.45
        })
    }

    #[test]
    fn window_must_exceed_the_dimension() {
        assert!(DriftMonitor::new(&reference(WINDOW)).is_err());
        assert!(DriftMonitor::new(&reference(WINDOW - 1)).is_ok());
    }

    #[test]
    fn stationary_stream_stays_ok_and_counts_windows() {
        let _g = window_lock();
        let d = 2;
        let early_samples = gaussian_ish(d, 2000, 11, 0.0);
        let early = MomentEstimate {
            mean: descriptive::mean_vector(&early_samples).unwrap(),
            cov: descriptive::covariance_mle(&early_samples).unwrap(),
        };
        let mut monitor = DriftMonitor::new(&early).unwrap();
        monitor
            .push_batch(&gaussian_ish(d, 3 * WINDOW + 5, 12, 0.0))
            .unwrap();
        let timeline = monitor.timeline();
        assert_eq!(timeline.windows.len(), 3); // 5 samples still buffered
        assert_eq!(timeline.overall(), Severity::Ok, "{timeline:?}");
        assert!(timeline.alerts.is_empty());
        for (i, w) in timeline.windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert_eq!(w.start_sample, i * WINDOW);
            assert_eq!(w.n, WINDOW);
            assert!(w.kl.is_finite() && w.kl >= 0.0);
        }
    }

    #[test]
    fn shifted_stream_raises_alerts() {
        let _g = window_lock();
        let d = 2;
        let early_samples = gaussian_ish(d, 2000, 11, 0.0);
        let early = MomentEstimate {
            mean: descriptive::mean_vector(&early_samples).unwrap(),
            cov: descriptive::covariance_mle(&early_samples).unwrap(),
        };
        let mut monitor = DriftMonitor::new(&early).unwrap();
        // One healthy window, then a hard mean shift.
        monitor
            .push_batch(&gaussian_ish(d, WINDOW, 12, 0.0))
            .unwrap();
        monitor
            .push_batch(&gaussian_ish(d, 2 * WINDOW, 13, 4.0))
            .unwrap();
        let timeline = monitor.timeline();
        assert_eq!(timeline.windows.len(), 3);
        assert_eq!(timeline.windows[0].severity, Severity::Ok);
        assert!(timeline.windows[1].severity >= Severity::Warn);
        assert!(timeline.windows[1].kl > timeline.windows[0].kl);
        assert!(timeline.windows[1].mean_dist > 1.0);
        assert_eq!(timeline.alerts.len(), 2);
        assert!(timeline.overall() >= Severity::Warn);
    }

    #[test]
    fn drift_counters_track_windows_and_alerts() {
        let _g = window_lock();
        let early = reference(2);
        let mut monitor = DriftMonitor::new(&early).unwrap();
        // Recording is process-wide, so a strict failure in a unit test on
        // another thread may dump the flight ring while it is on: send the
        // dump to a temporary directory, not the crate's source tree.
        let dir = std::env::temp_dir().join(format!("bmf-core-utest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        bmf_obs::flight::set_dump_dir(&dir);
        bmf_obs::reset();
        bmf_obs::enable();
        monitor
            .push_batch(&gaussian_ish(2, 2 * WINDOW, 5, 0.0))
            .unwrap();
        monitor
            .push_batch(&gaussian_ish(2, WINDOW, 6, 8.0))
            .unwrap();
        bmf_obs::disable();
        let snap = bmf_obs::metrics::snapshot();
        assert_eq!(snap.counter("drift.windows"), 3);
        assert!(snap.counter("drift.alerts") >= 1);
        bmf_obs::reset();
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let early = reference(3);
        let mut monitor = DriftMonitor::new(&early).unwrap();
        assert!(monitor.push_sample(&[1.0, 2.0]).is_err());
        assert!(monitor
            .push_batch(&Matrix::from_fn(4, 2, |_, _| 0.0))
            .is_err());
    }

    #[test]
    fn identical_moments_give_near_zero_kl() {
        let _g = window_lock();
        // Feed the exact reference-generating samples as one window: its
        // moments are the reference's, so KL is round-off.
        let d = 2;
        let samples = gaussian_ish(d, WINDOW, 21, 0.0);
        let early = MomentEstimate {
            mean: descriptive::mean_vector(&samples).unwrap(),
            cov: descriptive::covariance_mle(&samples).unwrap(),
        };
        let mut monitor = DriftMonitor::new(&early).unwrap();
        monitor.push_batch(&samples).unwrap();
        let w = &monitor.timeline().windows[0];
        assert!(w.kl < 0.05, "kl = {}", w.kl);
        assert!(w.cov_frob < 1e-9);
        assert!(w.mean_dist < 1e-9);
    }
}
