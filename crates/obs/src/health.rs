//! Statistical health types: estimator diagnostics and drift telemetry.
//!
//! This module holds the *vocabulary* of statistical health — plain
//! serializable data types plus the documented thresholds that map raw
//! diagnostics onto [`Severity`] levels. The *computation* lives in
//! `bmf_core` (`bmf_core::health::assess` and `bmf_core::drift`): the
//! obs crate stays zero-dependency and never imports linear algebra,
//! while the core crate owns the math and hands finished reports back
//! down for export.
//!
//! Everything here honours the crate's two invariants: a report is
//! computed *from* estimator outputs, never fed back into them, so
//! health monitoring cannot perturb a numeric result; and nothing in
//! this module touches process-wide recording state, so building a
//! report is pure data shuffling.

use crate::json::{number, string, Value};
use std::fmt;

// ---------------------------------------------------------------------------
// Severity
// ---------------------------------------------------------------------------

/// Three-level severity for a health check, ordered `Ok < Warn < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The diagnostic is within its documented normal range.
    Ok,
    /// The diagnostic is outside its normal range; the estimate is
    /// still usable but should be reviewed.
    Warn,
    /// The diagnostic indicates the estimate is likely unreliable.
    Critical,
}

impl Severity {
    /// Stable lowercase label used in JSON exports and the dashboard.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Ok => "ok",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// The worse of two severities.
    pub fn worst(self, other: Severity) -> Severity {
        self.max(other)
    }

    fn from_label(label: &str) -> Option<Severity> {
        [Severity::Ok, Severity::Warn, Severity::Critical]
            .into_iter()
            .find(|s| s.label() == label)
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// Documented thresholds
// ---------------------------------------------------------------------------
//
// Every classify_* function below is the single source of truth for one
// check; the constants are public so tests and docs can reference the
// same numbers the pipeline uses.

/// Prior–data conflict: `Warn` when the prior-predictive p-value of the
/// late-stage sample mean drops below this (one run in 200 by chance).
pub const CONFLICT_P_WARN: f64 = 5e-3;
/// Prior–data conflict: `Critical` below this p-value (a ≥ 4.4σ event
/// in one dimension; essentially never by chance).
pub const CONFLICT_P_CRITICAL: f64 = 1e-5;

/// Shrinkage weight `κ₀/(κ₀+n)`: `Warn` above this — the prior
/// contributes more than ~99.5% of the posterior mean, so the data is
/// barely being heard.
pub const SHRINKAGE_WARN: f64 = 0.995;
/// Shrinkage weight: `Critical` above this — the data is effectively
/// ignored.
pub const SHRINKAGE_CRITICAL: f64 = 0.9999;

/// Covariance condition number: `Warn` above this (roughly half of the
/// f64 mantissa consumed by the spread of eigenvalues).
pub const CONDITION_WARN: f64 = 1e6;
/// Covariance condition number: `Critical` above this (solves through
/// the matrix lose most of their precision).
pub const CONDITION_CRITICAL: f64 = 1e10;

/// CV surface flatness: `Warn` when the best score exceeds the median
/// finite score by less than this — the grid cannot distinguish
/// hyper-parameters, so the selected `(κ₀, ν₀)` is arbitrary.
pub const CV_FLAT_SPREAD: f64 = 1e-6;

/// Data quality: `Critical` when the guard dropped at least this
/// fraction of late-stage rows.
pub const DQ_DROP_CRITICAL: f64 = 0.25;

/// Drift: `Warn` when a window's Gaussian KL divergence from the
/// early-stage model exceeds this (in nats; well clear of the
/// finite-window estimation bias of `(d + d(d+1)/2)/(2·window)`).
pub const DRIFT_KL_WARN: f64 = 2.0;
/// Drift: `Critical` above this KL divergence.
pub const DRIFT_KL_CRITICAL: f64 = 6.0;

/// Classifies a prior-predictive p-value.
pub fn classify_conflict(p_value: f64) -> Severity {
    if !p_value.is_finite() || p_value < CONFLICT_P_CRITICAL {
        Severity::Critical
    } else if p_value < CONFLICT_P_WARN {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

/// Classifies a shrinkage weight `κ₀/(κ₀+n)`.
pub fn classify_shrinkage(shrinkage: f64) -> Severity {
    if !shrinkage.is_finite() || shrinkage > SHRINKAGE_CRITICAL {
        Severity::Critical
    } else if shrinkage > SHRINKAGE_WARN {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

/// Classifies a covariance eigenspectrum by its smallest eigenvalue and
/// condition number.
pub fn classify_spectrum(min_eigenvalue: f64, condition: f64) -> Severity {
    if min_eigenvalue <= 0.0 || !condition.is_finite() || condition > CONDITION_CRITICAL {
        Severity::Critical
    } else if condition > CONDITION_WARN {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

/// Classifies a CV log-likelihood surface summary. A hit on the *lower*
/// grid boundary warns (the optimum may lie outside the searched range
/// toward an even weaker prior); the upper boundary is benign because
/// the grid top already corresponds to near-total trust in the prior.
/// A flat surface also warns: the selection is then arbitrary.
pub fn classify_cv_surface(spread: f64, lower_boundary_hit: bool) -> Severity {
    if lower_boundary_hit || !spread.is_finite() || spread < CV_FLAT_SPREAD {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

/// Classifies data quality from the guard report: any finding warns,
/// heavy row loss or constant columns are critical.
pub fn classify_data_quality(
    clean: bool,
    dropped_fraction: f64,
    constant_columns: usize,
) -> Severity {
    if dropped_fraction >= DQ_DROP_CRITICAL || constant_columns > 0 {
        Severity::Critical
    } else if !clean {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

/// Classifies a drift window by its KL divergence (nats).
pub fn classify_drift(kl: f64) -> Severity {
    if !kl.is_finite() || kl > DRIFT_KL_CRITICAL {
        Severity::Critical
    } else if kl > DRIFT_KL_WARN {
        Severity::Warn
    } else {
        Severity::Ok
    }
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

/// Prior–data conflict check: Mahalanobis distance of the late-stage
/// sample mean under the prior predictive `N(μ₀, (1/κ₀ + 1/n)·Σ_E)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorDataConflict {
    /// Squared Mahalanobis distance of the sample mean, scaled by the
    /// prior-predictive variance inflation `1/κ₀ + 1/n`.
    pub mahalanobis_sq: f64,
    /// Upper-tail χ²(d) p-value of `mahalanobis_sq`.
    pub p_value: f64,
    /// Classification per [`classify_conflict`].
    pub severity: Severity,
}

/// Effective sample size and shrinkage of the normal-Wishart posterior.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveSampleSize {
    /// Raw late-stage sample count after guard screening.
    pub n: usize,
    /// Posterior mean pseudo-count `κ₀ + n`.
    pub kappa_n: f64,
    /// Posterior covariance degrees of freedom above the minimum,
    /// `ν₀ + n − d`.
    pub nu_excess: f64,
    /// Shrinkage weight `κ₀ / (κ₀ + n)` — the prior's share of the
    /// posterior mean.
    pub shrinkage: f64,
    /// Classification per [`classify_shrinkage`].
    pub severity: Severity,
}

/// Eigenspectrum of the fused covariance estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CovarianceSpectrum {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Condition number `λ_max / λ_min`.
    pub condition: f64,
    /// Classification per [`classify_spectrum`].
    pub severity: Severity,
}

/// Summary of the cross-validation log-likelihood surface.
#[derive(Debug, Clone, PartialEq)]
pub struct CvSurface {
    /// Selected `κ₀`.
    pub kappa0: f64,
    /// Selected `ν₀`.
    pub nu0: f64,
    /// Log-likelihood score at the argmax.
    pub score: f64,
    /// Best score minus the median finite score — the surface's
    /// "decisiveness". Near zero means the grid cannot tell candidates
    /// apart.
    pub spread: f64,
    /// True when the argmax sits on the lower edge of either
    /// hyper-parameter grid.
    pub boundary_hit: bool,
    /// Classification per [`classify_cv_surface`].
    pub severity: Severity,
}

/// Data-quality summary distilled from the guard report.
#[derive(Debug, Clone, PartialEq)]
pub struct DataQualityHealth {
    /// Late-stage rows before screening.
    pub rows_in: usize,
    /// Rows surviving screening.
    pub rows_out: usize,
    /// Fraction of rows dropped.
    pub dropped_fraction: f64,
    /// Number of constant (zero-variance) columns found.
    pub constant_columns: usize,
    /// Classification per [`classify_data_quality`].
    pub severity: Severity,
}

/// Per-run statistical health report attached to a fusion result.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Prior–data conflict check.
    pub conflict: PriorDataConflict,
    /// Effective sample size and shrinkage.
    pub ess: EffectiveSampleSize,
    /// Eigenspectrum of the fused covariance.
    pub spectrum: CovarianceSpectrum,
    /// CV surface summary; `None` when CV was skipped or failed and the
    /// pipeline fell back to default hyper-parameters.
    pub cv: Option<CvSurface>,
    /// Data-quality summary.
    pub data_quality: DataQualityHealth,
}

impl HealthReport {
    /// The worst severity across all checks.
    pub fn overall(&self) -> Severity {
        let mut worst = self
            .conflict
            .severity
            .worst(self.ess.severity)
            .worst(self.spectrum.severity)
            .worst(self.data_quality.severity);
        if let Some(cv) = &self.cv {
            worst = worst.worst(cv.severity);
        }
        worst
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(768);
        out.push_str("{\"overall\":");
        out.push_str(&string(self.overall().label()));
        out.push_str(",\"conflict\":{\"mahalanobis_sq\":");
        out.push_str(&number(self.conflict.mahalanobis_sq));
        out.push_str(",\"p_value\":");
        out.push_str(&number(self.conflict.p_value));
        out.push_str(",\"severity\":");
        out.push_str(&string(self.conflict.severity.label()));
        out.push_str("},\"ess\":{\"n\":");
        out.push_str(&self.ess.n.to_string());
        out.push_str(",\"kappa_n\":");
        out.push_str(&number(self.ess.kappa_n));
        out.push_str(",\"nu_excess\":");
        out.push_str(&number(self.ess.nu_excess));
        out.push_str(",\"shrinkage\":");
        out.push_str(&number(self.ess.shrinkage));
        out.push_str(",\"severity\":");
        out.push_str(&string(self.ess.severity.label()));
        out.push_str("},\"spectrum\":{\"eigenvalues\":[");
        for (i, ev) in self.spectrum.eigenvalues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&number(*ev));
        }
        out.push_str("],\"condition\":");
        out.push_str(&number(self.spectrum.condition));
        out.push_str(",\"severity\":");
        out.push_str(&string(self.spectrum.severity.label()));
        out.push_str("},\"cv\":");
        match &self.cv {
            Some(cv) => {
                out.push_str("{\"kappa0\":");
                out.push_str(&number(cv.kappa0));
                out.push_str(",\"nu0\":");
                out.push_str(&number(cv.nu0));
                out.push_str(",\"score\":");
                out.push_str(&number(cv.score));
                out.push_str(",\"spread\":");
                out.push_str(&number(cv.spread));
                out.push_str(",\"boundary_hit\":");
                out.push_str(if cv.boundary_hit { "true" } else { "false" });
                out.push_str(",\"severity\":");
                out.push_str(&string(cv.severity.label()));
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"data_quality\":{\"rows_in\":");
        out.push_str(&self.data_quality.rows_in.to_string());
        out.push_str(",\"rows_out\":");
        out.push_str(&self.data_quality.rows_out.to_string());
        out.push_str(",\"dropped_fraction\":");
        out.push_str(&number(self.data_quality.dropped_fraction));
        out.push_str(",\"constant_columns\":");
        out.push_str(&self.data_quality.constant_columns.to_string());
        out.push_str(",\"severity\":");
        out.push_str(&string(self.data_quality.severity.label()));
        out.push_str("}}");
        out
    }

    /// One-line human summary for log output.
    pub fn summary(&self) -> String {
        format!(
            "health {}: conflict p={:.3e} [{}], shrinkage={:.4} [{}], cond={:.3e} [{}], cv={}, dq [{}]",
            self.overall().label(),
            self.conflict.p_value,
            self.conflict.severity.label(),
            self.ess.shrinkage,
            self.ess.severity.label(),
            self.spectrum.condition,
            self.spectrum.severity.label(),
            match &self.cv {
                Some(cv) => format!(
                    "(k0={:.3}, nu0={:.3}) [{}]",
                    cv.kappa0,
                    cv.nu0,
                    cv.severity.label()
                ),
                None => "skipped".to_string(),
            },
            self.data_quality.severity.label(),
        )
    }
}

// ---------------------------------------------------------------------------
// Drift timeline
// ---------------------------------------------------------------------------

/// One closed drift window: divergence of the window's sample moments
/// from the early-stage reference model.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftWindow {
    /// Zero-based window index.
    pub index: usize,
    /// Index of the first sample in this window.
    pub start_sample: usize,
    /// Number of samples in the window.
    pub n: usize,
    /// Gaussian KL divergence `KL(N_window ‖ N_early)` in nats;
    /// `+∞` when the window covariance is singular.
    pub kl: f64,
    /// Euclidean distance `‖μ_window − μ_early‖₂`.
    pub mean_dist: f64,
    /// Relative Frobenius drift `‖Σ_window − Σ_early‖_F / ‖Σ_early‖_F`.
    pub cov_frob: f64,
    /// Classification per [`classify_drift`].
    pub severity: Severity,
}

/// Full drift history over a run: closed windows plus the alert log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DriftTimeline {
    /// Closed windows in order.
    pub windows: Vec<DriftWindow>,
    /// Human-readable alert messages (one per `Warn`/`Critical` window).
    pub alerts: Vec<String>,
}

impl DriftTimeline {
    /// The worst severity across all windows (`Ok` when empty).
    pub fn overall(&self) -> Severity {
        self.windows
            .iter()
            .map(|w| w.severity)
            .fold(Severity::Ok, Severity::worst)
    }

    /// Serializes the timeline as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.windows.len() * 128);
        out.push_str("{\"overall\":");
        out.push_str(&string(self.overall().label()));
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"index\":");
            out.push_str(&w.index.to_string());
            out.push_str(",\"start_sample\":");
            out.push_str(&w.start_sample.to_string());
            out.push_str(",\"n\":");
            out.push_str(&w.n.to_string());
            out.push_str(",\"kl\":");
            out.push_str(&number(w.kl));
            out.push_str(",\"mean_dist\":");
            out.push_str(&number(w.mean_dist));
            out.push_str(",\"cov_frob\":");
            out.push_str(&number(w.cov_frob));
            out.push_str(",\"severity\":");
            out.push_str(&string(w.severity.label()));
            out.push('}');
        }
        out.push_str("],\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&string(a));
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Validation of the two wire formats
// ---------------------------------------------------------------------------

/// The severity label under `key`, read back into a [`Severity`].
fn severity_at(v: &Value, key: &str, what: &str) -> Result<Severity, String> {
    let label = v.get(key).and_then(Value::as_str);
    label
        .and_then(Severity::from_label)
        .ok_or_else(|| format!("{what} has no valid {key} (got {label:?})"))
}

/// Checks a [`HealthReport::to_json`] document: a graded `conflict`,
/// `ess`, `spectrum` and `data_quality` section, a `cv` section that is
/// graded or `null`, and an `overall` grade equal to the worst of them.
/// Returns the overall severity.
///
/// # Errors
///
/// A message naming the first failed check.
pub fn validate_health_json(text: &str) -> Result<Severity, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("health: {e}"))?;
    let overall = severity_at(&doc, "overall", "health")?;
    let mut worst = Severity::Ok;
    for section in ["conflict", "ess", "spectrum", "data_quality"] {
        let sec = doc
            .get(section)
            .ok_or_else(|| format!("health has no {section} section"))?;
        worst = worst.worst(severity_at(sec, "severity", &format!("health {section}"))?);
    }
    match doc.get("cv") {
        Some(Value::Null) => {}
        Some(cv) => worst = worst.worst(severity_at(cv, "severity", "health cv")?),
        None => return Err("health has no cv section (null when skipped)".to_string()),
    }
    if overall != worst {
        return Err(format!(
            "health overall is {overall} but its worst section is {worst}"
        ));
    }
    Ok(overall)
}

/// Checks a [`DriftTimeline::to_json`] document: every window carries
/// its index, start, size, the three divergences and a grade; the
/// `alerts` list is present; and `overall` is the worst window grade.
/// Returns the window count.
///
/// # Errors
///
/// A message naming the first failed check.
pub fn validate_drift_json(text: &str) -> Result<usize, String> {
    let doc = crate::json::parse(text).map_err(|e| format!("drift: {e}"))?;
    let windows = doc
        .get("windows")
        .and_then(Value::as_array)
        .ok_or("drift has no windows array")?;
    let mut worst = Severity::Ok;
    for (i, w) in windows.iter().enumerate() {
        for key in ["index", "start_sample", "n", "kl", "mean_dist", "cov_frob"] {
            if w.get(key).is_none() {
                return Err(format!("drift window {i} has no {key}"));
            }
        }
        worst = worst.worst(severity_at(w, "severity", &format!("drift window {i}"))?);
    }
    if doc.get("alerts").and_then(Value::as_array).is_none() {
        return Err("drift has no alerts array".to_string());
    }
    let overall = severity_at(&doc, "overall", "drift")?;
    if overall != worst {
        return Err(format!(
            "drift overall is {overall} but its worst window is {worst}"
        ));
    }
    Ok(windows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_report() -> HealthReport {
        HealthReport {
            conflict: PriorDataConflict {
                mahalanobis_sq: 3.2,
                p_value: 0.67,
                severity: classify_conflict(0.67),
            },
            ess: EffectiveSampleSize {
                n: 32,
                kappa_n: 42.0,
                nu_excess: 37.0,
                shrinkage: 10.0 / 42.0,
                severity: classify_shrinkage(10.0 / 42.0),
            },
            spectrum: CovarianceSpectrum {
                eigenvalues: vec![0.5, 1.0, 2.5],
                condition: 5.0,
                severity: classify_spectrum(0.5, 5.0),
            },
            cv: Some(CvSurface {
                kappa0: 10.0,
                nu0: 7.0,
                score: -12.5,
                spread: 3.4,
                boundary_hit: false,
                severity: classify_cv_surface(3.4, false),
            }),
            data_quality: DataQualityHealth {
                rows_in: 40,
                rows_out: 32,
                dropped_fraction: 0.2,
                constant_columns: 0,
                severity: classify_data_quality(false, 0.2, 0),
            },
        }
    }

    #[test]
    fn severity_ordering_and_worst() {
        assert!(Severity::Ok < Severity::Warn);
        assert!(Severity::Warn < Severity::Critical);
        assert_eq!(Severity::Ok.worst(Severity::Warn), Severity::Warn);
        assert_eq!(Severity::Critical.worst(Severity::Ok), Severity::Critical);
    }

    #[test]
    fn thresholds_classify_as_documented() {
        assert_eq!(classify_conflict(0.5), Severity::Ok);
        assert_eq!(classify_conflict(1e-3), Severity::Warn);
        assert_eq!(classify_conflict(1e-9), Severity::Critical);
        assert_eq!(classify_conflict(f64::NAN), Severity::Critical);

        assert_eq!(classify_shrinkage(0.5), Severity::Ok);
        assert_eq!(classify_shrinkage(0.999), Severity::Warn);
        assert_eq!(classify_shrinkage(0.99999), Severity::Critical);

        assert_eq!(classify_spectrum(0.1, 10.0), Severity::Ok);
        assert_eq!(classify_spectrum(0.1, 1e8), Severity::Warn);
        assert_eq!(classify_spectrum(0.1, 1e12), Severity::Critical);
        assert_eq!(classify_spectrum(-1e-12, 10.0), Severity::Critical);

        assert_eq!(classify_cv_surface(1.0, false), Severity::Ok);
        assert_eq!(classify_cv_surface(1.0, true), Severity::Warn);
        assert_eq!(classify_cv_surface(1e-9, false), Severity::Warn);

        assert_eq!(classify_data_quality(true, 0.0, 0), Severity::Ok);
        assert_eq!(classify_data_quality(false, 0.1, 0), Severity::Warn);
        assert_eq!(classify_data_quality(false, 0.3, 0), Severity::Critical);
        assert_eq!(classify_data_quality(false, 0.0, 2), Severity::Critical);

        assert_eq!(classify_drift(0.5), Severity::Ok);
        assert_eq!(classify_drift(3.0), Severity::Warn);
        assert_eq!(classify_drift(10.0), Severity::Critical);
        assert_eq!(classify_drift(f64::INFINITY), Severity::Critical);
    }

    #[test]
    fn health_report_json_parses_back() {
        let report = sample_report();
        let value = parse(&report.to_json()).expect("health JSON must parse");
        assert_eq!(
            value.get("overall").and_then(|v| v.as_str()),
            Some(report.overall().label())
        );
        let conflict = value.get("conflict").expect("conflict section");
        assert_eq!(conflict.get("p_value").and_then(|v| v.as_f64()), Some(0.67));
        let evs = value
            .get("spectrum")
            .and_then(|s| s.get("eigenvalues"))
            .and_then(|v| v.as_array())
            .expect("eigenvalues array");
        assert_eq!(evs.len(), 3);
        assert!(value.get("cv").and_then(|c| c.get("kappa0")).is_some());
    }

    #[test]
    fn health_report_json_with_null_cv() {
        let mut report = sample_report();
        report.cv = None;
        let value = parse(&report.to_json()).expect("health JSON must parse");
        assert!(matches!(value.get("cv"), Some(crate::json::Value::Null)));
    }

    #[test]
    fn overall_tracks_worst_check() {
        let mut report = sample_report();
        assert_eq!(report.overall(), Severity::Warn); // dq is warn
        report.data_quality.severity = Severity::Ok;
        assert_eq!(report.overall(), Severity::Ok);
        report.conflict.severity = Severity::Critical;
        assert_eq!(report.overall(), Severity::Critical);
    }

    #[test]
    fn drift_timeline_json_parses_back() {
        let timeline = DriftTimeline {
            windows: vec![
                DriftWindow {
                    index: 0,
                    start_sample: 0,
                    n: 32,
                    kl: 0.2,
                    mean_dist: 0.1,
                    cov_frob: 0.05,
                    severity: classify_drift(0.2),
                },
                DriftWindow {
                    index: 1,
                    start_sample: 32,
                    n: 32,
                    kl: 4.0,
                    mean_dist: 1.8,
                    cov_frob: 0.6,
                    severity: classify_drift(4.0),
                },
            ],
            alerts: vec!["window 1: kl=4.0 \"exceeds\" warn".to_string()],
        };
        assert_eq!(timeline.overall(), Severity::Warn);
        let value = parse(&timeline.to_json()).expect("drift JSON must parse");
        let windows = value
            .get("windows")
            .and_then(|v| v.as_array())
            .expect("windows array");
        assert_eq!(windows.len(), 2);
        assert_eq!(
            windows[1].get("severity").and_then(|v| v.as_str()),
            Some("warn")
        );
        let alerts = value
            .get("alerts")
            .and_then(|v| v.as_array())
            .expect("alerts array");
        assert_eq!(alerts.len(), 1);
        // Hostile quote in the alert text survives the round trip.
        assert!(alerts[0].as_str().unwrap().contains('"'));
    }

    #[test]
    fn empty_timeline_is_ok_overall() {
        let timeline = DriftTimeline::default();
        assert_eq!(timeline.overall(), Severity::Ok);
        let value = parse(&timeline.to_json()).expect("empty drift JSON must parse");
        assert_eq!(value.get("overall").and_then(|v| v.as_str()), Some("ok"));
    }

    #[test]
    fn validate_health_json_accepts_the_report_and_rejects_a_bad_severity() {
        let report = sample_report();
        let text = report.to_json();
        assert_eq!(validate_health_json(&text), Ok(report.overall()));
        let without_cv = HealthReport {
            cv: None,
            ..sample_report()
        };
        assert_eq!(
            validate_health_json(&without_cv.to_json()),
            Ok(without_cv.overall())
        );
        let bad = text.replacen(
            &format!("\"severity\":\"{}\"}}", report.ess.severity.label()),
            "\"severity\":\"fine\"}",
            1,
        );
        assert_ne!(bad, text);
        let err = validate_health_json(&bad).unwrap_err();
        assert!(err.contains("fine"), "{err}");
    }

    #[test]
    fn validate_drift_json_accepts_the_timeline_and_rejects_a_window_without_kl() {
        let timeline = DriftTimeline {
            windows: vec![DriftWindow {
                index: 0,
                start_sample: 0,
                n: 16,
                kl: 3.0,
                mean_dist: 1.0,
                cov_frob: 0.2,
                severity: classify_drift(3.0),
            }],
            alerts: vec!["window 0: kl=3".to_string()],
        };
        let text = timeline.to_json();
        assert_eq!(validate_drift_json(&text), Ok(1));
        let err = validate_drift_json(&text.replacen("\"kl\":", "\"kl_gone\":", 1)).unwrap_err();
        assert!(err.contains("no kl"), "{err}");
        assert_eq!(
            validate_drift_json(&DriftTimeline::default().to_json()),
            Ok(0)
        );
    }
}
