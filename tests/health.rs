//! Statistical-health layer contract: the pipeline's `HealthReport` must
//! flag a prior that genuinely conflicts with the late-stage data while
//! staying quiet on a clean run, the drift monitor must raise alerts only
//! when the stream really moves, and none of the observability layers —
//! health, drift, dashboard rendering — may perturb a single bit of the
//! numeric estimates at any thread count.
//!
//! The recorder state is process-global, so every test serialises on one
//! mutex and resets the state on entry (same discipline as
//! `tests/observability.rs`).

use bmf_ams::core::drift::{DriftMonitor, WINDOW};
use bmf_ams::core::pipeline::RobustPipeline;
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::obs::dashboard::{self, render, DashboardData};
use bmf_ams::obs::{HardwareContext, Severity};
use bmf_ams::stats::MultivariateNormal;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard, PoisonError};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Serialises tests touching the process-global recorder.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    bmf_ams::obs::reset();
    guard
}

/// Early-stage model plus `n` late samples drawn from that same model
/// (optionally mean-shifted by `shift_sigmas` standard deviations in
/// every coordinate — the "conflicting prior" scenario).
fn study(d: usize, n: usize, seed: u64, shift_sigmas: f64) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::zeros(d),
        cov: cov.clone(),
    };
    let late_mean = Vector::from_fn(d, |i| shift_sigmas * cov[(i, i)].sqrt());
    let truth = MultivariateNormal::new(late_mean, cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = truth.sample_matrix(&mut rng, n);
    (early, samples)
}

fn assert_moments_bits_eq(a: &MomentEstimate, b: &MomentEstimate, what: &str) {
    assert_eq!(a.dim(), b.dim(), "{what}: dimension");
    for i in 0..a.dim() {
        assert_eq!(
            a.mean[i].to_bits(),
            b.mean[i].to_bits(),
            "{what}: mean[{i}]"
        );
        for j in 0..a.dim() {
            assert_eq!(
                a.cov[(i, j)].to_bits(),
                b.cov[(i, j)].to_bits(),
                "{what}: cov[({i},{j})]"
            );
        }
    }
}

#[test]
fn clean_run_reports_no_prior_data_conflict() {
    let _g = obs_lock();
    let (early, late) = study(3, 24, 101, 0.0);
    let (_, report) = RobustPipeline::new()
        .with_seed(5)
        .with_threads(2)
        .estimate(&early, &late)
        .expect("estimate");
    let health = report.health.expect("health report on MAP success");
    assert_eq!(
        health.conflict.severity,
        Severity::Ok,
        "clean data must not flag a prior-data conflict (p = {})",
        health.conflict.p_value
    );
    assert!(health.conflict.p_value > 5e-3);
    assert_eq!(health.spectrum.severity, Severity::Ok);
    assert_eq!(health.data_quality.severity, Severity::Ok);
    assert_ne!(
        health.overall(),
        Severity::Critical,
        "clean run must never be critical: {}",
        health.summary()
    );
}

#[test]
fn conflicting_prior_is_flagged() {
    let _g = obs_lock();
    // Late-stage mean shifted 5 sigma from the early model in every
    // coordinate: the prior predictive should find this wildly unlikely.
    let (early, late) = study(3, 24, 101, 5.0);
    let (_, report) = RobustPipeline::new()
        .with_seed(5)
        .with_threads(2)
        .estimate(&early, &late)
        .expect("estimate");
    let health = report.health.expect("health report on success");
    assert_ne!(
        health.conflict.severity,
        Severity::Ok,
        "a 5-sigma prior offset must warn (p = {})",
        health.conflict.p_value
    );
    assert_ne!(health.overall(), Severity::Ok);
    assert!(
        health.conflict.mahalanobis_sq > 9.0,
        "Mahalanobis^2 {} should exceed the 3-sigma ballpark",
        health.conflict.mahalanobis_sq
    );
}

#[test]
fn estimates_bit_identical_with_health_drift_and_dashboard_active() {
    let _g = obs_lock();
    let (early, late) = study(3, 40, 77, 0.0);

    // Reference: recording off, nothing attached, one thread.
    let reference = RobustPipeline::new()
        .with_seed(11)
        .with_threads(1)
        .estimate(&early, &late)
        .expect("estimate")
        .0;

    for &threads in &THREAD_COUNTS {
        for active in [false, true] {
            bmf_ams::obs::reset();
            if active {
                bmf_ams::obs::enable();
            }
            let (est, report) = RobustPipeline::new()
                .with_seed(11)
                .with_threads(threads)
                .estimate(&early, &late)
                .expect("estimate");
            if active {
                // Exercise the full observability surface the CLI would:
                // drift-scan the late pool and render the dashboard.
                let mut monitor = DriftMonitor::new(&early).expect("monitor");
                monitor.push_batch(&late).expect("push");
                let timeline = monitor.into_timeline();
                let snapshot = bmf_ams::obs::metrics::snapshot();
                let events = bmf_ams::obs::take_events();
                let hardware = HardwareContext::detect(threads);
                let html = render(&DashboardData {
                    title: "health test",
                    hardware: &hardware,
                    run: None,
                    events: &events,
                    event_log: &[],
                    flight_occupancy: 0,
                    flight_dump: None,
                    snapshot: &snapshot,
                    health: report.health.as_ref(),
                    shard: None,
                    drift: Some(&timeline),
                    bench_history_json: None,
                    refresh_s: None,
                });
                assert!(html.to_ascii_lowercase().starts_with("<!doctype html"));
            }
            assert_moments_bits_eq(
                &est,
                &reference,
                &format!("threads={threads} active={active}"),
            );
        }
    }
    bmf_ams::obs::reset();
}

#[test]
fn drift_monitor_alerts_on_shifted_stream_and_counts_windows() {
    let _g = obs_lock();
    bmf_ams::obs::enable();
    let (early, steady) = study(3, 2 * WINDOW, 9, 0.0);
    let (_, shifted) = study(3, 2 * WINDOW, 10, 6.0);

    let before_windows = bmf_ams::obs::metrics::snapshot().counter("drift.windows");
    let mut monitor = DriftMonitor::new(&early).expect("monitor");
    monitor.push_batch(&steady).expect("steady batch");
    assert!(
        monitor.timeline().alerts.is_empty(),
        "steady stream must not alert: {:?}",
        monitor.timeline().alerts
    );
    monitor.push_batch(&shifted).expect("shifted batch");
    let timeline = monitor.into_timeline();
    assert_eq!(timeline.windows.len(), 4, "4 windows of samples");
    assert!(
        !timeline.alerts.is_empty(),
        "6-sigma shifted stream must raise a drift alert"
    );
    assert_ne!(timeline.overall(), Severity::Ok);
    // The first two (steady) windows stay Ok; the shifted ones do not.
    assert_eq!(timeline.windows[0].severity, Severity::Ok);
    assert_ne!(timeline.windows[3].severity, Severity::Ok);

    let snap = bmf_ams::obs::metrics::snapshot();
    assert_eq!(snap.counter("drift.windows") - before_windows, 4);
    assert!(snap.counter("drift.alerts") > 0);
    bmf_ams::obs::reset();
}

#[test]
fn dashboard_document_contains_every_section_and_blob() {
    let _g = obs_lock();
    let (early, late) = study(3, 3 * WINDOW, 101, 0.0);
    let (_, report) = RobustPipeline::new()
        .with_seed(5)
        .with_threads(1)
        .estimate(&early, &late)
        .expect("estimate");
    let mut monitor = DriftMonitor::new(&early).expect("monitor");
    monitor.push_batch(&late).expect("push");
    let timeline = monitor.into_timeline();
    let snapshot = bmf_ams::obs::metrics::snapshot();
    let hardware = HardwareContext::detect(1);
    let bench = r#"{"entries":[{"timestamp_iso":"2026-01-01T00:00:00Z","quick":true,"hardware":{"detected_cores":8,"threads_used":2},"stages":{"cv_select_default_grid":1.5}}]}"#;
    let html = render(&DashboardData {
        title: "sections test",
        hardware: &hardware,
        run: None,
        events: &[],
        event_log: &[],
        flight_occupancy: 0,
        flight_dump: None,
        snapshot: &snapshot,
        health: report.health.as_ref(),
        shard: None,
        drift: Some(&timeline),
        bench_history_json: Some(bench),
        refresh_s: None,
    });
    // Every section and blob is present, every link resolves, and the
    // embedded health blob grades exactly as the report does.
    let overall = report.health.expect("health").overall();
    let desc = dashboard::validate(&html, Some(overall)).expect("dashboard validates");
    assert!(desc.contains("1 bench entr(ies)"), "{desc}");
}
