//! The observability layer's contract: recording spans and counters must
//! never change a numeric result, at any thread count — tracing is a
//! side-channel, not a participant. These tests run the same workloads
//! with recording off and on, at 1, 2 and 7 threads, and demand exact
//! bit equality; they also check that counters recorded from scoped
//! worker threads merge into consistent totals, that the structured
//! event stream drains as valid run-id-stamped JSONL, and that a
//! strict-mode failure leaves a well-formed flight-recorder black box.
//!
//! The recorder state is process-global, so every test serialises on one
//! mutex and resets the state on entry.

use bmf_ams::circuits::adc::AdcTestbench;
use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::cv::{CrossValidation, FOLDS, REPEATS};
use bmf_ams::core::pipeline::{FailureMode, RobustPipeline};
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::obs::json::Value;
use bmf_ams::obs::RunContext;
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

fn synthetic(d: usize, n: usize, seed: u64) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::zeros(d),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
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
fn pipeline_estimates_bit_identical_with_tracing_on_and_off() {
    let _g = obs_lock();
    let (early, late) = synthetic(3, 24, 77);

    // Reference: recording off, one thread.
    let reference = RobustPipeline::new()
        .with_seed(11)
        .with_threads(1)
        .estimate(&early, &late)
        .expect("estimate")
        .0;

    for &threads in &THREAD_COUNTS {
        for enabled in [false, true] {
            bmf_ams::obs::reset();
            if enabled {
                bmf_ams::obs::enable();
            }
            let (est, report) = RobustPipeline::new()
                .with_seed(11)
                .with_threads(threads)
                .estimate(&early, &late)
                .expect("estimate");
            assert_moments_bits_eq(
                &est,
                &reference,
                &format!("threads={threads} enabled={enabled}"),
            );
            if enabled {
                // The audit trail picks up the counter deltas when
                // recording is on; the estimate above must not.
                assert!(
                    report.counter("cholesky.calls") > 0,
                    "enabled run should report cholesky.calls"
                );
            } else {
                assert!(report.counters.is_empty());
            }
        }
    }
    bmf_ams::obs::reset();
}

#[test]
fn monte_carlo_bit_identical_with_tracing_on_and_off() {
    let _g = obs_lock();
    let tb = AdcTestbench::default_180nm();
    let reference = run_monte_carlo_seeded(&tb, Stage::PostLayout, 13, 5, 1).expect("mc");

    for &threads in &THREAD_COUNTS {
        for enabled in [false, true] {
            bmf_ams::obs::reset();
            if enabled {
                bmf_ams::obs::enable();
            }
            let data = run_monte_carlo_seeded(&tb, Stage::PostLayout, 13, 5, threads).expect("mc");
            assert_eq!(
                data.samples, reference.samples,
                "threads={threads} enabled={enabled}"
            );
            assert_eq!(data.nominal, reference.nominal);
        }
    }
    bmf_ams::obs::reset();
}

#[test]
fn counters_sum_consistently_across_worker_merges() {
    let _g = obs_lock();
    bmf_ams::obs::enable();

    // 37 simulations spread over 7 scoped workers must add up to exactly
    // 37, however the increments were interleaved.
    let tb = AdcTestbench::default_180nm();
    let before = bmf_ams::obs::metrics::snapshot().counter("monte_carlo.sims");
    run_monte_carlo_seeded(&tb, Stage::Schematic, 37, 3, 7).expect("mc");
    let after = bmf_ams::obs::metrics::snapshot().counter("monte_carlo.sims");
    assert_eq!(after - before, 37);

    // Worker spans land in the shared sink at scope join: one stage span
    // plus at most 7 worker spans, each from a distinct thread.
    let events = bmf_ams::obs::take_events();
    let stage_spans = events.iter().filter(|e| e.name == "mc.schematic").count();
    assert_eq!(stage_spans, 1);
    let worker_tids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "parallel.worker")
        .map(|e| e.tid)
        .collect();
    let workers = events
        .iter()
        .filter(|e| e.name == "parallel.worker")
        .count();
    assert!((1..=7).contains(&workers), "got {workers} worker spans");
    assert_eq!(worker_tids.len(), workers, "worker tids must be distinct");
    bmf_ams::obs::reset();
}

#[test]
fn fold_eval_counts_are_thread_count_invariant() {
    let _g = obs_lock();
    let (early, late) = synthetic(2, 16, 9);
    let cv = CrossValidation;

    let mut counts = Vec::new();
    for &threads in &THREAD_COUNTS {
        bmf_ams::obs::reset();
        bmf_ams::obs::enable();
        cv.select_seeded(&early, &late, 4, threads).expect("select");
        let snap = bmf_ams::obs::metrics::snapshot();
        counts.push(snap.counter("cv.fold_evals"));
        // The select factorises Σ_E once to whiten; no (fold, ν₀) pair
        // factorises anything.
        assert_eq!(
            snap.counter("cholesky.calls"),
            1,
            "factorisations of one select at {threads} threads"
        );
    }
    // One per (repeat, fold, feasible ν₀): 10 of the 12 ν₀ exceed d = 2.
    assert_eq!(counts[0], (REPEATS * FOLDS * 10) as u64);
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "fold evaluations differ across thread counts: {counts:?}"
    );
    bmf_ams::obs::reset();
}

/// The op-amp's measurement counters: one transfer-function extraction
/// per simulated die, and for one seeded die the exact number of `H(jω)`
/// probes its DC gain and two crossing searches take.
#[test]
fn opamp_dies_extract_once_and_probe_a_pinned_count() {
    let _g = obs_lock();
    let tb = OpAmpTestbench::default_45nm();
    bmf_ams::obs::enable();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2015);
    tb.sample_performance(Stage::PostLayout, &mut rng)
        .expect("die");
    let one = bmf_ams::obs::metrics::snapshot();
    assert_eq!(one.counter("mna.transfer_functions"), 1);
    // 1 DC probe; per crossing 1 low-end probe and its log-scan steps
    // (52 for the two here); then the polish inside each bracket (12 for
    // the two, where 60 bisection steps each took 120): 67 in all.
    assert_eq!(one.counter("opamp.crossing_evals"), 67);

    // A Monte Carlo stage: its nominal run plus one extraction per die.
    bmf_ams::obs::reset();
    bmf_ams::obs::enable();
    run_monte_carlo_seeded(&tb, Stage::Schematic, 16, 5, 2).expect("mc");
    let mc = bmf_ams::obs::metrics::snapshot();
    assert_eq!(mc.counter("monte_carlo.sims"), 16);
    assert_eq!(mc.counter("monte_carlo.retries"), 0);
    assert_eq!(mc.counter("mna.transfer_functions"), 17);
    bmf_ams::obs::reset();
}

/// The op-amp's per-die phase histograms: with recording on, a seeded
/// 16-die stage records one sample per die in each, plus one for its
/// nominal run; with recording off they stay empty.
#[test]
fn opamp_phase_histograms_record_one_sample_per_die() {
    let _g = obs_lock();
    let tb = OpAmpTestbench::default_45nm();
    let phases = [
        "opamp.bias.ns",
        "opamp.extraction.ns",
        "opamp.crossings.ns",
        "opamp.phase.ns",
    ];
    let counts = || {
        let snapshot = bmf_ams::obs::metrics::snapshot();
        phases.map(|name| {
            let h = snapshot.histograms.iter().find(|h| h.name == name);
            h.unwrap_or_else(|| panic!("{name} is not registered"))
                .count
        })
    };
    run_monte_carlo_seeded(&tb, Stage::PostLayout, 16, 5, 2).expect("mc");
    assert_eq!(counts(), [0; 4], "recording off");

    bmf_ams::obs::enable();
    run_monte_carlo_seeded(&tb, Stage::PostLayout, 16, 5, 2).expect("mc");
    let retries = bmf_ams::obs::metrics::snapshot().counter("monte_carlo.retries");
    assert_eq!(retries, 0);
    assert_eq!(counts(), [17; 4], "16 dies and the nominal run");
    bmf_ams::obs::reset();
}

/// The event stream rides the same enable switch as spans and counters,
/// so turning it on (heartbeats, guard flags, ladder transitions and
/// all) must leave every number untouched at every thread count — and
/// every drained record must render as one valid JSONL line carrying
/// the run id that also lands in the `FusionReport`.
#[test]
fn event_stream_preserves_bit_identity_and_emits_valid_jsonl() {
    let _g = obs_lock();
    let tb = AdcTestbench::default_180nm();
    let (early, late) = synthetic(3, 24, 77);

    // Reference numbers: recording (and thus the event stream) off.
    let mc_reference = run_monte_carlo_seeded(&tb, Stage::PostLayout, 13, 5, 1).expect("mc");
    let est_reference = RobustPipeline::new()
        .with_seed(11)
        .with_threads(1)
        .estimate(&early, &late)
        .expect("estimate")
        .0;

    for &threads in &THREAD_COUNTS {
        bmf_ams::obs::reset();
        bmf_ams::obs::enable();
        bmf_ams::obs::run::set(RunContext::derive(11, "observability events test"));
        let run_id = bmf_ams::obs::run::run_id().expect("run context set");

        let mc = run_monte_carlo_seeded(&tb, Stage::PostLayout, 13, 5, threads).expect("mc");
        assert_eq!(mc.samples, mc_reference.samples, "threads={threads}");
        let (est, report) = RobustPipeline::new()
            .with_seed(11)
            .with_threads(threads)
            .estimate(&early, &late)
            .expect("estimate");
        assert_moments_bits_eq(
            &est,
            &est_reference,
            &format!("events on, threads={threads}"),
        );

        // Run correlation: the report carries the same id the event
        // lines are stamped with.
        assert_eq!(report.run_id.as_deref(), Some(run_id.as_str()));
        let doc = bmf_ams::obs::json::parse(&report.to_json()).expect("report JSON");
        assert_eq!(
            doc.get("run_id").and_then(Value::as_str),
            Some(run_id.as_str())
        );

        // The Monte Carlo heartbeat guarantees at least one progress
        // event per stage (the final tick always pulses).
        let records = bmf_ams::obs::take_event_records();
        assert!(
            records.iter().any(|r| r.kind == "progress"),
            "threads={threads}: expected a progress heartbeat, got kinds {:?}",
            records.iter().map(|r| r.kind).collect::<Vec<_>>()
        );
        for pair in records.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "drained events must be in emission order"
            );
        }
        let jsonl: String = records
            .iter()
            .map(|rec| rec.to_json(Some(&run_id)) + "\n")
            .collect();
        assert_eq!(
            bmf_ams::obs::event::validate_jsonl(&jsonl, &["progress"]),
            Ok((records.len(), Some(run_id.clone()))),
            "threads={threads}"
        );
    }
    bmf_ams::obs::reset();
}

/// A strict-mode failure must leave a black box behind: the pipeline
/// dumps the flight-recorder ring to `flight-<run_id>.json`, and the
/// dump must be a well-formed document whose event count matches its
/// own `captured` header.
#[test]
fn strict_failure_dumps_flight_recorder_black_box() {
    let _g = obs_lock();
    let dir = std::env::temp_dir().join(format!("bmf-obs-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    bmf_ams::obs::flight::set_dump_dir(&dir);
    bmf_ams::obs::enable();
    bmf_ams::obs::run::set(RunContext::derive(7, "strict flight test"));
    let run_id = bmf_ams::obs::run::run_id().expect("run context set");
    let flight_path = dir.join(format!("flight-{run_id}.json"));
    let _ = std::fs::remove_file(&flight_path);

    // A non-finite late-stage cell trips the guard, which strict mode
    // converts into an error — and the guard.flag event that preceded
    // the failure is what the black box should have caught.
    let (early, mut late) = synthetic(3, 24, 5);
    late[(0, 0)] = f64::NAN;
    let result = RobustPipeline::new()
        .with_mode(FailureMode::Strict)
        .with_seed(3)
        .with_threads(2)
        .estimate(&early, &late);
    assert!(result.is_err(), "strict mode must reject non-finite cells");

    let body = std::fs::read_to_string(&flight_path).expect("strict failure writes a black box");
    let (reason, captured) =
        bmf_ams::obs::flight::validate_dump(&body).expect("flight dump must validate");
    assert_eq!(reason, "strict_failure");
    let doc = bmf_ams::obs::json::parse(&body).expect("flight dump must parse");
    assert_eq!(
        doc.get("run_id").and_then(Value::as_str),
        Some(run_id.as_str())
    );
    let events = doc.get("events").and_then(Value::as_array).expect("events");
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(Value::as_str) == Some("guard.flag")),
        "the guard flag that caused the failure must be in the box"
    );
    let last = bmf_ams::obs::flight::last_dump().expect("dump recorded");
    assert_eq!(last.path, flight_path);
    assert_eq!(last.events, captured);

    let _ = std::fs::remove_file(&flight_path);
    bmf_ams::obs::reset();
}

#[test]
fn fusion_report_json_includes_timings_and_counters_and_parses() {
    let _g = obs_lock();
    bmf_ams::obs::enable();
    let (early, late) = synthetic(3, 20, 123);
    let (_, report) = RobustPipeline::new()
        .with_seed(2)
        .with_threads(2)
        .estimate(&early, &late)
        .expect("estimate");
    bmf_ams::obs::reset();

    let doc = bmf_ams::obs::json::parse(&report.to_json()).expect("report JSON must parse");
    let timings = doc.get("timings_ns").expect("timings_ns section");
    for key in ["guard", "prior", "cv", "ladder", "total"] {
        let v = timings
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("timings_ns.{key} missing"));
        assert!(v >= 0.0);
    }
    let total = timings.get("total").and_then(Value::as_f64).unwrap();
    assert!(total > 0.0, "total stage time must be positive");
    let counters = doc.get("counters").expect("counters section");
    let chol = counters
        .get("cholesky.calls")
        .and_then(Value::as_f64)
        .expect("cholesky.calls in report");
    assert!(chol > 0.0);
}
