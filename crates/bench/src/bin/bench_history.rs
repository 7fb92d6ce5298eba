//! Continuous benchmark tracking: appends one timestamped,
//! hardware-tagged timing entry per run to `BENCH_history.json` and
//! gates on noisy regressions.
//!
//! Each run measures the tracked stages from [`bmf_bench::stages`]
//! (the same workloads `bench_parallel` scales across thread counts) at
//! one thread count, then appends an entry:
//!
//! ```json
//! {
//!   "timestamp": 1754424000,
//!   "timestamp_iso": "2026-08-05T20:00:00Z",
//!   "quick": true,
//!   "hardware": {"detected_cores": 8, "threads_used": 2, "oversubscribed": false},
//!   "stages": {"cv_select_default_grid": 0.41, "cv_candidate_throughput": 263.4, ...}
//! }
//! ```
//!
//! **Regression check** (noise-aware): the latest entry fails if any
//! tracked stage is more than 25% worse than the *median* of the last
//! up-to-3 earlier entries on *comparable hardware* (same
//! `detected_cores`, `threads_used` and `quick` flag). "Worse" is
//! direction-aware: duration stages fail when slower, `*_throughput`
//! stages (candidates/sec) fail when the rate drops — the ratio is
//! inverted for those. The median of best-of-N values absorbs scheduler
//! noise; entries from different machines never gate each other — with
//! no comparable baseline the check warns and passes, so a 1-core CI
//! runner cannot fail against a 16-core workstation baseline.
//! `hardware.oversubscribed` marks entries timed with more worker
//! threads than detected cores; comparability already isolates them from
//! properly-sized runs, and the dashboard flags them.
//!
//! Usage: `cargo run --release -p bmf-bench --bin bench_history
//!         [--quick] [--file <path>] [--threads <n>] [--check-only] [--no-check]`
//!
//! * `--quick` — CI-sized workloads (entries are only compared against
//!   other `--quick` entries).
//! * `--file` — history path (default `BENCH_history.json`, the file the
//!   dashboard's bench section reads).
//! * `--check-only` — run the regression check on the existing history
//!   without timing or appending anything.
//! * `--no-check` — append a timing entry but skip the gate (baseline
//!   seeding).
//!
//! A usage error (unknown, repeated or valueless flag, `--threads` not
//! an integer >= 1) exits 2; a regression or an unreadable history
//! exits 1.

use bmf_bench::stages::{higher_is_better, Workloads, STAGE_NAMES};
use bmf_core::parallel::available_threads;
use bmf_obs::cli::{self, Grammar, ObsOptions};
use bmf_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A stage regresses when it exceeds `REGRESSION_FACTOR` × the baseline
/// median.
const REGRESSION_FACTOR: f64 = 1.25;
/// How many prior comparable entries feed the baseline median.
const BASELINE_WINDOW: usize = 3;

/// Days-from-civil inverse: converts a unix timestamp (seconds) to an
/// ISO-8601 UTC string without any date dependency (Howard Hinnant's
/// civil-from-days algorithm).
fn iso8601_utc(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs_of_day = unix_secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
        y,
        m,
        d,
        secs_of_day / 3600,
        (secs_of_day / 60) % 60,
        secs_of_day % 60
    )
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

/// Reads the entry list out of an existing history file; an absent file
/// is an empty history, a malformed one is a hard error (refuse to
/// clobber data we cannot parse).
fn load_entries(path: &str) -> Result<Vec<Value>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let doc = json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path} has no entries array"))?;
    Ok(entries.to_vec())
}

fn entry_u64(entry: &Value, path: &[&str]) -> Option<f64> {
    let mut v = entry;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

/// Whether two entries were produced by comparable runs: same core
/// count, same worker-thread count, same workload size.
fn comparable(a: &Value, b: &Value) -> bool {
    entry_u64(a, &["hardware", "detected_cores"]) == entry_u64(b, &["hardware", "detected_cores"])
        && entry_u64(a, &["hardware", "threads_used"])
            == entry_u64(b, &["hardware", "threads_used"])
        && a.get("quick") == b.get("quick")
}

fn median(sorted: &mut [f64]) -> f64 {
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Gates the latest entry against the median of the last
/// [`BASELINE_WINDOW`] comparable predecessors. `Ok(true)` = checked and
/// passed, `Ok(false)` = no comparable baseline (warn, not a failure).
fn regression_check(entries: &[Value]) -> Result<bool, String> {
    let Some((latest, earlier)) = entries.split_last() else {
        return Err("history is empty; nothing to check".to_string());
    };
    let baseline: Vec<&Value> = earlier
        .iter()
        .rev()
        .filter(|e| comparable(e, latest))
        .take(BASELINE_WINDOW)
        .collect();
    if baseline.is_empty() {
        return Ok(false);
    }
    let mut failures = Vec::new();
    for stage in STAGE_NAMES {
        let Some(current) = entry_u64(latest, &["stages", stage]) else {
            return Err(format!("latest entry has no timing for stage {stage}"));
        };
        let mut prior: Vec<f64> = baseline
            .iter()
            .filter_map(|e| entry_u64(e, &["stages", stage]))
            .collect();
        if prior.is_empty() {
            bmf_obs::warn!("bench_history: stage {stage} has no baseline timings; skipping");
            continue;
        }
        let med = median(&mut prior);
        // Duration stages regress when they get slower (current/median
        // grows); throughput stages regress when the rate drops, so the
        // ratio is inverted to keep one "worse > limit" test.
        let (ratio, unit) = if higher_is_better(stage) {
            (med / current, "/s")
        } else {
            (current / med, "s")
        };
        let verdict = if ratio > REGRESSION_FACTOR {
            failures.push(stage);
            "REGRESSION"
        } else {
            "ok"
        };
        bmf_obs::outln!(
            "bench_history: {stage:24} {current:.4}{unit} vs median {med:.4}{unit} \
             (worse x{ratio:.3}, limit x{REGRESSION_FACTOR}) {verdict}"
        );
    }
    if failures.is_empty() {
        Ok(true)
    } else {
        Err(format!(
            "stage(s) regressed beyond {REGRESSION_FACTOR}x the baseline median: {failures:?}"
        ))
    }
}

/// The flags of `bench_history`.
const GRAMMAR: Grammar = Grammar::new("--file --threads", "--quick --check-only --no-check", "");

fn main() -> ExitCode {
    let parsed = cli::parse(std::env::args(), &GRAMMAR, &[]).and_then(|args| {
        let obs = ObsOptions::from_args(&args)?;
        let threads = args
            .positive("--threads")?
            .unwrap_or_else(available_threads);
        obs.start(threads)?;
        Ok((args, obs, threads))
    });
    let (args, obs, threads) = parsed.unwrap_or_else(|e| e.exit("bench_history"));
    let quick = args.switch("--quick");
    let check_only = args.switch("--check-only");
    let no_check = args.switch("--no-check");
    let path = args
        .value("--file")
        .unwrap_or(bmf_obs::BENCH_HISTORY_FILE)
        .to_string();

    // The history run id keys this process's telemetry (events, trace,
    // dashboard) to the entry it appends; the timestamp seed makes each
    // timing run a distinct run.
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    obs.set_run(unix, &format!("bench_history quick={quick}"));

    let mut entries = match load_entries(&path) {
        Ok(entries) => entries,
        Err(e) => {
            bmf_obs::error!("bench_history: FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !check_only {
        // Best-of-N is the noise control: the minimum over N runs tracks
        // the machine's true capability far better than any single run,
        // and the quick stages are cheap enough to repeat.
        let runs = 3;
        bmf_obs::info!(
            "bench_history: timing {} stage(s) at {threads} thread(s), best of {runs} run(s){}",
            STAGE_NAMES.len(),
            if quick { " (quick)" } else { "" }
        );
        let w = Workloads::prepare(quick, threads);
        let mut stages = BTreeMap::new();
        for stage in STAGE_NAMES {
            let value = w.stage_value(stage, threads, runs);
            let unit = if higher_is_better(stage) { "/s" } else { "s" };
            bmf_obs::info!("  {stage:24} {value:.4}{unit}");
            bmf_obs::event!(Info, "bench.stage",
                "stage": stage, "value": value, "unit": unit);
            stages.insert(stage.to_string(), num(value));
        }
        let hardware = bmf_obs::HardwareContext::detect(threads);
        let mut hw = BTreeMap::new();
        hw.insert(
            "detected_cores".to_string(),
            num(hardware.detected_cores as f64),
        );
        hw.insert("threads_used".to_string(), num(threads as f64));
        hw.insert(
            "oversubscribed".to_string(),
            Value::Bool(hardware.detected_cores != 0 && threads > hardware.detected_cores),
        );
        let mut entry = BTreeMap::new();
        entry.insert("timestamp".to_string(), num(unix as f64));
        entry.insert(
            "timestamp_iso".to_string(),
            Value::String(iso8601_utc(unix)),
        );
        entry.insert("quick".to_string(), Value::Bool(quick));
        if let Some(run_id) = bmf_obs::run::run_id() {
            entry.insert("run_id".to_string(), Value::String(run_id));
        }
        entry.insert("hardware".to_string(), Value::Object(hw));
        entry.insert("stages".to_string(), Value::Object(stages));
        entries.push(Value::Object(entry));

        let mut doc = BTreeMap::new();
        doc.insert("entries".to_string(), Value::Array(entries.clone()));
        doc.insert(
            "note".to_string(),
            Value::String(
                "appended by bench_history; stages are best-of-N seconds, \
                 compared only across identical hardware + quick flag"
                    .to_string(),
            ),
        );
        if let Err(e) = bmf_obs::atomic_write(&path, Value::Object(doc).to_json() + "\n") {
            bmf_obs::error!("bench_history: FAIL: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        bmf_obs::info!("bench_history: appended entry #{} to {path}", entries.len());
    }

    let code = if no_check {
        bmf_obs::outln!("bench_history: check skipped (--no-check)");
        ExitCode::SUCCESS
    } else {
        match regression_check(&entries) {
            Ok(true) => {
                bmf_obs::outln!("bench_history: OK (no regression beyond x{REGRESSION_FACTOR})");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                bmf_obs::outln!(
                    "bench_history: WARN: no comparable baseline in {path} \
                     (different hardware/threads/quick); check passes vacuously"
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                bmf_obs::error!("bench_history: FAIL: {e}");
                ExitCode::FAILURE
            }
        }
    };
    if let Err(e) = obs.finish() {
        bmf_obs::error!("bench_history: failed to write observability output: {e}");
        return ExitCode::FAILURE;
    }
    code
}
