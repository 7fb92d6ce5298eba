//! `bmf_obs` — in-house tracing, metrics and profiling for the BMF
//! workspace.
//!
//! The paper's headline claim is a *cost* claim (up to 16× fewer
//! late-stage samples for the same covariance accuracy), so the repo has
//! to be able to say where its own wall-clock goes. This crate is the
//! shared observability substrate every other crate instruments against:
//!
//! * **[`span()`] timing** — hierarchical RAII spans recorded into
//!   thread-local buffers. The hot path touches only thread-local state;
//!   buffers merge into the process-wide sink when a thread exits (i.e.
//!   at the join of every `std::thread::scope` worker spawned by
//!   `bmf_stats::parallel`), so instrumentation composes with the
//!   deterministic parallel layer without a lock on the recording path.
//! * **[`metrics`]** — a process-wide registry of named [`Counter`]s and
//!   [`Histogram`]s (Cholesky calls/repairs, eigen sweeps, CV fold
//!   evaluations, Monte Carlo sims/retries, fault injections, guard
//!   flags, ladder-rung transitions). Counters are plain relaxed atomics:
//!   merging across workers is free and the totals are thread-count
//!   invariant.
//! * **[`export`]** — three exporters: Chrome trace-event JSON (loadable
//!   in Perfetto/`chrome://tracing`), an aggregated per-span profile
//!   (total/self time, call count, min/max) as JSON or a pretty table,
//!   and a metrics snapshot JSON. All exports embed hardware context
//!   (detected core count, thread count used) so committed numbers from
//!   a 1-core CI container are never misread as a scaling regression.
//! * **[`json`]** — the hand-rolled JSON escaping shared with
//!   `bmf_core`'s `FusionReport`, plus a minimal parser used to validate
//!   exported traces in tests and CI.
//! * **[`mod@event`]** — the leveled structured event log: typed
//!   [`EventRecord`]s from every pipeline decision point (guard flags,
//!   SPD repairs, retries, ladder rung transitions, drift alerts),
//!   buffered thread-locally like spans, drained as JSONL via
//!   `--events-out`, filtered by `BMF_LOG`; plus the console macros
//!   ([`error!`]/[`warn!`]/[`info!`]/[`debug!`]/[`outln!`]) the binaries
//!   print through and the rate-limited progress [`Heartbeat`].
//! * **[`flight`]** — the crash flight recorder: a fixed ring of the
//!   last [`flight::FLIGHT_CAPACITY`] events, dumped to
//!   `flight-<run_id>.json` on panic, strict failure, or a ladder drop
//!   past MAP.
//! * **[`run`]** — the [`RunContext`] (run id from root seed + config
//!   hash) stamped into every event line, export, report and dashboard
//!   so one run's artifacts can be joined offline.
//! * **[`health`]** — the *statistical* observability vocabulary:
//!   [`Severity`], the per-run [`HealthReport`] (prior–data conflict,
//!   effective sample size, covariance spectrum, CV surface, data
//!   quality) and the [`DriftTimeline`], with documented thresholds.
//!   The math that fills these types lives in `bmf_core`.
//! * **[`dashboard`]** — a zero-dependency, self-contained HTML
//!   dashboard (inline CSS + SVG, no JavaScript) combining profile,
//!   metrics, health, shard coverage, drift and bench history in one
//!   static page.
//! * **[`serve`]** — the `--obs-listen` HTTP server: the live scrape of
//!   the same state (`/metrics` as Prometheus text, `/health`,
//!   `/events`, `/progress`, `/flight` and the dashboard at `/`).
//! * **[`cli`]** — the one command-line grammar every binary parses
//!   through (unknown, repeated or valueless flags are usage errors),
//!   and the `--trace-out/--profile/--metrics-out/--dashboard-out/
//!   --events-out/--obs-listen/--log-level` flags it carries.
//!
//! Observability leaves a process two ways only: the exit-time
//! artifacts [`ObsOptions::finish`] writes, and the live `--obs-listen`
//! scrape. History and alerting belong to whatever scrapes `/metrics`.
//! Each artifact's writer module also owns its checker
//! ([`event::validate_jsonl`], [`flight::validate_dump`],
//! [`export::validate_chrome_trace`], [`export::validate_metrics`],
//! [`health::validate_health_json`], [`health::validate_drift_json`],
//! [`dashboard::validate`], [`prom::validate_exposition`]), so the
//! format and its check cannot drift apart; `trace_check` only
//! dispatches to them.
//!
//! # The two hard invariants
//!
//! 1. **Observability never changes a number.** No instrumentation point
//!    touches an RNG stream, reorders a floating-point reduction, or
//!    branches on recorded data. Estimates are bit-identical with
//!    tracing enabled or disabled, at every thread count
//!    (`tests/observability.rs` asserts this).
//! 2. **Disabled means no-op.** Recording is gated on one process-wide
//!    relaxed [`AtomicBool`]; when disabled, a span or counter call is a
//!    single load-and-branch with no time query, no allocation and no
//!    shared-memory write. CI fails if the measured no-op overhead on
//!    the CV micro-bench exceeds 2% (`obs_overhead`).
//!
//! # Example
//!
//! ```
//! bmf_obs::reset();
//! bmf_obs::enable();
//! {
//!     let _outer = bmf_obs::span("outer");
//!     let _inner = bmf_obs::span("inner");
//!     bmf_obs::counters::MONTE_CARLO_SIMS.incr();
//! }
//! bmf_obs::disable();
//! let events = bmf_obs::take_events();
//! assert_eq!(events.len(), 2);
//! assert!(bmf_obs::metrics::snapshot()
//!     .counters
//!     .iter()
//!     .any(|(name, v)| *name == "monte_carlo.sims" && *v == 1));
//! bmf_obs::reset();
//! ```

pub mod cli;
pub mod dashboard;
pub mod event;
pub mod export;
pub mod flight;
pub mod fsio;
pub mod health;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod run;
pub mod serve;
pub mod shard;
pub mod span;

pub use cli::{Args, Grammar, ObsOptions, UsageError, BENCH_HISTORY_FILE};
pub use event::{EventRecord, Heartbeat, Level, ProgressEntry};
pub use export::{chrome_trace_json, metrics_json, profile_json, profile_table, HardwareContext};
pub use fsio::atomic_write;
pub use health::{DriftTimeline, DriftWindow, HealthReport, Severity};
pub use metrics::{
    counters, histograms, Counter, Histogram, MetricsSnapshot, PhaseClock, ProcessStats,
};
pub use run::RunContext;
pub use serve::ObsServer;
pub use shard::ShardCoverage;
pub use span::{span, take_events, Span, SpanEvent};

/// Drains every recorded structured event (see [`mod@event`]).
pub use event::take_records as take_event_records;

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide recording switch. Everything in this crate gates on it
/// with a single relaxed load; see the crate docs for the no-op contract.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on (idempotent). Also anchors the trace epoch on
/// first use so timestamps are relative to the first enable.
pub fn enable() {
    span::epoch(); // anchor the clock before any event is recorded
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off (idempotent). Spans already open keep recording
/// their close so per-thread stacks stay balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently on.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Disables recording and clears all recorded events and metric values:
/// spans, structured events, the flight-recorder ring, the run context,
/// the live server's published state and the event level filters.
/// Intended for tests and for delimiting independent measurement
/// windows.
pub fn reset() {
    disable();
    span::clear();
    event::clear();
    event::reset_levels();
    flight::clear();
    run::clear();
    metrics::reset_all();
    serve::clear_live();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global state is process-wide; tests in this crate serialize on this
    // lock so cargo's parallel test runner cannot interleave them.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _g = test_lock();
        reset();
        assert!(!is_enabled());
        enable();
        assert!(is_enabled());
        disable();
        assert!(!is_enabled());
        reset();
    }

    #[test]
    fn reset_clears_events_and_metrics() {
        let _g = test_lock();
        reset();
        enable();
        {
            let _s = span("reset-test");
            counters::CHOLESKY_CALLS.incr();
        }
        assert!(!take_events().is_empty() || counters::CHOLESKY_CALLS.get() > 0);
        reset();
        assert!(take_events().is_empty());
        assert_eq!(counters::CHOLESKY_CALLS.get(), 0);
    }
}
