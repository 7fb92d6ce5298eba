//! Shared handling of the observability CLI flags.
//!
//! Every binary in the workspace accepts the same flags:
//!
//! * `--trace-out <path>` — write a Chrome trace-event JSON file
//!   (loadable in Perfetto / `chrome://tracing`)
//! * `--profile` — print the aggregated per-span profile table to stdout
//! * `--metrics-out <path>` — write a metrics snapshot JSON file
//! * `--dashboard-out <path>` — write a self-contained HTML dashboard
//!   (profile, metrics, estimator health, drift timeline, event log,
//!   bench history)
//! * `--events-out <path>` — write the structured event log as JSONL
//!   (one JSON object per line) and arm the flight-recorder panic hook
//! * `--obs-listen <addr>` — serve live observability over HTTP while
//!   the run is in flight (`/metrics`, `/health`, `/events`,
//!   `/progress`, `/flight` and a live dashboard at `/`); port `0` picks
//!   a free port, and the bound address is printed (and written to
//!   `$BMF_OBS_ADDR_FILE` when set) so scripts can find it. History and
//!   alert rules are the scraper's job: `/metrics` is Prometheus text.
//! * `--log-level <error|warn|info|debug>` — console verbosity for the
//!   [`crate::error!`]/[`crate::warn!`]/[`crate::info!`]/[`crate::outln!`]
//!   macros; `--log-level error` makes a binary fully quiet. Unlike the
//!   output flags it does *not* enable recording.
//!
//! The `BMF_LOG` environment variable (same level names) sets both the
//! console and the event-stream filter; `--log-level` then overrides
//! the console side.
//!
//! [`ObsOptions::extract`] strips the flags out of an argv vector
//! *before* the binary's own parsing runs, so the existing positional /
//! flag parsers in `bmf` and the figure bins never see them. If any
//! output flag is present, recording is enabled for the whole run;
//! [`ObsOptions::finish`] then drains the recorded data and writes the
//! requested artifacts. Binaries that compute a [`HealthReport`] or a
//! [`DriftTimeline`] attach them via [`ObsOptions::attach_health`] /
//! [`ObsOptions::attach_drift`] before calling `finish`, and install
//! their run identity via [`ObsOptions::set_run`].

use crate::dashboard::{self, DashboardData};
use crate::event::Level;
use crate::export::HardwareContext;
use crate::fsio::atomic_write;
use crate::health::{DriftTimeline, HealthReport};
use crate::shard::ShardCoverage;
use std::io;

/// Filename the dashboard looks for (in the working directory) to
/// populate its bench-history section.
pub const BENCH_HISTORY_FILE: &str = "BENCH_history.json";

/// Parsed observability flags for one process run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Destination for the Chrome trace JSON, if requested.
    pub trace_out: Option<String>,
    /// Whether to print the aggregated profile table at exit.
    pub profile: bool,
    /// Destination for the metrics snapshot JSON, if requested.
    pub metrics_out: Option<String>,
    /// Destination for the HTML dashboard, if requested.
    pub dashboard_out: Option<String>,
    /// Destination for the JSONL event log, if requested.
    pub events_out: Option<String>,
    /// Listen address for the live observability HTTP server, if given.
    pub obs_listen: Option<String>,
    /// Console level from `--log-level`, if given (applied at extract).
    pub log_level: Option<Level>,
    /// Worker thread count recorded in exports; bins set this after
    /// their own `--threads` parsing via [`ObsOptions::set_threads`].
    pub threads_used: usize,
    /// Dashboard page title; defaults to the binary's argv\[0\] stem.
    pub title: String,
    /// Health report attached by the binary, rendered in the dashboard.
    pub health: Option<HealthReport>,
    /// Drift timeline attached by the binary, rendered in the dashboard.
    pub drift: Option<DriftTimeline>,
    /// Shard coverage attached by a merge, rendered in the dashboard.
    pub shard: Option<ShardCoverage>,
}

/// Error raised when an observability flag is missing or has an
/// unusable value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsFlagError {
    pub flag: &'static str,
    pub message: String,
}

impl ObsFlagError {
    fn missing_value(flag: &'static str) -> Self {
        ObsFlagError {
            flag,
            message: "requires a value".to_string(),
        }
    }

    fn bad_level(flag: &'static str, got: &str) -> Self {
        ObsFlagError {
            flag,
            message: format!("requires a level (error|warn|info|debug), got {got:?}"),
        }
    }
}

impl std::fmt::Display for ObsFlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flag {} {}", self.flag, self.message)
    }
}

impl std::error::Error for ObsFlagError {}

impl ObsOptions {
    /// Removes `--trace-out <path>`, `--profile`, `--metrics-out <path>`,
    /// `--dashboard-out <path>`, `--events-out <path>`,
    /// `--obs-listen <addr>` and `--log-level <level>` (also the
    /// `--flag=value` spellings) from `args`, returning the parsed
    /// options. If any output flag was present, recording is enabled
    /// process-wide before returning, so spans, counters and events hit
    /// from the very first pipeline call are captured; `--events-out`
    /// additionally arms the flight-recorder panic hook and
    /// `--obs-listen` starts the server. The `BMF_LOG` environment variable
    /// sets both level filters first; `--log-level` then overrides the
    /// console side.
    pub fn extract(args: &mut Vec<String>) -> Result<ObsOptions, ObsFlagError> {
        let mut options = ObsOptions {
            threads_used: 1,
            ..ObsOptions::default()
        };
        if let Some(bin) = args.first() {
            options.title = bin.rsplit(['/', '\\']).next().unwrap_or(bin).to_string();
        }
        let mut kept = Vec::with_capacity(args.len());
        let mut iter = args.drain(..);
        let mut error: Option<ObsFlagError> = None;
        let mut level_arg: Option<String> = None;
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--profile" => options.profile = true,
                "--trace-out" => match iter.next() {
                    Some(path) => options.trace_out = Some(path),
                    None => {
                        error = Some(ObsFlagError::missing_value("--trace-out"));
                        break;
                    }
                },
                "--metrics-out" => match iter.next() {
                    Some(path) => options.metrics_out = Some(path),
                    None => {
                        error = Some(ObsFlagError::missing_value("--metrics-out"));
                        break;
                    }
                },
                "--dashboard-out" => match iter.next() {
                    Some(path) => options.dashboard_out = Some(path),
                    None => {
                        error = Some(ObsFlagError::missing_value("--dashboard-out"));
                        break;
                    }
                },
                "--events-out" => match iter.next() {
                    Some(path) => options.events_out = Some(path),
                    None => {
                        error = Some(ObsFlagError::missing_value("--events-out"));
                        break;
                    }
                },
                "--obs-listen" => match iter.next() {
                    Some(addr) => options.obs_listen = Some(addr),
                    None => {
                        error = Some(ObsFlagError::missing_value("--obs-listen"));
                        break;
                    }
                },
                "--log-level" => match iter.next() {
                    Some(level) => level_arg = Some(level),
                    None => {
                        error = Some(ObsFlagError::missing_value("--log-level"));
                        break;
                    }
                },
                _ => {
                    if let Some(path) = arg.strip_prefix("--trace-out=") {
                        options.trace_out = Some(path.to_string());
                    } else if let Some(path) = arg.strip_prefix("--metrics-out=") {
                        options.metrics_out = Some(path.to_string());
                    } else if let Some(path) = arg.strip_prefix("--dashboard-out=") {
                        options.dashboard_out = Some(path.to_string());
                    } else if let Some(path) = arg.strip_prefix("--events-out=") {
                        options.events_out = Some(path.to_string());
                    } else if let Some(addr) = arg.strip_prefix("--obs-listen=") {
                        options.obs_listen = Some(addr.to_string());
                    } else if let Some(level) = arg.strip_prefix("--log-level=") {
                        level_arg = Some(level.to_string());
                    } else {
                        kept.push(arg);
                    }
                }
            }
        }
        drop(iter);
        *args = kept;
        if let Some(error) = error {
            return Err(error);
        }
        // BMF_LOG filters both what is printed and what is recorded;
        // --log-level then overrides the console side only.
        if let Ok(spec) = std::env::var("BMF_LOG") {
            if let Some(level) = Level::parse(spec.trim()) {
                crate::event::set_console_level(level);
                crate::event::set_stream_level(level);
            }
        }
        if let Some(spec) = level_arg {
            let Some(level) = Level::parse(&spec) else {
                return Err(ObsFlagError::bad_level("--log-level", &spec));
            };
            options.log_level = Some(level);
            crate::event::set_console_level(level);
        }
        if options.any() {
            crate::enable();
        }
        if options.events_out.is_some() {
            crate::flight::install_panic_hook();
        }
        if let Some(addr) = &options.obs_listen {
            match crate::serve::start_global(addr) {
                Ok(bound) => {
                    crate::serve::set_live_context(&options.title, options.threads_used);
                    crate::info!("observability server listening on http://{bound}/");
                }
                Err(e) => {
                    return Err(ObsFlagError {
                        flag: "--obs-listen",
                        message: format!("cannot listen on {addr:?}: {e}"),
                    })
                }
            }
        }
        Ok(options)
    }

    /// Whether any observability output was requested (`--log-level`
    /// deliberately does not count: it filters, it does not record).
    /// `--obs-listen` counts: a live scraper needs live data.
    pub fn any(&self) -> bool {
        self.trace_out.is_some()
            || self.profile
            || self.metrics_out.is_some()
            || self.dashboard_out.is_some()
            || self.events_out.is_some()
            || self.obs_listen.is_some()
    }

    /// Records the worker thread count for export hardware context.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads_used = threads.max(1);
        if self.obs_listen.is_some() {
            crate::serve::set_live_context(&self.title, self.threads_used);
        }
    }

    /// Overrides the dashboard page title.
    pub fn set_title(&mut self, title: impl Into<String>) {
        self.title = title.into();
        if self.obs_listen.is_some() {
            crate::serve::set_live_context(&self.title, self.threads_used);
        }
    }

    /// Attaches the run's health report for dashboard rendering (and
    /// publishes it to the live `/health` endpoint when serving).
    pub fn attach_health(&mut self, health: HealthReport) {
        crate::serve::publish_health(&health);
        self.health = Some(health);
    }

    /// Attaches the run's drift timeline for dashboard rendering (and
    /// publishes it to the live `/health` endpoint when serving).
    pub fn attach_drift(&mut self, drift: DriftTimeline) {
        crate::serve::publish_drift(&drift);
        self.drift = Some(drift);
    }

    /// Attaches a merge's shard coverage for dashboard rendering (and
    /// publishes it to the live dashboard when serving).
    pub fn attach_shard(&mut self, shard: ShardCoverage) {
        crate::serve::publish_shard(&shard);
        self.shard = Some(shard);
    }

    /// Derives and installs the process-wide [`crate::run::RunContext`]
    /// from the run's root seed and configuration description. Call once
    /// after argument parsing; the id is then stamped into every JSONL
    /// event line, export, `FusionReport` and flight dump. Cheap and
    /// unconditional — installing a run identity does not enable
    /// recording.
    pub fn set_run(&self, root_seed: u64, config: &str) {
        crate::run::set(crate::run::RunContext::derive(root_seed, config));
    }

    /// Drains recorded spans/metrics and writes every requested
    /// artifact. Call once, at the end of `main`. A no-op when no flag
    /// was given.
    pub fn finish(&self) -> io::Result<()> {
        if !self.any() {
            return Ok(());
        }
        // Stop serving before draining: a scrape racing the drain would
        // see a half-empty registry.
        crate::serve::stop_global();
        crate::disable();
        let events = crate::span::take_events();
        let records = crate::event::take_records();
        let hardware = HardwareContext::detect(self.threads_used);
        let run = crate::run::current();
        if let Some(path) = &self.trace_out {
            atomic_write(
                path,
                crate::export::chrome_trace_json(&events, &hardware, run.as_ref()),
            )?;
            crate::info!("wrote trace ({} events) to {path}", events.len());
        }
        if let Some(path) = &self.events_out {
            let mut body = String::with_capacity(records.len() * 128);
            let run_id = run.as_ref().map(|r| r.run_id.as_str());
            for record in &records {
                body.push_str(&record.to_json(run_id));
                body.push('\n');
            }
            atomic_write(path, body)?;
            crate::info!("wrote event log ({} events) to {path}", records.len());
        }
        if let Some(path) = &self.metrics_out {
            let snapshot = crate::metrics::snapshot();
            atomic_write(
                path,
                crate::export::metrics_json(&snapshot, &hardware, run.as_ref()),
            )?;
            crate::info!("wrote metrics snapshot to {path}");
        }
        if let Some(path) = &self.dashboard_out {
            let snapshot = crate::metrics::snapshot();
            let bench_history = std::fs::read_to_string(BENCH_HISTORY_FILE).ok();
            let flight_dump = crate::flight::last_dump();
            let page = dashboard::render(&DashboardData {
                title: if self.title.is_empty() {
                    "bmf dashboard"
                } else {
                    &self.title
                },
                hardware: &hardware,
                run: run.as_ref(),
                events: &events,
                event_log: &records,
                flight_occupancy: crate::flight::occupancy(),
                flight_dump: flight_dump.as_ref(),
                snapshot: &snapshot,
                health: self.health.as_ref(),
                drift: self.drift.as_ref(),
                shard: self.shard.as_ref(),
                bench_history_json: bench_history.as_deref(),
                refresh_s: None,
            });
            atomic_write(path, page)?;
            crate::info!("wrote dashboard to {path}");
        }
        if self.profile {
            let snapshot = crate::metrics::snapshot();
            print!(
                "{}",
                crate::export::profile_table(&events, &snapshot.histograms, &hardware)
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_strips_flags_and_keeps_the_rest() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&[
            "fig4_opamp",
            "--trace-out",
            "trace.json",
            "--quick",
            "--profile",
            "--metrics-out=metrics.json",
            "--dashboard-out",
            "dash.html",
            "--threads",
            "2",
        ]);
        let options = ObsOptions::extract(&mut args).unwrap();
        assert_eq!(args, argv(&["fig4_opamp", "--quick", "--threads", "2"]));
        assert_eq!(options.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(options.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(options.dashboard_out.as_deref(), Some("dash.html"));
        assert_eq!(options.title, "fig4_opamp");
        assert!(options.profile);
        assert!(options.any());
        // Presence of any flag switches recording on.
        assert!(crate::is_enabled());
        crate::reset();
    }

    #[test]
    fn extract_without_flags_is_inert() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&["bmf", "estimate", "--threads", "4"]);
        let options = ObsOptions::extract(&mut args).unwrap();
        assert_eq!(args, argv(&["bmf", "estimate", "--threads", "4"]));
        assert!(!options.any());
        assert!(!crate::is_enabled());
        assert!(options.finish().is_ok());
        crate::reset();
    }

    #[test]
    fn extract_rejects_missing_path_value() {
        let _g = test_lock();
        crate::reset();
        for flag in [
            "--trace-out",
            "--metrics-out",
            "--dashboard-out",
            "--events-out",
            "--log-level",
        ] {
            let mut args = argv(&["bmf", flag]);
            let err = ObsOptions::extract(&mut args).unwrap_err();
            assert_eq!(err.flag, flag);
            assert!(!crate::is_enabled());
        }
        crate::reset();
    }

    #[test]
    fn events_out_enables_recording_and_log_level_does_not() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&["bmf", "estimate", "--events-out", "events.jsonl"]);
        let options = ObsOptions::extract(&mut args).unwrap();
        assert_eq!(args, argv(&["bmf", "estimate"]));
        assert_eq!(options.events_out.as_deref(), Some("events.jsonl"));
        assert!(options.any());
        assert!(crate::is_enabled());
        crate::reset();

        let mut args = argv(&["bmf", "--log-level=warn", "estimate"]);
        let options = ObsOptions::extract(&mut args).unwrap();
        assert_eq!(args, argv(&["bmf", "estimate"]));
        assert_eq!(options.log_level, Some(Level::Warn));
        assert!(!options.any(), "--log-level alone requests no output");
        assert!(!crate::is_enabled());
        assert_eq!(crate::event::console_level(), Level::Warn);
        crate::reset();
    }

    #[test]
    fn log_level_rejects_unknown_levels() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&["bmf", "--log-level", "loud"]);
        let err = ObsOptions::extract(&mut args).unwrap_err();
        assert_eq!(err.flag, "--log-level");
        assert!(err.to_string().contains("loud"), "{err}");
        crate::reset();
    }

    #[test]
    fn finish_writes_jsonl_events_with_run_ids() {
        let _g = test_lock();
        crate::reset();
        let dir = std::env::temp_dir().join(format!("bmf-cli-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("events.jsonl");
        let mut args = argv(&[
            "bmf",
            "--events-out",
            out.to_str().unwrap(),
            "--log-level",
            "error", // keep the status line quiet under the test runner
        ]);
        let options = ObsOptions::extract(&mut args).unwrap();
        options.set_run(2015, "cli finish test");
        crate::event!(Warn, "mc.retry", "attempt": 2u64);
        crate::event!(Info, "ladder.transition", "from": "map", "to": "mle");
        options.finish().unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        let expected_id = crate::run::RunContext::derive(2015, "cli finish test").run_id;
        for line in &lines {
            let v = crate::json::parse(line).expect("JSONL line parses");
            assert_eq!(
                v.get("run_id").and_then(crate::json::Value::as_str),
                Some(expected_id.as_str())
            );
        }
        let _ = std::fs::remove_file(&out);
        crate::reset();
    }

    #[test]
    fn obs_listen_starts_the_live_server_and_finish_stops_it() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&[
            "bmf",
            "--obs-listen=127.0.0.1:0",
            "--log-level",
            "error", // keep the status line quiet under the test runner
            "estimate",
        ]);
        let options = ObsOptions::extract(&mut args).unwrap();
        assert_eq!(args, argv(&["bmf", "estimate"]));
        assert_eq!(options.obs_listen.as_deref(), Some("127.0.0.1:0"));
        assert!(options.any(), "--obs-listen requests live output");
        assert!(crate::is_enabled());
        let addr = crate::serve::global_addr().expect("server is running");
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
        options.finish().unwrap();
        assert!(
            crate::serve::global_addr().is_none(),
            "finish stops the server"
        );
        crate::reset();
    }

    #[test]
    fn obs_listen_rejects_unbindable_addresses() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&["bmf", "--obs-listen", "not-an-address"]);
        let err = ObsOptions::extract(&mut args).unwrap_err();
        assert_eq!(err.flag, "--obs-listen");
        crate::reset();
    }

    #[test]
    fn dashboard_equals_spelling_and_title_override() {
        let _g = test_lock();
        crate::reset();
        let mut args = argv(&["/usr/bin/fig5_adc", "--dashboard-out=out.html"]);
        let mut options = ObsOptions::extract(&mut args).unwrap();
        assert_eq!(options.dashboard_out.as_deref(), Some("out.html"));
        assert_eq!(options.title, "fig5_adc");
        options.set_title("custom title");
        assert_eq!(options.title, "custom title");
        crate::reset();
    }
}
