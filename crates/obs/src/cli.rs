//! The one command-line grammar of the workspace, and the observability
//! flags every run-producing binary accepts through it.
//!
//! # Grammar
//!
//! A binary declares a [`Grammar`]: the flags that take one value
//! (`--name value`, given at most once), its switches (no value) and
//! its repeatable flags (`--name value`, any number of times, such as
//! `--packet` or `--expect-counter`). [`parse`] reads the command line
//! against it and refuses, with a [`UsageError`] naming the argument,
//! a flag the grammar does not declare (`--flag=value` included: each
//! flag has one spelling), a flag without its value (the line ends, or
//! the next word is itself a `--flag`), a second copy of a single-valued
//! flag, and a stray positional argument. The typed getters of [`Args`]
//! refuse a malformed value the same way, and every binary maps a
//! [`UsageError`] to exit code 2 before it does any work. A binary with
//! subcommands (`bmf`) passes one grammar per subcommand; the first
//! positional names the subcommand, and the observability flags are
//! accepted on either side of it, but not without it: with no subcommand
//! there is no run for them to observe.
//!
//! # Observability flags
//!
//! A grammar with `obs: true` also accepts `--trace-out <path>` (Chrome
//! trace-event JSON, loadable in Perfetto), `--profile` (per-span
//! profile table on stdout), `--metrics-out <path>` (metrics snapshot
//! JSON), `--dashboard-out <path>` (self-contained HTML dashboard),
//! `--events-out <path>` (structured event log as JSONL; also arms the
//! flight-recorder panic hook), `--obs-listen <addr>` (live `/metrics`,
//! `/health`, `/events`, `/progress`, `/flight` and dashboard `/` over
//! HTTP; port `0` picks a free port, printed and written to
//! `$BMF_OBS_ADDR_FILE` when set) and `--log-level <error|warn|info|debug>`
//! (console verbosity for the [`crate::error!`]/[`crate::warn!`]/
//! [`crate::info!`]/[`crate::outln!`] macros; `error` makes a binary
//! quiet, and it enables no recording). The `BMF_LOG` environment
//! variable (same level names) sets both the console and the
//! event-stream filter; `--log-level` then overrides the console side.
//! An unknown level in either is a usage error.
//!
//! [`ObsOptions::from_args`] reads these flags from the parse;
//! [`ObsOptions::start`] applies them once the binary has read its own
//! flags. If any output flag is present, recording is enabled for the
//! whole run, and [`ObsOptions::finish`] then drains the recorded data
//! and writes the requested artifacts — also when the run failed, but
//! never before `start`, so a usage error found while reading the flags
//! leaves no trace. The run's health report, drift timeline and
//! shard coverage reach the dashboard through the one store the live
//! server reads too ([`crate::serve::publish_health`] and its siblings).

use crate::event::Level;
use crate::fsio::atomic_write;
use std::io;
use std::str::FromStr;

/// Filename the dashboard looks for (in the working directory) to
/// populate its bench-history section.
pub const BENCH_HISTORY_FILE: &str = "BENCH_history.json";

/// The observability flags that take a value, then the one switch.
const OBS_VALUES: &str =
    "--trace-out --metrics-out --dashboard-out --events-out --obs-listen --log-level";
const OBS_SWITCHES: &str = "--profile";

/// The flags one binary, or one `bmf` subcommand, accepts; each field is
/// a space-separated list.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// Flags that take one value and may be given once.
    pub values: &'static str,
    /// Flags that take no value.
    pub switches: &'static str,
    /// Flags that take one value and may be given any number of times.
    pub repeatable: &'static str,
    /// Whether the observability flags are accepted as well.
    pub obs: bool,
}

fn listed(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

impl Grammar {
    /// A grammar that accepts the observability flags as well.
    pub const fn new(
        values: &'static str,
        switches: &'static str,
        repeatable: &'static str,
    ) -> Grammar {
        Grammar {
            values,
            switches,
            repeatable,
            obs: true,
        }
    }

    /// Every flag the grammar declares, observability flags included.
    pub fn flags(&self) -> impl Iterator<Item = &'static str> {
        let (obs_values, obs_switches) = if self.obs {
            (OBS_VALUES, OBS_SWITCHES)
        } else {
            ("", "")
        };
        [
            self.values,
            self.switches,
            self.repeatable,
            obs_values,
            obs_switches,
        ]
        .into_iter()
        .flat_map(str::split_whitespace)
    }
}

/// A command line the grammar refuses: the argument at fault and a
/// message that names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// The flag (or argument, or environment variable) at fault.
    pub flag: String,
    /// What is wrong, naming `flag`.
    pub message: String,
}

impl UsageError {
    /// A usage error about `flag`.
    pub fn new(flag: &str, message: impl Into<String>) -> UsageError {
        UsageError {
            flag: flag.to_string(),
            message: message.into(),
        }
    }

    /// Prints the error after `prefix` and exits with code 2.
    pub fn exit(&self, prefix: &str) -> ! {
        crate::error!("{prefix}: {self}");
        std::process::exit(2)
    }
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for UsageError {}

/// A command line that parsed against its grammar. The getters return a
/// [`UsageError`] naming the flag when a value is absent or malformed.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// File stem of `argv[0]`.
    pub program: String,
    /// The subcommand, when parsed against subcommand grammars.
    pub subcommand: Option<&'static str>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.values.iter().find(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str())
    }

    /// Every value of the repeatable `flag`, in command-line order.
    pub fn all(&self, flag: &str) -> Vec<&str> {
        let given = self.values.iter().filter(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_str()).collect()
    }

    /// The value of `flag`, which must be given.
    pub fn required(&self, flag: &str) -> Result<&str, UsageError> {
        self.value(flag)
            .ok_or_else(|| UsageError::new(flag, format!("missing required flag {flag}")))
    }

    /// The value of `flag` parsed as a `T`, if given.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, UsageError> {
        let parse = |raw: &str| {
            let bad = || UsageError::new(flag, format!("{flag} has unusable value '{raw}'"));
            raw.parse().map_err(|_| bad())
        };
        self.value(flag).map(parse).transpose()
    }

    /// [`Args::get`] with a default for an absent flag.
    pub fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, UsageError> {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// The value of `flag`, which must be given, as an integer ≥ 1.
    pub fn required_count(&self, flag: &str) -> Result<usize, UsageError> {
        self.required(flag)?;
        Ok(self.positive(flag)?.expect("checked present"))
    }

    /// The value of `flag` as an integer ≥ 1 (`--threads` and other
    /// counts), if given.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, UsageError> {
        match self.get::<usize>(flag) {
            Ok(Some(0)) | Err(_) => Err(UsageError::new(
                flag,
                format!(
                    "{flag} must be an integer >= 1, got '{}'",
                    self.value(flag).unwrap_or_default()
                ),
            )),
            count => count,
        }
    }
}

/// Parses `argv` (program name first) against `grammar`, or, when
/// `subcommands` is not empty, against the grammar of the subcommand its
/// first positional names; before that positional only `grammar`'s
/// flags are accepted, and with no subcommand at all only the ones
/// `grammar` declares itself (not the observability flags).
///
/// # Errors
///
/// A [`UsageError`] for an unknown flag or subcommand, a flag without
/// its value, a repeated single-valued flag, a stray positional, or an
/// observability flag with no subcommand to observe.
pub fn parse(
    argv: impl IntoIterator<Item = String>,
    grammar: &Grammar,
    subcommands: &[(&'static str, Grammar)],
) -> Result<Args, UsageError> {
    let mut argv = argv.into_iter().peekable();
    let program = argv.next().unwrap_or_default();
    let mut args = Args {
        program: program.rsplit(['/', '\\']).next().unwrap_or("").to_string(),
        ..Args::default()
    };
    let mut active = grammar;
    while let Some(word) = argv.next() {
        let Some(flag) = active.flags().find(|f| *f == word) else {
            let sub = subcommands.iter().find(|(name, _)| *name == word);
            let message = match sub {
                _ if word.starts_with("--") => format!("unknown flag {word}"),
                Some((name, sub)) if args.subcommand.is_none() => {
                    args.subcommand = Some(name);
                    active = sub;
                    continue;
                }
                None if args.subcommand.is_none() && !subcommands.is_empty() => {
                    format!("unknown subcommand '{word}'")
                }
                _ => format!("unexpected argument '{word}'"),
            };
            return Err(UsageError::new(&word, message));
        };
        let repeats = listed(active.repeatable, flag);
        if !repeats && (args.switch(flag) || args.value(flag).is_some()) {
            return Err(UsageError::new(
                flag,
                format!("{flag} given more than once"),
            ));
        }
        if listed(active.switches, flag) || listed(OBS_SWITCHES, flag) {
            args.switches.push(flag);
            continue;
        }
        match argv.next_if(|next| !next.starts_with("--")) {
            Some(value) => args.values.push((flag, value)),
            None => return Err(UsageError::new(flag, format!("{flag} requires a value"))),
        }
    }
    if !subcommands.is_empty() && args.subcommand.is_none() {
        // With no subcommand there is no run to observe.
        let obs = |flag: &&str| listed(OBS_VALUES, flag) || listed(OBS_SWITCHES, flag);
        let values = args.values.iter().map(|(flag, _)| flag);
        if let Some(flag) = values.chain(&args.switches).copied().find(obs) {
            return Err(UsageError::new(flag, format!("{flag} needs a subcommand")));
        }
    }
    Ok(args)
}

/// Parsed observability flags for one process run.
#[derive(Debug, Clone)]
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
    /// Console level from `--log-level`, if given.
    pub log_level: Option<Level>,
    /// Console and stream level from `BMF_LOG`, if set.
    env_level: Option<Level>,
    /// Dashboard page title: the subcommand, else the program name.
    title: String,
}

fn level(flag: &str, spec: &str) -> Result<Level, UsageError> {
    Level::parse(spec).ok_or_else(|| {
        UsageError::new(
            flag,
            format!("{flag} requires a level (error|warn|info|debug), got {spec:?}"),
        )
    })
}

impl ObsOptions {
    /// Reads the observability flags out of `args` and the `BMF_LOG`
    /// environment variable (an empty one counts as unset). Changes no
    /// process state: [`ObsOptions::start`] does that.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] naming `--log-level` or `BMF_LOG` when either
    /// holds an unknown level.
    pub fn from_args(args: &Args) -> Result<ObsOptions, UsageError> {
        let owned = |flag| args.value(flag).map(str::to_string);
        let env_level = match std::env::var("BMF_LOG") {
            Ok(spec) if !spec.trim().is_empty() => Some(level("BMF_LOG", spec.trim())?),
            _ => None,
        };
        Ok(ObsOptions {
            trace_out: owned("--trace-out"),
            profile: args.switch("--profile"),
            metrics_out: owned("--metrics-out"),
            dashboard_out: owned("--dashboard-out"),
            events_out: owned("--events-out"),
            obs_listen: owned("--obs-listen"),
            log_level: args
                .value("--log-level")
                .map(|spec| level("--log-level", spec))
                .transpose()?,
            env_level,
            title: args.subcommand.unwrap_or(&args.program).to_string(),
        })
    }

    /// Applies the options for a run on `threads` worker threads: sets
    /// the level filters, records the title and thread count for the
    /// exports, and, if any output flag is present, enables recording
    /// process-wide, so spans, counters and events hit from the first
    /// pipeline call on are captured. `--events-out` also arms the
    /// flight-recorder panic hook and `--obs-listen` starts the server.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] naming `--obs-listen` when its address cannot be
    /// bound.
    pub fn start(&self, threads: usize) -> Result<(), UsageError> {
        // BMF_LOG filters both what is printed and what is recorded;
        // --log-level then overrides the console side only.
        if let Some(level) = self.env_level {
            crate::event::set_console_level(level);
            crate::event::set_stream_level(level);
        }
        if let Some(level) = self.log_level {
            crate::event::set_console_level(level);
        }
        crate::serve::set_live_context(&self.title, threads);
        if self.any() {
            crate::enable();
        }
        if self.events_out.is_some() {
            crate::flight::install_panic_hook();
        }
        if let Some(addr) = &self.obs_listen {
            let bound = crate::serve::start_global(addr).map_err(|e| {
                UsageError::new(
                    "--obs-listen",
                    format!("--obs-listen cannot listen on {addr:?}: {e}"),
                )
            })?;
            crate::info!("observability server listening on http://{bound}/");
        }
        Ok(())
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
    /// artifact. Call once, at the end of `main`, whether or not the run
    /// succeeded. A no-op when no flag was given, and before
    /// [`ObsOptions::start`] switched recording on: a run that never
    /// started leaves no artifact.
    pub fn finish(&self) -> io::Result<()> {
        if !(self.any() && crate::is_enabled()) {
            return Ok(());
        }
        // Stop serving before draining: a scrape racing the drain would
        // see a half-empty registry.
        crate::serve::stop_global();
        crate::disable();
        let events = crate::span::take_events();
        let records = crate::event::take_records();
        let hardware = crate::serve::live_hardware();
        let run = crate::run::current();
        if let Some(path) = &self.trace_out {
            atomic_write(
                path,
                crate::export::chrome_trace_json(&events, &hardware, run.as_ref()),
            )?;
            crate::info!("wrote trace ({} events) to {path}", events.len());
        }
        if let Some(path) = &self.events_out {
            let run_id = run.as_ref().map(|r| r.run_id.as_str());
            atomic_write(path, crate::event::to_jsonl(&records, run_id))?;
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
            atomic_write(path, crate::serve::dashboard_page(&events, &records, None))?;
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

    const FIG: Grammar = Grammar::new("--threads --svg", "--quick", "--packet");

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn parsed(line: &str) -> Result<Args, UsageError> {
        let top = Grammar::new("", "--help", "");
        parse(argv(line), &top, &[("run", FIG), ("other", top)])
    }

    #[test]
    fn parse_reads_values_switches_repeats_and_the_subcommand() {
        let line = "/usr/bin/bmf --log-level error run --quick --threads 2 --packet a --profile --packet b";
        let args = parsed(line).unwrap();
        assert_eq!(args.program, "bmf");
        assert_eq!(args.subcommand, Some("run"));
        assert!(args.switch("--quick") && args.switch("--profile"));
        assert_eq!(args.positive("--threads"), Ok(Some(2)));
        assert_eq!(args.all("--packet"), ["a", "b"]);
        assert_eq!(args.value("--log-level"), Some("error"));
        assert_eq!(args.get_or("--svg", 7), Ok(7));
        assert!(parsed("bmf --help").unwrap().switch("--help"));
    }

    #[test]
    fn parse_refuses_what_the_grammar_does_not_declare() {
        for (line, flag) in [
            ("bmf run --quikc", "--quikc"),
            ("bmf run --threads=2", "--threads=2"),
            ("bmf run --svg", "--svg"),
            ("bmf run --svg --quick", "--svg"),
            ("bmf run --threads 1 --threads 2", "--threads"),
            ("bmf run --quick --quick", "--quick"),
            ("bmf run stray", "stray"),
            ("bmf run other", "other"),
            ("bmf walk", "walk"),
            ("bmf --quick run", "--quick"),
            ("bmf --log-level warn run --log-level info", "--log-level"),
            ("bmf --log-level warn", "--log-level"),
            ("bmf --help --profile", "--profile"),
        ] {
            let err = parsed(line).unwrap_err();
            assert_eq!(err.flag, flag, "{line}");
            assert!(err.to_string().contains(flag), "{err}");
        }
        let no_obs = Grammar { obs: false, ..FIG };
        let err = parse(argv("x --profile"), &no_obs, &[]).unwrap_err();
        assert_eq!(err.flag, "--profile");
    }

    #[test]
    fn typed_getters_name_the_flag() {
        let args = parsed("bmf run --threads 0 --svg p").unwrap();
        assert_eq!(args.positive("--threads").unwrap_err().flag, "--threads");
        let err = args.get::<f64>("--svg").unwrap_err();
        assert!(err.flag == "--svg" && err.message.contains("'p'"), "{err}");
        assert_eq!(args.required("--packet").unwrap_err().flag, "--packet");
        let args = parsed("bmf run --threads abc").unwrap();
        assert_eq!(args.positive("--threads").unwrap_err().flag, "--threads");
    }

    fn obs_options(line: &str) -> ObsOptions {
        ObsOptions::from_args(&parse(argv(line), &FIG, &[]).unwrap()).unwrap()
    }

    #[test]
    fn from_args_reads_flags_and_changes_nothing_until_start() {
        let _g = test_lock();
        crate::reset();
        let options = obs_options(
            "fig4_opamp --trace-out t.json --quick --profile --metrics-out m.json --dashboard-out d.html",
        );
        assert_eq!(options.trace_out.as_deref(), Some("t.json"));
        assert_eq!(options.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(options.dashboard_out.as_deref(), Some("d.html"));
        assert_eq!(options.title, "fig4_opamp");
        assert!(options.profile && options.any());
        assert!(!crate::is_enabled(), "parsing alone records nothing");
        options.start(2).unwrap();
        // Presence of any output flag switches recording on.
        assert!(crate::is_enabled());
        assert_eq!(crate::serve::live_hardware().threads_used, 2);
        crate::reset();
    }

    #[test]
    fn events_out_enables_recording_and_log_level_does_not() {
        let _g = test_lock();
        crate::reset();
        let options = obs_options("bmf --events-out events.jsonl");
        assert_eq!(options.events_out.as_deref(), Some("events.jsonl"));
        options.start(1).unwrap();
        assert!(crate::is_enabled());
        crate::reset();

        let options = obs_options("bmf --log-level warn");
        assert_eq!(options.log_level, Some(Level::Warn));
        assert!(!options.any(), "--log-level alone requests no output");
        options.start(1).unwrap();
        assert!(!crate::is_enabled());
        assert_eq!(crate::event::console_level(), Level::Warn);
        assert!(options.finish().is_ok());
        crate::reset();
    }

    #[test]
    fn log_level_rejects_unknown_levels() {
        let args = parse(argv("bmf --log-level loud"), &FIG, &[]).unwrap();
        let err = ObsOptions::from_args(&args).unwrap_err();
        assert_eq!(err.flag, "--log-level");
        assert!(err.to_string().contains("loud"), "{err}");
    }

    #[test]
    fn finish_writes_jsonl_events_with_run_ids() {
        let _g = test_lock();
        crate::reset();
        let dir = std::env::temp_dir().join(format!("bmf-cli-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("events.jsonl");
        // --log-level error keeps the status line quiet under the runner.
        let options = obs_options(&format!(
            "bmf --events-out {} --log-level error",
            out.display()
        ));
        options.finish().unwrap();
        assert!(!out.exists(), "a run that never started writes nothing");
        options.start(1).unwrap();
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
        let options = obs_options("bmf --obs-listen 127.0.0.1:0 --log-level error");
        assert!(options.any(), "--obs-listen requests live output");
        options.start(1).unwrap();
        assert!(crate::is_enabled());
        let addr = crate::serve::global_addr().expect("server is running");
        assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
        options.finish().unwrap();
        assert!(
            crate::serve::global_addr().is_none(),
            "finish stops the server"
        );
        crate::reset();
        let options = obs_options("bmf --obs-listen not-an-address");
        assert_eq!(options.start(1).unwrap_err().flag, "--obs-listen");
        crate::reset();
    }
}
