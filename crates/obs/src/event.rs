//! Leveled structured event log with thread-local buffering.
//!
//! Spans and counters answer *where the time went*; this module answers
//! *what the pipeline decided*: which sample tripped a retry, why the
//! degradation ladder dropped a rung, which window fired a drift alert.
//! Each decision point emits a typed [`EventRecord`] through the
//! [`crate::event!`] macro; records accumulate in a thread-local buffer and
//! merge into the process-wide sink when the thread's outermost span
//! closes (the same join-safe design as the span sink — see
//! [`mod@crate::span`]), so the hot emitting paths never take a lock. The
//! drained log serializes as JSONL (`--events-out`), one self-contained
//! JSON object per line, each stamped with the current
//! [`RunContext`](crate::run::RunContext)'s id.
//!
//! Two independent level filters gate every event:
//!
//! * the **stream filter** (default [`Level::Debug`], i.e. everything)
//!   decides what is *recorded*, and only applies while recording is
//!   enabled — when disabled, emission is a single relaxed atomic load;
//! * the **console filter** (default [`Level::Info`]) decides what the
//!   [`crate::error!`]/[`crate::warn!`]/[`crate::info!`]/[`crate::debug!`]/[`crate::outln!`] macros *print*,
//!   independent of recording, so `--log-level error` silences a binary
//!   without touching the event stream.
//!
//! Both are settable from the `BMF_LOG` environment variable (stream and
//! console) or `--log-level` (console only) via
//! [`ObsOptions::extract`](crate::cli::ObsOptions::extract).
//!
//! Like spans, events obey the two crate invariants: no emission touches
//! an RNG stream or reorders a floating-point reduction (results are
//! bit-identical with events on or off at every thread count), and the
//! disabled path is one relaxed load.

use crate::json::Value;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The run lost something: a strict failure, retry exhaustion, a
    /// ladder drop past MAP.
    Error = 0,
    /// The pipeline intervened but recovered: guard flags, SPD repairs,
    /// retries, drift alerts.
    Warn = 1,
    /// Normal progress: run banners, stage results, heartbeats.
    Info = 2,
    /// High-volume diagnostic detail.
    Debug = 3,
}

impl Level {
    /// Lower-case name used in JSONL output and `BMF_LOG`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (case-insensitive); `None` for anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the console macros print (independent of recording).
static CONSOLE_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
/// What gets recorded into the event stream (while recording is on).
static STREAM_LEVEL: AtomicU8 = AtomicU8::new(Level::Debug as u8);

/// Sets the maximum level the console macros print.
pub fn set_console_level(level: Level) {
    CONSOLE_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Sets the maximum level recorded into the event stream.
pub fn set_stream_level(level: Level) {
    STREAM_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current console filter.
#[must_use]
pub fn console_level() -> Level {
    Level::from_u8(CONSOLE_LEVEL.load(Ordering::Relaxed))
}

/// Whether the console macros print at `level`.
#[inline]
#[must_use]
pub fn console_on(level: Level) -> bool {
    level as u8 <= CONSOLE_LEVEL.load(Ordering::Relaxed)
}

/// Whether an event at `level` would be recorded right now. When
/// recording is disabled this is a single relaxed atomic load.
#[inline(always)]
#[must_use]
pub fn stream_on(level: Level) -> bool {
    crate::is_enabled() && level as u8 <= STREAM_LEVEL.load(Ordering::Relaxed)
}

/// Restores both filters to their defaults (console `info`, stream
/// `debug`).
pub(crate) fn reset_levels() {
    CONSOLE_LEVEL.store(Level::Info as u8, Ordering::Relaxed);
    STREAM_LEVEL.store(Level::Debug as u8, Ordering::Relaxed);
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Process-wide emission sequence number (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Recording thread id (shared with span events).
    pub tid: u64,
    /// Severity.
    pub level: Level,
    /// Static event kind, dot-namespaced (e.g. `"spd.repair"`).
    pub kind: &'static str,
    /// Pre-rendered JSON object fragment (`"key":value,...`, no braces);
    /// empty when the event carries no payload.
    pub fields: String,
}

impl EventRecord {
    /// Renders this record as one self-contained JSON object (one JSONL
    /// line, newline not included). `run_id`, when given, is stamped
    /// into the object so offline tools can join the log against the
    /// run's other artifacts.
    #[must_use]
    pub fn to_json(&self, run_id: Option<&str>) -> String {
        let mut out = String::with_capacity(96 + self.fields.len());
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_ns\":{},\"tid\":{},\"level\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.ts_ns,
            self.tid,
            self.level.as_str(),
            crate::json::escape(self.kind)
        );
        if let Some(id) = run_id {
            let _ = write!(out, ",\"run_id\":\"{}\"", crate::json::escape(id));
        }
        if !self.fields.is_empty() {
            out.push(',');
            out.push_str(&self.fields);
        }
        out.push('}');
        out
    }
}

/// Checks one event object as [`EventRecord::to_json`] renders it:
/// `seq`, `ts_ns` and `tid` are counts, `level` is a level name and
/// `kind` a string. The JSONL log, the flight dump and the dashboard's
/// event blob all embed this same object.
pub(crate) fn check_record(ev: &Value, what: &str) -> Result<(), String> {
    for key in ["seq", "ts_ns", "tid"] {
        if ev.get(key).and_then(Value::as_count).is_none() {
            return Err(format!("{what} has no unsigned integer {key}"));
        }
    }
    // The writer emits `Level::as_str` names exactly; `parse` alone
    // would also take "WARN" or "warning".
    match ev.get("level").and_then(Value::as_str) {
        Some(l) if Level::parse(l).map(Level::as_str) == Some(l) => {}
        other => return Err(format!("{what} has invalid level {other:?}")),
    }
    if ev.get("kind").and_then(Value::as_str).is_none() {
        return Err(format!("{what} has no kind string"));
    }
    Ok(())
}

/// Checks an event log as `--events-out` writes it: every non-blank line
/// is one record ([`EventRecord::to_json`]) with `seq` strictly
/// increasing, the log carries at most one distinct `run_id`, it is not
/// empty, and every kind in `expect_kinds` appears. Returns the record
/// count and the run id, when the lines are stamped.
///
/// # Errors
///
/// A message naming the first offending line or the missing kind.
pub fn validate_jsonl(
    text: &str,
    expect_kinds: &[&str],
) -> Result<(usize, Option<String>), String> {
    let mut count = 0usize;
    let mut last_seq: Option<u64> = None;
    let mut run_id: Option<String> = None;
    let mut kinds: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let what = format!("line {}", i + 1);
        let ev = crate::json::parse(line).map_err(|e| format!("{what}: {e}"))?;
        check_record(&ev, &what)?;
        let seq = ev
            .get("seq")
            .and_then(Value::as_count)
            .expect("check_record vetted seq");
        if let Some(prev) = last_seq.filter(|&prev| seq <= prev) {
            return Err(format!(
                "{what}: seq {seq} is not strictly increasing (previous {prev})"
            ));
        }
        last_seq = Some(seq);
        if let Some(id) = ev.get("run_id").and_then(Value::as_str) {
            match &run_id {
                None => run_id = Some(id.to_string()),
                Some(seen) if seen != id => {
                    return Err(format!("{what}: run_id {id:?} differs from {seen:?}"));
                }
                Some(_) => {}
            }
        }
        if let Some(kind) = ev.get("kind").and_then(Value::as_str) {
            kinds.insert(kind.to_string());
        }
        count += 1;
    }
    if count == 0 {
        return Err("event log is empty".to_string());
    }
    for kind in expect_kinds {
        if !kinds.contains(*kind) {
            return Err(format!(
                "no {kind:?} event in the log (kinds seen: {kinds:?})"
            ));
        }
    }
    Ok((count, run_id))
}

/// A value renderable as a JSON field payload. Strings are escaped and
/// quoted; `f64` follows the [`crate::json::number`] convention
/// (non-finite encoded as strings); integers and bools render bare.
pub trait FieldValue {
    /// Appends this value's JSON encoding to `out`.
    fn render(&self, out: &mut String);
}

impl FieldValue for str {
    fn render(&self, out: &mut String) {
        out.push('"');
        out.push_str(&crate::json::escape(self));
        out.push('"');
    }
}

impl FieldValue for String {
    fn render(&self, out: &mut String) {
        self.as_str().render(out);
    }
}

impl FieldValue for f64 {
    fn render(&self, out: &mut String) {
        out.push_str(&crate::json::number(*self));
    }
}

macro_rules! impl_field_value_int {
    ($($ty:ty),*) => {$(
        impl FieldValue for $ty {
            fn render(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

impl_field_value_int!(bool, u32, u64, usize, i32, i64);

impl<T: FieldValue + ?Sized> FieldValue for &T {
    fn render(&self, out: &mut String) {
        (**self).render(out);
    }
}

/// Appends `"key":value` (comma-separated) to a fields fragment. Used by
/// the [`crate::event!`] macro; callers building fields by hand may use it too.
pub fn push_field(out: &mut String, key: &str, value: &dyn FieldValue) {
    if !out.is_empty() {
        out.push(',');
    }
    out.push('"');
    out.push_str(&crate::json::escape(key));
    out.push_str("\":");
    value.render(out);
}

/// Records a typed event when recording is on and `level` passes the
/// stream filter; a single relaxed load otherwise.
///
/// ```
/// bmf_obs::event!(Warn, "spd.repair", "stage": "ridge", "jitter": 1e-10);
/// ```
///
/// The field expressions are evaluated — and the payload allocated —
/// only when the event will actually be recorded.
#[macro_export]
macro_rules! event {
    ($level:ident, $kind:expr $(, $key:literal : $value:expr)* $(,)?) => {
        if $crate::event::stream_on($crate::event::Level::$level) {
            #[allow(unused_mut)]
            let mut fields = String::new();
            $($crate::event::push_field(&mut fields, $key, &$value);)*
            $crate::event::emit($crate::event::Level::$level, $kind, fields);
        }
    };
}

/// Prints to stderr at [`Level::Error`] and records a `log` event.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::event::console($crate::event::Level::Error, false, format_args!($($arg)*))
    };
}

/// Prints to stderr at [`Level::Warn`] and records a `log` event.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::event::console($crate::event::Level::Warn, false, format_args!($($arg)*))
    };
}

/// Prints to stderr at [`Level::Info`] and records a `log` event.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::event::console($crate::event::Level::Info, false, format_args!($($arg)*))
    };
}

/// Prints to stderr at [`Level::Debug`] (silent by default) and records
/// a `log` event.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::event::console($crate::event::Level::Debug, false, format_args!($($arg)*))
    };
}

/// Prints a result line to **stdout** at [`Level::Info`] and records a
/// `log` event. This is the routed replacement for the bins' bare
/// `println!` table output, so `--log-level error` makes a binary fully
/// quiet.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::event::console($crate::event::Level::Info, true, format_args!($($arg)*))
    };
}

/// Backend of the console macros: prints `args` (with a trailing
/// newline) to stdout or stderr when `level` passes the console filter,
/// and records a `log`-kind event carrying the message when it passes
/// the stream filter. Not a hot-path API — the figure binaries call it a
/// few dozen times per run.
pub fn console(level: Level, stdout: bool, args: std::fmt::Arguments<'_>) {
    let print = console_on(level);
    let record = stream_on(level);
    if !print && !record {
        return;
    }
    let msg = args.to_string();
    if print {
        if stdout {
            println!("{msg}");
        } else {
            eprintln!("{msg}");
        }
    }
    if record {
        let mut fields = String::new();
        push_field(&mut fields, "msg", &msg);
        emit(level, "log", fields);
    }
}

static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Records left behind by exited threads or drained flushes.
static SINK: Mutex<Vec<EventRecord>> = Mutex::new(Vec::new());

/// Per-thread record buffer; drains into [`SINK`] at the outermost span
/// close (see [`crate::span`]) and at thread exit as a backstop.
struct ThreadRecords(Vec<EventRecord>);

impl Drop for ThreadRecords {
    fn drop(&mut self) {
        if self.0.is_empty() {
            return;
        }
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.0);
        }
    }
}

thread_local! {
    static RECORDS: RefCell<ThreadRecords> = const { RefCell::new(ThreadRecords(Vec::new())) };
}

/// Records an event with a runtime-computed level (the raw API behind
/// [`crate::event!`]; use it when the level is not a compile-time constant,
/// e.g. a drift alert whose severity is data-dependent). `fields` is a
/// pre-rendered JSON fragment, normally built with [`push_field`].
/// Returns without recording when the stream filter rejects `level`.
pub fn emit(level: Level, kind: &'static str, fields: String) {
    if !stream_on(level) {
        return;
    }
    let record = EventRecord {
        seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        ts_ns: crate::span::now_ns(),
        tid: crate::span::current_tid(),
        level,
        kind,
        fields,
    };
    crate::flight::record(&record);
    RECORDS.with(|r| r.borrow_mut().0.push(record));
}

/// Flushes the calling thread's buffered records into the sink. Called
/// from the span layer at every outermost span close, so worker-thread
/// records are visible before any `std::thread::scope` join completes.
pub(crate) fn flush_thread() {
    RECORDS.with(|r| {
        let mut buf = r.borrow_mut();
        if buf.0.is_empty() {
            return;
        }
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut buf.0);
        }
    });
}

/// Drains every recorded event: the global sink plus the calling
/// thread's buffer, sorted by emission sequence (a total order across
/// threads).
pub fn take_records() -> Vec<EventRecord> {
    let mut records: Vec<EventRecord> = SINK
        .lock()
        .map(|mut sink| std::mem::take(&mut *sink))
        .unwrap_or_default();
    RECORDS.with(|r| records.append(&mut r.borrow_mut().0));
    records.sort_by_key(|r| r.seq);
    records
}

/// Copies the recorded events without draining them: the global sink
/// plus the calling thread's buffer, sorted by emission sequence. Built
/// for live scrapers (`GET /events`, the on-demand dashboard) that must
/// not steal records from the exit-time artifact writers. Worker
/// threads' *unflushed* thread-local buffers are invisible here — their
/// records appear once the thread's outermost span closes, which is the
/// same visibility the sink itself guarantees.
pub fn peek_records() -> Vec<EventRecord> {
    let mut records: Vec<EventRecord> = SINK.lock().map(|sink| sink.clone()).unwrap_or_default();
    RECORDS.with(|r| records.extend(r.borrow().0.iter().cloned()));
    records.sort_by_key(|r| r.seq);
    records
}

/// Discards buffered records and rewinds the sequence counter.
pub(crate) fn clear() {
    if let Ok(mut sink) = SINK.lock() {
        sink.clear();
    }
    RECORDS.with(|r| r.borrow_mut().0.clear());
    NEXT_SEQ.store(0, Ordering::Relaxed);
    if let Ok(mut tasks) = PROGRESS.lock() {
        tasks.clear();
    }
}

/// A lock-free minimum-interval limiter: [`RateLimiter::allow`] returns
/// `true` at most once per `interval_ns`, under concurrent callers.
#[derive(Debug)]
pub struct RateLimiter {
    interval_ns: u64,
    /// Timestamp of the last allowed call; `u64::MAX` = never fired.
    last_ns: AtomicU64,
}

impl RateLimiter {
    /// A limiter that allows its first call and then at most one call
    /// per `interval_ns`.
    #[must_use]
    pub fn new(interval_ns: u64) -> Self {
        RateLimiter {
            interval_ns,
            last_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// Whether a call at monotonic time `now_ns` may proceed. Exactly
    /// one of a set of concurrent callers with the same eligible
    /// timestamp wins (compare-and-swap on the last-allowed mark).
    pub fn allow(&self, now_ns: u64) -> bool {
        let last = self.last_ns.load(Ordering::Relaxed);
        if last != u64::MAX && now_ns.saturating_sub(last) < self.interval_ns {
            return false;
        }
        self.last_ns
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// Minimum interval between heartbeat pulses (500 ms).
pub const HEARTBEAT_INTERVAL_NS: u64 = 500_000_000;

/// Latest state of one heartbeat-labelled loop, kept for live scrapers.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEntry {
    /// Heartbeat label, e.g. `"monte_carlo.post_layout"`.
    pub label: &'static str,
    /// Units completed at the last pulse.
    pub done: u64,
    /// Planned units.
    pub total: u64,
    /// Completion rate at the last pulse (units/second).
    pub per_sec: f64,
    /// Estimated seconds to completion at the last pulse.
    pub eta_s: f64,
    /// Whether the loop pulsed its final unit.
    pub finished: bool,
    /// Trace-epoch timestamp of the last pulse.
    pub updated_ns: u64,
}

impl ProgressEntry {
    /// Completion fraction in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.done as f64 / self.total as f64).min(1.0)
    }

    /// Serializes this entry as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\":{},\"done\":{},\"total\":{},\"fraction\":{},\"per_sec\":{},\"eta_s\":{},\"finished\":{},\"updated_ns\":{}}}",
            crate::json::string(self.label),
            self.done,
            self.total,
            crate::json::number(self.fraction()),
            crate::json::number(self.per_sec),
            crate::json::number(self.eta_s),
            self.finished,
            self.updated_ns,
        )
    }
}

/// Live per-label progress registry fed by [`Heartbeat`] pulses. Pulses
/// are already rate-limited to one per [`HEARTBEAT_INTERVAL_NS`], so the
/// mutex here is touched at most ~2/s per loop — never per tick.
static PROGRESS: Mutex<Vec<ProgressEntry>> = Mutex::new(Vec::new());

/// Point-in-time copy of every live progress entry, in first-pulse order.
#[must_use]
pub fn progress_snapshot() -> Vec<ProgressEntry> {
    PROGRESS.lock().map(|t| t.clone()).unwrap_or_default()
}

fn progress_update(entry: ProgressEntry) {
    if let Ok(mut tasks) = PROGRESS.lock() {
        match tasks.iter_mut().find(|t| t.label == entry.label) {
            Some(slot) => *slot = entry,
            None => tasks.push(entry),
        }
    }
}

/// Progress heartbeat for long Monte Carlo / sweep loops.
///
/// Constructed once per loop with the expected total; workers call
/// [`Heartbeat::tick`] per completed unit. Pulses are rate-limited to
/// one per [`HEARTBEAT_INTERVAL_NS`]; each pulse emits a `progress`
/// event (done/total, rate, ETA) and, when stderr is a terminal and the
/// console filter admits `info`, redraws a one-line stderr ticker. The
/// final unit always emits a closing `progress` event so short loops
/// still log one.
///
/// When event streaming is off at construction the heartbeat is inert:
/// `tick` is a branch on a plain bool (cheaper than the one-relaxed-load
/// contract requires). Ticks never touch an RNG or feed a number back
/// into the estimate, so results are bit-identical with heartbeats on or
/// off.
#[derive(Debug)]
pub struct Heartbeat {
    label: &'static str,
    total: u64,
    armed: bool,
    ticker: bool,
    start_ns: u64,
    done: AtomicU64,
    limiter: RateLimiter,
    drew_ticker: AtomicBool,
}

impl Heartbeat {
    /// A heartbeat for a loop of `total` units labelled `label`.
    #[must_use]
    pub fn new(label: &'static str, total: usize) -> Self {
        let armed = stream_on(Level::Info) && total > 0;
        Heartbeat {
            label,
            total: total as u64,
            armed,
            ticker: armed
                && console_on(Level::Info)
                && std::io::IsTerminal::is_terminal(&std::io::stderr()),
            start_ns: if armed { crate::span::now_ns() } else { 0 },
            done: AtomicU64::new(0),
            limiter: RateLimiter::new(HEARTBEAT_INTERVAL_NS),
            drew_ticker: AtomicBool::new(false),
        }
    }

    /// Marks one unit complete; emits a rate-limited pulse.
    #[inline]
    pub fn tick(&self) {
        if !self.armed {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let now_ns = crate::span::now_ns();
        let finished = done >= self.total;
        if finished || self.limiter.allow(now_ns) {
            self.pulse(done, now_ns, finished);
        }
    }

    fn pulse(&self, done: u64, now_ns: u64, finished: bool) {
        let elapsed_s = now_ns.saturating_sub(self.start_ns) as f64 / 1e9;
        let rate = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        let eta_s = if rate > 0.0 {
            (self.total - done) as f64 / rate
        } else {
            0.0
        };
        let mut fields = String::new();
        push_field(&mut fields, "label", &self.label);
        push_field(&mut fields, "done", &done);
        push_field(&mut fields, "total", &self.total);
        push_field(&mut fields, "per_sec", &rate);
        push_field(&mut fields, "eta_s", &eta_s);
        emit(Level::Info, "progress", fields);
        progress_update(ProgressEntry {
            label: self.label,
            done,
            total: self.total,
            per_sec: rate,
            eta_s,
            finished,
            updated_ns: now_ns,
        });
        if self.ticker && !finished {
            let mut err = std::io::stderr().lock();
            let _ = write!(
                err,
                "\r\x1b[K{} {done}/{} ({rate:.0}/s, ETA {eta_s:.0}s)",
                self.label, self.total
            );
            let _ = err.flush();
            self.drew_ticker.store(true, Ordering::Relaxed);
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        if self.drew_ticker.load(Ordering::Relaxed) {
            // Erase the in-place ticker line so the next output starts
            // on a clean column.
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r\x1b[K");
            let _ = err.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("Info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn disabled_emission_records_nothing() {
        let _g = test_lock();
        crate::reset();
        crate::event!(Error, "never", "k": 1u64);
        emit(Level::Error, "never.raw", String::new());
        assert!(take_records().is_empty());
        crate::reset();
    }

    #[test]
    fn stream_filter_gates_by_level() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        set_stream_level(Level::Warn);
        crate::event!(Error, "kept.error");
        crate::event!(Warn, "kept.warn");
        crate::event!(Info, "dropped.info");
        crate::event!(Debug, "dropped.debug");
        crate::disable();
        let records = take_records();
        let kinds: Vec<&str> = records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, ["kept.error", "kept.warn"]);
        // Sequence numbers are assigned in emission order.
        assert!(records[0].seq < records[1].seq);
        crate::reset();
    }

    #[test]
    fn records_render_as_valid_json_with_escaping() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        crate::event!(
            Warn,
            "guard.flag",
            "reason": "quote \" backslash \\ newline \n",
            "rows": 3usize,
            "rate": f64::NAN,
            "ok": false,
        );
        crate::disable();
        let records = take_records();
        assert_eq!(records.len(), 1);
        let line = records[0].to_json(Some("deadbeefdeadbeef"));
        let v = crate::json::parse(&line).expect("JSONL line parses");
        assert_eq!(
            v.get("kind").and_then(crate::json::Value::as_str),
            Some("guard.flag")
        );
        assert_eq!(
            v.get("level").and_then(crate::json::Value::as_str),
            Some("warn")
        );
        assert_eq!(
            v.get("run_id").and_then(crate::json::Value::as_str),
            Some("deadbeefdeadbeef")
        );
        assert_eq!(
            v.get("reason").and_then(crate::json::Value::as_str),
            Some("quote \" backslash \\ newline \n")
        );
        assert_eq!(
            v.get("rows").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            v.get("rate").and_then(crate::json::Value::as_str),
            Some("NaN")
        );
        assert_eq!(
            v.get("ok").and_then(crate::json::Value::as_bool),
            Some(false)
        );
        crate::reset();
    }

    #[test]
    fn worker_thread_records_merge_at_span_close() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _span = crate::span("parallel.worker");
                    crate::event!(Info, "worker.event");
                });
            }
        });
        // Flushed by the outermost span close inside each worker
        // closure, so the scope join guarantees visibility here.
        crate::disable();
        let records = take_records();
        assert_eq!(
            records.iter().filter(|r| r.kind == "worker.event").count(),
            3
        );
        let tids: std::collections::HashSet<u64> = records.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 3);
        crate::reset();
    }

    #[test]
    fn console_respects_level_and_records_log_events() {
        let _g = test_lock();
        crate::reset();
        assert!(console_on(Level::Info));
        assert!(!console_on(Level::Debug));
        set_console_level(Level::Error);
        assert!(!console_on(Level::Info));
        assert!(console_on(Level::Error));
        // With the console silenced but the stream on, a message is
        // recorded without being printed.
        crate::enable();
        crate::info!("quiet but recorded: {}", 42);
        crate::disable();
        let records = take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, "log");
        assert_eq!(records[0].level, Level::Info);
        assert!(records[0].fields.contains("quiet but recorded: 42"));
        crate::reset();
        assert!(
            console_on(Level::Info),
            "reset restores the console default"
        );
    }

    #[test]
    fn rate_limiter_allows_first_then_spaces_by_interval() {
        let limiter = RateLimiter::new(100);
        let mut allowed = Vec::new();
        for now in (0..1000).step_by(10) {
            if limiter.allow(now) {
                allowed.push(now);
            }
        }
        assert_eq!(allowed.first(), Some(&0));
        for pair in allowed.windows(2) {
            assert!(pair[1] - pair[0] >= 100, "pulses too close: {allowed:?}");
        }
        // Monotonicity: total pulses never exceed span / interval + 1.
        assert!(allowed.len() <= 10 + 1, "{allowed:?}");
    }

    #[test]
    fn heartbeat_emits_progress_and_always_closes() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        {
            let hb = Heartbeat::new("test.loop", 7);
            for _ in 0..7 {
                hb.tick();
            }
        }
        crate::disable();
        let records = take_records();
        let progress: Vec<&EventRecord> = records.iter().filter(|r| r.kind == "progress").collect();
        assert!(!progress.is_empty());
        let last = progress.last().unwrap();
        assert!(last.fields.contains("\"done\":7"));
        assert!(last.fields.contains("\"total\":7"));
        crate::reset();
    }

    #[test]
    fn peek_does_not_drain_and_matches_take() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        crate::event!(Info, "first");
        crate::event!(Warn, "second");
        let peeked = peek_records();
        assert_eq!(peeked.len(), 2);
        let peeked_again = peek_records();
        assert_eq!(peeked, peeked_again, "peek must not consume records");
        crate::disable();
        let taken = take_records();
        assert_eq!(taken, peeked, "take sees everything peek saw");
        assert!(take_records().is_empty(), "take drains");
        crate::reset();
    }

    #[test]
    fn heartbeat_pulses_feed_the_progress_registry() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        {
            let hb = Heartbeat::new("test.progress", 5);
            for _ in 0..5 {
                hb.tick();
            }
        }
        let tasks = progress_snapshot();
        let entry = tasks
            .iter()
            .find(|t| t.label == "test.progress")
            .expect("final tick always pulses");
        assert_eq!(entry.done, 5);
        assert_eq!(entry.total, 5);
        assert!(entry.finished);
        assert_eq!(entry.fraction(), 1.0);
        let v = crate::json::parse(&entry.to_json()).expect("progress JSON parses");
        assert_eq!(
            v.get("fraction").and_then(crate::json::Value::as_f64),
            Some(1.0)
        );
        crate::reset();
        assert!(
            progress_snapshot().is_empty(),
            "reset clears the progress registry"
        );
    }

    #[test]
    fn disarmed_heartbeat_is_inert() {
        let _g = test_lock();
        crate::reset();
        let hb = Heartbeat::new("quiet.loop", 1000);
        for _ in 0..1000 {
            hb.tick();
        }
        assert!(take_records().is_empty());
        crate::reset();
    }

    /// A JSONL log as `--events-out` writes it: one `to_json` line per
    /// record, every line stamped with `run_id`.
    fn jsonl(run_id: &str) -> String {
        let record = |seq: u64, level: Level, kind: &'static str| EventRecord {
            seq,
            ts_ns: 1_000 * seq,
            tid: 1,
            level,
            kind,
            fields: "\"note\":\"x\"".to_string(),
        };
        [
            record(0, Level::Info, "progress"),
            record(1, Level::Warn, "guard.flag"),
            record(4, Level::Debug, "progress"),
        ]
        .iter()
        .map(|r| r.to_json(Some(run_id)) + "\n")
        .collect()
    }

    #[test]
    fn validate_jsonl_accepts_the_log_and_rejects_mutations() {
        let good = jsonl("abc");
        assert_eq!(
            validate_jsonl(&good, &["progress", "guard.flag"]),
            Ok((3, Some("abc".to_string())))
        );
        let repeated_seq = good.replacen("\"seq\":4", "\"seq\":1", 1);
        let err = validate_jsonl(&repeated_seq, &[]).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let two_runs = good.replacen("\"run_id\":\"abc\"", "\"run_id\":\"xyz\"", 1);
        let err = validate_jsonl(&two_runs, &[]).unwrap_err();
        assert!(err.contains("differs"), "{err}");
        let err = validate_jsonl(&good, &["spd.repair"]).unwrap_err();
        assert!(err.contains("spd.repair"), "{err}");
        assert!(
            validate_jsonl("\n", &[]).is_err(),
            "an empty log is rejected"
        );
    }

    #[test]
    fn validate_jsonl_rejects_counts_no_writer_produces() {
        let line = r#"{"seq":1.5,"ts_ns":-3,"tid":0,"level":"info","kind":"k"}"#;
        let err = validate_jsonl(line, &[]).unwrap_err();
        assert!(err.contains("seq"), "{err}");
        let err = validate_jsonl(&line.replace("1.5", "1"), &[]).unwrap_err();
        assert!(err.contains("ts_ns"), "{err}");
        assert!(validate_jsonl(&line.replace("1.5", "1").replace("-3", "3"), &[]).is_ok());
    }
}
