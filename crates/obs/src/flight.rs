//! Crash flight recorder: the last N events, dumped on disaster.
//!
//! While event streaming is on, every record also lands in a fixed-size
//! ring (capacity [`FLIGHT_CAPACITY`]) that keeps only the most recent
//! events. On a panic (via a chained hook installed by
//! [`install_panic_hook`]), on a `--strict` pipeline failure, or when
//! the degradation ladder drops past MAP, [`dump`] writes the ring to a
//! `flight-<run_id>.json` black-box file so a chaos-suite failure is
//! debuggable post-mortem even when nobody asked for `--events-out`
//! telemetry up front — the last 256 decisions before the crash are in
//! the box.
//!
//! The ring is fed from [`crate::event::emit`], i.e. only while
//! recording is enabled; the disabled path keeps the crate's
//! one-relaxed-load contract. Recording into the ring takes a short
//! global mutex — acceptable because events mark *decisions* (repairs,
//! retries, rung drops), which are orders of magnitude rarer than spans
//! or counter bumps.

use crate::event::EventRecord;
use crate::json::Value;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Mutex, Once};

/// Ring capacity: the flight recorder keeps at most this many events.
pub const FLIGHT_CAPACITY: usize = 256;

static RING: Mutex<VecDeque<EventRecord>> = Mutex::new(VecDeque::new());

/// Where dumps are written; `None` = the current directory.
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// The most recent dump, for dashboards and status lines.
static LAST_DUMP: Mutex<Option<DumpInfo>> = Mutex::new(None);

/// Description of a completed flight-recorder dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpInfo {
    /// Why the dump fired (`"panic"`, `"strict_failure"`, ...).
    pub reason: String,
    /// Path of the written black-box file.
    pub path: PathBuf,
    /// Number of events in the dump (≤ [`FLIGHT_CAPACITY`]).
    pub events: usize,
}

/// Appends a record to the ring, evicting the oldest past capacity.
/// Called by the event layer for every recorded event.
pub(crate) fn record(rec: &EventRecord) {
    if let Ok(mut ring) = RING.lock() {
        if ring.len() == FLIGHT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(rec.clone());
    }
}

/// Number of events currently held in the ring.
#[must_use]
pub fn occupancy() -> usize {
    RING.lock().map(|r| r.len()).unwrap_or(0)
}

/// Redirects future [`dump`]s into `dir` instead of the current
/// directory (used by tests and by binaries that want their artifacts
/// collected in one place).
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    if let Ok(mut d) = DUMP_DIR.lock() {
        *d = Some(dir.into());
    }
}

/// The most recent dump written by this process, if any.
#[must_use]
pub fn last_dump() -> Option<DumpInfo> {
    LAST_DUMP.lock().ok().and_then(|d| d.clone())
}

/// Writes the ring to `flight-<run_id>.json` (in the dump directory, or
/// the current directory) and returns the dump description. A no-op
/// returning `None` when the ring is empty — with event streaming off
/// there is nothing in the box worth writing.
///
/// Never panics: this runs inside the panic hook, so lock and I/O
/// failures are swallowed (`try_lock` guards against a panic raised
/// while the ring lock was held).
pub fn dump(reason: &str) -> Option<DumpInfo> {
    let events: Vec<EventRecord> = match RING.try_lock() {
        Ok(ring) => ring.iter().cloned().collect(),
        Err(_) => return None,
    };
    if events.is_empty() {
        return None;
    }
    let run = crate::run::current();
    let run_id = run
        .as_ref()
        .map_or_else(|| "unknown".to_string(), |r| r.run_id.clone());
    let dir = DUMP_DIR
        .lock()
        .ok()
        .and_then(|d| d.clone())
        .unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join(format!("flight-{run_id}.json"));
    let body = render(reason, run.as_ref(), &events);
    crate::fsio::atomic_write(&path, body).ok()?;
    let info = DumpInfo {
        reason: reason.to_string(),
        path,
        events: events.len(),
    };
    if let Ok(mut last) = LAST_DUMP.lock() {
        *last = Some(info.clone());
    }
    Some(info)
}

/// Renders the current ring as the same black-box JSON document [`dump`]
/// writes, without touching the filesystem or [`last_dump`] — the live
/// `GET /flight` endpoint, so a hung run can be black-boxed without
/// killing it. Unlike [`dump`], an empty ring still renders (as an empty
/// `events` array): a scraper asking "what happened lately" deserves a
/// well-formed answer, not a 404.
#[must_use]
pub fn render_current(reason: &str) -> String {
    let events: Vec<EventRecord> = RING
        .lock()
        .map(|ring| ring.iter().cloned().collect())
        .unwrap_or_default();
    render(reason, crate::run::current().as_ref(), &events)
}

/// Renders the black-box JSON document.
fn render(reason: &str, run: Option<&crate::run::RunContext>, events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(128 + events.len() * 96);
    out.push_str("{\"reason\":");
    out.push_str(&crate::json::string(reason));
    if let Some(run) = run {
        out.push(',');
        out.push_str(&run.json_fields());
    }
    out.push_str(&format!(
        ",\"captured\":{},\"capacity\":{FLIGHT_CAPACITY},\"events\":[",
        events.len()
    ));
    for (i, rec) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // The top-level object carries the run id once; per-event
        // stamping would only repeat it.
        out.push_str(&rec.to_json(None));
    }
    out.push_str("]}");
    out
}

/// Checks a black-box document as [`dump`] and [`render_current`] write
/// it: a `reason` string, a `run_id`, `captured` and `capacity` counts,
/// and an `events` array of exactly `captured` records (each as
/// [`EventRecord::to_json`] renders it) no longer than `capacity`.
/// Returns the reason and the event count.
///
/// # Errors
///
/// A message naming the first failed check.
pub fn validate_dump(text: &str) -> Result<(String, usize), String> {
    let doc = crate::json::parse(text).map_err(|e| format!("flight dump: {e}"))?;
    let reason = doc
        .get("reason")
        .and_then(Value::as_str)
        .ok_or("flight dump has no reason string")?;
    if doc.get("run_id").and_then(Value::as_str).is_none() {
        return Err("flight dump has no run_id".to_string());
    }
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_count)
            .ok_or_else(|| format!("flight dump has no unsigned integer {key}"))
    };
    let capacity = count("capacity")?;
    let captured = count("captured")?;
    let events = doc
        .get("events")
        .and_then(Value::as_array)
        .ok_or("flight dump has no events array")?;
    if events.len() as u64 != captured {
        return Err(format!(
            "captured says {captured} but events array has {}",
            events.len()
        ));
    }
    if captured > capacity {
        return Err(format!(
            "events array ({captured}) exceeds capacity ({capacity})"
        ));
    }
    for (i, ev) in events.iter().enumerate() {
        crate::event::check_record(ev, &format!("event {i}"))?;
    }
    Ok((reason.to_string(), events.len()))
}

/// Installs (once) a panic hook that dumps the flight recorder before
/// delegating to the previous hook, so a chaos-suite crash leaves a
/// black box next to the backtrace.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump("panic");
            previous(info);
        }));
    });
}

/// Empties the ring and forgets the last dump (part of [`crate::reset`];
/// the dump directory override survives so a test can set it before
/// arming the recorder).
pub(crate) fn clear() {
    if let Ok(mut ring) = RING.lock() {
        ring.clear();
    }
    if let Ok(mut last) = LAST_DUMP.lock() {
        *last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bmf-flight-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        for i in 0..(FLIGHT_CAPACITY + 40) {
            let mut fields = String::new();
            crate::event::push_field(&mut fields, "i", &(i as u64));
            crate::event::emit(crate::event::Level::Info, "wrap.test", fields);
        }
        crate::disable();
        assert_eq!(occupancy(), FLIGHT_CAPACITY);
        let dir = temp_dir("wrap");
        set_dump_dir(&dir);
        let info = dump("test").expect("non-empty ring dumps");
        assert_eq!(info.events, FLIGHT_CAPACITY);
        let body = std::fs::read_to_string(&info.path).unwrap();
        let v = crate::json::parse(&body).expect("flight dump is valid JSON");
        let events = v
            .get("events")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        // The oldest 40 were evicted: the first surviving event is #40.
        assert_eq!(
            events[0].get("i").and_then(crate::json::Value::as_f64),
            Some(40.0)
        );
        assert_eq!(
            events[FLIGHT_CAPACITY - 1]
                .get("i")
                .and_then(crate::json::Value::as_f64),
            Some((FLIGHT_CAPACITY + 39) as f64)
        );
        let _ = std::fs::remove_file(&info.path);
        crate::reset();
    }

    #[test]
    fn dump_is_a_no_op_on_an_empty_ring() {
        let _g = test_lock();
        crate::reset();
        assert_eq!(dump("nothing"), None);
        assert_eq!(last_dump(), None);
        crate::reset();
    }

    #[test]
    fn render_current_serves_the_ring_without_dumping() {
        let _g = test_lock();
        crate::reset();
        // Empty ring still renders a well-formed document.
        let v = crate::json::parse(&render_current("live")).unwrap();
        assert_eq!(
            v.get("captured").and_then(crate::json::Value::as_f64),
            Some(0.0)
        );
        crate::enable();
        crate::event!(Warn, "live.peek", "i": 1u64);
        crate::disable();
        let body = render_current("live");
        let v = crate::json::parse(&body).unwrap();
        assert_eq!(
            v.get("reason").and_then(crate::json::Value::as_str),
            Some("live")
        );
        assert_eq!(
            v.get("captured").and_then(crate::json::Value::as_f64),
            Some(1.0)
        );
        // No file written, no dump recorded, ring untouched.
        assert_eq!(last_dump(), None);
        assert_eq!(occupancy(), 1);
        crate::reset();
    }

    #[test]
    fn dump_carries_run_context_and_reason() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        crate::run::set(crate::run::RunContext::derive(99, "flight test"));
        crate::event!(Error, "ladder.transition", "from": "map", "to": "mle");
        crate::disable();
        let dir = temp_dir("run");
        set_dump_dir(&dir);
        let info = dump("strict_failure").unwrap();
        let expected_id = crate::run::RunContext::derive(99, "flight test").run_id;
        assert!(info
            .path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains(&expected_id));
        let v = crate::json::parse(&std::fs::read_to_string(&info.path).unwrap()).unwrap();
        assert_eq!(
            v.get("reason").and_then(crate::json::Value::as_str),
            Some("strict_failure")
        );
        assert_eq!(
            v.get("run_id").and_then(crate::json::Value::as_str),
            Some(expected_id.as_str())
        );
        assert_eq!(
            v.get("capacity").and_then(crate::json::Value::as_f64),
            Some(FLIGHT_CAPACITY as f64)
        );
        assert_eq!(last_dump(), Some(info.clone()));
        let _ = std::fs::remove_file(&info.path);
        crate::reset();
        assert_eq!(last_dump(), None);
    }

    #[test]
    fn validate_dump_accepts_the_box_and_rejects_a_miscount() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        crate::run::set(crate::run::RunContext::derive(3, "flight validate test"));
        crate::event!(Warn, "guard.flag", "rows": 2u64);
        crate::event!(Error, "ladder.transition", "from": "map", "to": "mle");
        crate::disable();
        let body = render_current("strict_failure");
        crate::reset();
        assert_eq!(validate_dump(&body), Ok(("strict_failure".to_string(), 2)));
        let miscounted = body.replacen("\"captured\":2", "\"captured\":3", 1);
        let err = validate_dump(&miscounted).unwrap_err();
        assert!(err.contains("captured says 3"), "{err}");
    }

    #[test]
    fn validate_dump_rejects_counts_no_writer_produces() {
        for (doc, key) in [
            (
                r#"{"reason":"x","run_id":"r","captured":-1,"capacity":256,"events":[]}"#,
                "captured",
            ),
            (
                r#"{"reason":"x","run_id":"r","captured":0,"capacity":-5,"events":[]}"#,
                "capacity",
            ),
        ] {
            let err = validate_dump(doc).unwrap_err();
            assert!(err.contains(key), "{doc}: {err}");
        }
        let ok = r#"{"reason":"x","run_id":"r","captured":0,"capacity":256,"events":[]}"#;
        assert_eq!(validate_dump(ok), Ok(("x".to_string(), 0)));
    }
}
