//! Live telemetry plane: a zero-dependency HTTP/1.1 observability
//! server, hand-rolled on `std::net` like [`crate::json`] is on `std`.
//!
//! Any binary attaches one with `--obs-listen <addr>` (see
//! [`crate::cli`]); while the run computes, operators can scrape:
//!
//! * `GET /metrics` — Prometheus text exposition 0.0.4
//!   ([`crate::prom::render`]), run id + hardware context as labels
//! * `GET /health` — live [`HealthReport`] + [`DriftTimeline`] JSON;
//!   `503` when either grades `critical`, `200` otherwise
//! * `GET /events?level=&n=` — tail of the structured event stream as
//!   JSONL (non-draining; exit-time artifacts still see everything)
//! * `GET /progress` — heartbeat-derived completion fraction + ETA per
//!   labelled loop
//! * `GET /` — the self-contained HTML dashboard re-rendered on demand
//!   from live state
//! * `GET /flight` — the current flight-recorder ring, so a hung run
//!   can be black-boxed without killing it
//!
//! The server keeps no history: a scraper that wants a time series or
//! an alert rule pulls `/metrics` on its own cadence and evaluates it
//! there, as with any Prometheus target.
//!
//! **The server never perturbs results.** Handler threads only *read*
//! the existing lock-free registries through the non-draining peeks
//! ([`crate::event::peek_records`], [`crate::span::peek_events`],
//! [`crate::flight::render_current`], [`crate::metrics::snapshot`]);
//! they never touch an RNG stream, never drain a sink, and never emit
//! events of their own. `tests/serve.rs` enforces bit-identity of the
//! final estimate with the server on or off, under concurrent scrape
//! load, at 1/2/7 worker threads — the same gate `tests/observability.rs`
//! applies to tracing itself.
//!
//! Malformed input cannot wedge a run: request lines are capped at
//! [`MAX_REQUEST_LINE`] bytes and headers at [`MAX_HEADER_BYTES`] total
//! (`431` beyond that), non-GET methods get `405`, unknown paths `404`,
//! syntactically broken requests `400`, and a connection that stalls
//! mid-request (slow-loris) is cut off by a [`READ_TIMEOUT`] read
//! timeout with a `408`. Each connection is handled on its own detached
//! thread so one stuck client never blocks the accept loop.

use crate::export::HardwareContext;
use crate::health::{DriftTimeline, HealthReport, Severity};
use crate::shard::ShardCoverage;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Read timeout per connection: a client that cannot deliver its
/// request headers within this window is answered `408` and dropped.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Write timeout per connection.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Maximum accepted request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 4096;
/// Maximum accepted total header bytes (request line included).
pub const MAX_HEADER_BYTES: usize = 8192;
/// Default `GET /events` tail length when `n` is not given.
pub const DEFAULT_EVENT_TAIL: usize = 50;

/// Environment variable naming a file the bound address is written to
/// (atomic write). With `--obs-listen 127.0.0.1:0` the kernel picks the
/// port; this is how CI discovers it.
pub const ADDR_FILE_ENV: &str = "BMF_OBS_ADDR_FILE";

/// The one holder of a run's observability state: the title and worker
/// thread count [`crate::cli::ObsOptions::start`] records, and the
/// latest health report, drift timeline and shard coverage the run
/// published. The exit-time dashboard and the live endpoints both read
/// it, so `GET /` and `--dashboard-out` show the same run.
#[derive(Default)]
struct LiveState {
    title: String,
    threads_used: usize,
    health: Option<HealthReport>,
    drift: Option<DriftTimeline>,
    shard: Option<ShardCoverage>,
}

static LIVE: Mutex<Option<LiveState>> = Mutex::new(None);

fn with_live<R>(f: impl FnOnce(&mut LiveState) -> R) -> R {
    let mut guard = LIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(LiveState::default))
}

/// Publishes the run's latest health report to the dashboard and the
/// live `/health` endpoint. A no-op (one relaxed load) while recording
/// is disabled, like every instrumentation point in this crate.
pub fn publish_health(health: &HealthReport) {
    if !crate::is_enabled() {
        return;
    }
    with_live(|l| l.health = Some(health.clone()));
}

/// Publishes the run's latest drift timeline. No-op while recording is
/// disabled.
pub fn publish_drift(drift: &DriftTimeline) {
    if !crate::is_enabled() {
        return;
    }
    with_live(|l| l.drift = Some(drift.clone()));
}

/// Publishes a merge's shard coverage. No-op while recording is
/// disabled.
pub fn publish_shard(shard: &ShardCoverage) {
    if !crate::is_enabled() {
        return;
    }
    with_live(|l| l.shard = Some(shard.clone()));
}

/// Records the dashboard title and the worker thread count the exports
/// report.
pub(crate) fn set_live_context(title: &str, threads_used: usize) {
    with_live(|l| {
        l.title = title.to_string();
        l.threads_used = threads_used.max(1);
    });
}

/// Forgets all published state (part of [`crate::reset`]).
pub(crate) fn clear_live() {
    if let Ok(mut guard) = LIVE.lock() {
        *guard = None;
    }
}

/// Hardware context at the recorded worker thread count.
pub(crate) fn live_hardware() -> HardwareContext {
    HardwareContext::detect(with_live(|l| l.threads_used.max(1)))
}

/// Renders the dashboard from the recorded `events` and `records` plus
/// the published state: at exit with `refresh_s: None`, live with a
/// reload interval so the page's tables move while the run is in
/// flight.
pub(crate) fn dashboard_page(
    events: &[crate::span::SpanEvent],
    records: &[crate::event::EventRecord],
    refresh_s: Option<u32>,
) -> String {
    let snapshot = crate::metrics::snapshot();
    let run = crate::run::current();
    let hardware = live_hardware();
    let bench_history = std::fs::read_to_string(crate::cli::BENCH_HISTORY_FILE).ok();
    let flight_dump = crate::flight::last_dump();
    with_live(|l| {
        crate::dashboard::render(&crate::dashboard::DashboardData {
            title: if l.title.is_empty() {
                "bmf dashboard"
            } else {
                &l.title
            },
            hardware: &hardware,
            run: run.as_ref(),
            events,
            event_log: records,
            flight_occupancy: crate::flight::occupancy(),
            flight_dump: flight_dump.as_ref(),
            snapshot: &snapshot,
            health: l.health.as_ref(),
            drift: l.drift.as_ref(),
            shard: l.shard.as_ref(),
            bench_history_json: bench_history.as_deref(),
            refresh_s,
        })
    })
}

/// One rendered HTTP response.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body,
        }
    }

    fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "text/plain; charset=utf-8", body.into())
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// Splits `path?query` and dispatches to the endpoint renderers. Pure
/// with respect to the request (all state comes from the registries),
/// so unit tests exercise endpoints without sockets.
fn respond(target: &str) -> Response {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => render_metrics(),
        "/health" => render_health(),
        "/events" => render_events(query),
        "/progress" => render_progress(),
        "/" | "/index.html" => render_dashboard(),
        "/flight" => Response::new(
            200,
            "application/json",
            crate::flight::render_current("live"),
        ),
        _ => Response::text(404, format!("no such endpoint: {path}\n")),
    }
}

fn render_metrics() -> Response {
    let snapshot = crate::metrics::snapshot();
    let run = crate::run::current();
    let body = crate::prom::render(&snapshot, &live_hardware(), run.as_ref());
    Response::new(200, "text/plain; version=0.0.4; charset=utf-8", body)
}

fn render_health() -> Response {
    let (health_json, drift_json, worst) = with_live(|l| {
        let mut worst = Severity::Ok;
        let health = l.health.as_ref().map(|h| {
            if h.overall() == Severity::Critical {
                worst = Severity::Critical;
            }
            h.to_json()
        });
        let drift = l.drift.as_ref().map(|d| {
            if d.overall() == Severity::Critical {
                worst = Severity::Critical;
            }
            d.to_json()
        });
        (health, drift, worst)
    });
    let body = format!(
        "{{\"health\":{},\"drift\":{}}}",
        health_json.unwrap_or_else(|| "null".to_string()),
        drift_json.unwrap_or_else(|| "null".to_string()),
    );
    let status = if worst == Severity::Critical {
        503
    } else {
        200
    };
    Response::new(status, "application/json", body)
}

fn render_events(query: &str) -> Response {
    let mut max_level = crate::event::Level::Debug;
    let mut n = DEFAULT_EVENT_TAIL;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "level" => match crate::event::Level::parse(value) {
                Some(level) => max_level = level,
                None => {
                    return Response::text(400, format!("unknown level {value:?}\n"));
                }
            },
            "n" => match value.parse::<usize>() {
                Ok(count) => n = count.min(10_000),
                Err(_) => {
                    return Response::text(400, format!("n must be a count, got {value:?}\n"));
                }
            },
            _ => return Response::text(400, format!("unknown query key {key:?}\n")),
        }
    }
    let records = crate::event::peek_records();
    let run = crate::run::current();
    let tail: Vec<&crate::event::EventRecord> =
        records.iter().filter(|r| r.level <= max_level).collect();
    let skip = tail.len().saturating_sub(n);
    let body = crate::event::to_jsonl(
        tail[skip..].iter().copied(),
        run.as_ref().map(|r| r.run_id.as_str()),
    );
    Response::new(200, "application/x-ndjson", body)
}

fn render_progress() -> Response {
    let tasks = crate::event::progress_snapshot();
    let mut body = String::from("{\"tasks\":[");
    for (i, task) in tasks.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&task.to_json());
    }
    body.push_str("]}");
    Response::new(200, "application/json", body)
}

fn render_dashboard() -> Response {
    let body = dashboard_page(
        &crate::span::peek_events(),
        &crate::event::peek_records(),
        Some(2),
    );
    Response::new(200, "text/html; charset=utf-8", body)
}

/// Outcome of reading one request off a connection.
enum Request {
    Get(String),
    BadMethod,
    TooLarge,
    Malformed,
    TimedOut,
    Disconnected,
}

/// Reads and parses the request head (request line + headers; bodies
/// are not accepted — every endpoint is a GET).
fn read_request(stream: &mut TcpStream) -> Request {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        // Enough bytes for the request line? Parse once the line is in.
        if let Some(line_end) = find_crlf(&buf) {
            if line_end > MAX_REQUEST_LINE {
                return Request::TooLarge;
            }
            if buf.len() > MAX_HEADER_BYTES {
                return Request::TooLarge;
            }
            if find_head_end(&buf).is_some() {
                let line = String::from_utf8_lossy(&buf[..line_end]);
                let mut parts = line.split_whitespace();
                let method = parts.next().unwrap_or("");
                let target = parts.next().unwrap_or("");
                let version = parts.next().unwrap_or("");
                if !version.starts_with("HTTP/1.") || parts.next().is_some() {
                    return Request::Malformed;
                }
                if method != "GET" {
                    return Request::BadMethod;
                }
                if !target.starts_with('/') {
                    return Request::Malformed;
                }
                return Request::Get(target.to_string());
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            return Request::TooLarge;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Request::TooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Request::Disconnected
                } else {
                    Request::Malformed
                }
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Request::TimedOut;
            }
            Err(_) => return Request::Disconnected,
        }
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let response = match read_request(&mut stream) {
        Request::Get(target) => respond(&target),
        Request::BadMethod => Response::text(405, "only GET is served here\n"),
        Request::TooLarge => Response::text(431, "request head too large\n"),
        Request::Malformed => Response::text(400, "malformed request\n"),
        Request::TimedOut => Response::text(408, "request not received in time\n"),
        Request::Disconnected => return,
    };
    write_response(&mut stream, &response);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A running observability server. Dropping (or [`ObsServer::stop`])
/// shuts the accept loop down; in-flight handler threads finish their
/// response and exit.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9100"`; port `0` lets the kernel
    /// choose) and starts the accept loop on a background thread. When
    /// the [`ADDR_FILE_ENV`] environment variable names a file, the
    /// bound address is written there so callers can discover an
    /// ephemeral port.
    pub fn start(addr: &str) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        if let Ok(path) = std::env::var(ADDR_FILE_ENV) {
            if !path.is_empty() {
                let _ = crate::fsio::atomic_write(&path, format!("{addr}\n"));
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("bmf-obs-serve".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match conn {
                        Ok(stream) => {
                            // Detached per-connection thread: one stuck
                            // client must never block the accept loop.
                            let _ = std::thread::Builder::new()
                                .name("bmf-obs-conn".to_string())
                                .spawn(move || handle_connection(stream));
                        }
                        Err(_) => continue,
                    }
                }
            })?;
        Ok(ObsServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Idempotent.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The process-wide server started by `--obs-listen`.
static GLOBAL: Mutex<Option<ObsServer>> = Mutex::new(None);

/// Starts (or replaces) the process-wide server on `addr`, returning
/// the bound address.
pub fn start_global(addr: &str) -> io::Result<SocketAddr> {
    let server = ObsServer::start(addr)?;
    let bound = server.local_addr();
    if let Ok(mut guard) = GLOBAL.lock() {
        *guard = Some(server); // the old server, if any, stops on drop
    }
    Ok(bound)
}

/// Address of the process-wide server, if one is running.
#[must_use]
pub fn global_addr() -> Option<SocketAddr> {
    GLOBAL
        .lock()
        .ok()
        .and_then(|g| g.as_ref().map(ObsServer::local_addr))
}

/// Stops the process-wide server, if one is running.
pub fn stop_global() {
    if let Ok(mut guard) = GLOBAL.lock() {
        *guard = None; // drop stops it
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    /// Minimal raw HTTP GET against a test server.
    fn http_get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        parse_response(&raw)
    }

    fn parse_response(raw: &str) -> (u16, String, String) {
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or("")
            .to_string();
        (status, content_type, body.to_string())
    }

    #[test]
    fn serves_every_endpoint() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        crate::run::set(crate::run::RunContext::derive(7, "serve test"));
        set_live_context("serve test", 2);
        crate::event!(Info, "serve.test", "i": 1u64);
        {
            let hb = crate::event::Heartbeat::new("serve.loop", 3);
            for _ in 0..3 {
                hb.tick();
            }
        }
        // Handler threads only see the global sink: push this thread's
        // buffered events there, as an outermost span close would.
        crate::event::flush_thread();
        let mut server = ObsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let (status, ctype, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(ctype.contains("version=0.0.4"), "{ctype}");
        crate::prom::validate_exposition(&body).expect("served metrics validate");
        assert!(body.contains("bmf_run_info"));

        let (status, ctype, body) = http_get(addr, "/health");
        assert_eq!(status, 200, "no health attached → not critical");
        assert!(ctype.contains("application/json"));
        let v = crate::json::parse(&body).expect("health JSON parses");
        assert!(v.get("health").is_some() && v.get("drift").is_some());

        let (status, _, body) = http_get(addr, "/events?level=info&n=10");
        assert_eq!(status, 200);
        assert!(body.lines().count() >= 2, "event + progress lines:\n{body}");
        for line in body.lines() {
            crate::json::parse(line).expect("JSONL line parses");
        }

        let (status, _, body) = http_get(addr, "/progress");
        assert_eq!(status, 200);
        let v = crate::json::parse(&body).expect("progress JSON parses");
        let tasks = v
            .get("tasks")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert!(tasks
            .iter()
            .any(|t| t.get("label").and_then(crate::json::Value::as_str) == Some("serve.loop")));

        let (status, ctype, body) = http_get(addr, "/");
        assert_eq!(status, 200);
        assert!(ctype.contains("text/html"));
        assert!(body.contains("<html"));
        assert!(body.contains("serve test"));

        let (status, _, body) = http_get(addr, "/flight");
        assert_eq!(status, 200);
        let (reason, _) = crate::flight::validate_dump(&body).expect("served flight validates");
        assert_eq!(reason, "live");

        for gone in ["/timeseries", "/alerts", "/nope"] {
            assert_eq!(http_get(addr, gone).0, 404, "{gone}");
        }

        // The scrapes must not have drained anything.
        assert!(!crate::event::peek_records().is_empty());
        server.stop();
        crate::reset();
    }

    #[test]
    fn rejects_bad_methods_and_oversized_and_malformed_requests() {
        let _g = test_lock();
        crate::reset();
        let mut server = ObsServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"BREW /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");

        let mut stream = TcpStream::connect(addr).unwrap();
        let huge = format!(
            "GET /metrics HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES + 1)
        );
        stream.write_all(huge.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

        // Server is still healthy after the abuse.
        let (status, _, _) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        server.stop();
        crate::reset();
    }

    #[test]
    fn health_endpoint_returns_503_on_critical() {
        let _g = test_lock();
        crate::reset();
        crate::enable(); // publish_* are no-ops while recording is off
        use crate::health::*;
        let report = HealthReport {
            conflict: PriorDataConflict {
                mahalanobis_sq: 99.0,
                p_value: 1e-9,
                severity: classify_conflict(1e-9),
            },
            ess: EffectiveSampleSize {
                n: 32,
                kappa_n: 42.0,
                nu_excess: 37.0,
                shrinkage: 0.2,
                severity: classify_shrinkage(0.2),
            },
            spectrum: CovarianceSpectrum {
                eigenvalues: vec![0.5, 1.0],
                condition: 2.0,
                severity: classify_spectrum(0.5, 2.0),
            },
            cv: None,
            data_quality: DataQualityHealth {
                rows_in: 32,
                rows_out: 32,
                dropped_fraction: 0.0,
                constant_columns: 0,
                severity: classify_data_quality(true, 0.0, 0),
            },
        };
        assert_eq!(report.overall(), Severity::Critical);
        publish_health(&report);
        let response = render_health();
        assert_eq!(response.status, 503);
        let v = crate::json::parse(&response.body).unwrap();
        assert_eq!(
            v.get("health")
                .and_then(|h| h.get("overall"))
                .and_then(crate::json::Value::as_str),
            Some("critical")
        );
        crate::reset();
        // reset clears live state → healthy again.
        assert_eq!(render_health().status, 200);
    }

    #[test]
    fn events_endpoint_validates_query() {
        let _g = test_lock();
        crate::reset();
        assert_eq!(render_events("level=bogus").status, 400);
        assert_eq!(render_events("n=many").status, 400);
        assert_eq!(render_events("what=ever").status, 400);
        assert_eq!(render_events("level=warn&n=5").status, 200);
        crate::reset();
    }
}
