//! Validates observability artifacts — the CI smoke check behind
//! `fig4_opamp --trace-out ... --metrics-out ...`, `--events-out`, the
//! flight recorder, `--dashboard-out` and the live `/metrics` scrape.
//!
//! Each check lives next to the code that writes the artifact, in
//! `bmf_obs`; this bin only reads the input and dispatches:
//!
//! * `--trace <path>` — a Chrome trace-event file,
//!   `bmf_obs::export::validate_chrome_trace`.
//! * `--metrics <path>` — a metrics snapshot,
//!   `bmf_obs::export::validate_metrics`; every `--expect-counter <name>`
//!   (repeatable) must be present and nonzero.
//! * `--events <path>` — a JSONL event log,
//!   `bmf_obs::event::validate_jsonl`; every `--expect-event <kind>`
//!   (repeatable) must appear.
//! * `--flight <path>` — a flight-recorder dump,
//!   `bmf_obs::flight::validate_dump`.
//! * `--prom <url-or-file>` — a Prometheus text exposition, fetched live
//!   from an `http://` URL (the `--obs-listen` server's `/metrics`) or
//!   read from a file, `bmf_obs::prom::validate_exposition`.
//! * `--dashboard <path>` — an HTML dashboard,
//!   `bmf_obs::dashboard::validate`; with
//!   `--expect-health <ok|warn|critical>` the embedded health report must
//!   be present and graded exactly that.
//!
//! Exits 0 when every requested check passes and 1 when one fails. An
//! unknown, repeated or valueless flag, or no input flag at all, is a
//! usage error: exit 2 before any check runs.

use bmf_obs::cli::{self, Args, Grammar, UsageError};
use bmf_obs::Severity;
use std::process::ExitCode;

/// Reads a check's input: a one-shot `http://` GET against the live
/// `--obs-listen` server, or a plain file read for anything else. The
/// server closes every connection, so read-to-EOF frames the body.
fn fetch_source(source: &str) -> Result<String, String> {
    let Some(rest) = source.strip_prefix("http://") else {
        return std::fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"));
    };
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/metrics"),
    };
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(authority)
        .map_err(|e| format!("cannot connect to {authority}: {e}"))?;
    let timeout = Some(std::time::Duration::from_secs(5));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {authority}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from {authority}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{source}: response has no header/body separator"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.1 200") {
        return Err(format!("{source}: non-200 response: {status:?}"));
    }
    Ok(body.to_string())
}

/// Runs one requested check: reads `source` (when the flag was given)
/// and prints the validator's one-line description of what passed.
fn check(
    source: Option<&str>,
    validate: impl Fn(&str) -> Result<String, String>,
) -> Result<(), String> {
    let Some(source) = source else {
        return Ok(());
    };
    let text = fetch_source(source)?;
    let desc = validate(&text).map_err(|e| format!("{source}: {e}"))?;
    bmf_obs::outln!("trace_check: {source}: {desc}");
    Ok(())
}

/// The flags of `trace_check`; it validates artifacts and records none,
/// so the observability flags are not among them.
const GRAMMAR: Grammar = Grammar {
    obs: false,
    ..Grammar::new(
        "--trace --metrics --events --flight --prom --dashboard --expect-health",
        "",
        "--expect-counter --expect-event",
    )
};

/// Reads the command line: the parse and `--expect-health`'s level.
fn parse_args() -> Result<(Args, Option<Severity>), UsageError> {
    let args = cli::parse(std::env::args(), &GRAMMAR, &[])?;
    let inputs = "--trace --metrics --events --flight --prom --dashboard";
    if inputs.split_whitespace().all(|f| args.value(f).is_none()) {
        let usage = "usage: trace_check [--trace <json>] [--metrics <json>] \
            [--expect-counter <name>]... [--events <jsonl>] [--expect-event <kind>]... \
            [--flight <json>] [--prom <url-or-file>] [--dashboard <html>] \
            [--expect-health <ok|warn|critical>]";
        return Err(UsageError::new("trace_check", usage));
    }
    let severities = [Severity::Ok, Severity::Warn, Severity::Critical];
    let expect_health = args.value("--expect-health").map(|label| {
        let found = severities.into_iter().find(|s| s.label() == label);
        found.ok_or_else(|| {
            let message = format!("--expect-health must be ok, warn or critical (got {label:?})");
            UsageError::new("--expect-health", message)
        })
    });
    Ok((args, expect_health.transpose()?))
}

fn run(args: &Args, expect_health: Option<Severity>) -> Result<(), String> {
    check(args.value("--trace"), |text| {
        let (total, complete) = bmf_obs::export::validate_chrome_trace(text)?;
        Ok(format!(
            "{total} events ({complete} complete spans), hardware context present"
        ))
    })?;
    let counters = args.all("--expect-counter");
    check(args.value("--metrics"), |text| {
        bmf_obs::export::validate_metrics(text, &counters)?;
        Ok(format!(
            "{} expected counter(s) present and nonzero",
            counters.len()
        ))
    })?;
    check(args.value("--events"), |text| {
        let (count, run_id) = bmf_obs::event::validate_jsonl(text, &args.all("--expect-event"))?;
        Ok(format!(
            "{count} well-formed event(s), run {}",
            run_id.as_deref().unwrap_or("(unstamped)")
        ))
    })?;
    check(args.value("--flight"), |text| {
        let (reason, n) = bmf_obs::flight::validate_dump(text)?;
        Ok(format!(
            "flight dump ({reason}), {n} event(s) within capacity"
        ))
    })?;
    check(args.value("--prom"), |text| {
        let samples = bmf_obs::prom::validate_exposition(text)?;
        Ok(format!(
            "conformant Prometheus exposition, {samples} sample(s)"
        ))
    })?;
    check(args.value("--dashboard"), |text| {
        let desc = bmf_obs::dashboard::validate(text, expect_health)?;
        Ok(format!(
            "well-formed dashboard, all ids/links resolve ({desc})"
        ))
    })
}

fn main() -> ExitCode {
    let (args, expect_health) = parse_args().unwrap_or_else(|e| e.exit("trace_check"));
    match run(&args, expect_health) {
        Ok(()) => {
            bmf_obs::outln!("trace_check: OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            bmf_obs::error!("trace_check: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}
