//! Exporters: Chrome trace-event JSON, aggregated span profile, and
//! metrics snapshot JSON.
//!
//! All three embed a [`HardwareContext`] so committed artifacts say what
//! machine produced them — the PR 1 bench numbers came from a 1-core CI
//! container and were misread as a scaling regression precisely because
//! the file did not say so.

use crate::json::{self, Value};
use crate::metrics::MetricsSnapshot;
use crate::span::SpanEvent;
use std::fmt::Write as _;

/// The hardware/configuration context embedded in every export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareContext {
    /// Core count reported by `std::thread::available_parallelism`
    /// (0 if the query failed).
    pub detected_cores: usize,
    /// Worker thread count the run was configured with.
    pub threads_used: usize,
}

impl HardwareContext {
    /// Detects the core count and records the configured thread count.
    pub fn detect(threads_used: usize) -> Self {
        HardwareContext {
            detected_cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            threads_used,
        }
    }

    /// The context as JSON object *fields* (no surrounding braces), so
    /// callers can splice it into their own objects.
    pub fn json_fields(&self) -> String {
        format!(
            "\"detected_cores\":{},\"threads_used\":{}",
            self.detected_cores, self.threads_used
        )
    }
}

fn ns_to_us(ns: u64) -> String {
    // Chrome trace timestamps are microseconds as doubles; keep the
    // nanosecond fraction so short spans stay distinguishable.
    json::number(ns as f64 / 1000.0)
}

/// Renders events in the Chrome trace-event "JSON object format"
/// (loadable in Perfetto and `chrome://tracing`): complete events
/// (`"ph":"X"`) with microsecond timestamps, plus thread-name metadata
/// and the hardware context — and the run identity, when one is
/// installed — under `otherData`.
pub fn chrome_trace_json(
    events: &[SpanEvent],
    hardware: &HardwareContext,
    run: Option<&crate::run::RunContext>,
) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json::string(&format!("bmf worker {tid}"))
        );
    }
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"bmf\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{},\"self_us\":{}}}}}",
            json::string(e.name),
            ns_to_us(e.start_ns),
            ns_to_us(e.dur_ns),
            e.tid,
            e.depth,
            ns_to_us(e.self_ns),
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{{}{}}}}}",
        hardware.json_fields(),
        run.map(|r| format!(",{}", r.json_fields()))
            .unwrap_or_default()
    );
    out
}

/// Checks a [`chrome_trace_json`] document the way Perfetto loads it:
/// every trace event has `ph`, `name`, `pid` and `tid`; complete
/// (`ph == "X"`) events have non-negative `ts` and `dur` and there is at
/// least one; and `otherData` carries the [`HardwareContext`]. Returns
/// the event count and the complete-event count.
///
/// # Errors
///
/// A message naming the first failed check.
pub fn validate_chrome_trace(text: &str) -> Result<(usize, usize), String> {
    let doc = json::parse(text).map_err(|e| format!("trace: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing traceEvents array")?;
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        for key in ["name", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} (ph {ph}) has no {key}"));
            }
        }
        if ph == "X" {
            complete += 1;
            let ts = ev.get("ts").and_then(Value::as_f64);
            let dur = ev.get("dur").and_then(Value::as_f64);
            match (ts, dur) {
                (Some(ts), Some(dur)) if ts >= 0.0 && dur >= 0.0 => {}
                _ => return Err(format!("complete event {i} has bad ts/dur")),
            }
        }
    }
    if complete == 0 {
        return Err("no complete (ph == X) span events".to_string());
    }
    let other = doc.get("otherData").ok_or("missing otherData")?;
    check_hardware(other, "otherData")?;
    Ok((events.len(), complete))
}

/// The [`HardwareContext::json_fields`] members, as counts.
fn check_hardware(v: &Value, what: &str) -> Result<(), String> {
    for key in ["detected_cores", "threads_used"] {
        if v.get(key).and_then(Value::as_count).is_none() {
            return Err(format!("{what} has no unsigned integer {key}"));
        }
    }
    Ok(())
}

/// One row of the aggregated per-span profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

/// Aggregates events by span name: call count, total and self wall
/// time, min/max single-call duration. Sorted by self time descending —
/// the top row is the hottest span.
pub fn aggregate(events: &[SpanEvent]) -> Vec<ProfileRow> {
    let mut rows: Vec<ProfileRow> = Vec::new();
    for e in events {
        match rows.iter_mut().find(|r| r.name == e.name) {
            Some(row) => {
                row.count += 1;
                row.total_ns += e.dur_ns;
                row.self_ns += e.self_ns;
                row.min_ns = row.min_ns.min(e.dur_ns);
                row.max_ns = row.max_ns.max(e.dur_ns);
            }
            None => rows.push(ProfileRow {
                name: e.name,
                count: 1,
                total_ns: e.dur_ns,
                self_ns: e.self_ns,
                min_ns: e.dur_ns,
                max_ns: e.dur_ns,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// The aggregated profile as a JSON document.
pub fn profile_json(events: &[SpanEvent], hardware: &HardwareContext) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"hardware\":{{{}}},\"spans\":[",
        hardware.json_fields()
    );
    for (i, row) in aggregate(events).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{},\
             \"min_ns\":{},\"max_ns\":{}}}",
            json::string(row.name),
            row.count,
            row.total_ns,
            row.self_ns,
            row.min_ns,
            row.max_ns,
        );
    }
    out.push_str("]}");
    out
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The aggregated profile as a human-readable table (for `--profile`).
/// Recorded histograms (count > 0) are appended as a second table with
/// interpolated p50/p90/p99 per-call latencies.
pub fn profile_table(
    events: &[SpanEvent],
    histograms: &[crate::metrics::HistogramStats],
    hardware: &HardwareContext,
) -> String {
    let rows = aggregate(events);
    let name_width = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let mut out = format!(
        "profile ({} spans, {} cores detected, {} threads used)\n",
        rows.iter().map(|r| r.count).sum::<u64>(),
        hardware.detected_cores,
        hardware.threads_used,
    );
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}",
        "span", "calls", "total", "self", "min", "max"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>8}  {:>12}  {:>12}  {:>12}  {:>12}",
            row.name,
            row.count,
            fmt_ns(row.total_ns),
            fmt_ns(row.self_ns),
            fmt_ns(row.min_ns),
            fmt_ns(row.max_ns),
        );
    }
    let recorded: Vec<_> = histograms.iter().filter(|h| h.count > 0).collect();
    if !recorded.is_empty() {
        let hist_width = recorded
            .iter()
            .map(|h| h.name.len())
            .chain(std::iter::once("histogram".len()))
            .max()
            .unwrap_or(9);
        let _ = writeln!(
            out,
            "\n{:<hist_width$}  {:>8}  {:>12}  {:>12}  {:>12}",
            "histogram", "count", "p50", "p90", "p99"
        );
        let fmt_pct = |p: Option<u64>| p.map_or_else(|| "-".to_string(), fmt_ns);
        for h in &recorded {
            let _ = writeln!(
                out,
                "{:<hist_width$}  {:>8}  {:>12}  {:>12}  {:>12}",
                h.name,
                h.count,
                fmt_pct(h.p50_ns()),
                fmt_pct(h.p90_ns()),
                fmt_pct(h.p99_ns()),
            );
        }
    }
    out
}

/// The metrics snapshot (counters + histograms) as a JSON document,
/// stamped with the run identity when one is installed.
pub fn metrics_json(
    snapshot: &MetricsSnapshot,
    hardware: &HardwareContext,
    run: Option<&crate::run::RunContext>,
) -> String {
    let mut out = String::new();
    if let Some(run) = run {
        let _ = write!(out, "{{\"run\":{{{}}},", run.json_fields());
    } else {
        out.push('{');
    }
    let _ = write!(
        out,
        "\"hardware\":{{{}}},\"counters\":{{",
        hardware.json_fields()
    );
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json::string(name), value);
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum_ns as f64 / h.count as f64
        };
        // Empty histograms get explicit nulls: a literal 0 here reads
        // as a real sub-nanosecond measurement downstream.
        let pct = |p: Option<u64>| p.map_or_else(|| "null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{},\
             \"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"log2_buckets\":[{}]}}",
            json::string(h.name),
            h.count,
            h.sum_ns,
            json::number(mean),
            h.min_ns,
            h.max_ns,
            pct(h.p50_ns()),
            pct(h.p90_ns()),
            pct(h.p99_ns()),
            h.buckets
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    if let Some(p) = &snapshot.process {
        let _ = write!(out, "}},\"process\":{}", p.to_json());
        out.push('}');
    } else {
        out.push_str("},\"process\":null}");
    }
    out
}

/// Checks a [`metrics_json`] document: the hardware context, a
/// `histograms` object, and a `counters` object of counts in which every
/// name in `expect_counters` is present and nonzero. Returns the number
/// of counters.
///
/// # Errors
///
/// A message naming the first failed check.
pub fn validate_metrics(text: &str, expect_counters: &[&str]) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| format!("metrics: {e}"))?;
    check_hardware(
        doc.get("hardware").ok_or("missing hardware object")?,
        "hardware",
    )?;
    if !matches!(doc.get("histograms"), Some(Value::Object(_))) {
        return Err("missing histograms object".to_string());
    }
    let Some(Value::Object(counters)) = doc.get("counters") else {
        return Err("missing counters object".to_string());
    };
    for (name, value) in counters {
        if value.as_count().is_none() {
            return Err(format!("counter {name} is not an unsigned integer"));
        }
    }
    for name in expect_counters {
        match counters.get(*name).and_then(Value::as_count) {
            Some(v) if v > 0 => {}
            Some(_) => return Err(format!("counter {name} is zero")),
            None => return Err(format!("counter {name} is missing")),
        }
    }
    Ok(counters.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "outer",
                tid: 1,
                depth: 0,
                start_ns: 0,
                dur_ns: 10_000,
                self_ns: 4_000,
            },
            SpanEvent {
                name: "inner",
                tid: 1,
                depth: 1,
                start_ns: 2_000,
                dur_ns: 6_000,
                self_ns: 6_000,
            },
            SpanEvent {
                name: "inner",
                tid: 2,
                depth: 0,
                start_ns: 1_000,
                dur_ns: 2_000,
                self_ns: 2_000,
            },
        ]
    }

    fn hw() -> HardwareContext {
        HardwareContext {
            detected_cores: 8,
            threads_used: 2,
        }
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let doc = chrome_trace_json(&sample_events(), &hw(), None);
        let v = parse(&doc).expect("trace must be valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        // 2 thread_name metadata events + 3 span events.
        assert_eq!(events.len(), 5);
        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        for e in &complete {
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("dur").and_then(Value::as_f64).is_some());
            assert!(e.get("tid").and_then(Value::as_f64).is_some());
        }
        // µs conversion: 10_000 ns span -> 10 µs.
        assert_eq!(complete[0].get("dur").and_then(Value::as_f64), Some(10.0));
        let other = v.get("otherData").unwrap();
        assert_eq!(
            other.get("detected_cores").and_then(Value::as_f64),
            Some(8.0)
        );
        assert_eq!(other.get("threads_used").and_then(Value::as_f64), Some(2.0));
        // No run installed → no run_id key.
        assert!(other.get("run_id").is_none());
    }

    #[test]
    fn exports_stamp_the_run_identity() {
        let run = crate::run::RunContext::derive(2015, "export test");
        let doc = chrome_trace_json(&sample_events(), &hw(), Some(&run));
        let v = parse(&doc).expect("trace must be valid JSON");
        let other = v.get("otherData").unwrap();
        assert_eq!(
            other.get("run_id").and_then(Value::as_str),
            Some(run.run_id.as_str())
        );
        assert_eq!(other.get("root_seed").and_then(Value::as_f64), Some(2015.0));

        let snapshot = MetricsSnapshot {
            counters: vec![("monte_carlo.sims", 1)],
            histograms: vec![],
            process: None,
        };
        let doc = metrics_json(&snapshot, &hw(), Some(&run));
        let v = parse(&doc).expect("metrics must be valid JSON");
        assert_eq!(
            v.get("run")
                .and_then(|r| r.get("run_id"))
                .and_then(Value::as_str),
            Some(run.run_id.as_str())
        );
    }

    #[test]
    fn aggregate_merges_by_name_and_sorts_by_self_time() {
        let rows = aggregate(&sample_events());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "inner"); // 8_000 ns self > 4_000 ns self
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 8_000);
        assert_eq!(rows[0].min_ns, 2_000);
        assert_eq!(rows[0].max_ns, 6_000);
        assert_eq!(rows[1].name, "outer");
        assert_eq!(rows[1].self_ns, 4_000);
    }

    #[test]
    fn profile_json_and_table_render() {
        let doc = profile_json(&sample_events(), &hw());
        let v = parse(&doc).expect("profile must be valid JSON");
        let spans = v.get("spans").and_then(Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("inner"));

        let table = profile_table(&sample_events(), &[], &hw());
        assert!(table.contains("span"));
        assert!(table.contains("inner"));
        assert!(table.contains("8 cores detected"));
        // No recorded histograms → no histogram section.
        assert!(!table.contains("histogram"));

        use crate::metrics::{HistogramStats, HISTOGRAM_BUCKETS};
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[6] = 4; // [64, 128)
        let hists = vec![HistogramStats {
            name: "cholesky.ns",
            count: 4,
            sum_ns: 400,
            min_ns: 70,
            max_ns: 120,
            buckets,
        }];
        let table = profile_table(&sample_events(), &hists, &hw());
        assert!(table.contains("histogram"));
        assert!(table.contains("cholesky.ns"));
        assert!(table.contains("p99"));
    }

    #[test]
    fn metrics_json_is_valid_and_carries_counters() {
        use crate::metrics::{HistogramStats, HISTOGRAM_BUCKETS};
        let snapshot = MetricsSnapshot {
            counters: vec![("monte_carlo.sims", 42), ("cholesky.calls", 7)],
            histograms: vec![HistogramStats {
                name: "cholesky.ns",
                count: 7,
                sum_ns: 700,
                min_ns: 50,
                max_ns: 200,
                buckets: [0; HISTOGRAM_BUCKETS],
            }],
            process: crate::metrics::ProcessStats::sample(),
        };
        let doc = metrics_json(&snapshot, &hw(), None);
        let v = parse(&doc).expect("metrics must be valid JSON");
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("monte_carlo.sims").and_then(Value::as_f64),
            Some(42.0)
        );
        let hist = v
            .get("histograms")
            .and_then(|h| h.get("cholesky.ns"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Value::as_f64), Some(7.0));
        assert_eq!(hist.get("mean_ns").and_then(Value::as_f64), Some(100.0));
        for key in ["p50_ns", "p90_ns", "p99_ns"] {
            assert!(
                hist.get(key).and_then(Value::as_f64).is_some(),
                "missing {key}"
            );
        }
    }

    #[test]
    fn empty_histogram_percentiles_export_as_null() {
        use crate::metrics::{HistogramStats, HISTOGRAM_BUCKETS};
        let snapshot = MetricsSnapshot {
            counters: vec![],
            histograms: vec![HistogramStats {
                name: "eigen.ns",
                count: 0,
                sum_ns: 0,
                min_ns: 0,
                max_ns: 0,
                buckets: [0; HISTOGRAM_BUCKETS],
            }],
            process: None,
        };
        let doc = metrics_json(&snapshot, &hw(), None);
        let v = parse(&doc).expect("metrics must be valid JSON");
        let hist = v.get("histograms").and_then(|h| h.get("eigen.ns")).unwrap();
        for key in ["p50_ns", "p90_ns", "p99_ns"] {
            let val = hist.get(key).expect("percentile key present");
            assert!(
                matches!(val, Value::Null),
                "{key} must be null on an empty histogram, got {}",
                val.to_json()
            );
            assert!(val.as_f64().is_none(), "{key} must not read as a number");
        }
        assert!(v.get("process").is_some(), "process key always present");
    }

    #[test]
    fn validate_chrome_trace_accepts_the_export_and_rejects_mutations() {
        let run = crate::run::RunContext::derive(2015, "export test");
        let doc = chrome_trace_json(&sample_events(), &hw(), Some(&run));
        assert_eq!(validate_chrome_trace(&doc), Ok((5, 3)));
        let start = doc.find(",\"otherData\"").unwrap();
        let no_other = format!("{}}}", &doc[..start]);
        let err = validate_chrome_trace(&no_other).unwrap_err();
        assert!(err.contains("otherData"), "{err}");
        let negative = doc.replacen("\"dur\":10", "\"dur\":-10", 1);
        let err = validate_chrome_trace(&negative).unwrap_err();
        assert!(err.contains("ts/dur"), "{err}");
    }

    #[test]
    fn validate_metrics_accepts_the_export_and_rejects_a_zero_counter() {
        let snapshot = MetricsSnapshot {
            counters: vec![("monte_carlo.sims", 42), ("cholesky.calls", 0)],
            histograms: vec![],
            process: crate::metrics::ProcessStats::sample(),
        };
        let doc = metrics_json(&snapshot, &hw(), None);
        assert_eq!(validate_metrics(&doc, &["monte_carlo.sims"]), Ok(2));
        let err = validate_metrics(&doc, &["cholesky.calls"]).unwrap_err();
        assert!(err.contains("cholesky.calls is zero"), "{err}");
        let err = validate_metrics(&doc, &["cv.fold_evals"]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }
}
