//! Self-contained HTML dashboard exporter.
//!
//! [`render`] turns one run's observability artifacts — profile, metrics
//! snapshot, [`HealthReport`], [`DriftTimeline`] and the committed bench
//! history — into a single static HTML document with inline CSS and SVG.
//! No JavaScript, no external assets, no network: the file opens
//! anywhere a browser does, which is the whole point of a dashboard you
//! can attach to a CI artifact or an email.
//!
//! Charts are rendered server-side: bench history JSON is parsed with
//! [`crate::json`] inside this crate and drawn as SVG polylines. The raw
//! health/drift/shard/bench JSON and the event tail are also embedded
//! verbatim in inert `<script type="application/json">` blocks so
//! downstream tooling can re-parse exactly what the page shows.
//! [`validate`] is that re-parse: it checks a rendered page against
//! [`IDS`] and the blob schemas, and is what `trace_check --dashboard`
//! runs.
//!
//! The same page is served live at `/` by [`crate::serve`], re-rendered
//! on every request and refreshed by a meta tag.
//!
//! Styling follows the repo's chart conventions: categorical series
//! colors in fixed slot order (blue, orange, aqua — the three slots that
//! validate pairwise in both modes), a fixed status palette that is
//! never reused for series, status always as icon + label (never color
//! alone), one axis per chart, 2px lines, and dark mode as its own
//! selected palette via `prefers-color-scheme`.

use crate::event::{EventRecord, Level};
use crate::export::{aggregate, fmt_ns, HardwareContext};
use crate::flight::DumpInfo;
use crate::health::{
    validate_drift_json, validate_health_json, DriftTimeline, HealthReport, Severity,
};
use crate::json::{self, Value};
use crate::metrics::MetricsSnapshot;
use crate::run::RunContext;
use crate::shard::ShardCoverage;
use crate::span::SpanEvent;
use std::fmt::Write as _;

/// Everything one dashboard page is built from. All fields are borrowed:
/// rendering never mutates observability state.
#[derive(Debug, Clone, Copy)]
pub struct DashboardData<'a> {
    /// Page title (e.g. the binary name and scenario).
    pub title: &'a str,
    /// Hardware context of the run.
    pub hardware: &'a HardwareContext,
    /// Run identity, when one was installed.
    pub run: Option<&'a RunContext>,
    /// Recorded span events (profile section).
    pub events: &'a [SpanEvent],
    /// Recorded structured events (event-log section; the tail renders).
    pub event_log: &'a [EventRecord],
    /// Flight-recorder ring occupancy at render time.
    pub flight_occupancy: usize,
    /// The last flight-recorder dump this process wrote, if any.
    pub flight_dump: Option<&'a DumpInfo>,
    /// Metrics snapshot (counters + histograms).
    pub snapshot: &'a MetricsSnapshot,
    /// Statistical health report, when the run produced one.
    pub health: Option<&'a HealthReport>,
    /// Drift timeline, when the run monitored drift.
    pub drift: Option<&'a DriftTimeline>,
    /// Shard coverage, when the run was a packet merge.
    pub shard: Option<&'a ShardCoverage>,
    /// Raw contents of `BENCH_history.json`, when available.
    pub bench_history_json: Option<&'a str>,
    /// Auto-refresh cadence in seconds. Only the live server sets this;
    /// static exports stay static.
    pub refresh_s: Option<u32>,
}

/// How many event-log rows the dashboard tail shows (and embeds).
const EVENT_TAIL: usize = 50;

/// The ids every rendered page carries: the seven section anchors, then
/// the five machine-readable JSON blobs (`*-data`).
pub const IDS: [&str; 12] = [
    "health",
    "shard",
    "drift",
    "events",
    "profile",
    "metrics",
    "bench",
    "health-data",
    "drift-data",
    "shard-data",
    "bench-data",
    "events-data",
];

/// Escapes text for HTML element and attribute content.
fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Makes a JSON document safe to inline inside `<script>`: `</` would
/// end the script element early, so it becomes `<\/`. This is valid
/// because `/` only ever appears inside JSON string literals, where the
/// escape is legal JSON.
fn embed_json(s: &str) -> String {
    s.replace("</", "<\\/")
}

/// A severity badge: fixed status color + icon + label (never color
/// alone, per the status-palette rule).
fn severity_badge(sev: Severity) -> String {
    let (class, icon) = match sev {
        Severity::Ok => ("status-good", "\u{2713}"),      // ✓
        Severity::Warn => ("status-warning", "\u{26a0}"), // ⚠
        Severity::Critical => ("status-critical", "\u{2716}"), // ✖
    };
    format!(
        "<span class=\"badge {class}\"><span class=\"icon\">{icon}</span> {}</span>",
        sev.label()
    )
}

fn fmt_sig(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-3..1e4).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

// ---------------------------------------------------------------------------
// SVG line chart
// ---------------------------------------------------------------------------

struct ChartSeries {
    label: String,
    /// CSS variable name for the stroke, e.g. "--series-1".
    color_var: &'static str,
    points: Vec<(f64, f64)>,
}

const SERIES_VARS: [&str; 3] = ["--series-1", "--series-2", "--series-3"];

/// Renders a small single-axis line chart as inline SVG. `threshold`
/// lines (label, y) are drawn as dashed hairlines. Returns an empty
/// string when no series has at least one point.
fn svg_line_chart(series: &[ChartSeries], y_label: &str, thresholds: &[(&str, f64)]) -> String {
    let finite: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if finite.is_empty() {
        return String::new();
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (0.0f64, f64::NEG_INFINITY);
    for &(x, y) in &finite {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    for &(_, t) in thresholds {
        y_max = y_max.max(t);
    }
    if x_max <= x_min {
        x_max = x_min + 1.0;
    }
    if y_max <= y_min {
        y_max = y_min + 1.0;
    }
    y_max *= 1.08; // headroom so the top point is not clipped

    const W: f64 = 640.0;
    const H: f64 = 220.0;
    const ML: f64 = 58.0; // left margin for tick labels
    const MR: f64 = 12.0;
    const MT: f64 = 12.0;
    const MB: f64 = 28.0;
    let px = |x: f64| ML + (x - x_min) / (x_max - x_min) * (W - ML - MR);
    let py = |y: f64| H - MB - (y - y_min) / (y_max - y_min) * (H - MT - MB);

    let mut svg = format!(
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\" aria-label=\"{}\">",
        html_escape(y_label)
    );
    // Horizontal gridlines at 4 even steps, with tick labels.
    for i in 0..=4 {
        let y = y_min + (y_max - y_min) * i as f64 / 4.0;
        let yy = py(y);
        let _ = write!(
            svg,
            "<line class=\"grid\" x1=\"{ML}\" y1=\"{yy:.1}\" x2=\"{:.1}\" y2=\"{yy:.1}\"/>\
             <text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\">{}</text>",
            W - MR,
            ML - 6.0,
            yy + 3.5,
            html_escape(&fmt_sig(y))
        );
    }
    // Threshold hairlines.
    for &(label, t) in thresholds {
        if t <= y_max && t >= y_min {
            let yy = py(t);
            let _ = write!(
                svg,
                "<line class=\"threshold\" x1=\"{ML}\" y1=\"{yy:.1}\" x2=\"{:.1}\" y2=\"{yy:.1}\"/>\
                 <text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\">{}</text>",
                W - MR,
                W - MR - 2.0,
                yy - 4.0,
                html_escape(label)
            );
        }
    }
    // Baseline (the one axis).
    let _ = write!(
        svg,
        "<line class=\"axis\" x1=\"{ML}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\"/>",
        H - MB,
        W - MR,
        H - MB
    );
    for s in series {
        let pts: Vec<(f64, f64)> = s
            .points
            .iter()
            .copied()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            continue;
        }
        if pts.len() > 1 {
            let path: Vec<String> = pts
                .iter()
                .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
                .collect();
            let _ = write!(
                svg,
                "<polyline class=\"line\" style=\"stroke:var({})\" points=\"{}\"/>",
                s.color_var,
                path.join(" ")
            );
        }
        for &(x, y) in &pts {
            let _ = write!(
                svg,
                "<circle class=\"mark\" style=\"fill:var({})\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\">\
                 <title>{}: x={}, y={}</title></circle>",
                s.color_var,
                px(x),
                py(y),
                html_escape(&s.label),
                html_escape(&fmt_sig(x)),
                html_escape(&fmt_sig(y)),
            );
        }
    }
    svg.push_str("</svg>");
    // Legend only when two or more series share the plot.
    let mut out = String::new();
    if series.len() >= 2 {
        out.push_str("<div class=\"legend\">");
        for s in series {
            let _ = write!(
                out,
                "<span class=\"key\"><span class=\"swatch\" style=\"background:var({})\"></span>{}</span>",
                s.color_var,
                html_escape(&s.label)
            );
        }
        out.push_str("</div>");
    }
    svg + &out
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

fn profile_section(data: &DashboardData) -> String {
    let rows = aggregate(data.events);
    let mut out = String::from("<section id=\"profile\"><h2>Profile</h2>");
    if rows.is_empty() {
        out.push_str("<p class=\"muted\">No spans recorded.</p>");
    } else {
        out.push_str(
            "<table><thead><tr><th>span</th><th class=\"num\">calls</th>\
             <th class=\"num\">total</th><th class=\"num\">self</th>\
             <th class=\"num\">min</th><th class=\"num\">max</th></tr></thead><tbody>",
        );
        for r in &rows {
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                html_escape(r.name),
                r.count,
                fmt_ns(r.total_ns),
                fmt_ns(r.self_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns),
            );
        }
        out.push_str("</tbody></table>");
    }
    out.push_str("</section>");
    out
}

fn metrics_section(data: &DashboardData) -> String {
    let mut out = String::from("<section id=\"metrics\"><h2>Metrics</h2>");
    let nonzero: Vec<_> = data
        .snapshot
        .counters
        .iter()
        .filter(|(_, v)| *v > 0)
        .collect();
    if nonzero.is_empty() {
        out.push_str("<p class=\"muted\">No counters recorded.</p>");
    } else {
        out.push_str(
            "<table><thead><tr><th>counter</th><th class=\"num\">value</th></tr></thead><tbody>",
        );
        for (name, v) in &nonzero {
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{v}</td></tr>",
                html_escape(name)
            );
        }
        out.push_str("</tbody></table>");
    }
    let recorded: Vec<_> = data
        .snapshot
        .histograms
        .iter()
        .filter(|h| h.count > 0)
        .collect();
    if !recorded.is_empty() {
        out.push_str(
            "<table><thead><tr><th>histogram</th><th class=\"num\">count</th>\
             <th class=\"num\">p50</th><th class=\"num\">p90</th><th class=\"num\">p99</th>\
             </tr></thead><tbody>",
        );
        let fmt_pct = |p: Option<u64>| p.map_or_else(|| "\u{2014}".to_string(), fmt_ns);
        for h in &recorded {
            let _ = write!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                html_escape(h.name),
                h.count,
                fmt_pct(h.p50_ns()),
                fmt_pct(h.p90_ns()),
                fmt_pct(h.p99_ns()),
            );
        }
        out.push_str("</tbody></table>");
    }
    out.push_str("</section>");
    out
}

fn health_section(data: &DashboardData) -> String {
    let mut out = String::from("<section id=\"health\"><h2>Estimator health</h2>");
    match data.health {
        None => out.push_str("<p class=\"muted\">No health report for this run.</p>"),
        Some(h) => {
            let _ = write!(
                out,
                "<p>Overall: {}</p><table><thead><tr><th>check</th><th>value</th>\
                 <th>status</th></tr></thead><tbody>",
                severity_badge(h.overall())
            );
            let _ = write!(
                out,
                "<tr><td>prior–data conflict</td><td class=\"num\">D\u{b2}={}, p={}</td><td>{}</td></tr>",
                fmt_sig(h.conflict.mahalanobis_sq),
                fmt_sig(h.conflict.p_value),
                severity_badge(h.conflict.severity)
            );
            let _ = write!(
                out,
                "<tr><td>effective sample size</td><td class=\"num\">n={}, \u{3ba}\u{2099}={}, shrinkage={}</td><td>{}</td></tr>",
                h.ess.n,
                fmt_sig(h.ess.kappa_n),
                fmt_sig(h.ess.shrinkage),
                severity_badge(h.ess.severity)
            );
            let _ = write!(
                out,
                "<tr><td>covariance spectrum</td><td class=\"num\">cond={}, \u{3bb}_min={}</td><td>{}</td></tr>",
                fmt_sig(h.spectrum.condition),
                fmt_sig(h.spectrum.eigenvalues.first().copied().unwrap_or(f64::NAN)),
                severity_badge(h.spectrum.severity)
            );
            match &h.cv {
                Some(cv) => {
                    let _ = write!(
                        out,
                        "<tr><td>CV surface</td><td class=\"num\">\u{3ba}\u{2080}={}, \u{3bd}\u{2080}={}, spread={}{}</td><td>{}</td></tr>",
                        fmt_sig(cv.kappa0),
                        fmt_sig(cv.nu0),
                        fmt_sig(cv.spread),
                        if cv.boundary_hit { ", boundary hit" } else { "" },
                        severity_badge(cv.severity)
                    );
                }
                None => {
                    out.push_str(
                        "<tr><td>CV surface</td><td class=\"muted\">skipped</td><td></td></tr>",
                    );
                }
            }
            let _ = write!(
                out,
                "<tr><td>data quality</td><td class=\"num\">{}/{} rows kept, {} constant cols</td><td>{}</td></tr>",
                h.data_quality.rows_out,
                h.data_quality.rows_in,
                h.data_quality.constant_columns,
                severity_badge(h.data_quality.severity)
            );
            out.push_str("</tbody></table>");
        }
    }
    out.push_str("</section>");
    out
}

fn shard_section(data: &DashboardData) -> String {
    let mut out = String::from("<section id=\"shard\"><h2>Shard coverage</h2>");
    match data.shard {
        None => out.push_str("<p class=\"muted\">Not a sharded merge.</p>"),
        Some(s) => {
            let _ = write!(
                out,
                "<p>Overall: {} \u{00b7} {}/{} shards merged, quorum {}</p>",
                severity_badge(s.severity()),
                s.merged,
                s.shard_count,
                s.min_shards
            );
            out.push_str("<table><thead><tr><th>field</th><th>value</th></tr></thead><tbody>");
            let row = |out: &mut String, k: &str, v: String| {
                let _ = write!(out, "<tr><td>{k}</td><td class=\"num\">{v}</td></tr>");
            };
            row(
                &mut out,
                "late samples",
                format!("{} of {} planned", s.observed_late, s.planned_late),
            );
            row(
                &mut out,
                "missing shards",
                if s.missing.is_empty() {
                    "none".to_string()
                } else {
                    s.missing_text()
                },
            );
            row(
                &mut out,
                "corrupt shards",
                if s.corrupt.is_empty() {
                    "none".to_string()
                } else {
                    format!("{:?}", s.corrupt)
                },
            );
            row(&mut out, "duplicate packets", s.duplicates.to_string());
            row(&mut out, "uncertainty inflation", fmt_sig(s.inflation));
            out.push_str("</tbody></table>");
        }
    }
    out.push_str("</section>");
    out
}

fn drift_section(data: &DashboardData) -> String {
    let mut out = String::from("<section id=\"drift\"><h2>Drift timeline</h2>");
    match data.drift {
        None => out.push_str("<p class=\"muted\">No drift monitoring for this run.</p>"),
        Some(t) if t.windows.is_empty() => {
            out.push_str("<p class=\"muted\">No closed drift windows.</p>")
        }
        Some(t) => {
            let _ = write!(out, "<p>Overall: {}</p>", severity_badge(t.overall()));
            let series = [ChartSeries {
                label: "KL(window \u{2016} early)".to_string(),
                color_var: SERIES_VARS[0],
                points: t.windows.iter().map(|w| (w.index as f64, w.kl)).collect(),
            }];
            out.push_str(&svg_line_chart(
                &series,
                "KL divergence (nats) per drift window",
                &[
                    ("warn", crate::health::DRIFT_KL_WARN),
                    ("critical", crate::health::DRIFT_KL_CRITICAL),
                ],
            ));
            if !t.alerts.is_empty() {
                out.push_str("<h3>Alerts</h3><ul>");
                for a in &t.alerts {
                    let _ = write!(out, "<li>{}</li>", html_escape(a));
                }
                out.push_str("</ul>");
            }
        }
    }
    out.push_str("</section>");
    out
}

fn bench_section(data: &DashboardData) -> String {
    let mut out = String::from("<section id=\"bench\"><h2>Bench history</h2>");
    let parsed = data.bench_history_json.and_then(|s| json::parse(s).ok());
    let entries: Vec<Value> = parsed
        .as_ref()
        .and_then(|v| v.get("entries"))
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .unwrap_or_default();
    if entries.is_empty() {
        out.push_str("<p class=\"muted\">No bench history available.</p></section>");
        return out;
    }
    // Stage names in first-seen order, capped at the three validated
    // categorical slots; extras fold into the table below.
    let mut stage_names: Vec<String> = Vec::new();
    for e in &entries {
        if let Some(Value::Object(stages)) = e.get("stages") {
            for k in stages.keys() {
                if !stage_names.contains(k) {
                    stage_names.push(k.clone());
                }
            }
        }
    }
    let plotted = stage_names.len().min(SERIES_VARS.len());
    let series: Vec<ChartSeries> = stage_names[..plotted]
        .iter()
        .enumerate()
        .map(|(i, name)| ChartSeries {
            label: name.clone(),
            color_var: SERIES_VARS[i],
            points: entries
                .iter()
                .enumerate()
                .filter_map(|(j, e)| {
                    e.get("stages")
                        .and_then(|s| s.get(name))
                        .and_then(Value::as_f64)
                        .map(|v| (j as f64, v))
                })
                .collect(),
        })
        .collect();
    out.push_str(&svg_line_chart(&series, "stage seconds per entry", &[]));
    if stage_names.len() > plotted {
        let _ = write!(
            out,
            "<p class=\"muted\">{} additional stage(s) not plotted; see table.</p>",
            stage_names.len() - plotted
        );
    }
    out.push_str(
        "<table><thead><tr><th>entry</th><th>when</th><th class=\"num\">cores</th>\
         <th class=\"num\">threads</th>",
    );
    for name in &stage_names {
        let _ = write!(out, "<th class=\"num\">{}</th>", html_escape(name));
    }
    out.push_str("</tr></thead><tbody>");
    for (j, e) in entries.iter().enumerate() {
        let when = e
            .get("timestamp_iso")
            .and_then(Value::as_str)
            .unwrap_or("?");
        let cores = e
            .get("hardware")
            .and_then(|h| h.get("detected_cores"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let threads = e
            .get("hardware")
            .and_then(|h| h.get("threads_used"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        // Oversubscribed runs (threads > cores) measure scheduler
        // contention, not scaling; flag them so their numbers are never
        // read as capability data. Older entries lack the explicit flag,
        // so fall back to comparing the two counts.
        let oversubscribed = e
            .get("hardware")
            .and_then(|h| h.get("oversubscribed"))
            .and_then(Value::as_bool)
            .unwrap_or(cores > 0.0 && threads > cores);
        let _ = write!(
            out,
            "<tr><td class=\"num\">{j}</td><td>{}</td><td class=\"num\">{cores}</td>\
             <td class=\"num\">{threads}{}</td>",
            html_escape(when),
            if oversubscribed {
                " <span class=\"status-warning\" title=\"threads &gt; detected cores: \
                 not scaling data\">oversub</span>"
            } else {
                ""
            }
        );
        for name in &stage_names {
            let cell = e
                .get("stages")
                .and_then(|s| s.get(name))
                .and_then(Value::as_f64)
                .map_or_else(|| "\u{2014}".to_string(), fmt_sig);
            let _ = write!(out, "<td class=\"num\">{cell}</td>");
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table></section>");
    out
}

/// An event-level badge reusing the fixed status palette (label always
/// present, never color alone). Info and debug rows are unemphasised.
fn level_badge(level: Level) -> String {
    let (class, icon) = match level {
        Level::Error => ("status-critical", "\u{2716}"), // ✖
        Level::Warn => ("status-warning", "\u{26a0}"),   // ⚠
        Level::Info => ("muted", "\u{00b7}"),            // ·
        Level::Debug => ("muted", "\u{00b7}"),
    };
    format!(
        "<span class=\"badge {class}\"><span class=\"icon\">{icon}</span> {}</span>",
        level.as_str()
    )
}

/// The last [`EVENT_TAIL`] records of the event log.
fn event_tail<'a>(data: &DashboardData<'a>) -> &'a [EventRecord] {
    let skip = data.event_log.len().saturating_sub(EVENT_TAIL);
    &data.event_log[skip..]
}

fn events_section(data: &DashboardData) -> String {
    let mut out = String::from("<section id=\"events\"><h2>Event log</h2>");
    let tail = event_tail(data);
    if tail.is_empty() {
        out.push_str(
            "<p class=\"muted\">No structured events recorded \
             (run with <code>--events-out</code>).</p>",
        );
    } else {
        if data.event_log.len() > tail.len() {
            let _ = write!(
                out,
                "<p class=\"muted\">Last {} of {} events.</p>",
                tail.len(),
                data.event_log.len()
            );
        }
        out.push_str(
            "<table><thead><tr><th class=\"num\">t</th><th>level</th>\
             <th>kind</th><th>fields</th></tr></thead><tbody>",
        );
        for rec in tail {
            let _ = write!(
                out,
                "<tr><td class=\"num\">{}</td><td>{}</td><td>{}</td>\
                 <td><code>{}</code></td></tr>",
                fmt_ns(rec.ts_ns),
                level_badge(rec.level),
                html_escape(rec.kind),
                html_escape(&rec.fields),
            );
        }
        out.push_str("</tbody></table>");
    }
    // Flight-recorder status.
    out.push_str("<h3>Flight recorder</h3>");
    let _ = write!(
        out,
        "<p>{} of {} events buffered.",
        data.flight_occupancy,
        crate::flight::FLIGHT_CAPACITY
    );
    match data.flight_dump {
        Some(dump) => {
            let _ = write!(
                out,
                " Last dump: <span class=\"badge status-critical\">\
                 <span class=\"icon\">\u{2716}</span> {}</span> \u{2192} \
                 <code>{}</code> ({} events).",
                html_escape(&dump.reason),
                html_escape(&dump.path.display().to_string()),
                dump.events
            );
        }
        None => out.push_str(" No dump written — nothing crashed."),
    }
    out.push_str("</p></section>");
    out
}

const STYLE: &str = "\
:root{color-scheme:light;\
--surface-1:#fcfcfb;--page:#f9f9f7;--text-primary:#0b0b0b;--text-secondary:#52514e;\
--muted:#898781;--grid:#e1e0d9;--baseline:#c3c2b7;\
--series-1:#2a78d6;--series-2:#eb6834;--series-3:#1baf7a;\
--status-good:#0ca30c;--status-warning:#fab219;--status-serious:#ec835a;--status-critical:#d03b3b}\
@media (prefers-color-scheme:dark){:root{color-scheme:dark;\
--surface-1:#1a1a19;--page:#0d0d0d;--text-primary:#ffffff;--text-secondary:#c3c2b7;\
--grid:#2c2c2a;--baseline:#383835;\
--series-1:#3987e5;--series-2:#d95926;--series-3:#199e70}}\
body{font-family:system-ui,-apple-system,\"Segoe UI\",sans-serif;\
background:var(--page);color:var(--text-primary);margin:0;padding:1.5rem;line-height:1.45}\
main{max-width:960px;margin:0 auto}\
section{background:var(--surface-1);border:1px solid var(--grid);border-radius:8px;\
padding:1rem 1.25rem;margin-bottom:1.25rem}\
h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:0}h3{font-size:0.95rem}\
nav{margin-bottom:1rem}nav a{color:var(--series-1);margin-right:1rem;text-decoration:none}\
p.muted,td.muted,.muted{color:var(--muted)}\
table{border-collapse:collapse;width:100%;font-size:0.88rem;margin-top:0.5rem}\
th,td{text-align:left;padding:0.3rem 0.6rem;border-bottom:1px solid var(--grid)}\
th{color:var(--text-secondary);font-weight:600}\
th.num,td.num{text-align:right;font-variant-numeric:tabular-nums}\
.badge{white-space:nowrap;font-weight:600}\
.badge .icon{font-weight:400}\
.status-good{color:var(--status-good)}.status-warning{color:var(--status-warning)}\
.status-serious{color:var(--status-serious)}.status-critical{color:var(--status-critical)}\
svg{display:block;width:100%;height:auto;margin-top:0.5rem}\
svg .grid{stroke:var(--grid);stroke-width:1}\
svg .axis{stroke:var(--baseline);stroke-width:1}\
svg .threshold{stroke:var(--status-warning);stroke-width:1;stroke-dasharray:4 3}\
svg .line{fill:none;stroke-width:2}\
svg .tick{fill:var(--muted);font-size:10px;text-anchor:end}\
.legend{display:flex;gap:1rem;margin-top:0.35rem;font-size:0.85rem;color:var(--text-secondary)}\
.legend .swatch{display:inline-block;width:10px;height:10px;border-radius:2px;margin-right:0.35rem}\
header p{color:var(--text-secondary)}";

/// Renders the complete dashboard HTML document.
pub fn render(data: &DashboardData) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">");
    let _ = write!(out, "<title>{}</title>", html_escape(data.title));
    out.push_str("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">");
    if let Some(s) = data.refresh_s {
        let _ = write!(out, "<meta http-equiv=\"refresh\" content=\"{s}\">");
    }
    let _ = write!(out, "<style>{STYLE}</style>");
    out.push_str("</head><body><main><header>");
    let _ = write!(out, "<h1>{}</h1>", html_escape(data.title));
    let _ = write!(
        out,
        "<p>{} cores detected, {} threads used</p>",
        data.hardware.detected_cores, data.hardware.threads_used
    );
    if let Some(run) = data.run {
        let _ = write!(
            out,
            "<p>run <code>{}</code> \u{00b7} root seed {}</p>",
            html_escape(&run.run_id),
            run.root_seed
        );
    }
    out.push_str(
        "<nav><a href=\"#health\">Health</a><a href=\"#shard\">Shards</a>\
         <a href=\"#drift\">Drift</a>\
         <a href=\"#events\">Events</a><a href=\"#profile\">Profile</a>\
         <a href=\"#metrics\">Metrics</a><a href=\"#bench\">Bench</a></nav></header>",
    );
    out.push_str(&health_section(data));
    out.push_str(&shard_section(data));
    out.push_str(&drift_section(data));
    out.push_str(&events_section(data));
    out.push_str(&profile_section(data));
    out.push_str(&metrics_section(data));
    out.push_str(&bench_section(data));
    // Machine-readable copies of exactly what the page renders.
    let health_json = data
        .health
        .map_or_else(|| "null".to_string(), HealthReport::to_json);
    let drift_json = data
        .drift
        .map_or_else(|| "null".to_string(), DriftTimeline::to_json);
    let bench_json = data
        .bench_history_json
        .and_then(|s| json::parse(s).ok())
        .map_or_else(|| "null".to_string(), |v| v.to_json());
    let _ = write!(
        out,
        "<script type=\"application/json\" id=\"health-data\">{}</script>",
        embed_json(&health_json)
    );
    let _ = write!(
        out,
        "<script type=\"application/json\" id=\"drift-data\">{}</script>",
        embed_json(&drift_json)
    );
    let shard_json = data
        .shard
        .map_or_else(|| "null".to_string(), ShardCoverage::to_json);
    let _ = write!(
        out,
        "<script type=\"application/json\" id=\"shard-data\">{}</script>",
        embed_json(&shard_json)
    );
    let _ = write!(
        out,
        "<script type=\"application/json\" id=\"bench-data\">{}</script>",
        embed_json(&bench_json)
    );
    // The same event tail the table shows, as a machine-readable array.
    let run_id = data.run.map(|r| r.run_id.as_str());
    let events_json = format!(
        "[{}]",
        event_tail(data)
            .iter()
            .map(|rec| rec.to_json(run_id))
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = write!(
        out,
        "<script type=\"application/json\" id=\"events-data\">{}</script>",
        embed_json(&events_json)
    );
    out.push_str("</main></body></html>\n");
    out
}

/// The JSON text of the page's embedded `<script id="{id}">` blob, with
/// the `<\/` embedding escape undone: exactly what was embedded.
///
/// # Errors
///
/// When the page has no such blob or it is unterminated.
pub fn embedded_json(html: &str, id: &str) -> Result<String, String> {
    let marker = format!("id=\"{id}\">");
    let start = html
        .find(&marker)
        .ok_or_else(|| format!("no embedded JSON blob with id {id}"))?
        + marker.len();
    let end = html[start..]
        .find("</script>")
        .ok_or_else(|| format!("blob {id} is not terminated by </script>"))?;
    Ok(html[start..start + end].replace("<\\/", "</"))
}

/// Checks a [`render`]ed page: an HTML document carrying every id in
/// [`IDS`], with every `href="#…"` resolving to an id on the page, every
/// `*-data` blob re-parsing as JSON, the health and drift blobs (when
/// not `null`) passing [`validate_health_json`] and
/// [`validate_drift_json`], and each event-blob entry a well-formed
/// record. With `expect_health`, the health blob must be present and
/// graded exactly that. Returns a one-line description of the page.
///
/// # Errors
///
/// A message naming the first failed check.
pub fn validate(html: &str, expect_health: Option<Severity>) -> Result<String, String> {
    let lower = html.to_ascii_lowercase();
    if !lower.starts_with("<!doctype html") {
        return Err("missing <!doctype html> prologue".to_string());
    }
    if !lower.contains("</html>") {
        return Err("missing closing </html> tag".to_string());
    }
    for id in IDS {
        if !html.contains(&format!("id=\"{id}\"")) {
            return Err(format!("required id {id:?} is missing"));
        }
    }
    let mut rest = html;
    while let Some(pos) = rest.find("href=\"#") {
        let tail = &rest[pos + 7..];
        let end = tail.find('"').ok_or("unterminated href attribute")?;
        let target = &tail[..end];
        if !html.contains(&format!("id=\"{target}\"")) {
            return Err(format!("href=\"#{target}\" has no matching id"));
        }
        rest = &tail[end..];
    }
    let blob = |id: &str| -> Result<(String, Value), String> {
        let text = embedded_json(html, id)?;
        let value = json::parse(&text).map_err(|e| format!("blob {id} is not valid JSON: {e}"))?;
        Ok((text, value))
    };

    let (health_text, health) = blob("health-data")?;
    let health_desc = if health == Value::Null {
        if let Some(expected) = expect_health {
            return Err(format!("health-data is null but {expected} was expected"));
        }
        "health: absent".to_string()
    } else {
        let overall = validate_health_json(&health_text)?;
        match expect_health {
            Some(expected) if expected != overall => {
                return Err(format!("health overall is {overall}, expected {expected}"));
            }
            _ => format!("health: {overall}"),
        }
    };
    let (drift_text, drift) = blob("drift-data")?;
    let drift_desc = if drift == Value::Null {
        "drift: absent".to_string()
    } else {
        format!("drift: {} window(s)", validate_drift_json(&drift_text)?)
    };
    // Shard coverage has no schema beyond its JSON.
    blob("shard-data")?;
    let (_, events) = blob("events-data")?;
    let events = events.as_array().ok_or("events-data is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        crate::event::check_record(ev, &format!("events-data entry {i}"))?;
    }
    let bench_entries = blob("bench-data")?
        .1
        .get("entries")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    Ok(format!(
        "{health_desc}, {drift_desc}, {} event(s), {bench_entries} bench entr(ies)",
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{
        classify_conflict, classify_cv_surface, classify_data_quality, classify_drift,
        classify_shrinkage, classify_spectrum, CovarianceSpectrum, CvSurface, DataQualityHealth,
        DriftWindow, EffectiveSampleSize, PriorDataConflict,
    };
    use crate::metrics::{HistogramStats, HISTOGRAM_BUCKETS};

    fn hw() -> HardwareContext {
        HardwareContext {
            detected_cores: 8,
            threads_used: 2,
        }
    }

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("monte_carlo.sims", 42), ("drift.windows", 3), ("idle", 0)],
            histograms: vec![HistogramStats {
                name: "cholesky.ns",
                count: 2,
                sum_ns: 300,
                min_ns: 100,
                max_ns: 200,
                buckets: {
                    let mut b = [0; HISTOGRAM_BUCKETS];
                    b[6] = 1;
                    b[7] = 1;
                    b
                },
            }],
            process: None,
        }
    }

    fn health() -> HealthReport {
        HealthReport {
            conflict: PriorDataConflict {
                mahalanobis_sq: 2.0,
                p_value: 0.7,
                severity: classify_conflict(0.7),
            },
            ess: EffectiveSampleSize {
                n: 32,
                kappa_n: 42.0,
                nu_excess: 30.0,
                shrinkage: 0.24,
                severity: classify_shrinkage(0.24),
            },
            spectrum: CovarianceSpectrum {
                eigenvalues: vec![0.5, 1.5],
                condition: 3.0,
                severity: classify_spectrum(0.5, 3.0),
            },
            cv: Some(CvSurface {
                kappa0: 10.0,
                nu0: 6.0,
                score: -1.0,
                spread: 2.0,
                boundary_hit: false,
                severity: classify_cv_surface(2.0, false),
            }),
            data_quality: DataQualityHealth {
                rows_in: 32,
                rows_out: 32,
                dropped_fraction: 0.0,
                constant_columns: 0,
                severity: classify_data_quality(true, 0.0, 0),
            },
        }
    }

    fn drift() -> DriftTimeline {
        DriftTimeline {
            windows: vec![
                DriftWindow {
                    index: 0,
                    start_sample: 0,
                    n: 32,
                    kl: 0.3,
                    mean_dist: 0.1,
                    cov_frob: 0.1,
                    severity: classify_drift(0.3),
                },
                DriftWindow {
                    index: 1,
                    start_sample: 32,
                    n: 32,
                    kl: 4.5,
                    mean_dist: 2.0,
                    cov_frob: 0.8,
                    severity: classify_drift(4.5),
                },
            ],
            alerts: vec!["window 1: KL 4.5 > warn threshold 2 </script> attack".to_string()],
        }
    }

    fn full_page() -> String {
        let health = health();
        let drift = drift();
        let bench = r#"{"entries":[{"timestamp_iso":"2026-08-05T00:00:00Z","hardware":{"detected_cores":8,"threads_used":2},"stages":{"cv":1.5,"mc":0.5}}]}"#;
        let snap = snapshot();
        let run = RunContext::derive(2015, "dashboard test");
        let event_log = vec![
            EventRecord {
                seq: 0,
                ts_ns: 1_000,
                tid: 1,
                level: Level::Warn,
                kind: "spd.repair",
                fields: "\"stage\":\"ridge\",\"note\":\"</script> hostile\"".to_string(),
            },
            EventRecord {
                seq: 1,
                ts_ns: 2_000,
                tid: 1,
                level: Level::Error,
                kind: "ladder.transition",
                fields: String::new(),
            },
        ];
        let dump = DumpInfo {
            reason: "strict_failure".to_string(),
            path: std::path::PathBuf::from("flight-abc.json"),
            events: 2,
        };
        let shard = ShardCoverage {
            shard_count: 4,
            merged: 3,
            missing: vec![(2, 2)],
            corrupt: vec![],
            duplicates: 1,
            min_shards: 2,
            planned_late: 200,
            observed_late: 150,
            inflation: 200.0 / 150.0,
        };
        render(&DashboardData {
            title: "fig4 <smoke>",
            hardware: &hw(),
            run: Some(&run),
            events: &[],
            event_log: &event_log,
            flight_occupancy: 2,
            flight_dump: Some(&dump),
            snapshot: &snap,
            health: Some(&health),
            drift: Some(&drift),
            shard: Some(&shard),
            bench_history_json: Some(bench),
            refresh_s: Some(2),
        })
    }

    fn empty_page() -> String {
        let snap = MetricsSnapshot {
            counters: vec![],
            histograms: vec![],
            process: None,
        };
        render(&DashboardData {
            title: "empty run",
            hardware: &hw(),
            run: None,
            events: &[],
            event_log: &[],
            flight_occupancy: 0,
            flight_dump: None,
            snapshot: &snap,
            health: None,
            drift: None,
            shard: None,
            bench_history_json: None,
            refresh_s: None,
        })
    }

    fn blob(page: &str, id: &str) -> Value {
        json::parse(&embedded_json(page, id).unwrap()).expect("blob parses")
    }

    #[test]
    fn dashboard_contains_all_sections_and_embedded_json() {
        let page = full_page();
        assert!(page.starts_with("<!DOCTYPE html>"));
        // Title is escaped.
        assert!(page.contains("fig4 &lt;smoke&gt;"));
        assert_eq!(
            validate(&page, Some(Severity::Ok)).unwrap(),
            "health: ok, drift: 2 window(s), 2 event(s), 1 bench entr(ies)"
        );
        // Every section is linked from the nav.
        for id in IDS.iter().filter(|id| !id.ends_with("-data")) {
            assert!(page.contains(&format!("href=\"#{id}\"")), "nav misses {id}");
        }
        // The refresh request renders as a meta tag.
        assert!(page.contains("http-equiv=\"refresh\" content=\"2\""));
        // Run identity and flight status render.
        let run = RunContext::derive(2015, "dashboard test");
        assert!(page.contains(&run.run_id));
        assert!(page.contains("Flight recorder"));
        assert!(page.contains("flight-abc.json"));
        assert!(page.contains("strict_failure"));
        // The hostile </script> in the alert never appears raw inside
        // the embedded JSON (it is either HTML-escaped in the list or
        // backslash-escaped in the blob).
        let blob_start = page.find("id=\"drift-data\"").unwrap();
        let drift_blob = &page[blob_start..];
        let blob_end = drift_blob.find("</script>").unwrap();
        assert!(!drift_blob[..blob_end].contains("</s"));
        assert_eq!(
            blob(&page, "drift-data")
                .get("overall")
                .and_then(Value::as_str),
            Some("warn")
        );
        // Embedded events blob re-parses (its hostile </script> payload
        // included) and carries the run id per record.
        let events_v = blob(&page, "events-data");
        let recs = events_v.as_array().unwrap();
        assert_eq!(
            recs[0].get("kind").and_then(Value::as_str),
            Some("spd.repair")
        );
        assert_eq!(
            recs[0].get("run_id").and_then(Value::as_str),
            Some(run.run_id.as_str())
        );
        assert_eq!(
            recs[0].get("note").and_then(Value::as_str),
            Some("</script> hostile")
        );
        // Event level badges render with icon + label.
        assert!(page.contains("\u{2716}</span> error"));
        // Status badges carry icon + label, never color alone.
        assert!(page.contains("status-warning"));
        assert!(page.contains("\u{26a0}"));
        // Charts rendered.
        assert!(page.contains("<svg"));
        assert!(page.contains("polyline"));
    }

    #[test]
    fn dashboard_renders_without_optional_data() {
        let page = empty_page();
        assert_eq!(
            validate(&page, None).unwrap(),
            "health: absent, drift: absent, 0 event(s), 0 bench entr(ies)"
        );
        assert!(page.contains("No health report"));
        assert!(page.contains("Not a sharded merge"));
        assert!(page.contains("No structured events"));
        assert!(page.contains("No dump written"));
        assert!(!page.contains("http-equiv=\"refresh\""));
        assert!(page.contains(">null</script>"));
        // Empty event tail embeds an empty array.
        assert!(page.contains("id=\"events-data\">[]</script>"));
    }

    #[test]
    fn validate_rejects_a_dangling_link_a_missing_id_and_a_health_mismatch() {
        let page = full_page();
        let dangling = page.replacen("href=\"#drift\"", "href=\"#nowhere\"", 1);
        let err = validate(&dangling, None).unwrap_err();
        assert!(err.contains("#nowhere"), "{err}");
        let missing = page.replacen("id=\"shard-data\"", "id=\"shard-gone\"", 1);
        let err = validate(&missing, None).unwrap_err();
        assert!(err.contains("shard-data"), "{err}");
        let err = validate(&page, Some(Severity::Critical)).unwrap_err();
        assert!(err.contains("expected critical"), "{err}");
        let err = validate(&empty_page(), Some(Severity::Ok)).unwrap_err();
        assert!(err.contains("null"), "{err}");
    }
}
