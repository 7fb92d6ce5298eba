//! End-to-end and per-layer benchmark of `bmf-ams`.
//!
//! ```text
//! benchmark --workload <name|all> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! benchmark compare <parent-runs-dir> <change-runs-dir>
//! ```
//!
//! One run runs ops one after another at one worker thread for
//! `--seconds`, setting the workload up three times along the way
//! (inputs plus one untimed warm-up op, before each third of the ops;
//! `setup_s` is the median). It checks every output, and replays
//! the first and last op at two threads, which must reproduce them bit
//! for bit. It prints every metric by name and unit, then as its last
//! line one JSON object: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a separate traced run, which also writes
//! `trace-<workload>.json` and `profile-<workload>.json` to `--out`.
//! `--workload all` runs each workload in a child process of its own.
//! The exit code is 0 only when every check passed.
//!
//! Load from outside the process only ever adds time, and on a shared
//! host it comes in stretches of seconds to minutes. So the latency
//! metric is the op's cost at the run's quietest moments: each public
//! call an op makes is timed on its own, and the fastest time of each
//! call over the run is summed. Medians, tails and the whole-run
//! throughput are printed for reading, not gated.

mod compare;
mod layers;
mod measure;
mod metrics;
mod workloads;

use measure::{median, percentile, samples_beyond, sum_of_fastest_parts, Digest, MIN_BEYOND};
use metrics::Metric;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Prepared, Workload, WARM_UP_OP};

/// Worker threads of every timed op.
const THREADS: usize = 1;

/// Worker threads of the determinism replay.
const REPLAY_THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Ops every loop runs however short `--seconds` is. The run's digest
/// covers exactly these ops, so it is comparable across run lengths.
const MIN_OPS: usize = 3;

/// Calls per layer probe in the traced run.
const PROBE_CALLS: usize = 2000;

/// The traced run's two loops (untraced, then traced) each last this
/// share of `--seconds`.
const TRACED_LOOP_SHARE: f64 = 0.2;

const USAGE: &str = "usage: benchmark --workload <opamp_mc|adc_mc|fuse|study|all> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <dir>]\n       \
benchmark compare <parent-runs-dir> <change-runs-dir>";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 2015,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("bench-out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("--seed: not a u64: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: not a positive number: {v}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => None,
        Some(name) => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
    };
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]) as u8);
    }
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload {
        None => run_all(&opts),
        Some(w) if opts.trace => run_traced(w, &opts).map(|r| r.report(w)),
        Some(w) => run_untraced(w, &opts).map(|r| r.report(w)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// How long a loop runs.
#[derive(Debug, Clone, Copy)]
enum Length {
    /// Until this much wall time has passed and at least [`MIN_OPS`] ran.
    Seconds(f64),
    /// Exactly this many ops.
    #[cfg_attr(not(test), allow(dead_code))]
    Ops(usize),
}

impl Length {
    fn more(self, done: usize, elapsed: Duration) -> bool {
        match self {
            Length::Seconds(s) => done < MIN_OPS || elapsed.as_secs_f64() < s,
            Length::Ops(n) => done < n,
        }
    }

    fn scaled(self, share: f64) -> Length {
        match self {
            Length::Seconds(s) => Length::Seconds(s * share),
            ops => ops,
        }
    }
}

/// What one timed loop saw.
#[derive(Default)]
struct LoopStats {
    /// Wall time of each op's public calls, in ms.
    latencies_ms: Vec<f64>,
    /// The same per call, in the op's order.
    parts_ms: Vec<Vec<f64>>,
    digests: Vec<Option<u64>>,
    accuracy: Vec<workloads::Accuracy>,
    failed: usize,
    wall: Duration,
}

impl LoopStats {
    fn latency_ms(&self, q: f64) -> f64 {
        percentile(&self.latencies_ms, q).unwrap_or(f64::NAN)
    }

    /// The gated latency: each public call's fastest run, summed over
    /// the op's calls.
    fn fastest_op_ms(&self) -> f64 {
        sum_of_fastest_parts(&self.parts_ms).unwrap_or(f64::NAN)
    }

    /// Digest of the first [`MIN_OPS`] ops, which every run completes.
    fn prefix_digest(&self) -> Option<u64> {
        let mut digest = Digest::default();
        for d in self.digests.iter().take(MIN_OPS) {
            digest.word((*d)?);
        }
        Some(digest.value())
    }
}

/// Closed loop: op `i + 1` starts when op `i` has returned and passed
/// its checks. Each op runs inside the workload's span, which records
/// only while tracing is on.
fn timed_loop(p: &Prepared, w: Workload, length: Length) -> LoopStats {
    let mut stats = LoopStats::default();
    run_ops(&mut stats, p, w, length);
    stats
}

/// The loop of [`timed_loop`], continuing after the ops `stats` holds.
fn run_ops(stats: &mut LoopStats, p: &Prepared, w: Workload, length: Length) {
    let t0 = Instant::now();
    let mut i = stats.digests.len();
    while length.more(i, t0.elapsed()) {
        let result = {
            let _span = bmf_obs::span(w.span());
            p.run_op(i, THREADS)
        };
        match result {
            Ok(out) => {
                let parts: Vec<f64> = out.parts.iter().map(|d| d.as_secs_f64() * 1e3).collect();
                stats.latencies_ms.push(parts.iter().sum());
                stats.parts_ms.push(parts);
                stats.digests.push(Some(out.digest));
                stats.accuracy.extend(out.accuracy);
            }
            Err(e) => {
                eprintln!("{} op {i} failed: {e}", w.name());
                stats.failed += 1;
                stats.digests.push(None);
            }
        }
        i += 1;
    }
    stats.wall += t0.elapsed();
}

fn prepare_and_warm_up(w: Workload, seed: u64) -> Result<Prepared, String> {
    let p = workloads::setup(w, seed, THREADS)?;
    p.run_op(WARM_UP_OP, THREADS)
        .map_err(|e| format!("warm-up op failed: {e}"))?;
    Ok(p)
}

/// A finished run: its metrics in list order plus the check tallies.
struct RunResult {
    metrics: Vec<(Metric, f64)>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl RunResult {
    fn new(list: &[Metric], values: &[(&str, f64)]) -> Result<RunResult, String> {
        let metrics = list
            .iter()
            .map(|m| {
                let v = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                v.map(|v| (*m, v))
                    .ok_or(format!("metric {} was not measured", m.name))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunResult {
            metrics,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        })
    }

    /// A run is correct when no op or replay failed and every metric is
    /// a finite number.
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    bmf_obs::json::number(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Prints the human-readable lines, then the JSON line last.
    fn report(&self, w: Workload) -> bool {
        for note in &self.notes {
            println!("{}: {note}", w.name());
        }
        for (m, v) in &self.metrics {
            println!("{}: {} = {v} {}", w.name(), m.name, m.unit);
        }
        println!("{}", self.json());
        self.correct()
    }
}

/// The end-to-end run: set up [`SETUPS`] times, each set-up followed by
/// an equal share of the timed loop, then replay. Spread over the run,
/// the set-ups' median reads the run's load, not that of its first
/// second. The loop keeps the first set-up's inputs; every set-up builds
/// the same ones.
fn run_untraced(w: Workload, opts: &Options) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    let mut stats = LoopStats::default();
    let share = Length::Seconds(opts.seconds).scaled(1.0 / SETUPS as f64);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let fresh = prepare_and_warm_up(w, opts.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        run_ops(&mut stats, prepared.get_or_insert(fresh), w, share);
    }
    let p = prepared.expect("at least one set-up");
    // Before the replay, whose second worker thread gets a malloc arena
    // of its own and would add a varying few hundred KiB.
    let peak_rss_mib = measure::peak_rss_mb()?;
    let (attempted, failed, replay_note) = replay(&p, w, &stats);
    let ops = stats.latencies_ms.len();
    let mut result = RunResult::new(
        &metrics::END_TO_END,
        &[
            ("setup_s", median(&setup_s).expect("set-ups ran")),
            ("op_ms_min", stats.fastest_op_ms()),
            ("peak_rss_mib", peak_rss_mib),
        ],
    )?;
    result.attempted = attempted;
    result.failed = failed;
    result.notes.push(format!(
        "{ops} ops in {:.3} s ({:.4} ops/s) at {THREADS} thread(s) on {} core(s); \
         set-ups {setup_s:.3?} s",
        stats.wall.as_secs_f64(),
        ops as f64 / stats.wall.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let beyond = samples_beyond(ops, 0.9);
    result.notes.push(format!(
        "op latency min {:.4} ms, p50 {:.4} ms, p90 {:.4} ms ({beyond} op(s) beyond p90{})",
        stats.latency_ms(0.0),
        stats.latency_ms(0.5),
        stats.latency_ms(0.9),
        if beyond < MIN_BEYOND {
            ", too few to trust it"
        } else {
            ""
        },
    ));
    result.notes.push(match stats.prefix_digest() {
        Some(d) => format!("digest of ops 0..{MIN_OPS} = {d:016x}"),
        None => format!("digest unavailable: an op among the first {MIN_OPS} failed"),
    });
    result.notes.push(replay_note);
    if !stats.accuracy.is_empty() {
        // Over the ops every run completes, so runs of one seed agree.
        let med = |f: fn(&workloads::Accuracy) -> f64| {
            let first: Vec<f64> = stats.accuracy.iter().take(MIN_OPS).map(f).collect();
            median(&first).expect("study ops ran")
        };
        result.notes.push(format!(
            "median cost reduction at n = 8 over ops 0..{MIN_OPS}: op-amp covariance {:.2}x, ADC covariance {:.2}x, ADC mean {:.2}x",
            med(|a| a.opamp_cov),
            med(|a| a.adc_cov),
            med(|a| a.adc_mean)
        ));
    }
    Ok(result)
}

/// Re-runs the first and last op at [`REPLAY_THREADS`]; both must
/// reproduce their digests. Returns `(attempted, failed, note)` over the
/// loop plus the replays.
fn replay(p: &Prepared, w: Workload, stats: &LoopStats) -> (usize, usize, String) {
    let ops = stats.digests.len();
    let mut attempted = ops;
    let mut failed = stats.failed;
    let mut indices = vec![0, ops - 1];
    indices.dedup();
    for &i in &indices {
        attempted += 1;
        let again = p.run_op(i, REPLAY_THREADS).map(|o| o.digest);
        if again.ok() != stats.digests[i] || stats.digests[i].is_none() {
            eprintln!(
                "{} op {i}: {REPLAY_THREADS}-thread replay differs",
                w.name()
            );
            failed += 1;
        }
    }
    let note = format!("ops {indices:?} replayed at {REPLAY_THREADS} threads");
    (attempted, failed, note)
}

/// The per-layer run: one set-up, an untraced and a traced loop of equal
/// length (the ratio of their [`LoopStats::fastest_op_ms`] is the tracing
/// overhead), then the layer probes under tracing. Writes the trace and
/// profile to `opts.out`.
fn run_traced(w: Workload, opts: &Options) -> Result<RunResult, String> {
    run_traced_with(
        w,
        opts.seed,
        Length::Seconds(opts.seconds).scaled(TRACED_LOOP_SHARE),
        PROBE_CALLS,
        &opts.out,
    )
}

fn run_traced_with(
    w: Workload,
    seed: u64,
    length: Length,
    probe_calls: usize,
    out: &Path,
) -> Result<RunResult, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let p = prepare_and_warm_up(w, seed)?;
    let probe_inputs = layers::ProbeInputs::build(seed)?;
    let plain = timed_loop(&p, w, length);
    bmf_obs::reset();
    bmf_obs::flight::set_dump_dir(out);
    bmf_obs::enable();
    let traced = timed_loop(&p, w, length);
    let probed = layers::probe(seed, &probe_inputs, probe_calls);
    bmf_obs::disable();
    let mut values = probed?;
    values.push((
        "trace_overhead_frac",
        traced.fastest_op_ms() / plain.fastest_op_ms() - 1.0,
    ));

    let events = bmf_obs::take_events();
    let hardware = bmf_obs::HardwareContext::detect(THREADS);
    for (kind, doc) in [
        (
            "trace",
            bmf_obs::chrome_trace_json(&events, &hardware, None),
        ),
        ("profile", bmf_obs::profile_json(&events, &hardware)),
    ] {
        let path = out.join(format!("{kind}-{}.json", w.name()));
        bmf_obs::atomic_write(&path, doc)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let mut result = RunResult::new(&metrics::PER_LAYER, &values)?;
    result.attempted = plain.digests.len() + traced.digests.len();
    result.failed = plain.failed + traced.failed;
    if plain
        .digests
        .iter()
        .zip(&traced.digests)
        .any(|(a, b)| a != b)
    {
        eprintln!("{}: tracing changed an op's output", w.name());
        result.failed += 1;
    }
    result.notes.push(format!(
        "{} untraced and {} traced ops, {} spans written to {}",
        plain.digests.len(),
        traced.digests.len(),
        events.len(),
        out.display()
    ));
    Ok(result)
}

/// Runs every workload in a child process of its own, one after another,
/// passing the same flags through.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    let mut lines = Vec::new();
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        all_ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or("null");
        lines.push(format!("\"{}\":{last}", w.name()));
    }
    println!("{{{}}}", lines.join(","));
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory under the repository's ignored `bench-out`.
    fn out_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../bench-out")
            .join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn options_parse_the_benchmark_command_line() {
        let args: Vec<String> = "--workload fuse --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload, Some(Workload::Fuse));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        let all: Vec<String> = vec!["--workload".into(), "all".into()];
        assert_eq!(parse_options(&all).unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--seed x --workload fuse",
            "--workload fuse --trace 2",
            "--seconds 0 --workload fuse",
            "--frobnicate",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_options(&args).is_err(), "{bad}");
        }
    }

    /// Every workload, untraced, at two ops: all checks pass, every
    /// end-to-end metric is finite, and the replay reproduces the ops.
    #[test]
    fn smoke_every_workload() {
        for w in Workload::ALL {
            let p = prepare_and_warm_up(w, 11).unwrap();
            let stats = timed_loop(&p, w, Length::Ops(2));
            assert_eq!(stats.failed, 0, "{}", w.name());
            assert_eq!(stats.latencies_ms.len(), 2);
            let (attempted, failed, _) = replay(&p, w, &stats);
            assert_eq!((attempted, failed), (4, 0), "{}", w.name());
            assert!(stats.latency_ms(0.5) > 0.0);
        }
    }

    /// The traced run emits every per-layer metric and writes a trace and
    /// a profile that the program's own parser accepts.
    #[test]
    fn smoke_traced_run() {
        let out = out_dir("traced");
        let r = run_traced_with(Workload::Fuse, 5, Length::Ops(2), 20, &out).unwrap();
        assert!(r.correct(), "{}", r.json());
        assert_eq!(r.metrics.len(), metrics::PER_LAYER.len());
        for kind in ["trace", "profile"] {
            let text = std::fs::read_to_string(out.join(format!("{kind}-fuse.json"))).unwrap();
            bmf_obs::json::parse(&text).unwrap();
            assert!(text.contains("bench.mna"), "{kind} lacks the layer spans");
        }
        let json = bmf_obs::json::parse(&r.json()).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        std::fs::remove_dir_all(out).unwrap();
    }
}
