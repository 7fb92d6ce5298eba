//! CI gate for the cost of the `bmf_obs` instrumentation: the disabled
//! path, the events-on path and the live server, each within one budget.
//!
//! The observability layer promises that when no `--trace-out` /
//! `--profile` / `--metrics-out` flag is given, every span and counter
//! call collapses to a relaxed atomic load plus a branch. This bin
//! measures that cost and fails (exit 1) when the estimated overhead on
//! the CV-selection micro-benchmark exceeds the budget; it holds the two
//! enabled paths a run can ship with (`--events-out`, `--obs-listen`) to
//! the same budget.
//!
//! Method — the disabled branches are compiled in, so the overhead
//! cannot be measured by diffing two binaries at runtime; instead it is
//! bounded from measurements in one process:
//!
//! 1. calibrate the per-call cost of a disabled span + counter pair with
//!    a tight loop;
//! 2. run one CV selection with recording *enabled* to count how many
//!    instrumentation hits (span events + counter increments) the
//!    workload performs;
//! 3. time the same CV selection with recording *disabled* (the shipped
//!    configuration) and report `hits x per_call_cost / workload_time`;
//! 4. gate the *events-enabled* path the same way on a workload that
//!    emits events: a `RobustPipeline` estimate on the same late matrix
//!    with one row duplicated, whose guard emits one `guard.flag` per
//!    estimate. Calibrate the cost of one structured-event emission (TLS
//!    buffer push + flight-ring insert), count the events one estimate
//!    emits, time the estimate with recording disabled, and require
//!    `events x per_event_cost / estimate_time` inside the same budget.
//!    A workload that emits no event fails the step, which would
//!    otherwise pass whatever an event costs.
//! 5. gate the *server-enabled* path directly: time 24 pairs of batches
//!    of the workload, each at least 120 ms long so that it spans
//!    scrapes, one without a server and one with a live `--obs-listen`
//!    server scraped at Prometheus cadence (one `/metrics` + `/health`
//!    pull every 100 ms), the order swapped every pair; compare the mean
//!    of the five fastest batches on each side and require the slowdown
//!    inside the same budget — scrapes run on their own threads and must
//!    not perturb the study.
//!
//! Usage: `cargo run --release -p bmf-bench --bin obs_overhead
//!         [--budget-percent <f>]` (default budget: 2%; finite and > 0,
//! anything else is a usage error, exit 2).

use bmf_core::cv::CrossValidation;
use bmf_core::pipeline::RobustPipeline;
use bmf_core::MomentEstimate;
use bmf_linalg::{Matrix, Vector};
use bmf_obs::cli::{self, Grammar, UsageError};
use bmf_stats::MultivariateNormal;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const CALIBRATION_ITERS: u64 = 20_000_000;

fn synthetic(d: usize, n: usize) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 7) as f64 / 7.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::zeros(d),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    (early, truth.sample_matrix(&mut rng, n))
}

/// The flags of `obs_overhead`; it drives the recorder itself, so the
/// observability flags are not among them.
const GRAMMAR: Grammar = Grammar {
    obs: false,
    ..Grammar::new("--budget-percent", "", "")
};

fn main() {
    let budget = cli::parse(std::env::args(), &GRAMMAR, &[])
        .and_then(|args| args.get_or("--budget-percent", 2.0_f64))
        .and_then(|budget| {
            if budget.is_finite() && budget > 0.0 {
                return Ok(budget);
            }
            let message = format!("--budget-percent must be finite and > 0, got {budget}");
            Err(UsageError::new("--budget-percent", message))
        });
    let budget_percent = budget.unwrap_or_else(|e| e.exit("obs_overhead"));

    // 1. Per-call cost of the disabled fast path (span + counter pair).
    bmf_obs::reset();
    assert!(!bmf_obs::is_enabled(), "recording must start disabled");
    let t0 = Instant::now();
    for i in 0..CALIBRATION_ITERS {
        let _span = bmf_obs::span("obs_overhead.calibration");
        bmf_obs::counters::CV_FOLD_EVALS.incr();
        black_box(i);
    }
    let per_call = t0.elapsed().as_secs_f64() / CALIBRATION_ITERS as f64;
    eprintln!(
        "disabled span+counter pair: {:.2} ns/call ({CALIBRATION_ITERS} iterations)",
        per_call * 1e9
    );

    // 2. Count the workload's instrumentation hits with recording on.
    let (early, late) = synthetic(5, 48);
    let cv = CrossValidation;
    bmf_obs::reset();
    bmf_obs::enable();
    cv.select_seeded(&early, &late, 6, 1).expect("cv select");
    let events = bmf_obs::take_events().len() as u64;
    let increments: u64 = bmf_obs::metrics::snapshot()
        .counters
        .iter()
        .map(|(_, v)| v)
        .sum();
    bmf_obs::reset();
    let hits = events + increments;
    eprintln!("CV workload: {events} span events + {increments} counter increments = {hits} hits");

    // 3. Time the workload in the shipped (disabled) configuration.
    cv.select_seeded(&early, &late, 6, 1).expect("warm-up");
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        cv.select_seeded(&early, &late, 6, 1).expect("cv select");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let overhead = hits as f64 * per_call / best;
    println!(
        "obs_overhead: {hits} hits x {:.2} ns = {:.1} us over a {:.1} ms CV select -> {:.4}% (budget {budget_percent}%)",
        per_call * 1e9,
        hits as f64 * per_call * 1e6,
        best * 1e3,
        overhead * 100.0
    );
    if overhead * 100.0 > budget_percent {
        eprintln!("FAIL: disabled-recorder overhead exceeds the {budget_percent}% budget");
        std::process::exit(1);
    }
    println!("OK: disabled-recorder overhead within budget");

    // 4. Events-enabled path: per-emission cost (field rendering + TLS
    //    push + flight-ring insert) times the event volume of a robust
    //    estimate whose guard finds a duplicate row. The CV select of
    //    steps 2 and 3 emits no event, so it cannot stand in here.
    const EVENT_ITERS: u64 = 200_000;
    bmf_obs::reset();
    bmf_obs::enable();
    let t0 = Instant::now();
    for i in 0..EVENT_ITERS {
        bmf_obs::event!(Debug, "obs_overhead.calibration", "i": i);
        black_box(i);
    }
    let per_event = t0.elapsed().as_secs_f64() / EVENT_ITERS as f64;
    bmf_obs::reset();
    eprintln!(
        "enabled event emission: {:.1} ns/event ({EVENT_ITERS} iterations)",
        per_event * 1e9
    );

    let mut dirty = late.clone();
    for j in 0..dirty.ncols() {
        dirty[(1, j)] = dirty[(0, j)];
    }
    let pipeline = RobustPipeline::new();
    let estimate = || pipeline.estimate(&early, &dirty).expect("robust estimate");
    bmf_obs::enable();
    estimate();
    let event_count = bmf_obs::take_event_records().len() as u64;
    bmf_obs::reset();
    if event_count == 0 {
        eprintln!("FAIL: the events-on workload emitted no event, so the step measures nothing");
        std::process::exit(1);
    }
    estimate();
    let mut estimate_best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        estimate();
        estimate_best = estimate_best.min(t0.elapsed().as_secs_f64());
    }
    let event_overhead = event_count as f64 * per_event / estimate_best;
    println!(
        "obs_overhead: events-on: {event_count} event(s) x {:.1} ns = {:.2} us over a {:.1} ms robust estimate -> {:.4}% (budget {budget_percent}%)",
        per_event * 1e9,
        event_count as f64 * per_event * 1e6,
        estimate_best * 1e3,
        event_overhead * 100.0
    );
    if event_overhead * 100.0 > budget_percent {
        eprintln!("FAIL: events-enabled overhead exceeds the {budget_percent}% budget");
        std::process::exit(1);
    }
    println!("OK: events-enabled overhead within budget");

    // 5. Server-enabled path: time SERVER_ROUNDS pairs of batches, one
    //    without and one with a live server under a steady scrape load,
    //    swapping the order every round so that both sides see the same
    //    machine state. A batch repeats the select for at least
    //    SERVER_BATCH_S, longer than the 100 ms scrape period, so every
    //    with-server timing spans scrapes. A shared host drifts by tens of
    //    percent between batches, so each side reads as the mean of its
    //    SERVER_BEST fastest batches rather than its single fastest.
    const SERVER_ROUNDS: usize = 24;
    const SERVER_BEST: usize = 5;
    const SERVER_BATCH_S: f64 = 0.12;
    let batch = (SERVER_BATCH_S / best).ceil() as usize;
    let time_batch = || {
        let t0 = Instant::now();
        for _ in 0..batch {
            cv.select_seeded(&early, &late, 6, 1).expect("cv select");
        }
        t0.elapsed().as_secs_f64() / batch as f64
    };
    bmf_obs::reset();
    let (mut without, mut with, mut pulls) = (Vec::new(), Vec::new(), 0);
    for round in 0..SERVER_ROUNDS {
        for server_on in [round % 2 == 1, round % 2 == 0] {
            if server_on {
                let scraped = ScrapedServer::start();
                with.push(time_batch());
                pulls += scraped.stop();
            } else {
                without.push(time_batch());
            }
        }
    }
    let fastest = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[..SERVER_BEST].iter().sum::<f64>() / SERVER_BEST as f64
    };
    let (baseline, with_server) = (fastest(without), fastest(with));

    let server_overhead = (with_server - baseline).max(0.0) / baseline;
    println!(
        "obs_overhead: server-on: {:.3} ms vs {:.3} ms baseline per select (mean of the {SERVER_BEST} fastest of {SERVER_ROUNDS} alternating batches of {batch} per side) under {pulls} scrape(s) -> {:.4}% (budget {budget_percent}%)",
        with_server * 1e3,
        baseline * 1e3,
        server_overhead * 100.0
    );
    if server_overhead * 100.0 > budget_percent {
        eprintln!("FAIL: server-enabled overhead exceeds the {budget_percent}% budget");
        std::process::exit(1);
    }
    println!("OK: server-enabled overhead within budget");
}

/// A live observability server on an ephemeral loopback port, with a
/// thread pulling `/metrics` and `/health` from it every 100 ms.
struct ScrapedServer {
    server: bmf_obs::ObsServer,
    scraping: Arc<AtomicBool>,
    scraper: std::thread::JoinHandle<u64>,
}

impl ScrapedServer {
    fn start() -> ScrapedServer {
        let server = bmf_obs::ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();
        let scraping = Arc::new(AtomicBool::new(true));
        let scraper = {
            let scraping = Arc::clone(&scraping);
            std::thread::spawn(move || {
                use std::io::{Read, Write};
                let mut pulls = 0u64;
                while scraping.load(Ordering::Relaxed) {
                    for target in ["/metrics", "/health"] {
                        if let Ok(mut conn) = std::net::TcpStream::connect(addr) {
                            let _ = conn.write_all(
                                format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
                            );
                            let mut sink = String::new();
                            let _ = conn.read_to_string(&mut sink);
                            pulls += 1;
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                pulls
            })
        };
        ScrapedServer {
            server,
            scraping,
            scraper,
        }
    }

    /// Stops the scraper, then the server; returns the pulls made.
    fn stop(mut self) -> u64 {
        self.scraping.store(false, Ordering::Relaxed);
        let pulls = self.scraper.join().expect("scraper thread");
        self.server.stop();
        pulls
    }
}
