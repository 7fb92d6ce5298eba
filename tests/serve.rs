//! The live observability server's contract: a study being scraped is
//! still the same study. These tests hammer the `--obs-listen` HTTP
//! endpoints from concurrent clients while a pipeline estimate runs,
//! and demand the result stays bit-identical to a server-less run at
//! 1, 2 and 7 worker threads; they also fuzz the listener with
//! malformed, oversized and abandoned requests mid-study and require
//! every abuse to get a clean 4xx (or a timeout) without wedging the
//! accept loop or perturbing the numbers.
//!
//! The recorder state is process-global, so every test serialises on
//! one mutex and resets the state on entry.

use bmf_ams::core::pipeline::RobustPipeline;
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::obs::ObsServer;
use bmf_ams::stats::MultivariateNormal;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Serialises tests touching the process-global recorder.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    bmf_ams::obs::reset();
    guard
}

fn synthetic(d: usize, n: usize, seed: u64) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::zeros(d),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = truth.sample_matrix(&mut rng, n);
    (early, samples)
}

fn assert_moments_bits_eq(a: &MomentEstimate, b: &MomentEstimate, what: &str) {
    assert_eq!(a.dim(), b.dim(), "{what}: dimension");
    for i in 0..a.dim() {
        assert_eq!(
            a.mean[i].to_bits(),
            b.mean[i].to_bits(),
            "{what}: mean[{i}]"
        );
        for j in 0..a.dim() {
            assert_eq!(
                a.cov[(i, j)].to_bits(),
                b.cov[(i, j)].to_bits(),
                "{what}: cov[({i},{j})]"
            );
        }
    }
}

/// One raw HTTP/1.1 exchange against the server; returns the full
/// response text (status line, headers and body).
fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    raw
}

fn status_of(raw: &str) -> u32 {
    raw.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line: {raw:?}"))
}

/// Spawns `clients` scraper threads that loop over the given targets
/// until the flag drops. Returns the join handles; each yields the
/// number of successful 200 responses it saw.
fn spawn_scrapers(
    addr: SocketAddr,
    clients: usize,
    targets: &'static [&'static str],
    running: &Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<u64>> {
    (0..clients)
        .map(|_| {
            let running = Arc::clone(running);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                while running.load(Ordering::Relaxed) {
                    for target in targets {
                        let raw = http_get(addr, target);
                        if status_of(&raw) == 200 {
                            ok += 1;
                        }
                    }
                }
                ok
            })
        })
        .collect()
}

/// Scraping every endpoint from three concurrent clients mid-study must
/// not move a single bit of the estimate, at any worker thread count.
#[test]
fn concurrent_scrapes_never_perturb_the_estimate() {
    let _g = obs_lock();
    let (early, late) = synthetic(3, 24, 77);

    // Reference: recording off, no server, one thread.
    let reference = RobustPipeline::new()
        .with_seed(11)
        .with_threads(1)
        .estimate(&early, &late)
        .expect("estimate")
        .0;

    static TARGETS: [&str; 6] = [
        "/metrics",
        "/health",
        "/events",
        "/progress",
        "/flight",
        "/",
    ];
    for &threads in &THREAD_COUNTS {
        bmf_ams::obs::reset();
        bmf_ams::obs::enable();
        let mut server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();

        let running = Arc::new(AtomicBool::new(true));
        let scrapers = spawn_scrapers(addr, 3, &TARGETS, &running);

        // Several estimates per thread count so the scrapers overlap
        // real work, not just the setup window.
        for round in 0..3 {
            let (est, _) = RobustPipeline::new()
                .with_seed(11)
                .with_threads(threads)
                .estimate(&early, &late)
                .expect("estimate");
            assert_moments_bits_eq(
                &est,
                &reference,
                &format!("threads={threads} round={round} under scrape load"),
            );
        }

        // Grace period so every scraper thread has been scheduled at
        // least once before the flag drops.
        std::thread::sleep(std::time::Duration::from_millis(50));
        running.store(false, Ordering::Relaxed);
        let ok: u64 = scrapers
            .into_iter()
            .map(|h| h.join().expect("scraper"))
            .sum();
        assert!(ok > 0, "threads={threads}: scrapers never got a 200");
        server.stop();
    }
    bmf_ams::obs::reset();
}

/// Abusive clients — wrong methods, oversized heads, junk bytes and
/// connections that never finish their request — must each get a clean
/// 4xx (or be timed out), and the server must keep serving good
/// requests while a study runs to the same bits underneath.
#[test]
fn malformed_requests_get_4xx_without_wedging_the_study() {
    let _g = obs_lock();
    let (early, late) = synthetic(3, 24, 77);
    let reference = RobustPipeline::new()
        .with_seed(11)
        .with_threads(1)
        .estimate(&early, &late)
        .expect("estimate")
        .0;

    bmf_ams::obs::reset();
    bmf_ams::obs::enable();
    let mut server = ObsServer::start("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // A slow-loris connection that sends nothing and holds the socket
    // open for the whole test: the per-connection read timeout must
    // reap it without blocking anyone else.
    let loris = TcpStream::connect(addr).expect("connect");

    let abuses: [(&str, String, u32); 4] = [
        (
            "bad method",
            "POST /metrics HTTP/1.1\r\n\r\n".to_string(),
            405,
        ),
        (
            "oversized request line",
            format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(8192)),
            431,
        ),
        (
            "oversized headers",
            format!(
                "GET /health HTTP/1.1\r\n{}\r\n",
                "X-Pad: y\r\n".repeat(2048)
            ),
            431,
        ),
        (
            "junk bytes",
            "\x01\x02\x03 garbage\r\n\r\n".to_string(),
            400,
        ),
    ];
    for round in 0..2 {
        for (what, request, expected) in &abuses {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(request.as_bytes()).expect("send abuse");
            let mut raw = String::new();
            conn.read_to_string(&mut raw).expect("read response");
            assert_eq!(
                status_of(&raw),
                *expected,
                "round {round}: {what} got {raw:?}"
            );
        }
        // Bad query strings are rejected without killing the endpoint.
        assert_eq!(status_of(&http_get(addr, "/events?level=bogus")), 400);
        assert_eq!(status_of(&http_get(addr, "/events?n=many")), 400);
        assert_eq!(status_of(&http_get(addr, "/nope")), 404);

        // The study and the good endpoints still work underneath.
        let (est, _) = RobustPipeline::new()
            .with_seed(11)
            .with_threads(2)
            .estimate(&early, &late)
            .expect("estimate");
        assert_moments_bits_eq(&est, &reference, &format!("round {round} under abuse"));
        assert_eq!(status_of(&http_get(addr, "/metrics")), 200);
        assert_eq!(status_of(&http_get(addr, "/health")), 200);
    }

    drop(loris);
    server.stop();
    bmf_ams::obs::reset();
}
