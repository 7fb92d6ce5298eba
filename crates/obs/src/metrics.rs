//! Process-wide registry of named counters and histograms.
//!
//! Counters are relaxed [`AtomicU64`]s: every worker thread increments
//! the same cell, so "merging" across the scoped workers of
//! `bmf_stats::parallel` is free and totals are thread-count invariant.
//! Histograms bucket nanosecond durations into power-of-two bins so a
//! hot operation (a Cholesky factorization runs millions of times per
//! sweep) can be characterised without emitting one trace event per call.
//!
//! Every metric is a `static` declared in [`counters`] / [`histograms`]
//! and listed in the corresponding `all()` registry; [`snapshot`] walks
//! the registries, so adding a metric is a two-line change.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A named monotonic counter. All operations are relaxed atomics; when
/// recording is disabled, [`Counter::add`] is a single load-and-branch.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Const constructor so counters can live in `static`s.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The registry name, e.g. `"cholesky.calls"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` if recording is enabled; no-op otherwise.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::is_enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 if recording is enabled; no-op otherwise.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two duration buckets: bucket `i` holds values `v`
/// with `floor(log2(v)) == i` (bucket 0 also holds 0), so the range
/// covers 1 ns up to ~2.3 s per call with the last bucket catching
/// everything longer.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A named histogram of nanosecond durations with power-of-two buckets
/// plus exact count/sum/min/max. Lock-free; merging across threads is
/// inherent because all threads record into the same atomics.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Const constructor so histograms can live in `static`s.
    pub const fn new(name: &'static str) -> Self {
        // An inline-const repeat operand: each bucket gets its own
        // freshly created atomic (no shared interior-mutable const).
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The registry name, e.g. `"cholesky.ns"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((63 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one duration (in nanoseconds) if recording is enabled.
    #[inline]
    pub fn record(&self, ns: u64) {
        if !crate::is_enabled() {
            return;
        }
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.min.fetch_min(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Starts an RAII timer that records into this histogram on drop.
    /// When recording is disabled, no clock is queried at either end.
    #[inline]
    pub fn timer(&'static self) -> HistogramTimer {
        HistogramTimer {
            start: crate::is_enabled().then(Instant::now),
            histogram: self,
        }
    }

    /// Immutable view of the current values.
    pub fn stats(&self) -> HistogramStats {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramStats {
            name: self.name,
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            min_ns: if count == 0 { 0 } else { min },
            max_ns: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// RAII timer handed out by [`Histogram::timer`]. `start` is `None`
/// when recording was disabled at creation, making drop a no-op.
pub struct HistogramTimer {
    start: Option<Instant>,
    histogram: &'static Histogram,
}

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Times consecutive phases of one piece of work, each into its own
/// histogram, with one clock read per phase boundary: the read that ends
/// a phase also starts the next, so `k` phases read the clock `k + 1`
/// times where a [`HistogramTimer`] per phase would read it `2k` times.
/// When recording is disabled at [`PhaseClock::start`], no clock is read.
pub struct PhaseClock {
    /// The last boundary; `None` when recording was disabled at start.
    last: Option<Instant>,
}

impl PhaseClock {
    /// Starts the first phase: one relaxed load and, when recording is
    /// enabled, one clock read.
    #[inline]
    pub fn start() -> Self {
        PhaseClock {
            last: crate::is_enabled().then(Instant::now),
        }
    }

    /// Runs `phase`, records the time since the previous boundary into
    /// `histogram` whatever `phase` returned (a failing phase counts as
    /// one sample too), and starts the next phase.
    #[inline]
    pub fn time<T>(&mut self, histogram: &Histogram, phase: impl FnOnce() -> T) -> T {
        let out = phase();
        if let Some(last) = self.last {
            let now = Instant::now();
            histogram.record(now.duration_since(last).as_nanos() as u64);
            self.last = Some(now);
        }
        out
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStats {
    pub name: &'static str,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramStats {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds by
    /// linear interpolation inside the power-of-two bucket containing
    /// the target rank. Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0
    /// covers `[0, 2)`); within a bucket the mass is assumed uniform.
    /// The estimate is clamped to the exact `[min_ns, max_ns]` range,
    /// which also makes single-observation histograms exact. Returns
    /// `None` for an empty histogram — a 0 here would read as a real
    /// (and absurdly fast) measurement in exported JSON and the
    /// Prometheus exposition.
    pub fn percentile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in [0, count): the index (in sorted order) whose value
        // we estimate. `q * count` rounds down, capped at the last.
        let rank = ((q * self.count as f64) as u64).min(self.count - 1);
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if rank < cumulative + b {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = if i >= 63 {
                    u64::MAX as f64
                } else {
                    (1u64 << (i + 1)) as f64
                };
                let frac = (rank - cumulative) as f64 / b as f64;
                let est = lo + frac * (hi - lo);
                let est = est.clamp(self.min_ns as f64, self.max_ns as f64);
                return Some(est.round() as u64);
            }
            cumulative += b;
        }
        Some(self.max_ns)
    }

    /// Median estimate (see [`HistogramStats::percentile_ns`]).
    pub fn p50_ns(&self) -> Option<u64> {
        self.percentile_ns(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90_ns(&self) -> Option<u64> {
        self.percentile_ns(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99_ns(&self) -> Option<u64> {
        self.percentile_ns(0.99)
    }
}

/// Point-in-time process self-metrics read from `/proc/self` on Linux.
/// On platforms without procfs (or when any file fails to parse) the
/// sample is simply absent — callers emit nothing rather than zeros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessStats {
    /// Resident set size in bytes (`VmRSS` from `/proc/self/status`).
    pub rss_bytes: u64,
    /// User-mode CPU time in milliseconds (`utime` ticks at `USER_HZ`).
    pub user_cpu_ms: u64,
    /// Kernel-mode CPU time in milliseconds (`stime` ticks).
    pub sys_cpu_ms: u64,
    /// Process uptime in milliseconds (boot uptime minus `starttime`).
    pub uptime_ms: u64,
    /// Open file descriptors (entries in `/proc/self/fd`).
    pub open_fds: u64,
}

/// Kernel `USER_HZ`: the unit of the `utime`/`stime`/`starttime` fields
/// in `/proc/<pid>/stat`. Fixed at 100 on every Linux ABI in use (the
/// kernel scales internally so userspace always sees 100 ticks/second).
const USER_HZ: u64 = 100;

impl ProcessStats {
    /// Samples `/proc/self`; `None` anywhere procfs is absent or odd.
    pub fn sample() -> Option<ProcessStats> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let rss_kb: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())?;

        // /proc/self/stat: the command field (2) may contain spaces, so
        // split on the closing paren; utime/stime/starttime are fields
        // 14/15/22, i.e. 11/12/19 in the post-paren remainder.
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick_field = |i: usize| -> Option<u64> { fields.get(i)?.parse().ok() };
        let utime = tick_field(11)?;
        let stime = tick_field(12)?;
        let start_ticks = tick_field(19)?;

        let uptime_text = std::fs::read_to_string("/proc/uptime").ok()?;
        let boot_uptime_s: f64 = uptime_text.split_whitespace().next()?.parse().ok()?;
        let boot_uptime_ms = (boot_uptime_s * 1000.0) as u64;
        let start_ms = start_ticks * 1000 / USER_HZ;

        let open_fds = std::fs::read_dir("/proc/self/fd").ok()?.count() as u64;

        Some(ProcessStats {
            rss_bytes: rss_kb * 1024,
            user_cpu_ms: utime * 1000 / USER_HZ,
            sys_cpu_ms: stime * 1000 / USER_HZ,
            uptime_ms: boot_uptime_ms.saturating_sub(start_ms),
            open_fds,
        })
    }

    /// Serializes the sample as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rss_bytes\":{},\"user_cpu_ms\":{},\"sys_cpu_ms\":{},\"uptime_ms\":{},\"open_fds\":{}}}",
            self.rss_bytes, self.user_cpu_ms, self.sys_cpu_ms, self.uptime_ms, self.open_fds
        )
    }
}

/// The process-wide counters. Names are stable identifiers used in the
/// metrics snapshot JSON and in `FusionReport`.
pub mod counters {
    use super::Counter;

    /// Successful simulator evaluations (Monte Carlo samples produced).
    pub static MONTE_CARLO_SIMS: Counter = Counter::new("monte_carlo.sims");
    /// Simulator retries after an injected/real failure.
    pub static MONTE_CARLO_RETRIES: Counter = Counter::new("monte_carlo.retries");
    /// Cholesky factorization attempts (`Cholesky::new`).
    pub static CHOLESKY_CALLS: Counter = Counter::new("cholesky.calls");
    /// Factorizations that needed the SPD repair ladder.
    pub static CHOLESKY_REPAIRS: Counter = Counter::new("cholesky.repairs");
    /// O(d²) rank-one factor updates (`Cholesky::rank1_update`).
    pub static CHOLESKY_RANK1_UPDATES: Counter = Counter::new("cholesky.rank1_updates");
    /// Symmetric eigendecompositions (`SymmetricEigen::new`).
    pub static EIGEN_CALLS: Counter = Counter::new("eigen.calls");
    /// Total Jacobi sweeps across all eigendecompositions.
    pub static EIGEN_SWEEPS: Counter = Counter::new("eigen.sweeps");
    /// Hyper-parameter candidates scored by the CV grid search.
    pub static CV_CANDIDATES: Counter = Counter::new("cv.candidates");
    /// CV fold evaluations: one per (repeat, held-out fold, ν₀) reduction
    /// to per-fold scalars (288 for the default 12×12 grid at d = 5:
    /// 8 repeats × 4 folds × 9 feasible ν₀), never per candidate.
    pub static CV_FOLD_EVALS: Counter = Counter::new("cv.fold_evals");
    /// Faults fired by `FaultInjector` (failures, NaNs, outliers).
    pub static FAULT_INJECTIONS: Counter = Counter::new("fault.injections");
    /// Cells/rows/columns flagged by the data-quality guard.
    pub static GUARD_FLAGS: Counter = Counter::new("guard.flags");
    /// Downgrade steps taken by the `RobustPipeline` ladder.
    pub static LADDER_RUNG_TRANSITIONS: Counter = Counter::new("ladder.rung_transitions");
    /// FFT invocations (`fft_real` and friends).
    pub static FFT_CALLS: Counter = Counter::new("fft.calls");
    /// Spectrum analyses (`spectrum::analyze`).
    pub static SPECTRUM_ANALYSES: Counter = Counter::new("spectrum.analyses");
    /// Transfer functions `N(s)/D(s)` extracted from an MNA pencil, one
    /// per successful `AcAnalysis::transfer_function` call (one per
    /// simulated op-amp die).
    pub static MNA_TRANSFER_FUNCTIONS: Counter = Counter::new("mna.transfer_functions");
    /// `H(jω)` probes of the op-amp's DC gain and its two crossing
    /// searches (−3 dB and unity gain), added once per die.
    pub static OPAMP_CROSSING_EVALS: Counter = Counter::new("opamp.crossing_evals");
    /// Drift-monitor windows closed.
    pub static DRIFT_WINDOWS: Counter = Counter::new("drift.windows");
    /// Drift windows classified `Warn` or worse.
    pub static DRIFT_ALERTS: Counter = Counter::new("drift.alerts");
    /// Shard packets written by `bmf shard`.
    pub static SHARD_PACKETS_WRITTEN: Counter = Counter::new("shard.packets_written");
    /// Shard packets accepted by a merge.
    pub static SHARD_PACKETS_MERGED: Counter = Counter::new("shard.packets_merged");
    /// Duplicate shard packets dropped by a merge.
    pub static SHARD_DUPLICATES: Counter = Counter::new("shard.duplicates");
    /// Packets rejected by a merge (corrupt, incompatible, invalid).
    pub static SHARD_REJECTS: Counter = Counter::new("shard.rejects");

    static ALL: [&Counter; 22] = [
        &MONTE_CARLO_SIMS,
        &MONTE_CARLO_RETRIES,
        &CHOLESKY_CALLS,
        &CHOLESKY_REPAIRS,
        &CHOLESKY_RANK1_UPDATES,
        &EIGEN_CALLS,
        &EIGEN_SWEEPS,
        &CV_CANDIDATES,
        &CV_FOLD_EVALS,
        &FAULT_INJECTIONS,
        &GUARD_FLAGS,
        &LADDER_RUNG_TRANSITIONS,
        &FFT_CALLS,
        &SPECTRUM_ANALYSES,
        &MNA_TRANSFER_FUNCTIONS,
        &OPAMP_CROSSING_EVALS,
        &DRIFT_WINDOWS,
        &DRIFT_ALERTS,
        &SHARD_PACKETS_WRITTEN,
        &SHARD_PACKETS_MERGED,
        &SHARD_DUPLICATES,
        &SHARD_REJECTS,
    ];

    /// Every registered counter, in snapshot order.
    pub fn all() -> &'static [&'static Counter] {
        &ALL
    }
}

/// The process-wide duration histograms.
pub mod histograms {
    use super::Histogram;

    /// Wall time of each Cholesky factorization.
    pub static CHOLESKY_NS: Histogram = Histogram::new("cholesky.ns");
    /// Wall time of each symmetric eigendecomposition.
    pub static EIGEN_NS: Histogram = Histogram::new("eigen.ns");
    /// Wall time of each spectrum analysis (FFT + metric extraction).
    pub static SPECTRUM_NS: Histogram = Histogram::new("spectrum.ns");
    /// Per op-amp die: the variation draw, bias resolution and
    /// small-signal netlist (the nominal run draws nothing).
    pub static OPAMP_BIAS_NS: Histogram = Histogram::new("opamp.bias.ns");
    /// Per op-amp die: the `H(s) = N(s)/D(s)` extraction from the MNA
    /// pencil.
    pub static OPAMP_EXTRACTION_NS: Histogram = Histogram::new("opamp.extraction.ns");
    /// Per op-amp die: the DC gain and the −3 dB and unity-gain crossing
    /// searches.
    pub static OPAMP_CROSSINGS_NS: Histogram = Histogram::new("opamp.crossings.ns");
    /// Per op-amp die: the phase margin at the unity crossing.
    pub static OPAMP_PHASE_NS: Histogram = Histogram::new("opamp.phase.ns");

    static ALL: [&Histogram; 7] = [
        &CHOLESKY_NS,
        &EIGEN_NS,
        &SPECTRUM_NS,
        &OPAMP_BIAS_NS,
        &OPAMP_EXTRACTION_NS,
        &OPAMP_CROSSINGS_NS,
        &OPAMP_PHASE_NS,
    ];

    /// Every registered histogram, in snapshot order.
    pub fn all() -> &'static [&'static Histogram] {
        &ALL
    }
}

/// Point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-histogram stats, in registry order.
    pub histograms: Vec<HistogramStats>,
    /// Process self-metrics; `None` where `/proc/self` is unavailable.
    pub process: Option<ProcessStats>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, or 0 if unknown.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: counters::all()
            .iter()
            .map(|c| (c.name(), c.get()))
            .collect(),
        histograms: histograms::all().iter().map(|h| h.stats()).collect(),
        process: ProcessStats::sample(),
    }
}

/// Zeroes every registered metric.
pub fn reset_all() {
    for c in counters::all() {
        c.reset();
    }
    for h in histograms::all() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    #[test]
    fn counters_are_noop_when_disabled() {
        let _g = test_lock();
        crate::reset();
        counters::MONTE_CARLO_SIMS.incr();
        counters::MONTE_CARLO_SIMS.add(41);
        assert_eq!(counters::MONTE_CARLO_SIMS.get(), 0);
        crate::reset();
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counters::CV_FOLD_EVALS.incr();
                    }
                });
            }
        });
        crate::disable();
        assert_eq!(counters::CV_FOLD_EVALS.get(), 4000);
        assert_eq!(snapshot().counter("cv.fold_evals"), 4000);
        crate::reset();
    }

    #[test]
    fn histogram_buckets_cover_the_ns_range() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_stats_and_resets() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        histograms::CHOLESKY_NS.record(10);
        histograms::CHOLESKY_NS.record(1000);
        histograms::CHOLESKY_NS.record(5);
        let stats = histograms::CHOLESKY_NS.stats();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.sum_ns, 1015);
        assert_eq!(stats.min_ns, 5);
        assert_eq!(stats.max_ns, 1000);
        assert_eq!(stats.buckets.iter().sum::<u64>(), 3);
        crate::reset();
        let stats = histograms::CHOLESKY_NS.stats();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.min_ns, 0);
        crate::reset();
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut stats = HistogramStats {
            name: "test",
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        // Empty histogram: percentiles are explicitly absent, never 0.
        assert_eq!(stats.p50_ns(), None);
        assert_eq!(stats.p90_ns(), None);
        assert_eq!(stats.p99_ns(), None);
        assert_eq!(stats.percentile_ns(0.0), None);
        assert_eq!(stats.percentile_ns(1.0), None);

        // Single observation: clamping to [min, max] makes it exact.
        stats.count = 1;
        stats.sum_ns = 700;
        stats.min_ns = 700;
        stats.max_ns = 700;
        stats.buckets[Histogram::bucket_index(700)] = 1;
        assert_eq!(stats.p50_ns(), Some(700));
        assert_eq!(stats.p99_ns(), Some(700));

        // 100 observations evenly split between bucket 4 ([16,32)) and
        // bucket 10 ([1024,2048)): p50 falls at the start of the upper
        // bucket, p90 interpolates 80% of the way through it, p99 lands
        // near its top but clamps to the recorded max.
        let mut stats = HistogramStats {
            name: "test",
            count: 100,
            sum_ns: 0,
            min_ns: 16,
            max_ns: 1500,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        stats.buckets[4] = 50;
        stats.buckets[10] = 50;
        let p50 = stats.p50_ns().unwrap();
        assert!((1024..1100).contains(&p50), "p50 = {p50}");
        let p90 = stats.p90_ns().unwrap();
        assert!((1500..=1945).contains(&p90), "p90 = {p90}");
        assert!(p50 <= p90);
        // p99 interpolates past max_ns=1500, so the clamp holds it there.
        assert_eq!(stats.p99_ns(), Some(1500));
        // Monotone in q even with the clamp.
        assert!(stats.percentile_ns(0.10) <= stats.percentile_ns(0.49));
        assert!(stats.percentile_ns(0.49) <= stats.percentile_ns(0.51));
    }

    #[test]
    fn drift_counters_are_registered() {
        let _g = test_lock();
        crate::reset();
        crate::enable();
        counters::DRIFT_WINDOWS.add(3);
        counters::DRIFT_ALERTS.incr();
        let snap = snapshot();
        assert_eq!(snap.counter("drift.windows"), 3);
        assert_eq!(snap.counter("drift.alerts"), 1);
        crate::reset();
    }

    #[test]
    fn process_stats_sample_is_sane_on_linux() {
        // Only assert substance where procfs exists; elsewhere the
        // graceful-absence contract is the whole test.
        match ProcessStats::sample() {
            Some(p) => {
                assert!(p.rss_bytes > 0, "a live process has resident pages");
                assert!(p.open_fds > 0, "stdio alone keeps fds open");
                let v = crate::json::parse(&p.to_json()).expect("process JSON parses");
                assert!(
                    v.get("rss_bytes")
                        .and_then(crate::json::Value::as_f64)
                        .unwrap()
                        > 0.0
                );
                assert!(v.get("open_fds").is_some());
                assert!(v.get("uptime_ms").is_some());
            }
            None => {
                if cfg!(target_os = "linux") {
                    panic!("procfs expected on Linux");
                }
            }
        }
    }

    #[test]
    fn timer_is_inert_when_disabled() {
        let _g = test_lock();
        crate::reset();
        {
            let _t = histograms::EIGEN_NS.timer();
        }
        assert_eq!(histograms::EIGEN_NS.stats().count, 0);
        crate::enable();
        {
            let _t = histograms::EIGEN_NS.timer();
        }
        assert_eq!(histograms::EIGEN_NS.stats().count, 1);
        crate::reset();
    }

    #[test]
    fn phase_clock_shares_each_boundary_and_is_inert_when_disabled() {
        let _g = test_lock();
        crate::reset();
        let (a, b) = (&histograms::OPAMP_BIAS_NS, &histograms::OPAMP_PHASE_NS);
        let mut clock = PhaseClock::start();
        clock.time(a, || ());
        assert!(clock.last.is_none(), "recording off reads no clock");
        assert_eq!(a.stats().count, 0);

        crate::enable();
        let mut clock = PhaseClock::start();
        let first = clock.last.expect("recording on reads the clock at start");
        let failed: Result<(), ()> = clock.time(a, || Err(()));
        assert!(failed.is_err());
        clock.time(b, || std::hint::black_box(7));
        let span = clock.last.expect("boundary").duration_since(first);
        // Both phases ran between the first read and the last, and no
        // time fell between them: their sum is that span to the ns.
        assert_eq!((a.stats().count, b.stats().count), (1, 1));
        assert_eq!(a.stats().sum_ns + b.stats().sum_ns, span.as_nanos() as u64);
        crate::reset();
    }
}
