//! Sharded two-stage studies: packets, bit-exact merge, quorum policy.
//!
//! A two-stage Monte Carlo study decomposes into independently seeded,
//! independently executable shards because PR 1's determinism layer
//! gives every *global* sample index its own RNG stream
//! ([`crate::monte_carlo::run_monte_carlo_slice_seeded_with_policy`]).
//! Each shard accumulates its slice into per-stage sufficient
//! statistics — exact, order-independent sums via
//! [`bmf_stats::exact::ExactSum`] — and ships them in a versioned,
//! checksummed JSON packet. Merging any packet partition therefore
//! reproduces the uninterrupted single-process study **bit-exactly**,
//! at any shard count and any thread count: the merge algebra is
//! integer addition.
//!
//! The robustness half: [`merge_packets`] validates packet format,
//! version and checksum, run-id/config-hash compatibility and
//! shard-index coverage; dedupes duplicate packets; reports missing and
//! corrupt shards with typed `bmf_obs` events; and applies a
//! [`MergePolicy`] quorum — below quorum the merge refuses with a typed
//! error, at-or-above quorum with incomplete coverage it degrades,
//! recording the shortfall and a variance-widening factor in a
//! [`ShardCoverage`] for the estimation pipeline to account honestly.
//! A crashed shard is recovered by simply re-running it: packets are
//! the checkpoint format, and a resumed shard is bit-identical to the
//! one that died because its slice owns its seeds.

use crate::adc::AdcTestbench;
use crate::fault::{FaultConfig, FaultInjector};
use crate::monte_carlo::{
    run_monte_carlo_slice_seeded_with_policy, RetryPolicy, Stage, Testbench, TwoStageStudy,
};
use crate::opamp::OpAmpTestbench;
use crate::{CircuitError, Result};
use bmf_linalg::{Matrix, Vector};
use bmf_obs::json::{self, Value};
use bmf_obs::run::fnv1a;
use bmf_obs::{FleetShardRow, FleetSummary, RunContext, ShardCoverage};

/// Format marker every packet carries.
pub const PACKET_FORMAT: &str = "bmf-shard-packet";
/// The packet schema version, the only one this build writes or reads:
/// packets are intermediate files that the same build shards and
/// merges. It carries an optional `telemetry` envelope with a compact
/// span summary, time-series digest and wall-clock bounds.
pub const PACKET_VERSION: u64 = 3;
/// Longest event tail a packet ships (newest events win).
pub const TELEMETRY_EVENT_TAIL: usize = 32;
/// Most spans a packet's trace summary ships (longest spans win).
pub const TELEMETRY_SPAN_CAP: usize = 64;
/// Deepest span nesting the trace summary keeps: stage-level work only.
pub const TELEMETRY_SPAN_DEPTH: u32 = 1;
/// Most series a packet's time-series digest carries.
pub const TELEMETRY_SERIES_CAP: usize = 32;
/// Most (newest) points each digested series keeps.
pub const TELEMETRY_SERIES_TAIL: usize = 16;

// ---------------------------------------------------------------------------
// Study configuration
// ---------------------------------------------------------------------------

/// Everything that defines a sharded study's *inputs*. Two packets are
/// mergeable iff their configs are identical — the config (plus the
/// seed) derives the run id that names the study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Circuit under study: `"opamp"` or `"adc"`.
    pub circuit: String,
    /// Early-stage (schematic) sample count of the full study.
    pub n_early: usize,
    /// Late-stage (post-layout) sample count of the full study.
    pub n_late: usize,
    /// Number of shards the study is partitioned into.
    pub shard_count: usize,
    /// Root RNG seed shared by every shard.
    pub seed: u64,
    /// Retry budget per sample.
    pub max_attempts: usize,
    /// Simulated fault rate (sim failures), `0.0` for a clean study.
    pub fault_rate: f64,
}

impl StudyConfig {
    /// Validates counts, shard partition and fault rate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("shard n_early", self.n_early),
            ("shard n_late", self.n_late),
            ("shard shard_count", self.shard_count),
            ("shard max_attempts", self.max_attempts),
        ];
        for (what, value) in positive {
            if value == 0 {
                return Err(CircuitError::InvalidValue {
                    what,
                    value: 0.0,
                    constraint: ">= 1",
                });
            }
        }
        if self.shard_count > self.n_early.min(self.n_late) {
            return Err(CircuitError::InvalidValue {
                what: "shard shard_count",
                value: self.shard_count as f64,
                constraint: "<= min(n_early, n_late) so every shard owns samples",
            });
        }
        if !(0.0..1.0).contains(&self.fault_rate) {
            return Err(CircuitError::InvalidValue {
                what: "shard fault_rate",
                value: self.fault_rate,
                constraint: "0 <= rate < 1",
            });
        }
        if self.circuit != "opamp" && self.circuit != "adc" {
            return Err(CircuitError::PacketIncompatible {
                reason: format!("unknown circuit {:?} (expected opamp or adc)", self.circuit),
            });
        }
        Ok(())
    }

    /// Canonical configuration string hashed into the run id. Excludes
    /// thread count (ids are thread-count invariant) and shard index
    /// (every shard of one study shares one id); the fault rate enters
    /// by bit pattern so the hash is exact.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "shard circuit={} n_early={} n_late={} shards={} retry={} fault_bits={:016x}",
            self.circuit,
            self.n_early,
            self.n_late,
            self.shard_count,
            self.max_attempts,
            self.fault_rate.to_bits(),
        )
    }

    /// The run identity every packet of this study carries.
    #[must_use]
    pub fn run_context(&self) -> RunContext {
        RunContext::derive(self.seed, &self.canonical())
    }

    /// Builds the study's testbench, fault-wrapped when `fault_rate > 0`.
    ///
    /// # Errors
    ///
    /// Rejects unknown circuits and invalid fault configs.
    pub fn testbench(&self) -> Result<Box<dyn Testbench>> {
        let base: Box<dyn Testbench> = match self.circuit.as_str() {
            "opamp" => Box::new(OpAmpTestbench::default_45nm()),
            "adc" => Box::new(AdcTestbench::default_180nm()),
            other => {
                return Err(CircuitError::PacketIncompatible {
                    reason: format!("unknown circuit {other:?} (expected opamp or adc)"),
                })
            }
        };
        if self.fault_rate > 0.0 {
            Ok(Box::new(FaultInjector::new(
                base,
                FaultConfig::failures(self.fault_rate),
            )?))
        } else {
            Ok(base)
        }
    }

    /// The contiguous slice of `total` samples owned by shard `index`
    /// of `count`: lengths differ by at most one, lower indices take
    /// the remainder.
    #[must_use]
    pub fn slice(total: usize, index: usize, count: usize) -> (usize, usize) {
        let base = total / count;
        let rem = total % count;
        let start = index * base + index.min(rem);
        let len = base + usize::from(index < rem);
        (start, len)
    }

    fn config_json(&self) -> String {
        format!(
            "{{\"circuit\":{},\"n_early\":{},\"n_late\":{},\"shard_count\":{},\"seed\":\"{:016x}\",\"max_attempts\":{},\"fault_bits\":\"{:016x}\"}}",
            json::string(&self.circuit),
            self.n_early,
            self.n_late,
            self.shard_count,
            self.seed,
            self.max_attempts,
            self.fault_rate.to_bits(),
        )
    }

    fn from_value(v: &Value, label: &str) -> Result<StudyConfig> {
        let corrupt = |reason: &str| CircuitError::PacketCorrupt {
            source: label.to_string(),
            reason: reason.to_string(),
        };
        let count = |key: &str| -> Result<usize> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x < 2f64.powi(53))
                .map(|x| x as usize)
                .ok_or_else(|| corrupt(&format!("config field {key} missing or not a count")))
        };
        let hex64 = |key: &str| -> Result<u64> {
            v.get(key)
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| corrupt(&format!("config field {key} missing or not 64-bit hex")))
        };
        Ok(StudyConfig {
            circuit: v
                .get("circuit")
                .and_then(Value::as_str)
                .ok_or_else(|| corrupt("config field circuit missing"))?
                .to_string(),
            n_early: count("n_early")?,
            n_late: count("n_late")?,
            shard_count: count("shard_count")?,
            seed: hex64("seed")?,
            max_attempts: count("max_attempts")?,
            fault_rate: f64::from_bits(hex64("fault_bits")?),
        })
    }
}

// ---------------------------------------------------------------------------
// Per-stage sufficient statistics
// ---------------------------------------------------------------------------

use bmf_stats::exact::ExactSum;

/// Exact sufficient statistics of one stage's slice: accepted-row count,
/// exact sums of deltas about the (deterministic, shard-invariant)
/// nominal, and exact sums of delta cross products. Merging is exact
/// integer addition, so any partition reduces identically.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSuffStats {
    /// Metric dimension `d`.
    pub d: usize,
    /// Accepted (finite) rows accumulated.
    pub n: usize,
    /// Rows dropped for non-finite entries (the shard-side analogue of
    /// the pipeline's data-quality guard; NaN faults land here instead
    /// of poisoning the sums).
    pub dropped: usize,
    /// The nominal performance the deltas are centred on.
    pub nominal: Vector,
    /// `d` exact sums of `x_j − nominal_j`.
    delta: Vec<ExactSum>,
    /// `d(d+1)/2` exact sums of `δ_a·δ_b`, upper triangle row-major.
    cross: Vec<ExactSum>,
}

/// A JSON number that is an exact non-negative integer below 2⁵³, the
/// range in which an `f64` counts without rounding.
fn json_count(v: &Value) -> Option<u64> {
    v.as_f64()
        .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x < 2f64.powi(53))
        .map(|x| x as u64)
}

/// Index of `(a, b)` with `a ≤ b` in an upper-triangle row-major pack.
fn tri_index(a: usize, b: usize, d: usize) -> usize {
    a * d - a * a.saturating_sub(1) / 2 + (b - a)
}

impl StageSuffStats {
    /// An empty accumulator centred on `nominal`.
    #[must_use]
    pub fn new(nominal: Vector) -> StageSuffStats {
        let d = nominal.len();
        StageSuffStats {
            d,
            n: 0,
            dropped: 0,
            nominal,
            delta: vec![ExactSum::new(); d],
            cross: vec![ExactSum::new(); d * (d + 1) / 2],
        }
    }

    /// Accumulates every row of `samples` (shape `· × d`). Rows with a
    /// non-finite entry are counted in [`Self::dropped`] and excluded,
    /// mirroring the estimation pipeline's NaN guard.
    pub fn accumulate(&mut self, samples: &Matrix) {
        assert_eq!(samples.ncols(), self.d, "sample dimension mismatch");
        let mut delta_row = vec![0.0; self.d];
        for i in 0..samples.nrows() {
            let finite = (0..self.d).all(|j| samples[(i, j)].is_finite());
            if !finite {
                self.dropped += 1;
                continue;
            }
            self.n += 1;
            for j in 0..self.d {
                delta_row[j] = samples[(i, j)] - self.nominal[j];
                self.delta[j].add(delta_row[j]);
            }
            for a in 0..self.d {
                for b in a..self.d {
                    self.cross[tri_index(a, b, self.d)].add(delta_row[a] * delta_row[b]);
                }
            }
        }
    }

    /// Merges another shard's statistics into this one — exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::PacketIncompatible`] on a dimension or
    /// nominal-bit-pattern mismatch (the nominal is deterministic, so a
    /// mismatch means the packets came from different studies).
    pub fn merge(&mut self, other: &StageSuffStats) -> Result<()> {
        if other.d != self.d {
            return Err(CircuitError::PacketIncompatible {
                reason: format!("stage dimension mismatch: {} vs {}", self.d, other.d),
            });
        }
        for j in 0..self.d {
            if self.nominal[j].to_bits() != other.nominal[j].to_bits() {
                return Err(CircuitError::PacketIncompatible {
                    reason: format!(
                        "nominal mismatch at metric {j}: {:016x} vs {:016x}",
                        self.nominal[j].to_bits(),
                        other.nominal[j].to_bits()
                    ),
                });
            }
        }
        self.n += other.n;
        self.dropped += other.dropped;
        for (mine, theirs) in self.delta.iter_mut().zip(&other.delta) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.cross.iter_mut().zip(&other.cross) {
            mine.merge(theirs);
        }
        Ok(())
    }

    /// Finalizes the accumulated sums into `(n, mean, scatter)` moments.
    /// The rounding happens here, once, on the exact totals — so any
    /// merge order or partition yields bit-identical moments.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] when no rows were
    /// accepted.
    pub fn moments(&self) -> Result<StageMoments> {
        if self.n == 0 {
            return Err(CircuitError::InvalidValue {
                what: "merged stage sample count",
                value: 0.0,
                constraint: ">= 1 accepted row",
            });
        }
        let n = self.n as f64;
        let mut mu_delta = vec![0.0; self.d];
        let mut mean = Vector::zeros(self.d);
        for j in 0..self.d {
            mu_delta[j] = self.delta[j].round() / n;
            mean[j] = self.nominal[j] + mu_delta[j];
        }
        let mut scatter = Matrix::zeros(self.d, self.d);
        for a in 0..self.d {
            for b in a..self.d {
                let s = self.cross[tri_index(a, b, self.d)].round() - n * mu_delta[a] * mu_delta[b];
                scatter[(a, b)] = s;
                scatter[(b, a)] = s;
            }
        }
        Ok(StageMoments {
            n: self.n,
            mean,
            scatter,
        })
    }

    fn to_json(&self) -> String {
        let hexes = |sums: &[ExactSum]| -> String {
            let items: Vec<String> = sums.iter().map(|s| format!("\"{}\"", s.to_hex())).collect();
            format!("[{}]", items.join(","))
        };
        let nominal_bits: Vec<String> = self
            .nominal
            .as_slice()
            .iter()
            .map(|x| format!("\"{:016x}\"", x.to_bits()))
            .collect();
        format!(
            "{{\"d\":{},\"n\":{},\"dropped\":{},\"nominal_bits\":[{}],\"delta\":{},\"cross\":{}}}",
            self.d,
            self.n,
            self.dropped,
            nominal_bits.join(","),
            hexes(&self.delta),
            hexes(&self.cross),
        )
    }

    fn from_value(v: &Value, label: &str) -> Result<StageSuffStats> {
        let corrupt = |reason: String| CircuitError::PacketCorrupt {
            source: label.to_string(),
            reason,
        };
        let count = |key: &str| -> Result<usize> {
            v.get(key)
                .and_then(json_count)
                .map(|x| x as usize)
                .ok_or_else(|| corrupt(format!("stage field {key} missing or not a count")))
        };
        let d = count("d")?;
        let n = count("n")?;
        let dropped = count("dropped")?;
        let nominal_bits = v
            .get("nominal_bits")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("stage field nominal_bits missing".to_string()))?;
        if nominal_bits.len() != d {
            return Err(corrupt(format!(
                "nominal_bits has {} entries, expected {d}",
                nominal_bits.len()
            )));
        }
        let mut nominal = Vector::zeros(d);
        for (j, bits) in nominal_bits.iter().enumerate() {
            let raw = bits
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| corrupt(format!("nominal_bits[{j}] is not 64-bit hex")))?;
            nominal[j] = f64::from_bits(raw);
        }
        let sums = |key: &str, expected: usize| -> Result<Vec<ExactSum>> {
            let arr = v
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| corrupt(format!("stage field {key} missing")))?;
            if arr.len() != expected {
                return Err(corrupt(format!(
                    "stage field {key} has {} entries, expected {expected}",
                    arr.len()
                )));
            }
            arr.iter()
                .enumerate()
                .map(|(k, item)| {
                    item.as_str()
                        .and_then(ExactSum::from_hex)
                        .ok_or_else(|| corrupt(format!("{key}[{k}] is not an exact-sum hex")))
                })
                .collect()
        };
        Ok(StageSuffStats {
            d,
            n,
            dropped,
            nominal,
            delta: sums("delta", d)?,
            cross: sums("cross", d * (d + 1) / 2)?,
        })
    }
}

/// Finalized moments of one stage: what the estimator consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMoments {
    /// Accepted sample count.
    pub n: usize,
    /// Sample mean (length `d`).
    pub mean: Vector,
    /// Scatter matrix `Σ (x−X̄)(x−X̄)ᵀ` (`d × d`).
    pub scatter: Matrix,
}

// ---------------------------------------------------------------------------
// Shard execution and packets
// ---------------------------------------------------------------------------

/// A compact ship-with-the-packet digest of one observability
/// histogram: enough for fleet dashboards, nothing bucket-shaped.
/// Empty-histogram percentiles are explicit `None`s (serialized as
/// JSON `null`), never fabricated zeros.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSketch {
    /// Histogram name (e.g. `"cholesky.ns"`).
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations, nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation, nanoseconds.
    pub min_ns: u64,
    /// Largest observation, nanoseconds.
    pub max_ns: u64,
    /// Estimated median, absent when the histogram is empty.
    pub p50_ns: Option<u64>,
    /// Estimated 90th percentile, absent when empty.
    pub p90_ns: Option<u64>,
    /// Estimated 99th percentile, absent when empty.
    pub p99_ns: Option<u64>,
}

/// One completed span in a packet's compact trace summary: just enough
/// to reconstruct a stage-level timeline track for the shard in a
/// stitched fleet trace. Timestamps are nanoseconds since the producing
/// process's trace epoch; [`fleet_trace_json`] aligns shards against
/// each other via the packet's wall-clock bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name (e.g. `"monte_carlo.schematic"`).
    pub name: String,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Open time, nanoseconds since the shard process's trace epoch.
    pub start_ns: u64,
    /// Wall time from open to close, nanoseconds.
    pub dur_ns: u64,
}

/// Tail digest of one in-process time-series ring, shipped with the
/// packet so the merge can chart the fleet's recent behaviour. Values
/// are stored as `f64` bit patterns: the digest round-trips through
/// JSON byte-exactly and the type stays `Eq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesDigest {
    /// Series name (charset as in `bmf_obs::tsdb`).
    pub name: String,
    /// Newest `(timestamp_ms, value_bits)` points, oldest first, at
    /// most [`TELEMETRY_SERIES_TAIL`].
    pub points: Vec<(u64, u64)>,
}

/// Per-shard observability telemetry carried in a packet so a
/// merge can build a fleet view without the shards' processes being
/// alive. Captured only when recording was enabled in the shard's
/// process (`--events-out`, `--obs-listen`, ...); a quiet shard ships
/// `telemetry: None` and costs nothing.
///
/// Telemetry is measurement, not input: it never enters the checksum'd
/// statistics the merge reduces, so two packets for one shard that
/// differ only in telemetry still merge as duplicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Wall-clock time the shard spent running both stages, nanoseconds.
    pub wall_ns: u64,
    /// Counter increments observed during the shard run (non-zero only).
    pub counters: Vec<(String, u64)>,
    /// Histogram digests at shard completion (non-empty only).
    pub histograms: Vec<HistogramSketch>,
    /// Tail of the shard's structured event log, each entry one
    /// pre-rendered JSON object line (newest last, at most
    /// [`TELEMETRY_EVENT_TAIL`]).
    pub events: Vec<String>,
    /// Compact trace summary: spans of depth ≤
    /// [`TELEMETRY_SPAN_DEPTH`] recorded during the shard run, the
    /// [`TELEMETRY_SPAN_CAP`] longest, in start order.
    pub spans: Vec<SpanSummary>,
    /// Time-series tail digest at shard completion.
    pub timeseries: Vec<SeriesDigest>,
    /// Unix wall clock when the shard run started, milliseconds
    /// (`0` = unknown: the clock read before the epoch). Observability
    /// only — never merged into statistics.
    pub start_unix_ms: u64,
    /// Unix wall clock when the shard run finished, milliseconds
    /// (`0` = unknown).
    pub end_unix_ms: u64,
}

impl ShardTelemetry {
    /// The shard's `monte_carlo.sims` counter increment, `0` when the
    /// counter never moved.
    #[must_use]
    pub fn sims(&self) -> u64 {
        self.counters
            .iter()
            .find(|(name, _)| name == "monte_carlo.sims")
            .map_or(0, |(_, v)| *v)
    }

    /// Captures the delta between two metrics snapshots plus the event
    /// tail, span summary and time-series digest visible to the calling
    /// thread. `trace_t0_ns` windows the span summary to spans opened
    /// during the shard run; `start_unix_ms` anchors the stitched fleet
    /// timeline.
    fn capture(
        wall_ns: u64,
        before: &bmf_obs::MetricsSnapshot,
        trace_t0_ns: u64,
        start_unix_ms: u64,
    ) -> ShardTelemetry {
        let after = bmf_obs::metrics::snapshot();
        let counters = after
            .counters
            .iter()
            .filter_map(|(name, v)| {
                let base = before
                    .counters
                    .iter()
                    .find(|(b, _)| b == name)
                    .map_or(0, |(_, b)| *b);
                let delta = v.saturating_sub(base);
                (delta > 0).then(|| ((*name).to_string(), delta))
            })
            .collect();
        let histograms = after
            .histograms
            .iter()
            .filter(|h| h.count > 0)
            .map(|h| HistogramSketch {
                name: h.name.to_string(),
                count: h.count,
                sum_ns: h.sum_ns,
                min_ns: h.min_ns,
                max_ns: h.max_ns,
                p50_ns: h.p50_ns(),
                p90_ns: h.p90_ns(),
                p99_ns: h.p99_ns(),
            })
            .collect();
        let records = bmf_obs::event::peek_records();
        let skip = records.len().saturating_sub(TELEMETRY_EVENT_TAIL);
        let events = records[skip..].iter().map(|r| r.to_json(None)).collect();
        // Span summary: stage-level spans opened during this run, the
        // longest first for the cap, then start order for the timeline.
        let mut spans: Vec<SpanSummary> = bmf_obs::span::peek_events()
            .into_iter()
            .filter(|e| e.start_ns >= trace_t0_ns && e.depth <= TELEMETRY_SPAN_DEPTH)
            .map(|e| SpanSummary {
                name: e.name.to_string(),
                depth: e.depth,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns,
            })
            .collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.dur_ns));
        spans.truncate(TELEMETRY_SPAN_CAP);
        spans.sort_by(|a, b| (a.start_ns, &a.name).cmp(&(b.start_ns, &b.name)));
        let timeseries = bmf_obs::tsdb::snapshot()
            .into_iter()
            .take(TELEMETRY_SERIES_CAP)
            .map(|s| SeriesDigest {
                name: s.name,
                points: s
                    .points
                    .iter()
                    .skip(s.points.len().saturating_sub(TELEMETRY_SERIES_TAIL))
                    .map(|&(t, v)| (t, v.to_bits()))
                    .collect(),
            })
            .collect();
        ShardTelemetry {
            wall_ns,
            counters,
            histograms,
            events,
            spans,
            timeseries,
            start_unix_ms,
            end_unix_ms: unix_ms_now(),
        }
    }

    fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("[{},{v}]", json::string(name)))
            .collect();
        let pct = |p: Option<u64>| p.map_or_else(|| "null".to_string(), |v| v.to_string());
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\":{},\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                    json::string(&h.name),
                    h.count,
                    h.sum_ns,
                    h.min_ns,
                    h.max_ns,
                    pct(h.p50_ns),
                    pct(h.p90_ns),
                    pct(h.p99_ns),
                )
            })
            .collect();
        // Event lines are embedded as strings, not objects: the tail
        // round-trips byte-exactly without this parser owning the event
        // schema.
        let events: Vec<String> = self.events.iter().map(|e| json::string(e)).collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"depth\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                    json::string(&s.name),
                    s.depth,
                    s.start_ns,
                    s.dur_ns,
                )
            })
            .collect();
        let timeseries: Vec<String> = self
            .timeseries
            .iter()
            .map(|d| {
                let points: Vec<String> = d
                    .points
                    .iter()
                    .map(|(t, bits)| format!("[{t},\"{bits:016x}\"]"))
                    .collect();
                format!(
                    "{{\"name\":{},\"points\":[{}]}}",
                    json::string(&d.name),
                    points.join(","),
                )
            })
            .collect();
        format!(
            "{{\"wall_ns\":{},\"counters\":[{}],\"histograms\":[{}],\"events\":[{}],\"spans\":[{}],\"timeseries\":[{}],\"start_unix_ms\":{},\"end_unix_ms\":{}}}",
            self.wall_ns,
            counters.join(","),
            histograms.join(","),
            events.join(","),
            spans.join(","),
            timeseries.join(","),
            self.start_unix_ms,
            self.end_unix_ms,
        )
    }

    fn from_value(v: &Value, label: &str) -> Result<ShardTelemetry> {
        let corrupt = |reason: String| CircuitError::PacketCorrupt {
            source: label.to_string(),
            reason,
        };
        let nat = |v: &Value, what: &str| -> Result<u64> {
            json_count(v)
                .ok_or_else(|| corrupt(format!("telemetry field {what} missing or not a count")))
        };
        let wall_ns = nat(v.get("wall_ns").unwrap_or(&Value::Null), "wall_ns")?;
        let counters = v
            .get("counters")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("telemetry field counters missing".to_string()))?
            .iter()
            .map(|pair| {
                let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    corrupt("telemetry counter is not a [name, value] pair".to_string())
                })?;
                let name = items[0]
                    .as_str()
                    .ok_or_else(|| corrupt("telemetry counter name is not a string".to_string()))?;
                Ok((name.to_string(), nat(&items[1], "counter value")?))
            })
            .collect::<Result<Vec<_>>>()?;
        let histograms = v
            .get("histograms")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("telemetry field histograms missing".to_string()))?
            .iter()
            .map(|h| {
                let pct = |key: &str| -> Result<Option<u64>> {
                    match h.get(key) {
                        None | Some(Value::Null) => Ok(None),
                        Some(x) => nat(x, key).map(Some),
                    }
                };
                Ok(HistogramSketch {
                    name: h
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| corrupt("telemetry histogram name missing".to_string()))?
                        .to_string(),
                    count: nat(h.get("count").unwrap_or(&Value::Null), "count")?,
                    sum_ns: nat(h.get("sum_ns").unwrap_or(&Value::Null), "sum_ns")?,
                    min_ns: nat(h.get("min_ns").unwrap_or(&Value::Null), "min_ns")?,
                    max_ns: nat(h.get("max_ns").unwrap_or(&Value::Null), "max_ns")?,
                    p50_ns: pct("p50_ns")?,
                    p90_ns: pct("p90_ns")?,
                    p99_ns: pct("p99_ns")?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let events = v
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("telemetry field events missing".to_string()))?
            .iter()
            .map(|e| {
                e.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| corrupt("telemetry event line is not a string".to_string()))
            })
            .collect::<Result<Vec<_>>>()?;
        let spans = v
            .get("spans")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("telemetry field spans missing".to_string()))?
            .iter()
            .map(|s| {
                Ok(SpanSummary {
                    name: s
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| corrupt("telemetry span name missing".to_string()))?
                        .to_string(),
                    depth: u32::try_from(nat(
                        s.get("depth").unwrap_or(&Value::Null),
                        "span depth",
                    )?)
                    .map_err(|_| corrupt("telemetry span depth overflows".to_string()))?,
                    start_ns: nat(s.get("start_ns").unwrap_or(&Value::Null), "span start_ns")?,
                    dur_ns: nat(s.get("dur_ns").unwrap_or(&Value::Null), "span dur_ns")?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let timeseries = v
            .get("timeseries")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("telemetry field timeseries missing".to_string()))?
            .iter()
            .map(|d| {
                let points = d
                    .get("points")
                    .and_then(Value::as_array)
                    .ok_or_else(|| corrupt("telemetry series points missing".to_string()))?
                    .iter()
                    .map(|p| {
                        let pair = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                            corrupt("telemetry series point is not a [ts, bits] pair".to_string())
                        })?;
                        let ts = nat(&pair[0], "series point timestamp")?;
                        let bits = pair[1]
                            .as_str()
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| {
                                corrupt("telemetry series value is not 64-bit hex".to_string())
                            })?;
                        Ok((ts, bits))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(SeriesDigest {
                    name: d
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| corrupt("telemetry series name missing".to_string()))?
                        .to_string(),
                    points,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardTelemetry {
            wall_ns,
            counters,
            histograms,
            events,
            spans,
            timeseries,
            start_unix_ms: nat(
                v.get("start_unix_ms").unwrap_or(&Value::Null),
                "start_unix_ms",
            )?,
            end_unix_ms: nat(v.get("end_unix_ms").unwrap_or(&Value::Null), "end_unix_ms")?,
        })
    }
}

/// One shard's result: the sufficient statistics of its early and late
/// slices plus deterministic telemetry, ready for packet serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPacket {
    /// The study this shard belongs to.
    pub config: StudyConfig,
    /// This shard's index in `0..config.shard_count`.
    pub shard_index: usize,
    /// Early-stage (schematic) statistics of the shard's slice.
    pub early: StageSuffStats,
    /// Late-stage (post-layout) statistics of the shard's slice.
    pub late: StageSuffStats,
    /// Total simulator redraws across both slices (deterministic: each
    /// sample retries within its own stream).
    pub retries: u64,
    /// Observability telemetry of the producing process, captured only
    /// when recording was enabled there. Never merged into statistics;
    /// feeds the fleet view.
    pub telemetry: Option<ShardTelemetry>,
}

impl ShardPacket {
    /// Whether two packets describe the same shard result — the
    /// statistics, not the telemetry. A shard re-run with observability
    /// on reports different wall clocks but identical science.
    #[must_use]
    pub fn same_result(&self, other: &ShardPacket) -> bool {
        self.config == other.config
            && self.shard_index == other.shard_index
            && self.early == other.early
            && self.late == other.late
            && self.retries == other.retries
    }
}

/// Unix wall clock in milliseconds; `0` if the system clock is before
/// the epoch (observability-only data, never worth a panic).
fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Runs shard `index` of the study described by `config`: both stages'
/// slices at `threads` worker threads, accumulated into exact
/// sufficient statistics.
///
/// # Errors
///
/// Propagates config validation, testbench construction and simulation
/// failures; rejects `index >= shard_count`.
pub fn run_shard(config: &StudyConfig, index: usize, threads: usize) -> Result<ShardPacket> {
    config.validate()?;
    if index >= config.shard_count {
        return Err(CircuitError::InvalidValue {
            what: "shard index",
            value: index as f64,
            constraint: "< shard_count",
        });
    }
    let tb = config.testbench()?;
    let policy = RetryPolicy {
        max_attempts: config.max_attempts,
    };
    // Telemetry baseline: only when the producing process records.
    // Recording never perturbs the statistics (the crate invariant), so
    // a telemetry-bearing packet is bit-identical in its payload science
    // to a quiet one — only the envelope grows.
    let baseline = bmf_obs::is_enabled().then(|| {
        (
            std::time::Instant::now(),
            bmf_obs::metrics::snapshot(),
            bmf_obs::span::now_ns(),
            unix_ms_now(),
        )
    });
    let mut retries = 0u64;
    let mut run_stage = |stage: Stage, total: usize| -> Result<StageSuffStats> {
        let (start, len) = StudyConfig::slice(total, index, config.shard_count);
        let slice = run_monte_carlo_slice_seeded_with_policy(
            tb.as_ref(),
            stage,
            start,
            len,
            config.seed,
            threads,
            &policy,
        )?;
        retries += slice.retries;
        let mut stats = StageSuffStats::new(slice.nominal);
        stats.accumulate(&slice.samples);
        Ok(stats)
    };
    let early = run_stage(Stage::Schematic, config.n_early)?;
    let late = run_stage(Stage::PostLayout, config.n_late)?;
    let telemetry = baseline.map(|(t0, before, trace_t0_ns, start_unix_ms)| {
        ShardTelemetry::capture(
            t0.elapsed().as_nanos() as u64,
            &before,
            trace_t0_ns,
            start_unix_ms,
        )
    });
    Ok(ShardPacket {
        config: config.clone(),
        shard_index: index,
        early,
        late,
        retries,
        telemetry,
    })
}

impl ShardPacket {
    fn payload_json(&self) -> String {
        let run = self.config.run_context();
        let telemetry = self
            .telemetry
            .as_ref()
            .map_or_else(String::new, |t| format!(",\"telemetry\":{}", t.to_json()));
        format!(
            "{{\"run_id\":{},\"config_hash\":\"{:016x}\",\"config\":{},\"shard_index\":{},\"retries\":{},\"early\":{},\"late\":{}{telemetry}}}",
            json::string(&run.run_id),
            run.config_hash,
            self.config.config_json(),
            self.shard_index,
            self.retries,
            self.early.to_json(),
            self.late.to_json(),
        )
    }

    /// FNV-1a checksum of the serialized payload.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        fnv1a(self.payload_json().as_bytes())
    }

    /// Serializes the packet: format marker, version, payload checksum,
    /// payload. Written atomically by `bmf shard`; validated field by
    /// field by [`parse_packet`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let payload = self.payload_json();
        format!(
            "{{\"format\":{},\"version\":{PACKET_VERSION},\"checksum\":\"{:016x}\",\"payload\":{payload}}}",
            json::string(PACKET_FORMAT),
            fnv1a(payload.as_bytes()),
        )
    }
}

/// Parses and validates one packet document. `label` (usually the file
/// path) names the packet in errors and events.
///
/// Validation order: JSON well-formedness → format marker → version →
/// checksum over the exact payload bytes → field structure → internal
/// run-id/config-hash consistency → shard index range.
///
/// # Errors
///
/// [`CircuitError::PacketCorrupt`] describing the first failed check.
pub fn parse_packet(text: &str, label: &str) -> Result<ShardPacket> {
    let corrupt = |reason: String| CircuitError::PacketCorrupt {
        source: label.to_string(),
        reason,
    };
    let doc = json::parse(text).map_err(|e| corrupt(format!("not valid JSON: {e:?}")))?;
    match doc.get("format").and_then(Value::as_str) {
        Some(PACKET_FORMAT) => {}
        Some(other) => {
            return Err(corrupt(format!(
                "format {other:?}, expected {PACKET_FORMAT:?}"
            )))
        }
        None => return Err(corrupt("format marker missing".to_string())),
    }
    match doc.get("version").and_then(Value::as_f64) {
        Some(v) if v == PACKET_VERSION as f64 => {}
        Some(v) => {
            return Err(corrupt(format!(
                "version {v}, this build reads only {PACKET_VERSION}"
            )));
        }
        None => return Err(corrupt("version missing".to_string())),
    }
    let declared = doc
        .get("checksum")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| corrupt("checksum missing or not 64-bit hex".to_string()))?;
    // The checksum covers the exact payload bytes: everything between
    // the "payload": key and the document's closing brace.
    let payload_text = text
        .find("\"payload\":")
        .and_then(|i| {
            let start = i + "\"payload\":".len();
            text.rfind('}')
                .filter(|&end| end > start)
                .map(|end| &text[start..end])
        })
        .ok_or_else(|| corrupt("payload section missing".to_string()))?;
    let actual = fnv1a(payload_text.as_bytes());
    if actual != declared {
        return Err(corrupt(format!(
            "checksum mismatch: declared {declared:016x}, computed {actual:016x}"
        )));
    }
    let payload = doc
        .get("payload")
        .ok_or_else(|| corrupt("payload object missing".to_string()))?;
    let config = StudyConfig::from_value(
        payload
            .get("config")
            .ok_or_else(|| corrupt("config object missing".to_string()))?,
        label,
    )?;
    let run = config.run_context();
    match payload.get("run_id").and_then(Value::as_str) {
        Some(id) if id == run.run_id => {}
        Some(id) => {
            return Err(corrupt(format!(
                "run id {id} does not match config-derived id {}",
                run.run_id
            )));
        }
        None => return Err(corrupt("run_id missing".to_string())),
    }
    match payload
        .get("config_hash")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    {
        Some(h) if h == run.config_hash => {}
        Some(h) => {
            return Err(corrupt(format!(
                "config hash {h:016x} does not match config-derived {:016x}",
                run.config_hash
            )));
        }
        None => return Err(corrupt("config_hash missing".to_string())),
    }
    let shard_index = payload
        .get("shard_index")
        .and_then(json_count)
        .map(|x| x as usize)
        .ok_or_else(|| corrupt("shard_index missing or not a count".to_string()))?;
    if shard_index >= config.shard_count {
        return Err(corrupt(format!(
            "shard_index {shard_index} out of range for shard_count {}",
            config.shard_count
        )));
    }
    let retries = payload
        .get("retries")
        .and_then(json_count)
        .ok_or_else(|| corrupt("retries missing or not a count".to_string()))?;
    let early = StageSuffStats::from_value(
        payload
            .get("early")
            .ok_or_else(|| corrupt("early stage missing".to_string()))?,
        label,
    )?;
    let late = StageSuffStats::from_value(
        payload
            .get("late")
            .ok_or_else(|| corrupt("late stage missing".to_string()))?,
        label,
    )?;
    // A shard that ran with recording off ships no telemetry.
    let telemetry = match payload.get("telemetry") {
        None | Some(Value::Null) => None,
        Some(t) => Some(ShardTelemetry::from_value(t, label)?),
    };
    Ok(ShardPacket {
        config,
        shard_index,
        early,
        late,
        retries,
        telemetry,
    })
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// Coverage policy of a merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergePolicy {
    /// Minimum number of distinct shards that must merge. `None`
    /// requires the full partition (the safe default); `Some(q)` allows
    /// a degraded merge from any `q ≤ shard_count` shards, with the
    /// shortfall recorded in the resulting [`ShardCoverage`].
    pub min_shards: Option<usize>,
}

/// A completed merge: the reduced study plus its coverage record.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The study configuration every merged packet agreed on.
    pub config: StudyConfig,
    /// The study's run identity (derived from `config`).
    pub run: RunContext,
    /// Merged early-stage sufficient statistics.
    pub early: StageSuffStats,
    /// Merged late-stage sufficient statistics.
    pub late: StageSuffStats,
    /// Which shards arrived, which did not, and what that costs.
    pub coverage: ShardCoverage,
    /// Total simulator redraws across merged shards.
    pub retries: u64,
    /// Fleet telemetry view folded from packets that carried telemetry;
    /// `None` when every merged shard ran quiet.
    pub fleet: Option<FleetSummary>,
    /// Raw per-shard telemetry retained from telemetry-bearing packets
    /// (`(shard_index, telemetry)`, ascending index) so downstream
    /// tooling — the stitched fleet trace — can see the spans and
    /// time-series digests, not just the folded summary.
    pub telemetry: Vec<(usize, ShardTelemetry)>,
}

/// Reduces parsed packets into one study under `policy`. Duplicate
/// packets (same index, identical checksum) are deduped; two different
/// packets claiming one index are rejected; config mismatches are
/// rejected; coverage below quorum is a typed error. See
/// [`merge_packet_texts`] for the raw-bytes front end that also
/// tolerates corrupt packets under quorum.
///
/// # Errors
///
/// [`CircuitError::PacketIncompatible`] on config/index conflicts,
/// [`CircuitError::ShardQuorum`] when too few shards merged.
pub fn merge_packets(packets: &[ShardPacket], policy: &MergePolicy) -> Result<MergeOutcome> {
    merge_validated(packets, &[], policy)
}

/// Parses raw packet documents (`(label, text)` pairs, labels usually
/// file paths) and merges the valid ones. Corrupt packets are counted,
/// reported via `shard.corrupt` events and the `shard.rejects` counter,
/// and excluded — the merge then succeeds or fails purely on the
/// quorum arithmetic of the surviving shards. When the merge does fail
/// coverage, the first corruption (the likely root cause) is returned
/// instead of the bare quorum error.
///
/// # Errors
///
/// As [`merge_packets`], plus [`CircuitError::PacketCorrupt`] when
/// corruption is what sank the quorum.
pub fn merge_packet_texts(
    texts: &[(String, String)],
    policy: &MergePolicy,
) -> Result<MergeOutcome> {
    let mut packets = Vec::with_capacity(texts.len());
    let mut corrupt_errors = Vec::new();
    for (label, text) in texts {
        match parse_packet(text, label) {
            Ok(p) => packets.push(p),
            Err(e) => {
                bmf_obs::counters::SHARD_REJECTS.incr();
                bmf_obs::event!(Error, "shard.corrupt",
                    "source": label.as_str(),
                    "error": e.to_string());
                corrupt_errors.push(e);
            }
        }
    }
    match merge_validated(&packets, &corrupt_errors, policy) {
        // Corruption sank the quorum: surface the root cause.
        Err(CircuitError::ShardQuorum { .. }) if !corrupt_errors.is_empty() => {
            Err(corrupt_errors.swap_remove(0))
        }
        other => other,
    }
}

/// The last run of ASCII digits in a packet label
/// (`"packets/shard-3.json"` → `3`) — how a file that failed to parse is
/// attributed to a shard index for coverage accounting. A label with no
/// digits simply shows its shard as missing.
fn last_digit_run(label: &str) -> Option<usize> {
    let bytes = label.as_bytes();
    let mut end = bytes.len();
    while end > 0 && !bytes[end - 1].is_ascii_digit() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && bytes[start - 1].is_ascii_digit() {
        start -= 1;
    }
    if start == end {
        None
    } else {
        label[start..end].parse().ok()
    }
}

fn merge_validated(
    packets: &[ShardPacket],
    corrupt_errors: &[CircuitError],
    policy: &MergePolicy,
) -> Result<MergeOutcome> {
    let Some(first) = packets.first() else {
        return Err(CircuitError::ShardQuorum {
            merged: 0,
            required: policy.min_shards.unwrap_or(1).max(1),
            shard_count: 0,
        });
    };
    let config = first.config.clone();
    config.validate()?;
    let run = config.run_context();
    let shard_count = config.shard_count;

    // Compatibility: every packet must describe the same study.
    for p in &packets[1..] {
        if p.config != config {
            let other = p.config.run_context();
            return Err(CircuitError::PacketIncompatible {
                reason: format!(
                    "config hash {:016x} (run {}) does not match {:016x} (run {})",
                    other.config_hash, other.run_id, run.config_hash, run.run_id
                ),
            });
        }
    }

    // Dedupe: identical *results* collapse, conflicting ones reject.
    // Equality is structural (stats + retries), not checksum: a shard
    // re-run with observability on carries different telemetry wall
    // clocks but the same science, and must still count as a duplicate.
    let mut by_index: Vec<Option<&ShardPacket>> = vec![None; shard_count];
    let mut duplicates = 0usize;
    for p in packets {
        match by_index[p.shard_index] {
            None => by_index[p.shard_index] = Some(p),
            Some(kept) => {
                if kept.same_result(p) {
                    duplicates += 1;
                    bmf_obs::counters::SHARD_DUPLICATES.incr();
                    bmf_obs::event!(Warn, "shard.duplicate", "index": p.shard_index);
                    // Keep the telemetry-bearing copy: a fleet view is
                    // worth more than arrival order.
                    if kept.telemetry.is_none() && p.telemetry.is_some() {
                        by_index[p.shard_index] = Some(p);
                    }
                } else {
                    return Err(CircuitError::PacketIncompatible {
                        reason: format!(
                            "two different packets claim shard {} (checksums {:016x} vs {:016x})",
                            p.shard_index,
                            kept.checksum(),
                            p.checksum()
                        ),
                    });
                }
            }
        }
    }

    // Corrupt indices we know about (a parse that failed early enough
    // leaves the index unknown; those shards simply show as missing).
    let mut corrupt: Vec<usize> = corrupt_errors
        .iter()
        .filter_map(|e| match e {
            CircuitError::PacketCorrupt { source, .. } => {
                last_digit_run(source).filter(|&i| i < shard_count && by_index[i].is_none())
            }
            _ => None,
        })
        .collect();
    corrupt.sort_unstable();
    corrupt.dedup();

    let merged_indices: Vec<usize> = (0..shard_count)
        .filter(|&i| by_index[i].is_some())
        .collect();
    let missing: Vec<usize> = (0..shard_count)
        .filter(|&i| by_index[i].is_none() && !corrupt.contains(&i))
        .collect();
    let covered_late: usize = merged_indices
        .iter()
        .map(|&i| StudyConfig::slice(config.n_late, i, shard_count).1)
        .sum();
    let merged = merged_indices.len();
    let required = policy
        .min_shards
        .unwrap_or(shard_count)
        .min(shard_count)
        .max(1);
    let coverage = ShardCoverage {
        shard_count,
        merged,
        missing: missing.clone(),
        corrupt,
        duplicates,
        min_shards: required,
        planned_late: config.n_late,
        observed_late: covered_late,
        inflation: if covered_late > 0 {
            config.n_late as f64 / covered_late as f64
        } else {
            f64::INFINITY
        },
    };
    for &i in &missing {
        bmf_obs::event!(Error, "shard.missing", "index": i);
    }
    if merged < required {
        return Err(CircuitError::ShardQuorum {
            merged,
            required,
            shard_count,
        });
    }

    // Reduce — exact, order-independent.
    let mut early: Option<StageSuffStats> = None;
    let mut late: Option<StageSuffStats> = None;
    let mut retries = 0u64;
    for &i in &merged_indices {
        let p = by_index[i].expect("merged index has a packet");
        bmf_obs::counters::SHARD_PACKETS_MERGED.incr();
        bmf_obs::event!(Info, "shard.merged", "index": i, "n_late": p.late.n);
        retries = retries
            .checked_add(p.retries)
            .ok_or_else(|| CircuitError::PacketCorrupt {
                source: format!("shard {i}"),
                reason: format!("retries {} overflow the merged total", p.retries),
            })?;
        match (&mut early, &mut late) {
            (None, None) => {
                early = Some(p.early.clone());
                late = Some(p.late.clone());
            }
            (Some(e), Some(l)) => {
                e.merge(&p.early)?;
                l.merge(&p.late)?;
            }
            _ => unreachable!("stages initialize together"),
        }
    }
    if !coverage.is_complete() {
        bmf_obs::event!(Warn, "shard.degraded",
            "merged": merged,
            "shard_count": shard_count,
            "inflation": coverage.inflation);
    }

    // Fold per-shard telemetry into the fleet view. Quiet shards are
    // simply absent from the table; an all-quiet merge has no fleet.
    let fleet_rows: Vec<FleetShardRow> = merged_indices
        .iter()
        .filter_map(|&i| {
            let p = by_index[i].expect("merged index has a packet");
            p.telemetry.as_ref().map(|t| FleetShardRow {
                index: i,
                wall_ns: t.wall_ns,
                sims: t.sims(),
                retries: p.retries,
                events: t.events.len(),
                straggler: false, // recomputed against the median below
            })
        })
        .collect();
    let fleet = if fleet_rows.is_empty() {
        None
    } else {
        let summary = FleetSummary::from_rows(&run.run_id, fleet_rows);
        // Straggler warnings repeat verbatim on every re-merge of the
        // same packets (watch loops, live re-scrapes): one batch per
        // interval carries all the information.
        static STRAGGLER_WARNS: std::sync::LazyLock<bmf_obs::RateLimiter> =
            std::sync::LazyLock::new(|| bmf_obs::RateLimiter::new(5_000_000_000));
        let stragglers = summary.stragglers();
        if !stragglers.is_empty() && STRAGGLER_WARNS.allow(bmf_obs::span::now_ns()) {
            for &i in &stragglers {
                bmf_obs::event!(Warn, "fleet.straggler",
                    "index": i,
                    "ratio": summary.straggler_ratio);
            }
        }
        Some(summary)
    };
    let telemetry: Vec<(usize, ShardTelemetry)> = merged_indices
        .iter()
        .filter_map(|&i| {
            by_index[i]
                .expect("merged index has a packet")
                .telemetry
                .clone()
                .map(|t| (i, t))
        })
        .collect();

    Ok(MergeOutcome {
        early: early.expect("quorum >= 1 guarantees a packet"),
        late: late.expect("quorum >= 1 guarantees a packet"),
        config,
        run,
        coverage,
        retries,
        fleet,
        telemetry,
    })
}

/// Stitches the merged packets' span summaries into one Chrome
/// trace-event document (loadable in Perfetto / `chrome://tracing`):
/// one track per telemetry-bearing shard (`tid` = shard index, named
/// `"shard N"`), clock-aligned across machines via each packet's Unix
/// wall-clock start. Within a track, span timestamps are relative to
/// that shard's earliest summarized span; across tracks, each shard is
/// offset by its start relative to the earliest-starting shard. Shards
/// that ran quiet or summarized no span contribute no track.
/// `otherData` carries the hardware context, the run identity and the
/// stitch coverage.
#[must_use]
pub fn fleet_trace_json(outcome: &MergeOutcome, hardware: &bmf_obs::HardwareContext) -> String {
    let tracks: Vec<&(usize, ShardTelemetry)> = outcome
        .telemetry
        .iter()
        .filter(|(_, t)| !t.spans.is_empty())
        .collect();
    let min_start = tracks
        .iter()
        .map(|(_, t)| t.start_unix_ms)
        .filter(|&ms| ms > 0)
        .min()
        .unwrap_or(0);
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (index, t) in &tracks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{index},\
             \"args\":{{\"name\":{}}}}}",
            json::string(&format!("shard {index}")),
        ));
        // A pre-epoch wall clock aligns at the fleet origin.
        let base_us = t.start_unix_ms.saturating_sub(min_start) * 1000;
        let t0_ns = t
            .spans
            .iter()
            .map(|s| s.start_ns)
            .min()
            .expect("track has spans");
        for s in &t.spans {
            out.push_str(&format!(
                ",{{\"name\":{},\"cat\":\"shard\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{index},\"args\":{{\"depth\":{}}}}}",
                json::string(&s.name),
                base_us as f64 + (s.start_ns - t0_ns) as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                s.depth,
            ));
        }
    }
    out.push_str(&format!(
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{{},{},\"shards\":{},\"stitched\":{}}}}}",
        hardware.json_fields(),
        outcome.run.json_fields(),
        outcome.config.shard_count,
        tracks.len(),
    ));
    out
}

/// Builds the single-process reference statistics from an in-memory
/// [`TwoStageStudy`] via the same accumulation code shards use. Because
/// the sums are exact and order-independent, these equal the merge of
/// any complete shard partition bit-for-bit — this is the oracle the
/// shard tests compare against.
#[must_use]
pub fn study_reference_stats(study: &TwoStageStudy) -> (StageSuffStats, StageSuffStats) {
    let mut early = StageSuffStats::new(study.early.nominal.clone());
    early.accumulate(&study.early.samples);
    let mut late = StageSuffStats::new(study.late.nominal.clone());
    late.accumulate(&study.late.samples);
    (early, late)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::two_stage_study_seeded;

    fn config() -> StudyConfig {
        StudyConfig {
            circuit: "opamp".to_string(),
            n_early: 21,
            n_late: 13,
            shard_count: 4,
            seed: 2015,
            max_attempts: 100,
            fault_rate: 0.0,
        }
    }

    #[test]
    fn slice_partitions_exactly() {
        for (total, count) in [(13usize, 4usize), (20, 7), (5, 5), (100, 1)] {
            let mut covered = 0;
            let mut next_start = 0;
            for i in 0..count {
                let (start, len) = StudyConfig::slice(total, i, count);
                assert_eq!(start, next_start, "slices are contiguous");
                next_start = start + len;
                covered += len;
                assert!(len >= total / count);
            }
            assert_eq!(covered, total, "total={total} count={count}");
        }
    }

    #[test]
    fn packet_round_trips_through_json() {
        let cfg = config();
        let p = run_shard(&cfg, 1, 1).unwrap();
        let text = p.to_json();
        let back = parse_packet(&text, "roundtrip").unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn any_partition_merges_to_the_reference_bits() {
        let cfg = config();
        let study = two_stage_study_seeded(
            &*cfg.testbench().unwrap(),
            cfg.n_early,
            cfg.n_late,
            cfg.seed,
            1,
        )
        .unwrap();
        let (ref_early, ref_late) = study_reference_stats(&study);
        let ref_moments = (ref_early.moments().unwrap(), ref_late.moments().unwrap());
        for shard_count in [1usize, 2, 4] {
            let cfg_n = StudyConfig {
                shard_count,
                ..config()
            };
            let packets: Vec<ShardPacket> = (0..shard_count)
                .map(|i| run_shard(&cfg_n, i, 1).unwrap())
                .collect();
            let merged = merge_packets(&packets, &MergePolicy::default()).unwrap();
            assert!(merged.coverage.is_complete());
            assert_eq!(merged.coverage.inflation, 1.0);
            let em = merged.early.moments().unwrap();
            let lm = merged.late.moments().unwrap();
            assert_eq!(em, ref_moments.0, "early moments, N={shard_count}");
            assert_eq!(lm, ref_moments.1, "late moments, N={shard_count}");
        }
    }

    #[test]
    fn shard_is_thread_count_invariant() {
        let cfg = config();
        let reference = run_shard(&cfg, 2, 1).unwrap();
        for threads in [2, 7] {
            let p = run_shard(&cfg, 2, threads).unwrap();
            assert_eq!(p, reference, "threads={threads}");
            assert_eq!(p.to_json(), reference.to_json());
        }
    }

    #[test]
    fn corrupt_packets_are_typed_errors() {
        let p = run_shard(&config(), 0, 1).unwrap();
        let good = p.to_json();
        // Bit-flip inside the payload: checksum must catch it.
        let flipped = good.replacen("\"n\":", "\"n\" :", 1);
        let tampered = flipped; // whitespace change alters payload bytes
        let err = parse_packet(&tampered, "tampered").unwrap_err();
        assert!(
            matches!(err, CircuitError::PacketCorrupt { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation: not valid JSON.
        let err = parse_packet(&good[..good.len() / 2], "truncated").unwrap_err();
        assert!(matches!(err, CircuitError::PacketCorrupt { .. }));
        // Any version but this build's own, older or newer.
        for version in ["2", "99"] {
            let wrong = good.replacen("\"version\":3", &format!("\"version\":{version}"), 1);
            let err = parse_packet(&wrong, "other-version").unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn forged_retries_are_typed_errors_not_overflows() {
        // FNV checksums are recomputable, so a forger can ship any
        // `retries`. 1e300 is integral and non-negative but no exact
        // count; cast `as u64` it saturates to u64::MAX, and two such
        // packets overflow the merged sum.
        let cfg = StudyConfig {
            shard_count: 2,
            ..config()
        };
        let mut packets: Vec<ShardPacket> =
            (0..2).map(|i| run_shard(&cfg, i, 1).unwrap()).collect();
        let texts: Vec<(String, String)> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let payload = p.payload_json().replacen(
                    &format!("\"retries\":{}", p.retries),
                    "\"retries\":1e300",
                    1,
                );
                let text = format!(
                    "{{\"format\":\"{PACKET_FORMAT}\",\"version\":{PACKET_VERSION},\"checksum\":\"{:016x}\",\"payload\":{payload}}}",
                    fnv1a(payload.as_bytes()),
                );
                (format!("forged-{i}.json"), text)
            })
            .collect();
        let err = parse_packet(&texts[0].1, &texts[0].0).unwrap_err();
        assert!(err.to_string().contains("retries"), "{err}");
        let err = merge_packet_texts(&texts, &MergePolicy::default()).unwrap_err();
        assert!(matches!(err, CircuitError::PacketCorrupt { .. }), "{err}");
        // Packets built in process skip the parser; the sum checks too.
        for p in &mut packets {
            p.retries = u64::MAX;
        }
        let err = merge_packets(&packets, &MergePolicy::default()).unwrap_err();
        assert!(
            matches!(&err, CircuitError::PacketCorrupt { reason, .. } if reason.contains("retries")),
            "{err}"
        );
    }

    #[test]
    fn fleet_trace_stitches_one_clock_aligned_track_per_shard() {
        let cfg = StudyConfig {
            shard_count: 2,
            ..config()
        };
        let mut a = run_shard(&cfg, 0, 1).unwrap();
        let mut b = run_shard(&cfg, 1, 1).unwrap();
        let telem = |start_unix_ms: u64, spans: Vec<SpanSummary>| ShardTelemetry {
            wall_ns: 10,
            counters: Vec::new(),
            histograms: Vec::new(),
            events: Vec::new(),
            spans,
            timeseries: Vec::new(),
            start_unix_ms,
            end_unix_ms: start_unix_ms + 1,
        };
        // Shard 0 started 2 s before shard 1; each shard's spans sit at
        // an arbitrary offset from its own (independent) trace epoch.
        a.telemetry = Some(telem(
            1_000,
            vec![SpanSummary {
                name: "stage.early".to_string(),
                depth: 0,
                start_ns: 500_000,
                dur_ns: 2_000,
            }],
        ));
        b.telemetry = Some(telem(
            3_000,
            vec![SpanSummary {
                name: "stage.late".to_string(),
                depth: 0,
                start_ns: 9_000_000,
                dur_ns: 4_000,
            }],
        ));
        let merged = merge_packets(&[a, b], &MergePolicy::default()).unwrap();
        assert_eq!(merged.telemetry.len(), 2);
        let trace = fleet_trace_json(&merged, &bmf_obs::HardwareContext::detect(1));
        let v = json::parse(&trace).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        let xs: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(metas.len(), 2, "one thread_name track per shard");
        assert_eq!(
            metas[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str),
            Some("shard 0")
        );
        assert_eq!(xs.len(), 2);
        // Shard 0 is the fleet origin; its span starts at ts = 0. Shard
        // 1 is offset by the 2 s wall-clock gap, not by its own (larger)
        // trace-epoch offset.
        let ts = |e: &Value| e.get("ts").and_then(Value::as_f64).unwrap();
        assert_eq!(ts(xs[0]), 0.0);
        assert_eq!(ts(xs[1]), 2_000_000.0);
        assert_eq!(xs[1].get("tid").and_then(Value::as_f64), Some(1.0));
        let other = v.get("otherData").expect("otherData present");
        assert_eq!(other.get("shards").and_then(Value::as_f64), Some(2.0));
        assert_eq!(other.get("stitched").and_then(Value::as_f64), Some(2.0));
        assert!(other.get("run_id").is_some(), "run identity rides along");
        // Quiet packets contribute no track but the document stays valid.
        let mut c = run_shard(&cfg, 0, 1).unwrap();
        c.telemetry = None;
        let d = run_shard(&cfg, 1, 1).unwrap();
        let merged = merge_packets(&[c, d], &MergePolicy::default()).unwrap();
        let trace = fleet_trace_json(&merged, &bmf_obs::HardwareContext::detect(1));
        let v = json::parse(&trace).unwrap();
        assert!(v.get("traceEvents").unwrap().as_array().unwrap().is_empty());
        assert_eq!(
            v.get("otherData")
                .unwrap()
                .get("stitched")
                .and_then(Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn telemetry_rides_the_packet_and_feeds_the_fleet_view() {
        // Serializes access to the process-wide obs switch against any
        // future recording test in this binary.
        static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        bmf_obs::reset();
        let cfg = StudyConfig {
            shard_count: 2,
            ..config()
        };
        // Shard 0 runs quiet; shard 1 runs with recording on.
        let quiet = run_shard(&cfg, 0, 1).unwrap();
        assert!(quiet.telemetry.is_none());
        bmf_obs::enable();
        let loud = run_shard(&cfg, 1, 1).unwrap();
        bmf_obs::reset();
        let t = loud.telemetry.as_ref().expect("recording on → telemetry");
        assert!(t.sims() > 0, "sims counter moved: {:?}", t.counters);
        // Telemetry survives the JSON round trip byte-exactly.
        let text = loud.to_json();
        let back = parse_packet(&text, "telemetry-roundtrip").unwrap();
        assert_eq!(back, loud);
        assert_eq!(back.to_json(), text);
        // The loud shard's science equals a quiet re-run's bits:
        // telemetry observes, never perturbs.
        let quiet_rerun = run_shard(&cfg, 1, 1).unwrap();
        assert!(quiet_rerun.same_result(&loud));
        assert_ne!(quiet_rerun, loud, "telemetry differs, science does not");
        // Merge folds the one telemetry-bearing shard into a fleet view.
        let merged =
            merge_packets(&[quiet.clone(), loud.clone()], &MergePolicy::default()).unwrap();
        let fleet = merged.fleet.expect("one loud shard → fleet view");
        assert_eq!(fleet.shards.len(), 1);
        assert_eq!(fleet.shards[0].index, 1);
        assert!(fleet.shards[0].wall_ns > 0);
        // Duplicate with different telemetry still dedupes, and the
        // telemetry-bearing copy wins.
        let merged =
            merge_packets(&[quiet.clone(), quiet_rerun, loud], &MergePolicy::default()).unwrap();
        assert_eq!(merged.coverage.duplicates, 1);
        assert!(merged.fleet.is_some(), "telemetry copy kept over quiet one");
        // An all-quiet merge has no fleet view.
        let quiet_b = run_shard(&cfg, 1, 1).unwrap();
        let merged = merge_packets(&[quiet, quiet_b], &MergePolicy::default()).unwrap();
        assert!(merged.fleet.is_none());
    }

    #[test]
    fn mismatched_configs_are_rejected() {
        let a = run_shard(&config(), 0, 1).unwrap();
        let other = StudyConfig {
            seed: 2016,
            ..config()
        };
        let b = run_shard(&other, 1, 1).unwrap();
        let err = merge_packets(&[a, b], &MergePolicy::default()).unwrap_err();
        assert!(
            matches!(err, CircuitError::PacketIncompatible { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("config hash"), "{err}");
    }

    #[test]
    fn duplicates_dedupe_and_conflicts_reject() {
        let cfg = StudyConfig {
            shard_count: 2,
            ..config()
        };
        let a = run_shard(&cfg, 0, 1).unwrap();
        let b = run_shard(&cfg, 1, 1).unwrap();
        let merged =
            merge_packets(&[a.clone(), b.clone(), a.clone()], &MergePolicy::default()).unwrap();
        assert_eq!(merged.coverage.duplicates, 1);
        assert!(merged.coverage.is_complete());
        // The duplicate changes nothing: same bits as without it.
        let plain = merge_packets(&[a.clone(), b.clone()], &MergePolicy::default()).unwrap();
        assert_eq!(
            merged.late.moments().unwrap(),
            plain.late.moments().unwrap()
        );
        // A conflicting packet claiming index 0 is an error.
        let mut fake = b.clone();
        fake.shard_index = 0;
        let err = merge_packets(&[a, fake], &MergePolicy::default()).unwrap_err();
        assert!(matches!(err, CircuitError::PacketIncompatible { .. }));
    }

    #[test]
    fn quorum_policy_degrades_or_refuses() {
        let cfg = config(); // 4 shards
        let packets: Vec<ShardPacket> = (0..4).map(|i| run_shard(&cfg, i, 1).unwrap()).collect();
        // Missing one shard, default policy: quorum error.
        let err = merge_packets(&packets[..3], &MergePolicy::default()).unwrap_err();
        assert!(
            matches!(
                err,
                CircuitError::ShardQuorum {
                    merged: 3,
                    required: 4,
                    shard_count: 4
                }
            ),
            "got {err:?}"
        );
        // Same packets, quorum 3: degraded success with inflation.
        let merged = merge_packets(
            &packets[..3],
            &MergePolicy {
                min_shards: Some(3),
            },
        )
        .unwrap();
        assert!(!merged.coverage.is_complete());
        assert_eq!(merged.coverage.merged, 3);
        assert_eq!(merged.coverage.missing, vec![3]);
        assert!(merged.coverage.inflation > 1.0);
        assert_eq!(merged.coverage.severity(), bmf_obs::Severity::Warn);
        // Empty set: always a quorum error.
        let err = merge_packets(&[], &MergePolicy::default()).unwrap_err();
        assert!(matches!(err, CircuitError::ShardQuorum { merged: 0, .. }));
    }

    #[test]
    fn resumed_shard_equals_the_one_that_died() {
        // Checkpoint/resume for free: a shard re-run after a crash is
        // bit-identical, so resumed-plus-merged equals uninterrupted.
        let cfg = config();
        let packets: Vec<ShardPacket> = (0..4).map(|i| run_shard(&cfg, i, 1).unwrap()).collect();
        let uninterrupted = merge_packets(&packets, &MergePolicy::default()).unwrap();
        // "Crash" shard 2, then resume it (any thread count) and merge.
        let resumed = run_shard(&cfg, 2, 3).unwrap();
        let mut recovered = vec![packets[0].clone(), packets[1].clone(), packets[3].clone()];
        recovered.push(resumed);
        let merged = merge_packets(&recovered, &MergePolicy::default()).unwrap();
        assert_eq!(
            merged.late.moments().unwrap(),
            uninterrupted.late.moments().unwrap()
        );
        assert_eq!(
            merged.early.moments().unwrap(),
            uninterrupted.early.moments().unwrap()
        );
    }

    #[test]
    fn faulted_shards_report_deterministic_retries() {
        let cfg = StudyConfig {
            fault_rate: 0.2,
            shard_count: 2,
            ..config()
        };
        let a1 = run_shard(&cfg, 0, 1).unwrap();
        let a2 = run_shard(&cfg, 0, 7).unwrap();
        assert_eq!(a1.retries, a2.retries, "retries are thread invariant");
        assert!(a1.retries > 0, "20% fault rate must cause redraws");
        let b = run_shard(&cfg, 1, 1).unwrap();
        let b_retries = b.retries;
        let merged = merge_packets(&[a1.clone(), b], &MergePolicy::default()).unwrap();
        assert_eq!(merged.retries, a1.retries + b_retries);
        assert!(merged.coverage.is_complete());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(config().validate().is_ok());
        for bad in [
            StudyConfig {
                shard_count: 0,
                ..config()
            },
            StudyConfig {
                shard_count: 50, // > min(n_early, n_late)
                ..config()
            },
            StudyConfig {
                fault_rate: 1.5,
                ..config()
            },
            StudyConfig {
                circuit: "mystery".to_string(),
                ..config()
            },
            StudyConfig {
                max_attempts: 0,
                ..config()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} accepted");
        }
        let err = run_shard(&config(), 9, 1).unwrap_err();
        assert!(err.to_string().contains("shard index"), "{err}");
    }
}
