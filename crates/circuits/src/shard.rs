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
use crate::fault::{check_study_fault_rate, FaultConfig, FaultInjector};
use crate::monte_carlo::{
    run_monte_carlo_slice_seeded_with_policy, RetryPolicy, Stage, Testbench, TwoStageStudy,
};
use crate::opamp::OpAmpTestbench;
use crate::{CircuitError, Result};
use bmf_linalg::{Matrix, Vector};
use bmf_obs::json::{self, Value};
use bmf_obs::run::fnv1a;
use bmf_obs::{RunContext, ShardCoverage};

/// Format marker every packet carries.
pub const PACKET_FORMAT: &str = "bmf-shard-packet";
/// The packet schema version, the only one this build writes or reads:
/// packets are intermediate files that the same build shards and
/// merges, so an older packet is refused with a version error rather
/// than read. A packet carries sufficient statistics and nothing else,
/// so recording in the shard's process never changes its bytes; a
/// shard's telemetry travels in its own `--trace-out`/`--metrics-out`/
/// `--events-out` files under the study's run id. The parser reads only
/// the members it needs, so an extra payload member is ignored.
///
/// Version 4 writes each exact sum in the compact text form of
/// [`ExactSum::to_hex`]: its significant hex digits and the count of
/// zero digits dropped below them (`a6f69250c045p253`), instead of the
/// whole 2⁻¹⁰⁷⁴-based fixed-point hex. An op-amp packet (d = 5, 21 sums
/// per stage) falls from about 11.5 KB to 1.5 KB, and the sums, and so
/// every merged moment, keep their bits.
pub const PACKET_VERSION: u64 = 4;

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
        check_study_fault_rate("shard fault_rate", self.fault_rate)?;
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
                .and_then(Value::as_count)
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
                .and_then(Value::as_count)
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

/// One shard's result: the sufficient statistics of its early and late
/// slices plus its retry count, ready for packet serialization.
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
    Ok(ShardPacket {
        config: config.clone(),
        shard_index: index,
        early,
        late,
        retries,
    })
}

impl ShardPacket {
    fn payload_json(&self) -> String {
        let run = self.config.run_context();
        format!(
            "{{\"run_id\":{},\"config_hash\":\"{:016x}\",\"config\":{},\"shard_index\":{},\"retries\":{},\"early\":{},\"late\":{}}}",
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
        .and_then(Value::as_count)
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
        .and_then(Value::as_count)
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
    Ok(ShardPacket {
        config,
        shard_index,
        early,
        late,
        retries,
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
}

/// Reduces parsed packets into one study under `policy`. Duplicate
/// packets (same index, equal content) are deduped; two different
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

    // Dedupe: identical packets collapse, conflicting ones reject. A
    // re-run shard is bit-identical, so a resumed packet dedupes against
    // the one it replaces.
    let mut by_index: Vec<Option<&ShardPacket>> = vec![None; shard_count];
    let mut duplicates = 0usize;
    for p in packets {
        match by_index[p.shard_index] {
            None => by_index[p.shard_index] = Some(p),
            Some(kept) => {
                if kept == p {
                    duplicates += 1;
                    bmf_obs::counters::SHARD_DUPLICATES.incr();
                    bmf_obs::event!(Warn, "shard.duplicate", "index": p.shard_index);
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

    Ok(MergeOutcome {
        early: early.expect("quorum >= 1 guarantees a packet"),
        late: late.expect("quorum >= 1 guarantees a packet"),
        config,
        run,
        coverage,
        retries,
    })
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
        // Any version but this build's own, older or newer: a version-3
        // packet (fixed-point sums) is refused before its sums are read.
        for version in ["2", "3", "99"] {
            let wrong = good.replacen(
                &format!("\"version\":{PACKET_VERSION}"),
                &format!("\"version\":{version}"),
                1,
            );
            assert_ne!(wrong, good);
            let err = parse_packet(&wrong, "other-version").unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    /// A packet document around `payload`, with its checksum recomputed
    /// as a forger can (FNV is not a MAC).
    fn sealed(payload: &str) -> String {
        format!(
            "{{\"format\":\"{PACKET_FORMAT}\",\"version\":{PACKET_VERSION},\"checksum\":\"{:016x}\",\"payload\":{payload}}}",
            fnv1a(payload.as_bytes()),
        )
    }

    /// `p`'s packet with the late stage's `delta[0]` replaced by `sum`.
    fn with_late_delta0(p: &ShardPacket, sum: &str) -> String {
        let payload = p.payload_json();
        let key = "\"delta\":[\"";
        let late = payload.find("\"late\":").expect("late stage");
        let start = late + payload[late..].find(key).expect("late delta") + key.len();
        let end = start + payload[start..].find('"').expect("closing quote");
        sealed(&format!("{}{sum}{}", &payload[..start], &payload[end..]))
    }

    #[test]
    fn forged_exact_sums_are_typed_errors_not_wrapped_merges() {
        let packets: Vec<ShardPacket> = (0..4)
            .map(|i| run_shard(&config(), i, 1).unwrap())
            .collect();
        let first = packets[0].late.delta[0].to_hex();
        assert_eq!(with_late_delta0(&packets[0], &first), packets[0].to_json());
        let forge = |sum: &str| -> Vec<(String, String)> {
            packets
                .iter()
                .enumerate()
                .map(|(i, p)| (format!("forged-{i}.json"), with_late_delta0(p, sum)))
                .collect()
        };
        // 2³⁰ · 16⁵⁴⁴ units each, in the fixed-point form of version 3 and
        // in the compact form: four of them once wrapped the merged top
        // limb (4 · 2⁶²) to exactly 0, so the late mean read the nominal.
        for forged in [
            format!("40000000{}", "0".repeat(8 * 68)),
            "4p551".to_string(),
        ] {
            let err = merge_packet_texts(&forge(&forged), &MergePolicy::default()).unwrap_err();
            assert!(
                matches!(&err, CircuitError::PacketCorrupt { reason, .. } if reason.contains("delta[0]")),
                "{err}"
            );
        }
        // The widest accepted magnitude merges exactly: the late mean
        // overflows to +∞ instead of wrapping back to a finite value.
        let widest = format!("{}p0", "f".repeat(544));
        let merged = merge_packet_texts(&forge(&widest), &MergePolicy::default()).unwrap();
        assert_eq!(merged.late.moments().unwrap().mean[0], f64::INFINITY);
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
                (format!("forged-{i}.json"), sealed(&payload))
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
    fn recording_never_changes_a_packet() {
        // Serializes access to the process-wide obs switch against any
        // other recording test in this binary.
        static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = OBS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        bmf_obs::reset();
        let cfg = StudyConfig {
            shard_count: 2,
            ..config()
        };
        let quiet = run_shard(&cfg, 1, 1).unwrap().to_json();
        bmf_obs::enable();
        let recorded = run_shard(&cfg, 1, 1).unwrap().to_json();
        bmf_obs::reset();
        assert_eq!(recorded, quiet);
    }

    #[test]
    fn an_extra_payload_member_is_ignored() {
        // The parser reads only the members it needs: a packet with an
        // extra member (here a `telemetry` envelope like the one older
        // packets carried) still parses to the statistics it carries and
        // dedupes against a plain one.
        let p = run_shard(&config(), 0, 1).unwrap();
        let payload = p
            .payload_json()
            .strip_suffix('}')
            .map(|body| format!("{body},\"telemetry\":{{\"wall_ns\":7,\"spans\":[]}}}}"))
            .unwrap();
        let back = parse_packet(&sealed(&payload), "with-telemetry").unwrap();
        assert_eq!(back, p);
        let merged = merge_packets(
            &[p, back],
            &MergePolicy {
                min_shards: Some(1),
            },
        )
        .unwrap();
        assert_eq!(merged.coverage.merged, 1);
        assert_eq!(merged.coverage.duplicates, 1);
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
                fault_rate: 1.0, // every draw would fail
                ..config()
            },
            StudyConfig {
                fault_rate: f64::NAN,
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
