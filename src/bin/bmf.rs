//! `bmf` — command-line front end for the multivariate BMF estimator.
//!
//! ```text
//! bmf estimate --early early.csv --late late.csv [--out moments.csv]
//!     Fuse early-stage samples with few late-stage samples: shift/scale
//!     (§4.1), then the robust pipeline (guard, cross-validated
//!     (kappa0, nu0), MAP with its fallback ladder); print/export moments.
//!     Both CSVs: header of metric names + one sample per row. The first
//!     row of each file is treated as that stage's nominal run.
//!
//! bmf generate --circuit opamp|adc --stage schematic|postlayout \
//!              --samples N --seed S [--out samples.csv]
//!     Run the built-in circuit Monte Carlo and emit a sample CSV.
//!
//! bmf shard --circuit opamp|adc --n-early N --n-late M --index i/K \
//!           --out packet.json [--seed S]
//!     Run one shard of a two-stage study and write its sufficient-
//!     statistic packet (checksummed, versioned, atomically renamed).
//!
//! bmf merge --packet p0.json --packet p1.json ... [--out moments.csv]
//!     Reduce shard packets into the bit-exact study result; validates
//!     version/checksum/config compatibility and shard coverage.
//!
//! bmf yield --moments moments.csv --spec "gain_db>=80" --spec "power_w<=1.2e-4" \
//!           [--draws N] [--seed S]
//!     Estimate parametric yield of the fitted Gaussian against spec
//!     bounds.
//!
//! bmf diagnose --samples samples.csv
//!     Data-quality report: moment summary, Mardia multivariate normality
//!     test (the BMF modelling assumption), and PCA variance structure.
//! ```
//!
//! # Exit codes
//!
//! | code | meaning                                                     |
//! |------|-------------------------------------------------------------|
//! | 0    | success                                                     |
//! | 1    | runtime error (I/O, simulation, estimation, corrupt packet) |
//! | 2    | usage error: unknown, repeated or valueless flag, bad value |
//! | 3    | strict-mode refusal (`--strict` anomaly, shard quorum)      |
//! | 4    | degraded success (merge completed below full coverage)      |

use bmf_ams::circuits::adc::AdcTestbench;
use bmf_ams::circuits::fault::{check_study_fault_rate, FaultConfig, FaultInjector};
use bmf_ams::circuits::monte_carlo::{
    run_monte_carlo_seeded_with_policy, RetryPolicy, Stage, Testbench,
};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::circuits::shard::{
    merge_packet_texts, run_shard, MergeOutcome, MergePolicy, StageMoments, StudyConfig,
};
use bmf_ams::circuits::CircuitError;
use bmf_ams::core::experiment::prepare;
use bmf_ams::core::io::{
    read_moments_csv, read_samples_csv, write_moments_csv, write_samples_csv, LabelledSamples,
};
use bmf_ams::core::parallel::resolve_threads;
use bmf_ams::core::prelude::*;
use bmf_ams::core::yield_estimation::estimate_yield;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::obs::atomic_write;
use bmf_ams::obs::cli::{self, Args, Grammar, ObsOptions, UsageError};
use bmf_ams::stats::descriptive;
use rand::{RngCore, SeedableRng};
use std::fs::File;
use std::process::ExitCode;

/// Before the subcommand: the observability flags and `--help`.
const TOP: Grammar = Grammar::new("", "--help -h", "");

/// The subcommands and the flags each accepts besides the observability
/// flags; `bmf --help` lists every one of them.
const SUBCOMMANDS: &[(&str, Grammar)] = &[
    (
        "estimate",
        Grammar::new("--early --late --out --seed --threads --report", "--strict", ""),
    ),
    (
        "generate",
        Grammar::new(
            "--circuit --stage --samples --seed --threads --out --fault-rate --retry-attempts",
            "",
            "",
        ),
    ),
    (
        "shard",
        Grammar::new(
            "--circuit --n-early --n-late --index --out --seed --threads --fault-rate --retry-attempts",
            "",
            "",
        ),
    ),
    (
        "merge",
        Grammar::new(
            "--out --min-shards --report --kappa0 --nu0 --threads",
            "--strict",
            "--packet",
        ),
    ),
    ("yield", Grammar::new("--moments --draws --seed", "", "--spec")),
    ("diagnose", Grammar::new("--samples", "", "")),
];

fn main() -> ExitCode {
    let parsed = cli::parse(std::env::args(), &TOP, SUBCOMMANDS)
        .and_then(|args| ObsOptions::from_args(&args).map(|obs| (args, obs)));
    let (args, obs) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return report_error(&CliError::from(e)),
    };
    // `--help` wins wherever it stands before the subcommand.
    let help = args.switch("--help") || args.switch("-h");
    let result = match args.subcommand.filter(|_| !help) {
        Some("estimate") => cmd_estimate(&args, &obs),
        Some("generate") => cmd_generate(&args, &obs),
        Some("shard") => cmd_shard(&args, &obs),
        Some("merge") => cmd_merge(&args, &obs),
        Some("yield") => cmd_yield(&args, &obs),
        Some("diagnose") => cmd_diagnose(&args, &obs),
        _ => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    // Telemetry is flushed even when the subcommand failed — a strict
    // failure is exactly when the event log matters. A usage error found
    // before the subcommand started its run leaves nothing behind:
    // `finish` is a no-op until `start`. The subcommand's error still
    // wins the exit code.
    match (obs.finish(), result) {
        (_, Err(e)) => report_error(&e),
        (Ok(()), Ok(ok)) => ok.exit_code(),
        (Err(e), Ok(_)) => report_error(&rt(e)),
    }
}

/// Prints `e` (and, for a usage error, a pointer to the usage text) and
/// returns its exit code.
fn report_error(e: &CliError) -> ExitCode {
    eprintln!("error: {}", e.message());
    if matches!(e, CliError::Config(_)) {
        eprintln!("run 'bmf --help' for usage");
    }
    e.exit_code()
}

// ---------------------------------------------------------------------------
// Exit-code taxonomy
// ---------------------------------------------------------------------------

/// Successful subcommand outcomes; the variant picks the exit code.
enum CliOk {
    /// Everything the user asked for happened — exit 0.
    Clean,
    /// The result was produced but from degraded inputs (a quorate merge
    /// below full shard coverage) — exit 4, so scripted callers can tell
    /// "answer with caveats" from "clean answer" without parsing output.
    Degraded,
}

impl CliOk {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliOk::Clean => ExitCode::SUCCESS,
            CliOk::Degraded => ExitCode::from(4),
        }
    }
}

/// Typed subcommand failures; the variant picks the exit code.
enum CliError {
    /// I/O, simulation or estimation failure at runtime — exit 1.
    Runtime(String),
    /// Bad flags or configuration values — exit 2.
    Config(String),
    /// A strict-mode refusal: `--strict` turned an anomaly into an
    /// error, or a merge fell below its shard quorum — exit 3.
    Strict(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Runtime(_) => ExitCode::from(1),
            CliError::Config(_) => ExitCode::from(2),
            CliError::Strict(_) => ExitCode::from(3),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Runtime(m) | CliError::Config(m) | CliError::Strict(m) => m,
        }
    }
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> CliError {
        CliError::Config(e.message)
    }
}

/// Maps an error into [`CliError::Config`] (bad flags/values — exit 2).
fn cfg(e: impl std::fmt::Display) -> CliError {
    CliError::Config(e.to_string())
}

/// Maps an error into [`CliError::Runtime`] (exit 1).
fn rt(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

type CliResult = Result<CliOk, CliError>;

const USAGE: &str = "\
bmf — multivariate Bayesian model fusion for AMS circuits (DAC 2015)

subcommands:
  estimate --early <csv> --late <csv> [--out <csv>] [--seed <u64>] [--threads <n>]
           [--strict] [--report <json-path|->]
  generate --circuit opamp|adc --stage schematic|postlayout
           --samples <n> [--seed <u64>] [--threads <n>] [--out <csv>]
           [--fault-rate <r>] [--retry-attempts <n>]
  shard    --circuit opamp|adc --n-early <n> --n-late <n> --index <i/K>
           --out <packet.json> [--seed <u64>] [--threads <n>]
           [--fault-rate <r>] [--retry-attempts <n>]
  merge    --packet <json> [--packet <json> ...] [--out <csv>]
           [--min-shards <q>] [--strict] [--report <json-path|->]
           [--kappa0 <x> --nu0 <y>] [--threads <n>]
  yield    --moments <csv> --spec \"<metric><=|>=<value>\" ... [--draws <n>]
           [--seed <u64>]
  diagnose --samples <csv>

flags: each flag is `--name value` or a bare switch, given once (only
--packet and --spec repeat). An unknown, repeated or valueless flag, a
stray argument or a malformed value is a usage error: exit 2 before any
work, with no output file written.

observability (any subcommand, before or after it): --trace-out <json>
writes a Chrome trace-event file (load in Perfetto / chrome://tracing),
--profile prints an aggregated per-span profile, --metrics-out <json>
writes a counter/histogram snapshot, --dashboard-out <html> writes a
self-contained HTML dashboard (profile, metrics, estimator health, shard
coverage, drift timeline, and bench history when BENCH_history.json is
present), --events-out <jsonl> writes the structured event log (one JSON
object per line: retries, repairs, ladder transitions, guard flags, shard
merges/rejects), each stamped with the run id that also appears in the
FusionReport and flight-recorder dumps. --obs-listen <addr> serves the
run live over HTTP while it executes: GET /metrics (Prometheus text),
/health (200/503 keyed on severity), /events?level=&n= (JSONL tail),
/progress (heartbeat fractions + ETA), /flight (flight-recorder ring)
and / (the live dashboard); port 0 picks a free port, printed at start
and written to $BMF_OBS_ADDR_FILE when set. History and alert rules
belong to whatever scrapes /metrics. --log-level error|warn|info|debug
(or the BMF_LOG env var) sets console verbosity. Recording never alters
numeric results, and a shard packet's bytes are the same with or without
it: a shard's telemetry stays in its own output files. All file outputs
are written atomically (temp + rename): a crash mid-write never leaves a
truncated artifact behind.

--threads defaults to the machine's available parallelism; results are
bit-identical for every thread count (per-task seed derivation).

sharding: `bmf shard --index i/K` runs slice i of a K-way partition of
the study and writes a checksummed sufficient-statistic packet;
`bmf merge` reduces any complete packet set to the bit-exact result of
the single-process run. --min-shards <q> allows a degraded merge from
any q packets (exit code 4, inflation recorded in the FusionReport);
without it a missing shard is a quorum failure (exit code 3). A crashed
shard is re-run alone and merged — identical bits either way.

robustness: estimate and merge always fuse through the self-healing
pipeline (data-quality guard, SPD prior repair, MAP -> MLE -> early-only
fallback ladder), which degrades with a logged reason when a rung fails;
--strict turns any anomaly into an error instead. --report writes the
FusionReport as JSON ('-' prints a summary). generate --fault-rate r
(0 <= r < 1) injects failed sims at rate r and gross outliers at r/5
(deterministic, seed-derived) to exercise the robustness path.

exit codes: 0 success; 1 runtime error (I/O, simulation, estimation,
corrupt packet); 2 configuration/usage error; 3 strict-mode refusal
(--strict anomaly or shard quorum failure, with a flight-recorder dump
when --events-out is armed); 4 degraded success (merge below full
coverage under --min-shards).
";

/// Serializes moments to CSV and writes them atomically (or to stdout).
fn emit_moments(
    out: Option<&str>,
    names: &[String],
    moments: &MomentEstimate,
) -> Result<(), CliError> {
    match out {
        Some(path) => {
            let mut buf = Vec::new();
            write_moments_csv(&mut buf, names, moments).map_err(rt)?;
            atomic_write(path, buf).map_err(rt)?;
            bmf_ams::obs::info!("moments written to {path}");
        }
        None => {
            write_moments_csv(&mut std::io::stdout().lock(), names, moments).map_err(rt)?;
        }
    }
    Ok(())
}

/// The fusion of `estimate` and `merge`: guard, prior repair and the
/// MAP → MLE → early-only ladder, auditing every intervention in a
/// `FusionReport`. Degrade mode, or Strict with `--strict`.
fn pipeline(strict: bool, threads: usize) -> RobustPipeline {
    let mode = if strict {
        FailureMode::Strict
    } else {
        FailureMode::Degrade
    };
    RobustPipeline::new().with_mode(mode).with_threads(threads)
}

/// A fusion failure: a strict-mode refusal (exit 3) under `--strict`, a
/// runtime error (exit 1) otherwise.
fn fusion_error(strict: bool, e: BmfError) -> CliError {
    if strict {
        CliError::Strict(e.to_string())
    } else {
        rt(e)
    }
}

/// Logs the fusion level the pipeline reached, and why it fell back.
fn log_fusion(report: &FusionReport) {
    bmf_ams::obs::info!("robust pipeline: fusion level = {}", report.fallback);
    if let Some(reason) = &report.fallback_reason {
        bmf_ams::obs::warn!("robust pipeline: {reason}");
    }
}

/// Handles `--report <path|->`: a path gets the FusionReport JSON
/// (atomically), `-` prints the human summary to stderr.
fn emit_report(report_path: Option<&str>, report: &FusionReport) -> Result<(), CliError> {
    match report_path {
        Some("-") => eprint!("{}", report.summary()),
        Some(path) => {
            atomic_write(path, report.to_json()).map_err(rt)?;
            bmf_ams::obs::info!("fusion report written to {path}");
        }
        None => {}
    }
    Ok(())
}

/// Splits a CSV's rows into the nominal run (row 0) and the Monte Carlo
/// samples after it.
fn split_nominal(samples: &Matrix) -> (Vector, Matrix) {
    let rows: Vec<usize> = (1..samples.nrows()).collect();
    let cols: Vec<usize> = (0..samples.ncols()).collect();
    (samples.row_vec(0), samples.submatrix(&rows, &cols))
}

fn cmd_estimate(args: &Args, obs: &ObsOptions) -> CliResult {
    let early_path = args.required("--early")?;
    let late_path = args.required("--late")?;
    let seed: u64 = args.get_or("--seed", 2015)?;
    let threads = resolve_threads(args.positive("--threads")?);
    let strict = args.switch("--strict");
    obs.start(threads)?;

    let early = read_samples_csv(&mut File::open(early_path).map_err(rt)?).map_err(rt)?;
    let late = read_samples_csv(&mut File::open(late_path).map_err(rt)?).map_err(rt)?;
    if early.names != late.names {
        return Err(rt(format!(
            "metric mismatch: early has {:?}, late has {:?}",
            early.names, late.names
        )));
    }
    if early.samples.nrows() < 3 || late.samples.nrows() < 3 {
        return Err(rt(
            "each stage needs the nominal row plus at least 2 samples",
        ));
    }
    let (early_nominal, early_samples) = split_nominal(&early.samples);
    let (late_nominal, late_samples) = split_nominal(&late.samples);
    // §4.1: shift each stage by its nominal, scale by the early σ.
    let study = prepare(&TwoStageData {
        metric_names: early.names.clone(),
        early_nominal,
        early_samples,
        late_nominal,
        late_samples,
    })
    .map_err(rt)?;

    // Thread count deliberately left out of the run config: the same
    // estimate at any parallelism is the same run (bit-identical output).
    obs.set_run(
        seed,
        &format!("estimate early={early_path} late={late_path} strict={strict}"),
    );
    let (est, report) = pipeline(strict, threads)
        .with_seed(rand::rngs::StdRng::seed_from_u64(seed).next_u64())
        .estimate(&study.early_moments, &study.late_pool)
        .map_err(|e| fusion_error(strict, e))?;
    log_fusion(&report);
    if let Some((kappa0, nu0)) = report.selection {
        bmf_ams::obs::info!(
            "cross-validation selected kappa0 = {kappa0:.3}, nu0 = {nu0:.2} ({threads} thread(s))"
        );
    }
    emit_report(args.value("--report"), &report)?;

    if obs.dashboard_out.is_some() {
        // Read-only drift scan of the late-stage stream against the
        // early-stage model. The final timeline is published here, as the
        // figure bins' snapshot publishes theirs, so a late pool shorter
        // than one window shows an empty drift section.
        match DriftMonitor::new(&study.early_moments)
            .and_then(|mut m| m.push_batch(&study.late_pool).map(|()| m))
        {
            Ok(monitor) => bmf_ams::obs::serve::publish_drift(&monitor.into_timeline()),
            Err(e) => bmf_ams::obs::warn!("drift monitor unavailable: {e}"),
        }
    }

    let physical = study.late_transform.invert_moments(&est).map_err(rt)?;
    emit_moments(args.value("--out"), &early.names, &physical)?;
    Ok(CliOk::Clean)
}

fn cmd_generate(args: &Args, obs: &ObsOptions) -> CliResult {
    let circuit = args.required("--circuit")?;
    let stage = match args.required("--stage")? {
        "schematic" => Stage::Schematic,
        "postlayout" => Stage::PostLayout,
        other => return Err(CliError::Config(format!("unknown stage '{other}'"))),
    };
    let n = args.required_count("--samples")?;
    let seed: u64 = args.get_or("--seed", 1)?;
    let fault_rate: f64 = args.get_or("--fault-rate", 0.0)?;
    let retry_attempts = args.positive("--retry-attempts")?.unwrap_or(100);

    let tb: Box<dyn Testbench> = match circuit {
        "opamp" => Box::new(OpAmpTestbench::default_45nm()),
        "adc" => Box::new(AdcTestbench::default_180nm()),
        other => {
            return Err(CliError::Config(format!(
                "unknown circuit '{other}' (use opamp|adc)"
            )))
        }
    };
    // Fault injection keeps the emitted CSV finite: failed sims are
    // retried away and outliers survive as (finite) corrupted rows, but
    // NaN corruption is off — the CSV reader rejects non-finite tokens by
    // design, so a generated file must always be readable back. The rate
    // is checked even where it injects nothing, by the same rule
    // `bmf shard` applies.
    check_study_fault_rate("--fault-rate", fault_rate).map_err(cfg)?;
    let faults = FaultConfig {
        sim_failure_rate: fault_rate,
        outlier_rate: fault_rate / 5.0,
        ..FaultConfig::default()
    };
    let tb: Box<dyn Testbench> = if faults.is_quiet() {
        tb
    } else {
        Box::new(FaultInjector::new(tb, faults).map_err(cfg)?)
    };

    let threads = resolve_threads(args.positive("--threads")?);
    obs.start(threads)?;
    obs.set_run(
        seed,
        &format!("generate circuit={circuit} stage={stage:?} samples={n} fault_rate={fault_rate}"),
    );
    let policy = RetryPolicy {
        max_attempts: retry_attempts,
    };
    let data = run_monte_carlo_seeded_with_policy(tb.as_ref(), stage, n, seed, threads, &policy)
        .map_err(rt)?;
    if fault_rate > 0.0 {
        bmf_ams::obs::info!(
            "generated {n} samples on {threads} thread(s) (fault rate {fault_rate}, retry budget {retry_attempts})"
        );
    } else {
        bmf_ams::obs::info!("generated {n} samples on {threads} thread(s)");
    }

    // First row is the nominal run, as `bmf estimate` expects.
    let labelled = LabelledSamples {
        names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
        samples: Matrix::from_fn(n + 1, data.samples.ncols(), |i, j| match i {
            0 => data.nominal[j],
            _ => data.samples[(i - 1, j)],
        }),
    };
    match args.value("--out") {
        Some(path) => {
            let mut buf = Vec::new();
            write_samples_csv(&mut buf, &labelled).map_err(rt)?;
            atomic_write(path, buf).map_err(rt)?;
            bmf_ams::obs::info!("{} samples (+ nominal row) written to {path}", n);
        }
        None => write_samples_csv(&mut std::io::stdout().lock(), &labelled).map_err(rt)?,
    }
    Ok(CliOk::Clean)
}

// ---------------------------------------------------------------------------
// Sharded studies
// ---------------------------------------------------------------------------

/// Reads the `shard` flags into a [`StudyConfig`] plus the shard index
/// to run.
fn study_config_from_flags(args: &Args) -> Result<(StudyConfig, usize), CliError> {
    // `--index i/K` carries both the slice and the partition size.
    let index_raw = args.required("--index")?;
    let parse = |s: &str| s.trim().parse::<usize>().ok();
    let Some((index, shard_count)) = index_raw
        .split_once('/')
        .and_then(|(i, k)| Some((parse(i)?, parse(k)?)))
    else {
        return Err(CliError::Config(format!(
            "--index must be <i/K> with integers i and K, got '{index_raw}'"
        )));
    };
    let config = StudyConfig {
        circuit: args.required("--circuit")?.to_string(),
        n_early: args.required_count("--n-early")?,
        n_late: args.required_count("--n-late")?,
        shard_count,
        seed: args.get_or("--seed", 2015)?,
        max_attempts: args.get_or("--retry-attempts", 100)?,
        fault_rate: args.get_or("--fault-rate", 0.0)?,
    };
    config.validate().map_err(cfg)?;
    if index >= shard_count {
        return Err(CliError::Config(format!(
            "--index {index} out of range for {shard_count} shard(s)"
        )));
    }
    Ok((config, index))
}

fn cmd_shard(args: &Args, obs: &ObsOptions) -> CliResult {
    let (config, index) = study_config_from_flags(args)?;
    let out = args.required("--out")?;
    let threads = resolve_threads(args.positive("--threads")?);
    obs.start(threads)?;
    obs.set_run(config.seed, &config.canonical());

    let packet = run_shard(&config, index, threads).map_err(rt)?;

    // Chaos hook: BMF_SHARD_KILL=<index> simulates a crash in the window
    // after the shard's simulation work but before the packet rename —
    // the slot where an interrupted run must leave either nothing or a
    // stale temp file, never a truncated packet. The kill-and-resume
    // suite re-runs the shard without the variable and asserts the merge
    // is bit-identical to an uninterrupted study.
    if std::env::var("BMF_SHARD_KILL")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        == Some(index)
    {
        eprintln!("bmf shard: BMF_SHARD_KILL={index} — simulating crash before packet write");
        std::process::abort();
    }

    atomic_write(out, packet.to_json()).map_err(rt)?;
    bmf_ams::obs::counters::SHARD_PACKETS_WRITTEN.incr();
    bmf_ams::obs::event!(Info, "shard.packet_written",
        "index": index,
        "shard_count": config.shard_count,
        "path": out,
        "retries": packet.retries);
    bmf_ams::obs::info!(
        "shard {index}/{} written to {out} (n_early = {}, n_late = {}, {} retries)",
        config.shard_count,
        packet.early.n,
        packet.late.n,
        packet.retries
    );
    Ok(CliOk::Clean)
}

/// Per-dimension σ from a stage's moments (unbiased, matching the
/// `column_stddevs` the sample path scales by).
fn stage_sd(moments: &StageMoments) -> Result<Vector, CliError> {
    if moments.n < 2 {
        return Err(rt(format!(
            "need at least 2 merged samples to derive the early-stage scale, got {}",
            moments.n
        )));
    }
    let nm1 = (moments.n - 1) as f64;
    Ok(Vector::from_fn(moments.mean.len(), |j| {
        (moments.scatter[(j, j)] / nm1).max(0.0).sqrt()
    }))
}

/// Normalizes the merged study into the estimator's shift/scale space:
/// early moments plus late sufficient statistics, both centred on their
/// stage nominal and scaled by the early-stage σ (§4.1 — the sample
/// path's algebra applied to the reduced statistics).
fn normalized_study(
    outcome: &MergeOutcome,
) -> Result<(MomentEstimate, SufficientStats, ShiftScale), CliError> {
    let early_m = outcome.early.moments().map_err(rt)?;
    let late_m = outcome.late.moments().map_err(rt)?;
    let early_sd = stage_sd(&early_m)?;
    let early_t =
        ShiftScale::from_nominal_and_early_sd(&outcome.early.nominal, &early_sd).map_err(rt)?;
    let late_t =
        ShiftScale::from_nominal_and_early_sd(&outcome.late.nominal, &early_sd).map_err(rt)?;

    let early_norm = early_t
        .apply_moments(&MomentEstimate {
            cov: &early_m.scatter / early_m.n as f64,
            mean: early_m.mean,
        })
        .map_err(rt)?;

    let d = late_m.mean.len();
    let late_stats = SufficientStats {
        n: late_m.n,
        dropped: outcome.late.dropped,
        mean: late_t.apply_vector(&late_m.mean).map_err(rt)?,
        // Scatter is a sum of outer products, so it scales like a
        // covariance: S'ᵢⱼ = Sᵢⱼ/(σᵢ σⱼ).
        scatter: Matrix::from_fn(d, d, |i, j| {
            late_m.scatter[(i, j)] / (early_sd[i] * early_sd[j])
        }),
    };
    Ok((early_norm, late_stats, late_t))
}

/// Reads the optional `--kappa0`/`--nu0` pair: both or neither, `κ₀`
/// finite and positive, `ν₀` finite. `ν₀ > d` needs the study's `d` and
/// is checked once the merge gives it.
fn fixed_hypers(args: &Args) -> Result<Option<(f64, f64)>, CliError> {
    let (Some(kappa0), Some(nu0)) = (args.get::<f64>("--kappa0")?, args.get::<f64>("--nu0")?)
    else {
        if args.value("--kappa0").is_some() || args.value("--nu0").is_some() {
            return Err(CliError::Config(
                "--kappa0 and --nu0 must be given together".to_string(),
            ));
        }
        return Ok(None);
    };
    if !(kappa0 > 0.0 && kappa0.is_finite()) {
        return Err(CliError::Config(format!(
            "--kappa0 must be finite and > 0, got {kappa0}"
        )));
    }
    if !nu0.is_finite() {
        return Err(CliError::Config(format!("--nu0 must be finite, got {nu0}")));
    }
    Ok(Some((kappa0, nu0)))
}

fn cmd_merge(args: &Args, obs: &ObsOptions) -> CliResult {
    let packet_paths = args.all("--packet");
    if packet_paths.is_empty() {
        return Err(CliError::Config(
            "need at least one --packet <json>".to_string(),
        ));
    }
    let min_shards = args.positive("--min-shards")?;
    let strict = args.switch("--strict");
    let hypers = fixed_hypers(args)?;
    let threads = resolve_threads(args.positive("--threads")?);
    obs.start(threads)?;

    // Read every packet; an unreadable file is a runtime error (the
    // caller named it explicitly), a *corrupt* one is handled by the
    // merge's own validation so a quorum can still absorb it.
    let mut texts = Vec::with_capacity(packet_paths.len());
    for path in packet_paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| rt(format!("cannot read packet {path}: {e}")))?;
        texts.push((path.to_string(), text));
    }

    let policy = MergePolicy { min_shards };
    let outcome = merge_packet_texts(&texts, &policy).map_err(|e| match e {
        // Too few shards survived: the refusal the quorum policy exists
        // for. Capture the flight recorder — this is the "what happened
        // to my study" moment.
        CircuitError::ShardQuorum { .. } => {
            bmf_ams::obs::flight::dump("shard_quorum_failure");
            CliError::Strict(e.to_string())
        }
        other => rt(other),
    })?;

    // The merge's run identity is the study's, shared by every packet.
    obs.set_run(outcome.config.seed, &outcome.config.canonical());
    bmf_ams::obs::serve::publish_shard(&outcome.coverage);
    bmf_ams::obs::info!("{}", outcome.coverage.summary());

    let (early_norm, late_stats, late_t) = normalized_study(&outcome)?;
    let mut pipeline = pipeline(strict, threads);
    if let Some((kappa0, nu0)) = hypers {
        let d = early_norm.dim();
        if nu0 <= d as f64 {
            return Err(CliError::Config(format!(
                "--nu0 must exceed the metric count d = {d} of the merged study, got {nu0}"
            )));
        }
        pipeline = pipeline.with_fixed_hypers(kappa0, nu0);
    }
    let (est, report) = pipeline
        .estimate_from_stats(&early_norm, &late_stats, Some(outcome.coverage.clone()))
        .map_err(|e| fusion_error(strict, e))?;
    log_fusion(&report);
    emit_report(args.value("--report"), &report)?;
    let physical = late_t.invert_moments(&est).map_err(rt)?;

    let names: Vec<String> = outcome
        .config
        .testbench()
        .map_err(rt)?
        .metric_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    emit_moments(args.value("--out"), &names, &physical)?;

    if outcome.coverage.is_complete() {
        Ok(CliOk::Clean)
    } else {
        bmf_ams::obs::warn!(
            "degraded merge: {} of {} shard(s); late-sample uncertainty inflated x{:.4} (exit code 4)",
            outcome.coverage.merged,
            outcome.coverage.shard_count,
            outcome.coverage.inflation
        );
        Ok(CliOk::Degraded)
    }
}

fn cmd_diagnose(args: &Args, obs: &ObsOptions) -> CliResult {
    use bmf_ams::core::diagnostics::mardia_test;
    use bmf_ams::stats::pca::Pca;

    let path = args.required("--samples")?;
    obs.start(1)?;
    let data = read_samples_csv(&mut File::open(path).map_err(rt)?).map_err(rt)?;
    let (n, d) = data.samples.shape();
    println!("{path}: {n} samples x {d} metrics");
    println!();

    let mean = descriptive::mean_vector(&data.samples).map_err(rt)?;
    let sd = descriptive::column_stddevs(&data.samples).map_err(rt)?;
    let skew = descriptive::column_skewness(&data.samples).map_err(rt)?;
    let kurt = descriptive::column_excess_kurtosis(&data.samples).map_err(rt)?;
    println!(
        "{:>18} | {:>12} | {:>12} | {:>8} | {:>8}",
        "metric", "mean", "sd", "skew", "ex.kurt"
    );
    for j in 0..d {
        println!(
            "{:>18} | {:12.5e} | {:12.5e} | {:8.3} | {:8.3}",
            data.names[j], mean[j], sd[j], skew[j], kurt[j]
        );
    }

    println!();
    match mardia_test(&data.samples) {
        Ok(t) => {
            println!(
                "Mardia multivariate normality: skewness b1 = {:.4} (p = {:.4}), kurtosis b2 = {:.3} (p = {:.4})",
                t.skewness, t.skewness_p_value, t.kurtosis, t.kurtosis_p_value
            );
            if t.is_consistent_with_gaussian(0.01) {
                println!("-> consistent with the jointly-Gaussian BMF assumption (alpha = 0.01)");
            } else {
                println!("-> NOT consistent with joint Gaussianity at alpha = 0.01;");
                println!("   BMF moment estimates remain usable but interpret tails with care");
            }
        }
        Err(e) => println!("Mardia test unavailable: {e}"),
    }

    println!();
    // PCA on standardised data so units don't dominate.
    let t = ShiftScale::new(mean, sd).map_err(rt)?;
    let norm = t.apply_samples(&data.samples).map_err(rt)?;
    let pca = Pca::fit(&norm).map_err(rt)?;
    let ratios = pca.explained_variance_ratio();
    print!("PCA variance ratios:");
    for k in 0..d {
        print!(" {:.3}", ratios[k]);
    }
    println!();
    println!(
        "-> {} component(s) explain 90% of the (standardised) variance",
        pca.components_for_variance(0.9)
    );
    Ok(CliOk::Clean)
}

fn cmd_yield(args: &Args, obs: &ObsOptions) -> CliResult {
    let moments_path = args.required("--moments")?;
    let draws: usize = args.get_or("--draws", 100_000)?;
    let seed: u64 = args.get_or("--seed", 7)?;
    let specs_raw = args.all("--spec");
    if specs_raw.is_empty() {
        return Err(CliError::Config(
            "need at least one --spec \"<metric><=|>=<value>\"".to_string(),
        ));
    }
    obs.start(1)?;

    let (names, moments) =
        read_moments_csv(&mut File::open(moments_path).map_err(rt)?).map_err(rt)?;
    let d = names.len();
    let mut lower = vec![None; d];
    let mut upper = vec![None; d];
    for raw in specs_raw {
        let (metric, bound, side) = match (raw.split_once(">="), raw.split_once("<=")) {
            (Some((metric, bound)), _) => (metric, bound, &mut lower),
            (None, Some((metric, bound))) => (metric, bound, &mut upper),
            (None, None) => return Err(cfg(format!("spec '{raw}' must contain >= or <="))),
        };
        let value: f64 = (bound.trim().parse())
            .map_err(|_| cfg(format!("spec '{raw}' has an unusable bound")))?;
        let j = names.iter().position(|n| n == metric.trim());
        let j = j.ok_or_else(|| cfg(format!("unknown metric '{metric}' (have {names:?})")))?;
        side[j] = Some(value);
    }
    let specs = SpecLimits::new(lower, upper).map_err(cfg)?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let y = estimate_yield(&moments, &specs, draws, &mut rng).map_err(rt)?;
    println!(
        "yield = {:.3}% +- {:.3}% ({} draws)",
        y.yield_fraction * 100.0,
        y.std_error * 100.0,
        y.draws
    );
    Ok(CliOk::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_flag_each_subcommand_declares() {
        let words: Vec<&str> = USAGE
            .split(|c: char| c.is_whitespace() || "[]|".contains(c))
            .collect();
        for (name, grammar) in SUBCOMMANDS {
            for flag in grammar.flags() {
                assert!(
                    words.contains(&flag),
                    "bmf --help does not list {name} {flag}"
                );
            }
        }
    }
}
