//! `bmf` — command-line front end for the multivariate BMF estimator.
//!
//! ```text
//! bmf estimate --early early.csv --late late.csv [--out moments.csv]
//!     Fuse early-stage samples with few late-stage samples: shift/scale,
//!     cross-validate (kappa0, nu0), MAP-estimate, print/export moments.
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
//!           [--draws N]
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
//! | 2    | configuration/usage error (bad flags or values)             |
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
use bmf_ams::core::io::{
    read_moments_csv, read_samples_csv, write_moments_csv, write_samples_csv, LabelledSamples,
};
use bmf_ams::core::parallel::resolve_threads;
use bmf_ams::core::prelude::*;
use bmf_ams::core::yield_estimation::estimate_yield;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::obs::atomic_write;
use bmf_ams::stats::descriptive;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::fs::File;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = match bmf_ams::obs::ObsOptions::extract(&mut args) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run 'bmf --help' for usage");
            return CliError::Config(e.to_string()).exit_code();
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("estimate") => cmd_estimate(&args[1..], &mut obs),
        Some("generate") => cmd_generate(&args[1..], &mut obs),
        Some("shard") => cmd_shard(&args[1..], &mut obs),
        Some("merge") => cmd_merge(&args[1..], &mut obs),
        Some("yield") => cmd_yield(&args[1..]),
        Some("diagnose") => cmd_diagnose(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(CliOk::Clean)
        }
        Some(other) => Err(CliError::Config(format!("unknown subcommand '{other}'"))),
    };
    // Telemetry is flushed even when the subcommand failed — a strict
    // failure is exactly when the event log matters; the subcommand's
    // error still wins the exit code.
    let finish = obs.finish();
    match result {
        Ok(ok) => match finish {
            Ok(()) => ok.exit_code(),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        },
        Err(e) => {
            eprintln!("error: {}", e.message());
            if matches!(e, CliError::Config(_)) {
                eprintln!("run 'bmf --help' for usage");
            }
            e.exit_code()
        }
    }
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

/// Maps an error into [`CliError::Config`] (bad flags/values — exit 2).
fn cfg(e: impl std::fmt::Display) -> CliError {
    CliError::Config(e.to_string())
}

/// Maps an error into [`CliError::Runtime`] (exit 1).
fn rt(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

type CliResult = Result<CliOk, CliError>;

fn print_usage() {
    println!("bmf — multivariate Bayesian model fusion for AMS circuits (DAC 2015)");
    println!();
    println!("subcommands:");
    println!("  estimate --early <csv> --late <csv> [--out <csv>] [--seed <u64>] [--threads <n>]");
    println!("           [--strict | --degrade] [--report <json-path|->]");
    println!("  generate --circuit opamp|adc --stage schematic|postlayout");
    println!("           --samples <n> [--seed <u64>] [--threads <n>] [--out <csv>]");
    println!("           [--fault-rate <r>] [--retry-attempts <n>]");
    println!("  shard    --circuit opamp|adc --n-early <n> --n-late <n> --index <i/K>");
    println!("           --out <packet.json> [--seed <u64>] [--threads <n>]");
    println!("           [--fault-rate <r>] [--retry-attempts <n>]");
    println!("  merge    --packet <json> [--packet <json> ...] [--out <csv>]");
    println!("           [--min-shards <q>] [--strict | --degrade] [--report <json-path|->]");
    println!("           [--kappa0 <x> --nu0 <y>] [--threads <n>]");
    println!("  yield    --moments <csv> --spec \"<metric><=|>=<value>\" ... [--draws <n>]");
    println!("  diagnose --samples <csv>");
    println!();
    println!("observability (any subcommand): --trace-out <json> writes a Chrome");
    println!("trace-event file (load in Perfetto / chrome://tracing), --profile prints");
    println!("an aggregated per-span profile, --metrics-out <json> writes a counter/");
    println!("histogram snapshot, --dashboard-out <html> writes a self-contained");
    println!("HTML dashboard (profile, metrics, estimator health, shard coverage,");
    println!("drift timeline, and bench history when BENCH_history.json is present),");
    println!("--events-out <jsonl> writes the structured event log (one JSON object");
    println!("per line: retries, repairs, ladder transitions, guard flags, shard");
    println!("merges/rejects), each stamped with the run id that also appears in the");
    println!("FusionReport and flight-recorder dumps. --obs-listen <addr> serves the");
    println!("run live over HTTP while it executes: GET /metrics (Prometheus text),");
    println!("/health (200/503 keyed on severity), /events?level=&n= (JSONL tail),");
    println!("/progress (heartbeat fractions + ETA), /flight (flight-recorder ring)");
    println!("and / (the live dashboard); port 0 picks a free port, printed at start");
    println!("and written to $BMF_OBS_ADDR_FILE when set. History and alert rules");
    println!("belong to whatever scrapes /metrics. --log-level error|warn|info|debug");
    println!("(or the BMF_LOG env var) sets console verbosity. Recording never alters");
    println!("numeric results, and a shard packet's bytes are the same with or without");
    println!("it: a shard's telemetry stays in its own output files. All file outputs");
    println!("are written atomically (temp + rename): a crash mid-write never leaves a");
    println!("truncated artifact behind.");
    println!();
    println!("--threads defaults to the machine's available parallelism; results are");
    println!("bit-identical for every thread count (per-task seed derivation).");
    println!();
    println!("sharding: `bmf shard --index i/K` runs slice i of a K-way partition of");
    println!("the study and writes a checksummed sufficient-statistic packet;");
    println!("`bmf merge` reduces any complete packet set to the bit-exact result of");
    println!("the single-process run. --min-shards <q> allows a degraded merge from");
    println!("any q packets (exit code 4, inflation recorded in the FusionReport);");
    println!("without it a missing shard is a quorum failure (exit code 3). A crashed");
    println!("shard is re-run alone and merged — identical bits either way.");
    println!();
    println!("robustness: --degrade routes estimation through the self-healing pipeline");
    println!("(data-quality guard, SPD prior repair, MAP -> MLE -> early-only fallback");
    println!("ladder); --strict runs the same pipeline but turns any anomaly into an");
    println!("error. --report writes the FusionReport as JSON ('-' prints a summary).");
    println!("generate --fault-rate r (0 <= r < 1) injects failed sims at rate r and");
    println!("gross outliers at r/5 (deterministic, seed-derived) to exercise the");
    println!("robustness path.");
    println!();
    println!("exit codes: 0 success; 1 runtime error (I/O, simulation, estimation,");
    println!("corrupt packet); 2 configuration/usage error; 3 strict-mode refusal");
    println!("(--strict anomaly or shard quorum failure, with a flight-recorder dump");
    println!("when --events-out is armed); 4 degraded success (merge below full");
    println!("coverage under --min-shards).");
}

/// Flags that take no value (presence is the whole message).
const BOOL_FLAGS: &[&str] = &["strict", "degrade"];

/// Parses `--key value` pairs; repeated keys accumulate. Flags listed in
/// [`BOOL_FLAGS`] are valueless switches.
fn parse_flags(args: &[String]) -> Result<HashMap<String, Vec<String>>, String> {
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        if !key.starts_with("--") {
            return Err(format!("expected a --flag, got '{key}'"));
        }
        let name = key[2..].to_string();
        if BOOL_FLAGS.contains(&name.as_str()) {
            map.entry(name).or_default().push("true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag {key} needs a value"))?;
        map.entry(name).or_default().push(value.clone());
        i += 2;
    }
    Ok(map)
}

fn single<'a>(flags: &'a HashMap<String, Vec<String>>, key: &str) -> Result<&'a str, CliError> {
    match flags.get(key).map(Vec::as_slice) {
        Some([v]) => Ok(v),
        Some(_) => Err(CliError::Config(format!("--{key} given more than once"))),
        None => Err(CliError::Config(format!("missing required flag --{key}"))),
    }
}

fn optional<'a>(flags: &'a HashMap<String, Vec<String>>, key: &str) -> Option<&'a str> {
    flags.get(key).and_then(|v| v.first()).map(String::as_str)
}

/// Parses an optional flag's value, mapping a parse failure to a
/// config error naming the flag.
fn parse_optional<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
    default: &str,
) -> Result<T, CliError> {
    let raw = optional(flags, key).unwrap_or(default);
    raw.parse()
        .map_err(|_| CliError::Config(format!("--{key} has unusable value '{raw}'")))
}

/// Parses a required flag's value, mapping a parse failure to a config
/// error naming the flag.
fn parse_required<T: std::str::FromStr>(
    flags: &HashMap<String, Vec<String>>,
    key: &str,
) -> Result<T, CliError> {
    let raw = single(flags, key)?;
    raw.parse()
        .map_err(|_| CliError::Config(format!("--{key} has unusable value '{raw}'")))
}

/// Parses `--threads`, defaulting to the machine's available parallelism.
fn threads_flag(flags: &HashMap<String, Vec<String>>) -> Result<usize, CliError> {
    match optional(flags, "threads") {
        Some(raw) => {
            let t: usize = raw.parse().map_err(|_| {
                CliError::Config(format!("--threads must be a positive integer, got '{raw}'"))
            })?;
            if t == 0 {
                return Err(CliError::Config("--threads must be at least 1".to_string()));
            }
            Ok(t)
        }
        None => Ok(resolve_threads(None)),
    }
}

/// Resolves the `--strict`/`--degrade` pair (mutually exclusive).
fn failure_mode(flags: &HashMap<String, Vec<String>>) -> Result<(bool, bool), CliError> {
    let strict = flags.contains_key("strict");
    let degrade = flags.contains_key("degrade");
    if strict && degrade {
        return Err(CliError::Config(
            "--strict and --degrade are mutually exclusive".to_string(),
        ));
    }
    Ok((strict, degrade))
}

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

fn cmd_estimate(args: &[String], obs: &mut bmf_ams::obs::ObsOptions) -> CliResult {
    let flags = parse_flags(args).map_err(cfg)?;
    let early_path = single(&flags, "early")?;
    let late_path = single(&flags, "late")?;
    let seed: u64 = parse_optional(&flags, "seed", "2015")?;

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

    // Row 0 of each file is the nominal run (the shift anchor).
    let early_nominal = early.samples.row_vec(0);
    let late_nominal = late.samples.row_vec(0);
    let early_mc = early.samples.submatrix(
        &(1..early.samples.nrows()).collect::<Vec<_>>(),
        &(0..early.samples.ncols()).collect::<Vec<_>>(),
    );
    let late_mc = late.samples.submatrix(
        &(1..late.samples.nrows()).collect::<Vec<_>>(),
        &(0..late.samples.ncols()).collect::<Vec<_>>(),
    );

    let early_sd = descriptive::column_stddevs(&early_mc).map_err(rt)?;
    let early_t = ShiftScale::from_nominal_and_early_sd(&early_nominal, &early_sd).map_err(rt)?;
    let late_t = ShiftScale::from_nominal_and_early_sd(&late_nominal, &early_sd).map_err(rt)?;
    let early_norm = early_t.apply_samples(&early_mc).map_err(rt)?;
    let late_norm = late_t.apply_samples(&late_mc).map_err(rt)?;

    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm).map_err(rt)?,
        cov: descriptive::covariance_mle(&early_norm).map_err(rt)?,
    };

    let threads = threads_flag(&flags)?;
    obs.set_threads(threads);
    let cv_seed = rand::rngs::StdRng::seed_from_u64(seed).next_u64();

    let (strict, degrade) = failure_mode(&flags)?;
    // Thread count deliberately left out of the run config: the same
    // estimate at any parallelism is the same run (bit-identical output).
    obs.set_run(
        seed,
        &format!("estimate early={early_path} late={late_path} strict={strict}"),
    );
    let report_path = optional(&flags, "report");

    let physical = if strict || degrade || report_path.is_some() {
        // Robust path: guard -> prior repair -> MAP→MLE→early ladder,
        // with the audit trail in a FusionReport.
        let mode = if strict {
            FailureMode::Strict
        } else {
            FailureMode::Degrade
        };
        let pipeline = RobustPipeline::new()
            .with_mode(mode)
            .with_seed(cv_seed)
            .with_threads(threads);
        let (est, report) = pipeline.estimate(&early_moments, &late_norm).map_err(|e| {
            if strict {
                CliError::Strict(e.to_string())
            } else {
                rt(e)
            }
        })?;
        bmf_ams::obs::info!("robust pipeline: fusion level = {}", report.fallback);
        if let Some(reason) = &report.fallback_reason {
            bmf_ams::obs::warn!("robust pipeline: {reason}");
        }
        if let Some((kappa0, nu0)) = report.selection {
            bmf_ams::obs::info!(
                "cross-validation selected kappa0 = {kappa0:.3}, nu0 = {nu0:.2} ({threads} thread(s))"
            );
        }
        emit_report(report_path, &report)?;
        if let Some(health) = report.health.clone() {
            obs.attach_health(health);
        }
        late_t.invert_moments(&est).map_err(rt)?
    } else {
        let sel = CrossValidation::default()
            .select_seeded(&early_moments, &late_norm, cv_seed, threads)
            .map_err(rt)?;
        bmf_ams::obs::info!(
            "cross-validation selected kappa0 = {:.3}, nu0 = {:.2} (score {:.4}, {threads} thread(s))",
            sel.kappa0, sel.nu0, sel.score
        );

        let prior = NormalWishartPrior::from_early_moments(&early_moments, sel.kappa0, sel.nu0)
            .map_err(rt)?;
        let est = BmfEstimator::new(prior)
            .map_err(rt)?
            .estimate(&late_norm)
            .map_err(rt)?;
        late_t.invert_moments(&est.map).map_err(rt)?
    };

    if obs.dashboard_out.is_some() {
        // Read-only drift scan of the late-stage stream against the
        // early-stage model; an unfilled window simply yields no entries.
        match DriftMonitor::new(&early_moments, DriftConfig::default())
            .and_then(|mut m| m.push_batch(&late_norm).map(|()| m))
        {
            Ok(monitor) => obs.attach_drift(monitor.into_timeline()),
            Err(e) => bmf_ams::obs::warn!("drift monitor unavailable: {e}"),
        }
    }

    emit_moments(optional(&flags, "out"), &early.names, &physical)?;
    Ok(CliOk::Clean)
}

fn cmd_generate(args: &[String], obs: &mut bmf_ams::obs::ObsOptions) -> CliResult {
    let flags = parse_flags(args).map_err(cfg)?;
    let circuit = single(&flags, "circuit")?;
    let stage = match single(&flags, "stage")? {
        "schematic" => Stage::Schematic,
        "postlayout" | "post-layout" => Stage::PostLayout,
        other => return Err(CliError::Config(format!("unknown stage '{other}'"))),
    };
    let n: usize = parse_required(&flags, "samples")?;
    let seed: u64 = parse_optional(&flags, "seed", "1")?;
    let fault_rate: f64 = parse_optional(&flags, "fault-rate", "0")?;
    let retry_attempts: usize = parse_optional(&flags, "retry-attempts", "100")?;

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

    let threads = threads_flag(&flags)?;
    obs.set_threads(threads);
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
    let d = data.samples.ncols();
    let mut all = Matrix::zeros(n + 1, d);
    all.row_mut(0).copy_from_slice(data.nominal.as_slice());
    for i in 0..n {
        let row: Vec<f64> = data.samples.row(i).to_vec();
        all.row_mut(i + 1).copy_from_slice(&row);
    }
    let labelled = LabelledSamples {
        names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
        samples: all,
    };
    match optional(&flags, "out") {
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

/// Parses the `shard` flag set into a [`StudyConfig`] plus the shard
/// index to run.
fn study_config_from_flags(
    flags: &HashMap<String, Vec<String>>,
) -> Result<(StudyConfig, usize), CliError> {
    // `--index i/K` carries both the slice and the partition size, the
    // spelling the usage line advertises; `--index i --shards K` is the
    // two-flag equivalent.
    let index_raw = single(flags, "index")?;
    let (index, shard_count): (usize, usize) = match index_raw.split_once('/') {
        Some((i, k)) => {
            let parse = |s: &str, what: &str| {
                s.trim().parse::<usize>().map_err(|_| {
                    CliError::Config(format!("--index {index_raw}: {what} is not an integer"))
                })
            };
            (parse(i, "shard index")?, parse(k, "shard count")?)
        }
        None => {
            let index = index_raw.parse::<usize>().map_err(|_| {
                CliError::Config(format!(
                    "--index must be <i/K> or an integer, got '{index_raw}'"
                ))
            })?;
            (index, parse_required(flags, "shards")?)
        }
    };
    let config = StudyConfig {
        circuit: single(flags, "circuit")?.to_string(),
        n_early: parse_required(flags, "n-early")?,
        n_late: parse_required(flags, "n-late")?,
        shard_count,
        seed: parse_optional(flags, "seed", "2015")?,
        max_attempts: parse_optional(flags, "retry-attempts", "100")?,
        fault_rate: parse_optional(flags, "fault-rate", "0")?,
    };
    config.validate().map_err(cfg)?;
    if index >= shard_count {
        return Err(CliError::Config(format!(
            "--index {index} out of range for {shard_count} shard(s)"
        )));
    }
    Ok((config, index))
}

fn cmd_shard(args: &[String], obs: &mut bmf_ams::obs::ObsOptions) -> CliResult {
    let flags = parse_flags(args).map_err(cfg)?;
    let (config, index) = study_config_from_flags(&flags)?;
    let out = single(&flags, "out")?;
    let threads = threads_flag(&flags)?;
    obs.set_threads(threads);
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

/// Parses the optional `--kappa0`/`--nu0` pair: both or neither, `κ₀`
/// finite and positive, `ν₀` finite. `ν₀ > d` needs the study's `d` and
/// is checked once the merge gives it.
fn fixed_hypers(flags: &HashMap<String, Vec<String>>) -> Result<Option<(f64, f64)>, CliError> {
    if flags.contains_key("kappa0") != flags.contains_key("nu0") {
        return Err(CliError::Config(
            "--kappa0 and --nu0 must be given together".to_string(),
        ));
    }
    if !flags.contains_key("kappa0") {
        return Ok(None);
    }
    let kappa0: f64 = parse_required(flags, "kappa0")?;
    let nu0: f64 = parse_required(flags, "nu0")?;
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

fn cmd_merge(args: &[String], obs: &mut bmf_ams::obs::ObsOptions) -> CliResult {
    let flags = parse_flags(args).map_err(cfg)?;
    let packet_paths = flags
        .get("packet")
        .cloned()
        .ok_or_else(|| CliError::Config("need at least one --packet <json>".to_string()))?;
    let min_shards: Option<usize> = match optional(&flags, "min-shards") {
        Some(raw) => {
            let q: usize = raw.parse().map_err(|_| {
                CliError::Config(format!(
                    "--min-shards must be a positive integer, got '{raw}'"
                ))
            })?;
            if q == 0 {
                return Err(CliError::Config(
                    "--min-shards must be at least 1".to_string(),
                ));
            }
            Some(q)
        }
        None => None,
    };
    let (strict, _degrade) = failure_mode(&flags)?;
    let hypers = fixed_hypers(&flags)?;
    let threads = threads_flag(&flags)?;
    obs.set_threads(threads);

    // Read every packet; an unreadable file is a runtime error (the
    // caller named it explicitly), a *corrupt* one is handled by the
    // merge's own validation so a quorum can still absorb it.
    let mut texts = Vec::with_capacity(packet_paths.len());
    for path in &packet_paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| rt(format!("cannot read packet {path}: {e}")))?;
        texts.push((path.clone(), text));
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
    obs.attach_shard(outcome.coverage.clone());
    bmf_ams::obs::info!("{}", outcome.coverage.summary());

    let (early_norm, late_stats, late_t) = normalized_study(&outcome)?;
    let mode = if strict {
        FailureMode::Strict
    } else {
        FailureMode::Degrade
    };
    let mut pipeline = RobustPipeline::new().with_mode(mode).with_threads(threads);
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
        .map_err(|e| {
            if strict {
                CliError::Strict(e.to_string())
            } else {
                rt(e)
            }
        })?;
    bmf_ams::obs::info!("robust pipeline: fusion level = {}", report.fallback);
    if let Some(reason) = &report.fallback_reason {
        bmf_ams::obs::warn!("robust pipeline: {reason}");
    }
    emit_report(optional(&flags, "report"), &report)?;
    if let Some(health) = report.health.clone() {
        obs.attach_health(health);
    }
    let physical = late_t.invert_moments(&est).map_err(rt)?;

    let names: Vec<String> = outcome
        .config
        .testbench()
        .map_err(rt)?
        .metric_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    emit_moments(optional(&flags, "out"), &names, &physical)?;

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

fn cmd_diagnose(args: &[String]) -> CliResult {
    use bmf_ams::core::diagnostics::mardia_test;
    use bmf_ams::stats::pca::Pca;

    let flags = parse_flags(args).map_err(cfg)?;
    let path = single(&flags, "samples")?;
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

fn cmd_yield(args: &[String]) -> CliResult {
    let flags = parse_flags(args).map_err(cfg)?;
    let moments_path = single(&flags, "moments")?;
    let draws: usize = parse_optional(&flags, "draws", "100000")?;
    let seed: u64 = parse_optional(&flags, "seed", "7")?;
    let specs_raw = flags.get("spec").ok_or_else(|| {
        CliError::Config("need at least one --spec \"<metric><=|>=<value>\"".to_string())
    })?;

    let (names, moments) =
        read_moments_csv(&mut File::open(moments_path).map_err(rt)?).map_err(rt)?;
    let d = names.len();
    let mut lower = vec![None; d];
    let mut upper = vec![None; d];
    for raw in specs_raw {
        let (idx, op_pos, op_len) = if let Some(p) = raw.find(">=") {
            (p, p, 2)
        } else if let Some(p) = raw.find("<=") {
            (p, p, 2)
        } else {
            return Err(CliError::Config(format!(
                "spec '{raw}' must contain >= or <="
            )));
        };
        let metric = raw[..idx].trim();
        let value: f64 = raw[op_pos + op_len..]
            .trim()
            .parse()
            .map_err(|_| CliError::Config(format!("spec '{raw}' has an unusable bound")))?;
        let j = names.iter().position(|n| n == metric).ok_or_else(|| {
            CliError::Config(format!("unknown metric '{metric}' (have {names:?})"))
        })?;
        if raw[op_pos..].starts_with(">=") {
            lower[j] = Some(value);
        } else {
            upper[j] = Some(value);
        }
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
