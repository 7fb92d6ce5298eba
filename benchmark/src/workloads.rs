//! The four workloads: the inputs each builds from the seed, one op, and
//! the checks every op's output must pass.
//!
//! Each workload is a closed loop with one caller: the next op starts
//! when the previous one returns. Ops run at one worker thread; the
//! thread-count replay in `main` runs them again at two.

use crate::measure::Digest;
use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::monte_carlo::{
    run_monte_carlo_seeded, two_stage_study_seeded, Stage, StageData, Testbench, TwoStageStudy,
};
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_circuits::shard::{
    merge_packet_texts, run_shard, study_reference_stats, MergeOutcome, MergePolicy, StageMoments,
    StudyConfig,
};
use bmf_core::experiment::{
    cost_reduction, prepare, run_error_sweep_parallel, ErrorKind, PreparedStudy, SweepConfig,
    SweepResult, TwoStageData,
};
use bmf_core::pipeline::{FusionReport, RobustPipeline};
use bmf_core::suffstats::SufficientStats;
use bmf_core::transform::ShiftScale;
use bmf_core::MomentEstimate;
use bmf_linalg::{Cholesky, Matrix, Vector};
use bmf_stats::parallel::derive_seed;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Op-amp Monte Carlo (`bmf generate --circuit opamp`): bias, netlist
    /// and AC solves, the cost behind every flow.
    OpampMc,
    /// Flash-ADC Monte Carlo: the same Monte Carlo layer over a different
    /// kernel (comparator bank, FFT, spectrum) with no MNA.
    AdcMc,
    /// `bmf estimate --report` and `bmf merge` without file I/O: three
    /// requests in four fuse raw samples (cross-validation included), the
    /// fourth parses and reduces shard packets and fuses their sufficient
    /// statistics (no cross-validation).
    Fuse,
    /// `fig4_opamp --quick` plus `fig5_adc --quick`: Monte Carlo and the
    /// error sweep inside one result.
    Study,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::OpampMc,
        Workload::AdcMc,
        Workload::Fuse,
        Workload::Study,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpampMc => "opamp_mc",
            Workload::AdcMc => "adc_mc",
            Workload::Fuse => "fuse",
            Workload::Study => "study",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace span wrapped around each op of this workload.
    pub fn span(self) -> &'static str {
        match self {
            Workload::OpampMc => "bench.opamp_mc",
            Workload::AdcMc => "bench.adc_mc",
            Workload::Fuse => "bench.fuse",
            Workload::Study => "bench.study",
        }
    }

    /// Seed stream of this workload's ops; setup draws from
    /// [`SETUP_STREAM`], so no op reuses a setup seed.
    fn stream(self) -> u64 {
        0xBE00 + self as u64
    }
}

/// Seed stream of everything built before the timed loop.
pub const SETUP_STREAM: u64 = 0xBE5E;

/// Op index of the untimed warm-up op, far from any timed index.
pub const WARM_UP_OP: usize = 1 << 40;

/// The two circuits of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Circuit {
    /// 45 nm two-stage op-amp (Figure 4).
    Opamp,
    /// 0.18 µm 6-bit flash ADC (Figure 5).
    Adc,
}

impl Circuit {
    const BOTH: [Circuit; 2] = [Circuit::Opamp, Circuit::Adc];

    fn testbench(self) -> Box<dyn Testbench> {
        match self {
            Circuit::Opamp => Box::new(OpAmpTestbench::default_45nm()),
            Circuit::Adc => Box::new(AdcTestbench::default_180nm()),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Circuit::Opamp => "opamp",
            Circuit::Adc => "adc",
        }
    }

    /// Monte Carlo pool per stage of the `--quick` figure run.
    fn quick_pool(self) -> usize {
        match self {
            Circuit::Opamp => 800,
            Circuit::Adc => 400,
        }
    }
}

/// Dies per stage in one Monte Carlo op; the op runs both stages, so
/// every op does the same work.
pub const MC_DIES_PER_STAGE: usize = 100;

/// Late-stage sample counts the estimate requests rotate through.
pub const ESTIMATE_SIZES: [usize; 3] = [8, 32, 128];

/// Estimate requests per `fuse` op: every size on both circuits, so
/// every op does the same work. The op adds one merge request per
/// circuit, so one request in four is a merge.
pub const REQUESTS_PER_OP: usize = 2 * ESTIMATE_SIZES.len();

/// Monte Carlo samples per stage behind each estimate pool.
const ESTIMATE_POOL: usize = 400;

/// Shards per merge request.
pub const MERGE_SHARDS: usize = 8;

/// Study size of each pre-sharded merge input.
const MERGE_EARLY: usize = 200;
const MERGE_LATE: usize = 100;

/// What one op returns to the loop.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// Wall time of each public call the op measures, in the same order
    /// on every op of a workload (input slicing and output checks
    /// excluded).
    pub parts: Vec<Duration>,
    /// FNV digest of every output bit.
    pub digest: u64,
    /// Cost reductions at n = 8 (`study` only).
    pub accuracy: Option<Accuracy>,
}

/// The paper's headline ratios from one `study` op.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// Op-amp covariance cost reduction at n = 8.
    pub opamp_cov: f64,
    /// ADC covariance cost reduction at n = 8.
    pub adc_cov: f64,
    /// ADC mean cost reduction at n = 8.
    pub adc_mean: f64,
}

/// A workload's inputs, built once before timing.
pub struct Prepared {
    workload: Workload,
    seed: u64,
    opamp: OpAmpTestbench,
    adc: AdcTestbench,
    estimate: Option<EstimateInputs>,
    merge: Option<MergeInputs>,
}

/// Builds the inputs of `workload` from `seed`.
///
/// # Errors
///
/// Any simulation or preparation failure, as text.
pub fn setup(workload: Workload, seed: u64, threads: usize) -> Result<Prepared, String> {
    Ok(Prepared {
        workload,
        seed,
        opamp: OpAmpTestbench::default_45nm(),
        adc: AdcTestbench::default_180nm(),
        estimate: match workload {
            Workload::Fuse => Some(EstimateInputs::build(seed, threads)?),
            _ => None,
        },
        merge: match workload {
            Workload::Fuse => Some(MergeInputs::build(seed, threads)?),
            _ => None,
        },
    })
}

impl Prepared {
    /// Runs op `i` at `threads` worker threads and checks its output.
    ///
    /// # Errors
    ///
    /// A failed call or a failed output check, as text.
    pub fn run_op(&self, i: usize, threads: usize) -> Result<OpOutput, String> {
        let op_seed = derive_seed(self.seed, self.workload.stream(), i as u64);
        match self.workload {
            Workload::OpampMc => mc_op(&self.opamp, op_seed, threads),
            Workload::AdcMc => mc_op(&self.adc, op_seed, threads),
            Workload::Fuse => {
                let estimate = self.estimate.as_ref().expect("fuse inputs built in setup");
                let merge = self.merge.as_ref().expect("fuse inputs built in setup");
                let mut parts = Vec::with_capacity(REQUESTS_PER_OP + merge.sets.len());
                let mut digest = Digest::default();
                for k in 0..REQUESTS_PER_OP {
                    let request = estimate.request(self.seed, i * REQUESTS_PER_OP + k);
                    let (est, report) = timed(&mut parts, || estimate.fuse(&request, threads))?;
                    check_moments(&est)?;
                    digest_moments(&mut digest, &est);
                    digest.word(report.fallback as u64);
                }
                for set in &merge.sets {
                    let (merged, est) = timed(&mut parts, || {
                        let merged = MergeInputs::merge(set)?;
                        let (est, _) = MergeInputs::fuse(&merged, threads)?;
                        Ok::<_, String>((merged, est))
                    })?;
                    set.check(&merged)?;
                    check_moments(&est)?;
                    digest_moments(&mut digest, &est);
                }
                Ok(OpOutput {
                    parts,
                    digest: digest.value(),
                    accuracy: None,
                })
            }
            Workload::Study => {
                let fig4 = paper_study(Circuit::Opamp, derive_seed(op_seed, 4, 0), threads)?;
                let fig5 = paper_study(Circuit::Adc, derive_seed(op_seed, 5, 0), threads)?;
                let mut digest = Digest::default();
                for outcome in [&fig4, &fig5] {
                    outcome.check()?;
                    outcome.digest(&mut digest);
                }
                Ok(OpOutput {
                    parts: [fig4.parts.as_slice(), &fig5.parts].concat(),
                    digest: digest.value(),
                    accuracy: Some(Accuracy {
                        opamp_cov: fig4.cost_reduction_n8(ErrorKind::Covariance),
                        adc_cov: fig5.cost_reduction_n8(ErrorKind::Covariance),
                        adc_mean: fig5.cost_reduction_n8(ErrorKind::Mean),
                    }),
                })
            }
        }
    }
}

fn text<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs `f` and appends its wall time to `parts`.
fn timed<R>(parts: &mut Vec<Duration>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let result = f();
    parts.push(t0.elapsed());
    result
}

/// One Monte Carlo op: both stages of `tb`, [`MC_DIES_PER_STAGE`] dies
/// each, seeded by `seed` — the two calls of `two_stage_study_seeded`,
/// timed one by one.
fn mc_op<T: Testbench>(tb: &T, seed: u64, threads: usize) -> Result<OpOutput, String> {
    let mut parts = Vec::with_capacity(2);
    let mut digest = Digest::default();
    for stage in [Stage::Schematic, Stage::PostLayout] {
        let data = timed(&mut parts, || {
            run_monte_carlo_seeded(tb, stage, MC_DIES_PER_STAGE, seed, threads)
        })
        .map_err(text("monte carlo"))?;
        check_stage(&data, tb.dim())?;
        digest.floats(data.nominal.as_slice());
        digest.floats(data.samples.as_slice());
    }
    Ok(OpOutput {
        parts,
        digest: digest.value(),
        accuracy: None,
    })
}

fn check_stage(stage: &StageData, d: usize) -> Result<(), String> {
    if stage.samples.shape() != (MC_DIES_PER_STAGE, d) {
        return Err(format!(
            "{} samples have shape {:?}, expected ({MC_DIES_PER_STAGE}, {d})",
            stage.stage,
            stage.samples.shape()
        ));
    }
    if !stage.samples.is_finite() || !stage.nominal.is_finite() {
        return Err(format!("{} samples are not all finite", stage.stage));
    }
    Ok(())
}

/// A fused estimate must be finite and symmetric with an SPD covariance.
fn check_moments(est: &MomentEstimate) -> Result<(), String> {
    est.validate().map_err(text("estimate"))?;
    Cholesky::new(&est.cov).map_err(text("estimated covariance is not SPD"))?;
    Ok(())
}

fn digest_moments(digest: &mut Digest, est: &MomentEstimate) {
    digest.floats(est.mean.as_slice());
    digest.floats(est.cov.as_slice());
}

/// The estimator's input format, from the simulator's.
fn study_to_data(study: &TwoStageStudy) -> TwoStageData {
    TwoStageData {
        metric_names: study.metric_names.iter().map(|s| s.to_string()).collect(),
        early_nominal: study.early.nominal.clone(),
        early_samples: study.early.samples.clone(),
        late_nominal: study.late.nominal.clone(),
        late_samples: study.late.samples.clone(),
    }
}

// ---------------------------------------------------------------------------
// estimate
// ---------------------------------------------------------------------------

/// Prepared (shifted and scaled) op-amp and ADC pools the estimate
/// requests subsample.
pub struct EstimateInputs {
    studies: Vec<PreparedStudy>,
}

/// One estimate request: which pool, which late rows, which CV seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateRequest {
    /// Index into the pools (0 op-amp, 1 ADC).
    pub circuit: usize,
    /// Distinct late-pool rows, `ESTIMATE_SIZES[(i / 2) % 3]` of them.
    pub rows: Vec<usize>,
    /// Root seed of the CV fold shuffles.
    pub cv_seed: u64,
}

impl EstimateInputs {
    /// Simulates and prepares both pools.
    ///
    /// # Errors
    ///
    /// Simulation or preparation failure, as text.
    pub fn build(seed: u64, threads: usize) -> Result<EstimateInputs, String> {
        let studies = Circuit::BOTH
            .iter()
            .enumerate()
            .map(|(c, circuit)| {
                let study = two_stage_study_seeded(
                    &circuit.testbench(),
                    ESTIMATE_POOL,
                    ESTIMATE_POOL,
                    derive_seed(seed, SETUP_STREAM, c as u64),
                    threads,
                )
                .map_err(text("estimate pool"))?;
                prepare(&study_to_data(&study)).map_err(text("estimate pool"))
            })
            .collect::<Result<_, _>>()?;
        Ok(EstimateInputs { studies })
    }

    /// Request `i` under workload seed `seed`: the circuit alternates
    /// every op and n rotates through [`ESTIMATE_SIZES`] every two.
    pub fn request(&self, seed: u64, i: usize) -> EstimateRequest {
        estimate_request(seed, i, ESTIMATE_POOL)
    }

    /// Runs the robust pipeline (guard → prior → CV → MAP → health) on
    /// the request's rows.
    ///
    /// # Errors
    ///
    /// A pipeline error, as text.
    pub fn fuse(
        &self,
        request: &EstimateRequest,
        threads: usize,
    ) -> Result<(MomentEstimate, FusionReport), String> {
        let study = &self.studies[request.circuit];
        let pool = &study.late_pool;
        let late = Matrix::from_fn(request.rows.len(), pool.ncols(), |r, j| {
            pool[(request.rows[r], j)]
        });
        RobustPipeline::new()
            .with_seed(request.cv_seed)
            .with_threads(threads)
            .estimate(&study.early_moments, &late)
            .map_err(text("robust pipeline"))
    }
}

/// See [`EstimateInputs::request`].
pub fn estimate_request(seed: u64, i: usize, pool: usize) -> EstimateRequest {
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(derive_seed(seed, Workload::Fuse.stream(), i as u64));
    let n = ESTIMATE_SIZES[(i / 2) % ESTIMATE_SIZES.len()];
    // Partial Fisher–Yates: n distinct rows without shuffling the pool.
    let mut rows: Vec<usize> = (0..pool).collect();
    for k in 0..n {
        let j = rng.gen_range(k..pool);
        rows.swap(k, j);
    }
    rows.truncate(n);
    EstimateRequest {
        circuit: i % 2,
        rows,
        cv_seed: rng.next_u64(),
    }
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

/// Pre-serialized shard packets of one study plus the moments of the same
/// study run in one process.
pub struct PacketSet {
    /// `(label, packet JSON)` pairs, as `bmf merge` reads them off disk.
    pub texts: Vec<(String, String)>,
    early: StageMoments,
    late: StageMoments,
}

/// A merged packet set and its finalized moments.
pub struct Merged {
    outcome: MergeOutcome,
    early: StageMoments,
    late: StageMoments,
}

/// One packet set per circuit.
pub struct MergeInputs {
    /// The sets merge requests alternate between.
    pub sets: Vec<PacketSet>,
}

impl MergeInputs {
    /// Shards each circuit's study into [`MERGE_SHARDS`] packets and runs
    /// it once more unsharded for the reference moments.
    ///
    /// # Errors
    ///
    /// Simulation or packet failure, as text.
    pub fn build(seed: u64, threads: usize) -> Result<MergeInputs, String> {
        let sets = Circuit::BOTH
            .iter()
            .enumerate()
            .map(|(c, circuit)| {
                let config = StudyConfig {
                    circuit: circuit.name().to_string(),
                    n_early: MERGE_EARLY,
                    n_late: MERGE_LATE,
                    shard_count: MERGE_SHARDS,
                    seed: derive_seed(seed, SETUP_STREAM, 16 + c as u64),
                    max_attempts: 100,
                    fault_rate: 0.0,
                };
                let texts = (0..MERGE_SHARDS)
                    .map(|k| {
                        let packet = run_shard(&config, k, threads).map_err(text("shard"))?;
                        Ok((format!("shard-{k}.json"), packet.to_json()))
                    })
                    .collect::<Result<_, String>>()?;
                let whole = two_stage_study_seeded(
                    &circuit.testbench(),
                    MERGE_EARLY,
                    MERGE_LATE,
                    config.seed,
                    threads,
                )
                .map_err(text("unsharded study"))?;
                let (early, late) = study_reference_stats(&whole);
                Ok(PacketSet {
                    texts,
                    early: early.moments().map_err(text("reference early"))?,
                    late: late.moments().map_err(text("reference late"))?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(MergeInputs { sets })
    }

    /// Parses, validates and reduces one packet set (the
    /// `merge_packet_texts` step of `bmf merge`).
    ///
    /// # Errors
    ///
    /// A packet or merge error, as text.
    pub fn merge(set: &PacketSet) -> Result<Merged, String> {
        let outcome =
            merge_packet_texts(&set.texts, &MergePolicy::default()).map_err(text("merge"))?;
        let early = outcome.early.moments().map_err(text("merged early"))?;
        let late = outcome.late.moments().map_err(text("merged late"))?;
        Ok(Merged {
            outcome,
            early,
            late,
        })
    }

    /// Normalizes the merged study as `bmf merge` does and fuses the
    /// sufficient statistics.
    ///
    /// # Errors
    ///
    /// A normalization or pipeline error, as text.
    pub fn fuse(merged: &Merged, threads: usize) -> Result<(MomentEstimate, FusionReport), String> {
        let (early, late) = normalized(merged)?;
        RobustPipeline::new()
            .with_threads(threads)
            .estimate_from_stats(&early, &late, Some(merged.outcome.coverage.clone()))
            .map_err(text("robust pipeline from stats"))
    }
}

impl PacketSet {
    /// The merge must be complete and its moments must equal the
    /// unsharded run's bit for bit.
    fn check(&self, merged: &Merged) -> Result<(), String> {
        if !merged.outcome.coverage.is_complete() {
            return Err("merge is missing shards".to_string());
        }
        for (stage, got, want) in [
            ("early", &merged.early, &self.early),
            ("late", &merged.late, &self.late),
        ] {
            let same = got.n == want.n
                && same_bits(got.mean.as_slice(), want.mean.as_slice())
                && same_bits(got.scatter.as_slice(), want.scatter.as_slice());
            if !same {
                return Err(format!(
                    "merged {stage} moments differ from the unsharded run"
                ));
            }
        }
        Ok(())
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The shift/scale of `bmf merge`: both stages centred on their nominal
/// and scaled by the early-stage σ; the late scatter scales like a
/// covariance.
fn normalized(merged: &Merged) -> Result<(MomentEstimate, SufficientStats), String> {
    let (early_m, late_m) = (&merged.early, &merged.late);
    if early_m.n < 2 {
        return Err(format!("need 2 merged early samples, got {}", early_m.n));
    }
    let nm1 = (early_m.n - 1) as f64;
    let d = early_m.mean.len();
    let early_sd = Vector::from_fn(d, |j| (early_m.scatter[(j, j)] / nm1).max(0.0).sqrt());
    let nominal = |stage: &bmf_circuits::shard::StageSuffStats| {
        ShiftScale::from_nominal_and_early_sd(&stage.nominal, &early_sd)
            .map_err(text("shift/scale"))
    };
    let early_t = nominal(&merged.outcome.early)?;
    let late_t = nominal(&merged.outcome.late)?;
    let early = early_t
        .apply_moments(&MomentEstimate {
            cov: &early_m.scatter / early_m.n as f64,
            mean: early_m.mean.clone(),
        })
        .map_err(text("shift/scale"))?;
    let late = SufficientStats {
        n: late_m.n,
        dropped: merged.outcome.late.dropped,
        mean: late_t
            .apply_vector(&late_m.mean)
            .map_err(text("shift/scale"))?,
        scatter: Matrix::from_fn(d, d, |i, j| {
            late_m.scatter[(i, j)] / (early_sd[i] * early_sd[j])
        }),
    };
    Ok((early, late))
}

// ---------------------------------------------------------------------------
// study
// ---------------------------------------------------------------------------

/// One figure run and where its time went.
pub struct StudyOutcome {
    /// The error sweep.
    pub result: SweepResult,
    /// Wall time of each call: the two Monte Carlo stages, `prepare`,
    /// then the sweep of each sample size.
    pub parts: Vec<Duration>,
}

/// Parts of a [`StudyOutcome`] before the sweep: the Monte Carlo of the
/// early and the late stage, then `prepare`.
const MC_PARTS: usize = 2;
const SWEEP_FROM: usize = MC_PARTS + 1;

/// The sweep of `fig4_opamp --quick` / `fig5_adc --quick`.
fn quick_sweep() -> SweepConfig {
    let mut config = SweepConfig::paper_default();
    config.repetitions = 15;
    config.sample_sizes = vec![8, 16, 32, 64, 128, 256];
    config
}

/// Runs the `--quick` figure flow of `circuit` with Monte Carlo seed
/// `mc_seed`: simulate both stages, prepare, sweep. Each stage and each
/// sample size of the sweep is a call of its own, so the op has short
/// parts to time; every row's repetitions draw from seeds of that row
/// alone, so the result is the one `fig4_opamp`/`fig5_adc` compute.
///
/// # Errors
///
/// Simulation or estimation failure, as text.
pub fn paper_study(circuit: Circuit, mc_seed: u64, threads: usize) -> Result<StudyOutcome, String> {
    let (tb, pool) = (circuit.testbench(), circuit.quick_pool());
    let mut parts = Vec::with_capacity(SWEEP_FROM + quick_sweep().sample_sizes.len());
    let mut mc = |stage| {
        timed(&mut parts, || {
            run_monte_carlo_seeded(&*tb, stage, pool, mc_seed, threads)
        })
        .map_err(text("study monte carlo"))
    };
    let study = TwoStageStudy {
        metric_names: tb.metric_names(),
        early: mc(Stage::Schematic)?,
        late: mc(Stage::PostLayout)?,
    };
    let prepared =
        timed(&mut parts, || prepare(&study_to_data(&study))).map_err(text("prepare"))?;
    let result = sweep_by_size(&prepared, &quick_sweep(), threads, &mut parts)?;
    Ok(StudyOutcome { result, parts })
}

/// `run_error_sweep_parallel` one sample size at a time, timing each.
fn sweep_by_size(
    prepared: &PreparedStudy,
    config: &SweepConfig,
    threads: usize,
    parts: &mut Vec<Duration>,
) -> Result<SweepResult, String> {
    let mut rows = Vec::with_capacity(config.sample_sizes.len());
    for &n in &config.sample_sizes {
        let one = SweepConfig {
            sample_sizes: vec![n],
            ..config.clone()
        };
        let row = timed(parts, || run_error_sweep_parallel(prepared, &one, threads))
            .map_err(text("sweep"))?;
        rows.extend(row.rows);
    }
    Ok(SweepResult { rows })
}

impl StudyOutcome {
    /// Time in the Monte Carlo.
    pub fn mc(&self) -> Duration {
        self.parts[..MC_PARTS].iter().sum()
    }

    /// Time in `prepare`.
    pub fn prepare(&self) -> Duration {
        self.parts[MC_PARTS]
    }

    /// Time in the error sweep.
    pub fn sweep(&self) -> Duration {
        self.parts[SWEEP_FROM..].iter().sum()
    }

    /// Cost reduction at n = 8 (the first sweep row). Infinite when BMF
    /// at n = 8 beats MLE at the largest n swept.
    pub fn cost_reduction_n8(&self, kind: ErrorKind) -> f64 {
        cost_reduction(&self.result, kind)[0].1
    }

    /// Every sweep value finite, and BMF beating MLE on the covariance at
    /// n = 8 — the paper's claim.
    fn check(&self) -> Result<(), String> {
        let finite = self.result.rows.iter().all(|r| {
            [
                r.mle_mean_err,
                r.bmf_mean_err,
                r.mle_cov_err,
                r.bmf_cov_err,
                r.mean_kappa0,
                r.mean_nu0,
            ]
            .iter()
            .all(|x| x.is_finite())
        });
        if !finite {
            return Err("sweep produced a non-finite error".to_string());
        }
        let cov = self.cost_reduction_n8(ErrorKind::Covariance);
        if cov.is_nan() || cov <= 1.0 {
            return Err(format!(
                "covariance cost reduction at n = 8 is {cov}, not above 1"
            ));
        }
        Ok(())
    }

    fn digest(&self, digest: &mut Digest) {
        for r in &self.result.rows {
            digest.word(r.n as u64);
            digest.floats(&[
                r.mle_mean_err,
                r.bmf_mean_err,
                r.mle_cov_err,
                r.bmf_cov_err,
                r.mean_kappa0,
                r.mean_nu0,
            ]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(w.span(), format!("bench.{}", w.name()));
        }
        assert_eq!(Workload::parse("estimate"), None);
    }

    #[test]
    fn estimate_requests_are_deterministic_per_seed_and_distinct_across_seeds() {
        for i in 0..12 {
            let a = estimate_request(7, i, ESTIMATE_POOL);
            assert_eq!(a, estimate_request(7, i, ESTIMATE_POOL));
            assert_ne!(a, estimate_request(8, i, ESTIMATE_POOL));
            assert_eq!(a.rows.len(), ESTIMATE_SIZES[(i / 2) % 3]);
            assert_eq!(a.circuit, i % 2);
            let mut rows = a.rows.clone();
            rows.sort_unstable();
            rows.dedup();
            assert_eq!(rows.len(), a.rows.len(), "rows must be distinct");
            assert!(rows.iter().all(|&r| r < ESTIMATE_POOL));
        }
    }

    #[test]
    fn op_seeds_differ_across_workloads_ops_and_seeds() {
        let mut seeds: Vec<u64> = Vec::new();
        for w in Workload::ALL {
            for seed in [1, 2] {
                for i in 0..4 {
                    seeds.push(derive_seed(seed, w.stream(), i));
                }
            }
            seeds.push(derive_seed(1, SETUP_STREAM, w as u64));
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
    }

    /// Sweeping one sample size at a time reproduces the one-call sweep
    /// bit for bit.
    #[test]
    fn sweep_by_size_matches_the_whole_sweep() {
        let study = two_stage_study_seeded(&AdcTestbench::default_180nm(), 60, 60, 9, 1).unwrap();
        let prepared = prepare(&study_to_data(&study)).unwrap();
        let mut config = quick_sweep();
        config.repetitions = 3;
        config.sample_sizes = vec![8, 16, 32];
        let mut parts = Vec::new();
        let split = sweep_by_size(&prepared, &config, 1, &mut parts).unwrap();
        assert_eq!(parts.len(), 3);
        let whole = run_error_sweep_parallel(&prepared, &config, 1).unwrap();
        let mut a = Digest::default();
        let mut b = Digest::default();
        StudyOutcome {
            result: split,
            parts: Vec::new(),
        }
        .digest(&mut a);
        StudyOutcome {
            result: whole,
            parts: Vec::new(),
        }
        .digest(&mut b);
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn merge_inputs_are_deterministic_per_seed_and_distinct_across_seeds() {
        let a = MergeInputs::build(3, 1).unwrap();
        let b = MergeInputs::build(3, 2).unwrap();
        let c = MergeInputs::build(4, 1).unwrap();
        assert_eq!(a.sets.len(), 2);
        for ((x, y), z) in a.sets.iter().zip(&b.sets).zip(&c.sets) {
            assert_eq!(x.texts, y.texts);
            assert_ne!(x.texts, z.texts);
            assert_eq!(x.texts.len(), MERGE_SHARDS);
        }
    }
}
