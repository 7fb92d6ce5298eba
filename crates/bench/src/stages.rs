//! The tracked benchmark stages, shared between `bench_parallel` (scaling
//! study) and `bench_history` (continuous regression tracking).
//!
//! Both bins must time *the same* workloads or the committed history is
//! meaningless, so the workload construction and the timing harness live
//! here. The tracked stages mirror the pipeline's hot paths:
//!
//! 1. **cv_select_default_grid** — `CrossValidation` (12×12
//!    grid, Q = 4, 8 repeats) on a synthetic d = 5 problem, in seconds.
//! 2. **cv_candidate_throughput** — the same selection reported as
//!    feasible candidates scored per second (higher is better; the
//!    regression gate inverts its direction for `_throughput` stages).
//! 3. **monte_carlo_opamp** — seeded Monte Carlo on the 45 nm op-amp.
//! 4. **error_sweep_adc** — repetition-parallel error sweep over a
//!    prepared flash-ADC study.
//! 5. **shard_merge_overhead** — parse + validate + reduce + finalize of
//!    a pre-built 7-shard packet set (`bmf_circuits::shard`), the fixed
//!    cost `bmf merge` adds over the single-process study.
//!
//! Every stage is bit-identical across thread counts, so the timings
//! measure pure wall-clock.

use crate::study_to_data;
use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, two_stage_study_seeded, Stage};
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_circuits::shard::{merge_packet_texts, run_shard, MergePolicy, StudyConfig};
use bmf_core::cv::CrossValidation;
use bmf_core::experiment::{prepare, run_error_sweep_parallel, PreparedStudy, SweepConfig};
use bmf_core::MomentEstimate;
use bmf_linalg::{Matrix, Vector};
use bmf_stats::MultivariateNormal;
use rand::SeedableRng;
use std::time::Instant;

/// Names of the tracked stages, in the order they are run and recorded.
/// `BENCH_history.json` entries key their values by these names — do not
/// rename without migrating the committed history. Stages named
/// `*_throughput` record work/second (higher is better); all others
/// record seconds (lower is better).
pub const STAGE_NAMES: [&str; 5] = [
    "cv_select_default_grid",
    "cv_candidate_throughput",
    "monte_carlo_opamp",
    "error_sweep_adc",
    "shard_merge_overhead",
];

/// Whether a stage records a rate (higher is better) rather than a
/// duration (lower is better). Regression tooling must invert its
/// slower-than-baseline test for these stages.
#[must_use]
pub fn higher_is_better(stage: &str) -> bool {
    stage.ends_with("_throughput")
}

/// Times `f` as the best of `runs` after one warm-up call.
pub fn time_best_of<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Deterministic synthetic early moments + late samples for the CV stage
/// (a well-conditioned d-dimensional SPD covariance, seed fixed).
pub fn synthetic_late(d: usize, n: usize) -> (MomentEstimate, Matrix) {
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
    let samples = truth.sample_matrix(&mut rng, n);
    (early, samples)
}

/// The prepared inputs for every tracked stage. Construction is seeded
/// and thread-count invariant; `quick` shrinks the workloads for CI.
pub struct Workloads {
    /// Synthetic early moments for the CV stage.
    pub cv_early: MomentEstimate,
    /// Synthetic late samples for the CV stage.
    pub cv_late: Matrix,
    /// Monte Carlo sample count for the op-amp stage.
    pub mc_n: usize,
    /// The op-amp testbench the Monte Carlo stage simulates.
    pub opamp: OpAmpTestbench,
    /// Prepared flash-ADC study for the error-sweep stage.
    pub prepared: PreparedStudy,
    /// Sweep configuration for the error-sweep stage.
    pub sweep: SweepConfig,
    /// Pre-serialized 7-shard packet set for the merge-overhead stage,
    /// as the `(label, text)` pairs `bmf merge` reads off disk.
    pub packets: Vec<(String, String)>,
}

impl Workloads {
    /// Builds the workload inputs. `setup_threads` only parallelises the
    /// one-off ADC study generation; it does not affect the timed work.
    pub fn prepare(quick: bool, setup_threads: usize) -> Self {
        let cv_n = if quick { 32 } else { 64 };
        let (cv_early, cv_late) = synthetic_late(5, cv_n);
        let mc_n = if quick { 300 } else { 2000 };
        let (pool, reps) = if quick { (200, 4) } else { (600, 16) };
        let adc = AdcTestbench::default_180nm();
        let study = two_stage_study_seeded(&adc, pool, pool, 180, setup_threads).expect("study");
        let prepared = prepare(&study_to_data(&study)).expect("prepare");
        let sweep = SweepConfig {
            sample_sizes: vec![8, 16],
            repetitions: reps,
            seed: 3,
        };
        let shard_config = StudyConfig {
            circuit: "opamp".to_string(),
            n_early: if quick { 70 } else { 280 },
            n_late: if quick { 21 } else { 84 },
            shard_count: 7,
            seed: 2015,
            max_attempts: 25,
            fault_rate: 0.0,
        };
        let packets = (0..shard_config.shard_count)
            .map(|i| {
                let packet = run_shard(&shard_config, i, setup_threads).expect("shard");
                (format!("shard-{i}.json"), packet.to_json())
            })
            .collect();
        Workloads {
            cv_early,
            cv_late,
            mc_n,
            opamp: OpAmpTestbench::default_45nm(),
            prepared,
            sweep,
            packets,
        }
    }

    /// Runs one tracked stage once at `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics on an unknown stage name or a workload failure (these are
    /// fixed, known-good inputs — failure is a bug, not an input error).
    pub fn run(&self, stage: &str, threads: usize) {
        match stage {
            "cv_select_default_grid" | "cv_candidate_throughput" => {
                CrossValidation
                    .select_seeded(&self.cv_early, &self.cv_late, 6, threads)
                    .expect("cv select");
            }
            "monte_carlo_opamp" => {
                run_monte_carlo_seeded(&self.opamp, Stage::Schematic, self.mc_n, 45, threads)
                    .expect("monte carlo");
            }
            "error_sweep_adc" => {
                run_error_sweep_parallel(&self.prepared, &self.sweep, threads).expect("sweep");
            }
            "shard_merge_overhead" => {
                // Merge is the serial reduction `bmf merge` performs:
                // parse + checksum + compatibility checks + exact-sum
                // reduce + moment finalize. `threads` is deliberately
                // unused — the stage tracks the fixed per-merge cost.
                let outcome =
                    merge_packet_texts(&self.packets, &MergePolicy::default()).expect("merge");
                outcome.early.moments().expect("early moments");
                outcome.late.moments().expect("late moments");
            }
            other => panic!("unknown benchmark stage {other:?}"),
        }
    }

    /// Best-of-`runs` wall-clock of one stage at `threads` threads.
    pub fn time_stage(&self, stage: &str, threads: usize, runs: usize) -> f64 {
        time_best_of(runs, || self.run(stage, threads))
    }

    /// Number of feasible `(κ₀, ν₀)` candidates the CV stages score per
    /// select call (the numerator of `cv_candidate_throughput`).
    pub fn cv_feasible_candidates(&self) -> usize {
        CrossValidation.feasible_candidate_count(self.cv_early.mean.len())
    }

    /// The recorded value of one stage: seconds for duration stages,
    /// candidates/second for `cv_candidate_throughput` (see
    /// [`higher_is_better`]).
    pub fn stage_value(&self, stage: &str, threads: usize, runs: usize) -> f64 {
        let seconds = self.time_stage(stage, threads, runs);
        if stage == "cv_candidate_throughput" {
            self.cv_feasible_candidates() as f64 / seconds
        } else {
            seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workloads_build_and_run_the_cheap_stage() {
        // The CV-heavy stages (full 12×12 default grid) are only
        // exercised in release builds (`bench_history --quick` in CI);
        // under the debug test profile we build all inputs and run the
        // Monte Carlo stage.
        let w = Workloads::prepare(true, 2);
        assert_eq!(w.prepared.late_pool.ncols(), 5);
        w.run("monte_carlo_opamp", 2);
        assert_eq!(w.packets.len(), 7);
        w.run("shard_merge_overhead", 1);
    }

    #[test]
    fn throughput_stage_direction_and_candidate_count() {
        assert!(higher_is_better("cv_candidate_throughput"));
        assert!(STAGE_NAMES
            .iter()
            .filter(|s| !s.ends_with("_throughput"))
            .all(|s| !higher_is_better(s)));
        let w = Workloads::prepare(true, 2);
        // Default 12×12 grid at d = 5: 9 feasible ν₀ values × 12 κ₀.
        assert_eq!(w.cv_feasible_candidates(), 108);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark stage")]
    fn unknown_stage_panics() {
        let w = Workloads::prepare(true, 2);
        w.run("nope", 1);
    }
}
