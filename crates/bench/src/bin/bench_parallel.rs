//! Wall-clock scaling benchmark for the deterministic parallel execution
//! layer, emitting machine-readable `BENCH_parallel.json`.
//!
//! Three of the tracked stages (see [`bmf_bench::stages`]) are timed at
//! several thread counts:
//!
//! 1. **cv_select_default_grid** — `CrossValidation` (12×12
//!    grid, Q = 4, 8 repeats) via `CrossValidation::select_seeded`.
//! 2. **monte_carlo_opamp** — seeded Monte Carlo on the 45 nm op-amp
//!    testbench.
//! 3. **error_sweep_adc** — repetition-parallel error sweep over a
//!    prepared flash-ADC study.
//!
//! Every stage is bit-identical across thread counts (asserted here), so
//! the numbers measure pure wall-clock scaling. `speedup_vs_1` saturates
//! at the machine's available parallelism — the committed JSON records
//! `available_parallelism`, and every cell whose thread count exceeds the
//! detected cores carries `"oversubscribed": true` so regression tooling
//! and the dashboard never read saturated numbers as scaling data.
//!
//! The CV stage additionally carries a **scaling gate**: when the machine
//! really has ≥ 2 cores, scoring at 2 threads must beat 1 thread
//! (`speedup_vs_1 > 1`). The gate is recorded in the JSON and enforced
//! (non-zero exit) in full runs; on 1-core hardware it is vacuous, since
//! every multi-threaded cell is oversubscribed.
//!
//! Usage: `cargo run --release -p bmf-bench --bin bench_parallel
//!         [--quick] [--out <path>]`
//!
//! The default output path is `BENCH_parallel.json` in the current
//! directory; `--quick` shrinks the workloads for a CI smoke run.
//! Single-thread-count history tracking (with the regression gate) lives
//! in the `bench_history` bin, which times the same stages.

use bmf_bench::stages::Workloads;
use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
use bmf_core::cv::CrossValidation;
use bmf_core::parallel::available_threads;
use bmf_obs::cli::{self, Grammar, ObsOptions};

/// One timed (stage, thread-count) cell.
struct Cell {
    threads: usize,
    seconds: f64,
    /// More worker threads than detected cores: the timing measures
    /// scheduler contention, not parallel scaling.
    oversubscribed: bool,
}

fn speedup_vs_1(cells: &[Cell], threads: usize) -> f64 {
    let base = cells
        .iter()
        .find(|c| c.threads == 1)
        .map_or(f64::NAN, |c| c.seconds);
    cells
        .iter()
        .find(|c| c.threads == threads)
        .map_or(f64::NAN, |c| base / c.seconds)
}

fn json_stage(name: &str, cells: &[Cell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "      {{\"threads\": {}, \"seconds\": {:.6}, \"speedup_vs_1\": {:.3}, \
                 \"oversubscribed\": {}}}",
                c.threads,
                c.seconds,
                speedup_vs_1(cells, c.threads),
                c.oversubscribed
            )
        })
        .collect();
    format!("    \"{name}\": [\n{}\n    ]", rows.join(",\n"))
}

fn main() {
    let grammar = Grammar::new("--out", "--quick", "");
    let parsed = cli::parse(std::env::args(), &grammar, &[]).and_then(|args| {
        let obs = ObsOptions::from_args(&args)?;
        obs.start(1)?;
        Ok((args, obs))
    });
    let (args, obs) = parsed.unwrap_or_else(|e| e.exit("bench_parallel"));
    let quick = args.switch("--quick");
    let out_path = args.value("--out").unwrap_or("BENCH_parallel.json");

    let avail = available_threads();
    let mut thread_counts = vec![1usize, 2, 4];
    if avail > 4 {
        thread_counts.push(avail);
    }
    // Hardware context in the same shape the bmf_obs exporters embed, so
    // committed benchmark numbers stay interpretable across machines.
    let hardware = bmf_obs::HardwareContext::detect(*thread_counts.iter().max().unwrap_or(&1));
    let cores = hardware.detected_cores;
    let runs = if quick { 1 } else { 3 };
    obs.set_run(6, &format!("bench_parallel quick={quick}"));
    bmf_obs::info!(
        "bench_parallel: threads = {thread_counts:?}, available parallelism = {avail}, \
         best of {runs} run(s)/cell{}",
        if quick { " (quick)" } else { "" }
    );

    let w = Workloads::prepare(quick, avail);

    // Stage 1: default-grid CV selection.
    let reference = CrossValidation
        .select_seeded(&w.cv_early, &w.cv_late, 6, 1)
        .expect("cv select");
    let mut cv_cells = Vec::new();
    for &t in &thread_counts {
        let sel = CrossValidation
            .select_seeded(&w.cv_early, &w.cv_late, 6, t)
            .expect("cv select");
        assert_eq!(
            sel, reference,
            "CV selection must be bit-identical at {t} threads"
        );
        let seconds = w.time_stage("cv_select_default_grid", t, runs);
        let oversubscribed = cores != 0 && t > cores;
        bmf_obs::info!(
            "  cv_select_default_grid  threads={t:<2} {seconds:.4}s{}",
            if oversubscribed {
                " (oversubscribed)"
            } else {
                ""
            }
        );
        cv_cells.push(Cell {
            threads: t,
            seconds,
            oversubscribed,
        });
    }

    // Stage 2: seeded Monte Carlo on the op-amp.
    let mc_reference =
        run_monte_carlo_seeded(&w.opamp, Stage::Schematic, w.mc_n, 45, 1).expect("monte carlo");
    let mut mc_cells = Vec::new();
    for &t in &thread_counts {
        let data =
            run_monte_carlo_seeded(&w.opamp, Stage::Schematic, w.mc_n, 45, t).expect("monte carlo");
        assert_eq!(
            data.samples, mc_reference.samples,
            "Monte Carlo must be bit-identical at {t} threads"
        );
        let seconds = w.time_stage("monte_carlo_opamp", t, runs);
        bmf_obs::info!("  monte_carlo_opamp       threads={t:<2} {seconds:.4}s");
        mc_cells.push(Cell {
            threads: t,
            seconds,
            oversubscribed: cores != 0 && t > cores,
        });
    }

    // Stage 3: repetition-parallel error sweep on the ADC.
    let mut sweep_cells = Vec::new();
    for &t in &thread_counts {
        let seconds = w.time_stage("error_sweep_adc", t, runs);
        bmf_obs::info!("  error_sweep_adc         threads={t:<2} {seconds:.4}s");
        sweep_cells.push(Cell {
            threads: t,
            seconds,
            oversubscribed: cores != 0 && t > cores,
        });
    }

    // CV scaling gate: with ≥ 2 real cores, the one-task-per-repeat
    // work split must make 2 threads beat 1. On 1-core hardware the
    // 2-thread cell is oversubscribed and the gate is vacuous — a
    // saturated timing says nothing about the work split.
    let cv_speedup_2 = speedup_vs_1(&cv_cells, 2);
    let gate_required = cv_cells.iter().any(|c| c.threads == 2 && !c.oversubscribed) && cores >= 2;
    let gate_passed = !gate_required || cv_speedup_2 > 1.0;
    bmf_obs::info!(
        "  cv scaling gate: speedup_vs_1(2 threads) = {cv_speedup_2:.3} \
         ({}{})",
        if gate_required { "required" } else { "vacuous" },
        if gate_passed { ", passed" } else { ", FAILED" }
    );

    let thread_list: Vec<String> = thread_counts.iter().map(usize::to_string).collect();
    let json = format!(
        "{{\n  \"available_parallelism\": {avail},\n  \"hardware\": {{{}}},\n  \
         \"quick\": {quick},\n  \
         \"thread_counts\": [{}],\n  \"stages\": {{\n{},\n{},\n{}\n  }},\n  \
         \"cv_scaling_gate\": {{\"required\": {gate_required}, \"threads\": 2, \
         \"speedup_vs_1\": {cv_speedup_2:.3}, \"passed\": {gate_passed}}},\n  \
         \"note\": \"all stages asserted bit-identical across thread counts; \
         speedup_vs_1 saturates at available_parallelism; oversubscribed cells \
         (threads > detected_cores) are not scaling data\"\n}}\n",
        hardware.json_fields(),
        thread_list.join(", "),
        json_stage("cv_select_default_grid", &cv_cells),
        json_stage("monte_carlo_opamp", &mc_cells),
        json_stage("error_sweep_adc", &sweep_cells),
    );
    if let Err(e) = bmf_obs::atomic_write(out_path, &json) {
        bmf_obs::error!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    bmf_obs::info!("wrote {out_path}");
    if let Err(e) = obs.finish() {
        bmf_obs::error!("failed to write observability output: {e}");
        std::process::exit(1);
    }
    // Enforce the gate in full runs only: --quick is the CI smoke mode,
    // where a shared runner's noisy 2-thread cell must not flake the job
    // (the gate verdict is still recorded in the JSON above).
    if !quick && !gate_passed {
        bmf_obs::error!(
            "bench_parallel: FAIL: cv_select_default_grid does not scale \
             (speedup_vs_1 at 2 threads = {cv_speedup_2:.3} <= 1.0 on a {cores}-core machine)"
        );
        std::process::exit(1);
    }
}
