//! Per-layer probes: fixed-size runs of each layer's public calls, each
//! call inside a `bench.<layer>` span so the program's own spans and
//! counters nest under it in the trace.
//!
//! The simulator has no spans below the Monte Carlo loop, so its layers
//! are timed from outside: the op-amp's variation draw, bias, netlist
//! and AC solve, and the ADC's sine, FFT and spectrum, each called the
//! way one die calls them. What a die spends beyond those calls is its
//! measurement search (op-amp) or conversion (ADC); exact solve counts
//! per die need counters inside `bmf_circuits`, so
//! `mna.solves_per_die_est` is an estimate.

use crate::measure::median;
use crate::workloads::{
    paper_study, Circuit, EstimateInputs, MergeInputs, StudyOutcome, REQUESTS_PER_OP,
};
use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::fft::fft_real;
use bmf_circuits::mna::AcAnalysis;
use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
use bmf_circuits::mosfet::{DeviceVariation, Mosfet, Polarity, SmallSignal, TechnologyParams};
use bmf_circuits::netlist::Netlist;
use bmf_circuits::opamp::{OpAmpDesign, OpAmpTestbench};
use bmf_circuits::spectrum::{analyze, coherent_sine};
use bmf_circuits::variation::VariationModel;
use bmf_core::experiment::ErrorKind;
use bmf_core::pipeline::{FallbackLevel, StageTimings};
use bmf_obs::counters;
use bmf_stats::parallel::derive_seed;
use bmf_stats::sample_standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seed stream of the probes' own random draws.
const PROBE_STREAM: u64 = 0xBEA0;

/// Dies per Monte Carlo batch in the overhead probe.
const MC_BATCH: usize = 200;

/// Largest cost reduction a quick sweep can show at n = 8: MLE's largest
/// n (256) over 8. An infinite ratio is reported as this bound.
const CR_RANGE: f64 = 32.0;

/// Mean wall time per call, in µs, in the fastest of 20 batches: like
/// the end-to-end latency, the layer's cost when nothing outside the
/// process gets in the way.
fn per_call_us<T>(span: &'static str, calls: usize, mut call: impl FnMut(usize) -> T) -> f64 {
    let batches = calls.clamp(1, 20);
    let per_batch = (calls / batches).max(1);
    let mut fastest = f64::INFINITY;
    for b in 0..batches {
        let t0 = Instant::now();
        for k in 0..per_batch {
            let _span = bmf_obs::span(span);
            black_box(call(black_box(b * per_batch + k)));
        }
        fastest = fastest.min(t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    fastest
}

fn rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, PROBE_STREAM, index))
}

/// The op-amp's eight devices, in the order its simulation biases them.
struct OpAmpDevices {
    design: OpAmpDesign,
    input: Mosfet,
    load: Mosfet,
    tail: Mosfet,
    stage2: Mosfet,
    src2: Mosfet,
}

impl OpAmpDevices {
    fn new(tb: &OpAmpTestbench) -> OpAmpDevices {
        let d = *tb.design();
        let (n, p) = (TechnologyParams::nmos_45nm(), TechnologyParams::pmos_45nm());
        OpAmpDevices {
            design: d,
            input: Mosfet::new(Polarity::Pmos, p, d.geom_input),
            load: Mosfet::new(Polarity::Nmos, n, d.geom_load),
            tail: Mosfet::new(Polarity::Pmos, p, d.geom_tail),
            stage2: Mosfet::new(Polarity::Nmos, n, d.geom_stage2),
            src2: Mosfet::new(Polarity::Pmos, p, d.geom_src2),
        }
    }

    /// Global draw plus one local draw per device (M1..M8).
    fn draw(&self, var: &VariationModel, rng: &mut StdRng) -> [DeviceVariation; 8] {
        let d = &self.design;
        let global = var.sample_global(rng);
        [
            d.geom_input,
            d.geom_input,
            d.geom_load,
            d.geom_load,
            d.geom_tail,
            d.geom_stage2,
            d.geom_src2,
            d.geom_tail,
        ]
        .map(|g| var.sample_device(rng, &global, &g))
    }

    /// The eight `bias_with_current` calls of one die: two mirror
    /// references, then M1..M4, M6, M7.
    fn bias(&self, m: &[DeviceVariation; 8]) -> Option<[SmallSignal; 8]> {
        let d = &self.design;
        let i_tail = d.iref * d.ratio_tail;
        let i6 = d.iref * d.ratio_stage2;
        let id1 = 0.5 * i_tail;
        Some([
            self.tail.bias_with_current(i_tail, 0.3, &m[7]).ok()?,
            self.src2.bias_with_current(i6, 0.3, &m[7]).ok()?,
            self.input.bias_with_current(id1, 0.4 * d.vdd, &m[0]).ok()?,
            self.input.bias_with_current(id1, 0.4 * d.vdd, &m[1]).ok()?,
            self.load.bias_with_current(id1, 0.3 * d.vdd, &m[2]).ok()?,
            self.load.bias_with_current(id1, 0.3 * d.vdd, &m[3]).ok()?,
            self.stage2.bias_with_current(i6, 0.5 * d.vdd, &m[5]).ok()?,
            self.src2.bias_with_current(i6, 0.5 * d.vdd, &m[6]).ok()?,
        ])
    }

    /// The small-signal netlist of one die: `Netlist::new(5)` and its
    /// nine stamps.
    fn netlist(&self, ss: &[SmallSignal; 8]) -> Option<Netlist> {
        let d = &self.design;
        let [_, _, m1, m2, _, m4, m6, m7] = ss;
        let mut nl = Netlist::new(5);
        nl.voltage_source(1, 0, 1.0).ok()?;
        nl.vccs(2, 0, 1, 0, 0.5 * (m1.gm + m2.gm)).ok()?;
        nl.resistor(2, 0, 1.0 / (m2.gds + m4.gds)).ok()?;
        nl.capacitor(2, 0, m6.cgs + m4.cgd + m2.cgd).ok()?;
        nl.vccs(3, 0, 2, 0, m6.gm).ok()?;
        nl.resistor(3, 0, 1.0 / (m6.gds + m7.gds)).ok()?;
        nl.capacitor(3, 0, d.cl + m6.cgd + m7.cgd).ok()?;
        nl.capacitor(2, 4, d.cc).ok()?;
        nl.resistor(4, 3, d.rz).ok()?;
        Some(nl)
    }
}

/// Inputs of the pipeline and merge probes. Build them before tracing
/// starts: shard packets written while recording carry telemetry, which
/// makes them several times larger than the packets `bmf merge` reads.
pub struct ProbeInputs {
    estimate: EstimateInputs,
    merge: MergeInputs,
}

impl ProbeInputs {
    /// Simulates the estimate pools and shards the merge studies.
    ///
    /// # Errors
    ///
    /// Simulation or packet failure, as text.
    pub fn build(seed: u64) -> Result<ProbeInputs, String> {
        Ok(ProbeInputs {
            estimate: EstimateInputs::build(derive_seed(seed, PROBE_STREAM, 4), 1)?,
            merge: MergeInputs::build(derive_seed(seed, PROBE_STREAM, 5), 1)?,
        })
    }
}

/// Runs every probe with `calls` calls per layer (fewer for the
/// millisecond-scale pipeline, merge and study calls) and returns the
/// per-layer metrics except `trace_overhead_frac`, which needs the
/// workload loop.
///
/// # Errors
///
/// A failure in a probe whose inputs are known to be good, as text.
pub fn probe(
    seed: u64,
    inputs: &ProbeInputs,
    calls: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let calls = calls.max(1);

    // --- op-amp layers ----------------------------------------------------
    let tb = OpAmpTestbench::default_45nm();
    let dev = OpAmpDevices::new(&tb);
    let mut r = rng(seed, 0);
    let dies: Vec<[DeviceVariation; 8]> =
        (0..64).map(|_| dev.draw(tb.variation(), &mut r)).collect();
    let nominal = dev
        .bias(&[DeviceVariation::default(); 8])
        .ok_or("nominal op-amp bias failed")?;
    let nl = dev
        .netlist(&nominal)
        .ok_or("nominal op-amp netlist failed")?;
    let ac = AcAnalysis::new(&nl);
    let omegas: Vec<f64> = (0..64)
        .map(|k| 2.0 * std::f64::consts::PI * 10f64.powf(12.0 * k as f64 / 63.0))
        .collect();
    if ac.transfer(3, 0.0).map_err(|e| e.to_string())?.abs() <= 1.0 {
        return Err("nominal op-amp has no DC gain".to_string());
    }

    let draw = per_call_us("bench.variation", calls, |_| {
        dev.draw(tb.variation(), &mut r)
    });
    let bias = per_call_us("bench.mosfet", calls, |k| dev.bias(&dies[k % dies.len()]));
    let build = per_call_us("bench.netlist", calls, |_| dev.netlist(black_box(&nominal)));
    let transfer = per_call_us("bench.mna", calls, |k| {
        ac.transfer(3, omegas[k % omegas.len()])
    });
    let mut r = rng(seed, 1);
    let die = per_call_us("bench.opamp", calls, |_| {
        tb.sample_performance(Stage::Schematic, &mut r)
    });
    let measure = die - draw - bias - build;
    out.extend([
        ("variation.draw_us", draw),
        ("mosfet.bias_us", bias),
        ("netlist.build_us", build),
        ("mna.transfer_us", transfer),
        ("opamp.die_us", die),
        ("opamp.measure_share", measure / die),
        ("mna.solves_per_die_est", measure / transfer),
    ]);

    // --- ADC layers ---------------------------------------------------------
    let adc = AdcTestbench::default_180nm();
    let ad = *adc.design();
    let levels = 1usize << ad.bits;
    let sine = || {
        coherent_sine(
            ad.record_len,
            ad.signal_bin,
            0.49 * ad.vref,
            0.5 * ad.vref,
            0.3,
        )
    };
    let codes: Vec<f64> = sine()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|x| {
            let code = (x / ad.vref * levels as f64)
                .floor()
                .clamp(0.0, (levels - 1) as f64);
            (code + 0.5) / levels as f64 * ad.vref
        })
        .collect();
    analyze(&codes, ad.signal_bin).map_err(|e| e.to_string())?;
    let var180 = VariationModel::nominal_180nm();
    let mut r = rng(seed, 2);
    // The ADC's own draw: one global draw plus a normal per comparator
    // offset and per ladder segment.
    let adc_draw = per_call_us("bench.variation", calls, |_| {
        let global = var180.sample_global(&mut r);
        let local: f64 = (0..adc.comparator_count() + levels)
            .map(|_| sample_standard_normal(&mut r))
            .sum();
        (global, local)
    });
    let sine_us = per_call_us("bench.spectrum", calls, |_| sine());
    let fft_us = per_call_us("bench.fft", calls, |_| fft_real(&codes));
    let analyze_us = per_call_us("bench.spectrum", calls, |_| analyze(&codes, ad.signal_bin));
    let mut r = rng(seed, 3);
    let adc_die = per_call_us("bench.adc", calls, |_| {
        adc.sample_performance(Stage::Schematic, &mut r)
    });
    out.extend([
        ("adc.die_us", adc_die),
        (
            "adc.convert_share",
            (adc_die - adc_draw - sine_us - analyze_us) / adc_die,
        ),
        ("spectrum.sine_us", sine_us),
        ("fft.real_us", fft_us),
        ("spectrum.analyze_us", analyze_us),
    ]);

    // --- Monte Carlo loop ---------------------------------------------------
    let before = bmf_obs::metrics::snapshot();
    let mut batch_us = Vec::new();
    for b in 0..(calls / MC_BATCH).max(2) {
        let _span = bmf_obs::span("bench.monte_carlo");
        let t0 = Instant::now();
        run_monte_carlo_seeded(
            &tb,
            Stage::Schematic,
            MC_BATCH,
            derive_seed(seed, PROBE_STREAM, 16 + b as u64),
            1,
        )
        .map_err(|e| e.to_string())?;
        batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let after = bmf_obs::metrics::snapshot();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let sims = delta(counters::MONTE_CARLO_SIMS.name());
    let retries = delta(counters::MONTE_CARLO_RETRIES.name());
    let batch = batch_us.iter().copied().fold(f64::INFINITY, f64::min);
    out.extend([
        (
            "monte_carlo.overhead_share",
            (batch - MC_BATCH as f64 * die) / batch,
        ),
        ("monte_carlo.attempts_per_die", (sims + retries) / sims),
    ]);

    // --- fusion pipeline on samples ---------------------------------------
    let mut stages = Vec::new();
    let (mut folds, mut candidates, mut cholesky, mut at_map) = (0.0, 0.0, 0.0, 0.0);
    let estimates = (calls / 10).max(REQUESTS_PER_OP);
    for i in 0..estimates {
        let request = inputs.estimate.request(seed, i);
        let (_, report) = {
            let _span = bmf_obs::span("bench.pipeline");
            inputs.estimate.fuse(&request, 1)?
        };
        stages.push(report.timings);
        folds += report.counter(counters::CV_FOLD_EVALS.name()) as f64;
        candidates += report.counter(counters::CV_CANDIDATES.name()) as f64;
        cholesky += report.counter(counters::CHOLESKY_CALLS.name()) as f64;
        at_map += f64::from(u8::from(report.fallback == FallbackLevel::Map));
    }
    let n = estimates as f64;
    let stage_us = |ns: fn(&StageTimings) -> u64| {
        let us: Vec<f64> = stages.iter().map(|t| ns(t) as f64 / 1e3).collect();
        median(&us).expect("estimates ran")
    };
    out.extend([
        ("pipeline.guard_us", stage_us(|t| t.guard_ns)),
        ("pipeline.prior_us", stage_us(|t| t.prior_ns)),
        ("pipeline.cv_us", stage_us(|t| t.cv_ns)),
        ("pipeline.ladder_us", stage_us(|t| t.ladder_ns)),
        ("cv.fold_evals_per_op", folds / n),
        ("cv.candidates_per_op", candidates / n),
        ("cholesky.calls_per_op", cholesky / n),
        ("pipeline.map_frac", at_map / n),
    ]);

    // --- shard merge and the statistics path --------------------------------
    let merge = &inputs.merge;
    let (mut merge_us, mut stats_us) = (vec![], vec![]);
    for k in 0..(calls / 2).max(2) {
        let set = &merge.sets[k % merge.sets.len()];
        let t0 = Instant::now();
        let merged = {
            let _span = bmf_obs::span("bench.shard");
            MergeInputs::merge(set)?
        };
        let t1 = Instant::now();
        {
            let _span = bmf_obs::span("bench.pipeline");
            MergeInputs::fuse(&merged, 1)?;
        }
        merge_us.push((t1 - t0).as_secs_f64() * 1e6);
        stats_us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    let packet_bytes: usize = merge.sets[0].texts.iter().map(|(_, t)| t.len()).sum();
    out.extend([
        ("shard.merge_us", median(&merge_us).expect("merges ran")),
        (
            "pipeline.from_stats_us",
            median(&stats_us).expect("merges ran"),
        ),
        ("shard.packet_kib", packet_bytes as f64 / 1024.0),
    ]);

    // --- one paper study of each figure -------------------------------------
    let since = bmf_obs::span::now_ns();
    let t0 = Instant::now();
    let (fig4, fig5) = {
        let _span = bmf_obs::span("bench.study");
        (
            paper_study(Circuit::Opamp, derive_seed(seed, PROBE_STREAM, 6), 1)?,
            paper_study(Circuit::Adc, derive_seed(seed, PROBE_STREAM, 7), 1)?,
        )
    };
    let total = t0.elapsed().as_secs_f64();
    let cv_s: f64 = bmf_obs::span::peek_events()
        .iter()
        .filter(|e| e.name == "cv.select" && e.start_ns >= since)
        .map(|e| e.dur_ns as f64 / 1e9)
        .sum();
    let share = |f: fn(&StudyOutcome) -> Duration| (f(&fig4) + f(&fig5)).as_secs_f64() / total;
    let cr = |o: &StudyOutcome, kind| o.cost_reduction_n8(kind).min(CR_RANGE);
    out.extend([
        ("study.mc_share", share(StudyOutcome::mc)),
        ("study.prepare_share", share(StudyOutcome::prepare)),
        ("study.sweep_share", share(StudyOutcome::sweep)),
        ("study.cv_share", cv_s / total),
        (
            "experiment.opamp_cov_cr_n8",
            cr(&fig4, ErrorKind::Covariance),
        ),
        ("experiment.adc_cov_cr_n8", cr(&fig5, ErrorKind::Covariance)),
        ("experiment.adc_mean_cr_n8", cr(&fig5, ErrorKind::Mean)),
    ]);
    Ok(out)
}
