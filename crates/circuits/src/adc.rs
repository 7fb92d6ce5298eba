//! Behavioural flash-ADC testbench.
//!
//! Reproduces the paper's second circuit example: a flash analog-to-digital
//! converter in a 0.18 µm process, measured at schematic and post-layout
//! stages for five correlated metrics — **SNR, SINAD, SFDR, THD (dB) and
//! power (W)**.
//!
//! A flash ADC's spectral performance is dominated by its reference-ladder
//! errors and comparator input offsets, so the behavioural model is built
//! from exactly those ingredients:
//!
//! * a resistor ladder whose `2^B − 1` taps accumulate a random-walk of
//!   per-segment mismatch (plus a deterministic bow/gradient after layout),
//! * one comparator per tap whose input offset follows the Pelgrom model of
//!   [`crate::variation`] (inflated by routing asymmetry after layout),
//! * a coherent sine test ([`crate::spectrum`]) through the quantiser, and
//! * static power from the per-comparator bias currents (process
//!   dependent via the global `k'` corner).
//!
//! Post-layout additionally introduces a cubic input-settling nonlinearity
//! — the classic source of third-harmonic distortion in high-speed testing.
//!
//! Only the thresholds change from die to die. So the testbench builds,
//! once and on its first simulation, what every die shares: each stage's
//! settled sine record sorted ascending, each sample tagged with its slot
//! in the FFT's split-format input buffer, the DAC's reconstruction levels
//! and the [`crate::spectrum`] plan (the real-input FFT plan and the tone
//! and harmonic bins). A die then sorts its own thresholds and quantises
//! the whole record in one merge walk (the ones-counter code is a rank, so
//! comparator order does not matter) that writes each code's level
//! straight into its slot of the buffer; the FFT transforms that buffer in
//! place and its real-input split feeds the metric sums.

use crate::monte_carlo::Stage;
use crate::mosfet::Geometry;
use crate::spectrum::{coherent_sine, SpectralMetrics, SpectrumPlan};
use crate::variation::VariationModel;
use crate::{CircuitError, Result};
use bmf_stats::sample_standard_normal;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The five ADC performance metrics of one simulated die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcPerformance {
    /// Signal-to-noise ratio in dB.
    pub snr_db: f64,
    /// Signal-to-noise-and-distortion ratio in dB.
    pub sinad_db: f64,
    /// Spurious-free dynamic range in dB.
    pub sfdr_db: f64,
    /// Total harmonic distortion in dB (negative).
    pub thd_db: f64,
    /// Static power in watts.
    pub power_w: f64,
}

impl AdcPerformance {
    /// Metric names, in the order of [`Self::to_array`].
    pub fn metric_names() -> [&'static str; 5] {
        ["snr_db", "sinad_db", "sfdr_db", "thd_db", "power_w"]
    }

    /// The metrics as a fixed-order array (matches [`Self::metric_names`]).
    pub fn to_array(&self) -> [f64; 5] {
        [
            self.snr_db,
            self.sinad_db,
            self.sfdr_db,
            self.thd_db,
            self.power_w,
        ]
    }
}

/// Post-layout effects for the flash ADC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcLayoutEffects {
    /// Multiplier on comparator offset σ from routing asymmetry (≥ 1).
    pub offset_inflation: f64,
    /// Cubic input nonlinearity coefficient (1/V²): `x' = x + k₃ (x−Vcm)³`.
    pub cubic_nonlinearity: f64,
    /// Deterministic ladder bow at mid-scale, in LSB.
    pub ladder_bow_lsb: f64,
    /// Relative power overhead from clock/reference routing.
    pub power_overhead: f64,
}

impl AdcLayoutEffects {
    /// Representative extraction results for the 0.18 µm flash ADC layout.
    ///
    /// The 0.18 µm node's layout effects are mild and mostly deterministic
    /// (captured by the nominal run), which is why the paper's §5.2 finds
    /// the early-stage prior trustworthy in *both* mean and covariance
    /// (large κ₀ and ν₀): the offset inflation stays close to 1 and the
    /// nonlinearity is weak enough not to distort the mismatch statistics.
    pub fn default_180nm() -> Self {
        AdcLayoutEffects {
            offset_inflation: 1.005,
            cubic_nonlinearity: 0.002,
            ladder_bow_lsb: 0.02,
            power_overhead: 0.06,
        }
    }
}

/// Design parameters of the flash ADC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashAdcDesign {
    /// Resolution in bits (number of comparators is `2^bits − 1`).
    pub bits: u32,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Reference (full-scale) voltage, volts.
    pub vref: f64,
    /// Per-comparator bias current, amperes.
    pub comparator_bias: f64,
    /// Comparator input-pair geometry (sets the Pelgrom offset σ).
    pub comparator_geometry: Geometry,
    /// Relative σ of each ladder segment's resistance mismatch.
    pub ladder_sigma_rel: f64,
    /// FFT record length (power of two).
    pub record_len: usize,
    /// Input-tone bin (odd, coprime with `record_len`).
    pub signal_bin: usize,
}

/// Flash-ADC Monte Carlo testbench.
///
/// # Example
///
/// ```
/// use bmf_circuits::adc::AdcTestbench;
/// use bmf_circuits::monte_carlo::Stage;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// let tb = AdcTestbench::default_180nm();
/// let nominal = tb.nominal_performance(Stage::Schematic)?;
/// // An ideal 6-bit quantiser delivers ≈ 37.9 dB SINAD.
/// assert!(nominal.sinad_db > 34.0 && nominal.sinad_db < 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdcTestbench {
    design: FlashAdcDesign,
    variation: VariationModel,
    layout: AdcLayoutEffects,
    /// Built on the first simulation, not in [`Self::new`]: flows that only
    /// construct the testbench (every op-amp-only run) never pay for it.
    tables: OnceLock<AdcTables>,
}

/// The die-independent part of every simulation, shared by all dies.
#[derive(Clone)]
struct AdcTables {
    /// The comparator-bank input record of each stage, indexed by
    /// [`stage_index`].
    inputs: [SortedRecord; 2],
    /// Reconstruction level of each output code (mid-tread DAC).
    levels: Vec<f64>,
    /// The spectral analysis of the record length and tone bin.
    spectrum: SpectrumPlan,
}

impl std::fmt::Debug for AdcTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdcTables")
            .field("record_len", &self.inputs[0].0.len())
            .field("levels", &self.levels.len())
            .finish_non_exhaustive()
    }
}

fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::Schematic => 0,
        Stage::PostLayout => 1,
    }
}

/// A record sorted ascending: each sample with its slot in the output.
#[derive(Clone)]
struct SortedRecord(Vec<(f64, usize)>);

impl SortedRecord {
    /// Sorts `record`, tagging sample `i` with `slot(i)`. A NaN sample
    /// trips no comparator (`x > t` is false), so it is kept as −∞, which
    /// trips none either.
    fn new(record: impl Iterator<Item = f64>, slot: impl Fn(usize) -> usize) -> Self {
        let mut order: Vec<(f64, usize)> = record
            .enumerate()
            .map(|(i, x)| (if x.is_nan() { f64::NEG_INFINITY } else { x }, slot(i)))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        SortedRecord(order)
    }

    /// Quantises the record through a comparator bank into `out`, each
    /// sample at its slot: sample `x` becomes `levels[#{t : x > t}]`, the
    /// code of a bubble-tolerant (ones-counter) encoder. That count is a
    /// rank, so it does not depend on the comparators' order (which
    /// mismatch may scramble): sort the thresholds and walk them once along
    /// the sorted samples, in O(N + T log T) instead of O(N·T). `levels`
    /// needs one entry more than there are thresholds.
    fn convert(&self, mut thresholds: Vec<f64>, levels: &[f64], out: &mut [f64]) {
        // A NaN threshold never trips (`x > NaN` is false).
        thresholds.retain(|t| !t.is_nan());
        thresholds.sort_unstable_by(f64::total_cmp);
        let mut code = 0;
        for &(x, slot) in &self.0 {
            while code < thresholds.len() && thresholds[code] < x {
                code += 1;
            }
            out[slot] = levels[code];
        }
    }
}

/// One die's mismatch realisation; empty vectors and a unit corner give
/// the nominal die.
struct Die {
    /// Comparator input offsets, volts, one per comparator.
    offsets: Vec<f64>,
    /// Relative mismatch of each ladder segment.
    ladder_rel: Vec<f64>,
    /// Bias-current multiplier from the global `k'` corner.
    power_corner: f64,
}

impl Die {
    fn nominal() -> Self {
        Die {
            offsets: Vec::new(),
            ladder_rel: Vec::new(),
            power_corner: 1.0,
        }
    }
}

impl AdcTestbench {
    /// Creates a testbench from explicit descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`]/[`CircuitError::InvalidSignal`]
    /// for out-of-domain parameters.
    pub fn new(
        design: FlashAdcDesign,
        variation: VariationModel,
        layout: AdcLayoutEffects,
    ) -> Result<Self> {
        variation.validate()?;
        if design.bits < 2 || design.bits > 12 {
            return Err(CircuitError::InvalidValue {
                what: "adc bits",
                value: design.bits as f64,
                constraint: "2 <= bits <= 12",
            });
        }
        for (what, v) in [
            ("vdd", design.vdd),
            ("vref", design.vref),
            ("comparator_bias", design.comparator_bias),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CircuitError::InvalidValue {
                    what,
                    value: v,
                    constraint: "positive and finite",
                });
            }
        }
        if !(design.ladder_sigma_rel >= 0.0) {
            return Err(CircuitError::InvalidValue {
                what: "ladder_sigma_rel",
                value: design.ladder_sigma_rel,
                constraint: "sigma >= 0",
            });
        }
        if !design.record_len.is_power_of_two() || design.record_len < 64 {
            return Err(CircuitError::InvalidSignal {
                reason: format!(
                    "record_len must be a power of two >= 64, got {}",
                    design.record_len
                ),
            });
        }
        if design.signal_bin == 0
            || design.signal_bin >= design.record_len / 2
            || design.signal_bin.is_multiple_of(2)
        {
            return Err(CircuitError::InvalidSignal {
                reason: format!(
                    "signal_bin must be odd and in 1..{}, got {}",
                    design.record_len / 2,
                    design.signal_bin
                ),
            });
        }
        Ok(AdcTestbench {
            design,
            variation,
            layout,
            tables: OnceLock::new(),
        })
    }

    /// The default 6-bit, 0.18 µm flash ADC used by the paper-reproduction
    /// experiments.
    pub fn default_180nm() -> Self {
        let design = FlashAdcDesign {
            bits: 6,
            vdd: 1.8,
            vref: 1.0,
            comparator_bias: 45e-6,
            comparator_geometry: Geometry::new(1.2e-6, 0.35e-6).expect("valid geometry"),
            ladder_sigma_rel: 0.010,
            record_len: 4096,
            signal_bin: 127,
        };
        AdcTestbench::new(
            design,
            VariationModel::nominal_180nm(),
            AdcLayoutEffects::default_180nm(),
        )
        .expect("default design is valid")
    }

    /// The design parameters.
    pub fn design(&self) -> &FlashAdcDesign {
        &self.design
    }

    /// Number of comparators (`2^bits − 1`).
    pub fn comparator_count(&self) -> usize {
        (1usize << self.design.bits) - 1
    }

    /// Builds the per-die threshold set. `offsets`/`ladder_rel` hold one
    /// entry per comparator/segment; pass empty slices for the nominal die.
    fn thresholds(&self, stage: Stage, offsets: &[f64], ladder_rel: &[f64]) -> Vec<f64> {
        let levels = 1usize << self.design.bits;
        let count = levels - 1;
        let lsb = self.design.vref / levels as f64;

        // Ladder taps: cumulative sum of (possibly mismatched) segments,
        // normalised so the full scale stays vref.
        let mut seg = vec![1.0; levels];
        for (s, &r) in seg.iter_mut().zip(ladder_rel.iter()) {
            *s += r;
        }
        let total: f64 = seg.iter().sum();
        let mut acc = 0.0;
        let mut taps = Vec::with_capacity(count);
        for s in seg.iter().take(count) {
            acc += s;
            taps.push(acc / total * self.design.vref);
        }

        let bow = match stage {
            Stage::Schematic => 0.0,
            Stage::PostLayout => self.layout.ladder_bow_lsb * lsb,
        };

        taps.iter()
            .enumerate()
            .map(|(k, &t)| {
                // Parabolic bow peaking at mid-scale.
                let x = (k as f64 + 1.0) / levels as f64;
                let bow_term = bow * 4.0 * x * (1.0 - x);
                let off = offsets.get(k).copied().unwrap_or(0.0);
                t + bow_term + off
            })
            .collect()
    }

    /// The die-independent tables, built on the first call.
    fn tables(&self) -> &AdcTables {
        self.tables.get_or_init(|| {
            let sine = self
                .stimulus()
                .expect("record_len and signal_bin are validated by new");
            let spectrum = SpectrumPlan::new(self.design.record_len, self.design.signal_bin)
                .expect("record_len and signal_bin are validated by new");
            let input = |stage| {
                SortedRecord::new(sine.iter().map(|&x| self.settled(stage, x)), |i| {
                    spectrum.fft().slot(i)
                })
            };
            let levels = (0..1usize << self.design.bits)
                .map(|code| self.level(code))
                .collect();
            AdcTables {
                inputs: [input(Stage::Schematic), input(Stage::PostLayout)],
                levels,
                spectrum,
            }
        })
    }

    /// The coherent test sine driving every die.
    fn stimulus(&self) -> Result<Vec<f64>> {
        let d = &self.design;
        coherent_sine(d.record_len, d.signal_bin, 0.49 * d.vref, 0.5 * d.vref, 0.3)
    }

    /// What the comparator bank sees of input `x`: post-layout adds the
    /// cubic settling `x + k₃ (x − Vcm)³`.
    fn settled(&self, stage: Stage, x: f64) -> f64 {
        let k3 = match stage {
            Stage::Schematic => 0.0,
            Stage::PostLayout => self.layout.cubic_nonlinearity,
        };
        let dx = x - 0.5 * self.design.vref;
        x + k3 * dx * dx * dx
    }

    /// The reconstructed analogue value of an output code (mid-tread DAC).
    fn level(&self, code: usize) -> f64 {
        let levels = (1usize << self.design.bits) as f64;
        (code as f64 + 0.5) / levels * self.design.vref
    }

    /// Quantises one input voltage through the comparator bank: the
    /// per-sample ones-counter that [`SortedRecord::convert`] replaces.
    #[cfg(test)]
    fn convert(&self, thresholds: &[f64], x: f64) -> f64 {
        self.level(thresholds.iter().filter(|&&t| x > t).count())
    }

    /// Simulates one die with explicit mismatch realisations.
    fn simulate(&self, stage: Stage, die: &Die) -> Result<AdcPerformance> {
        let tables = self.tables();
        let thresholds = self.thresholds(stage, &die.offsets, &die.ladder_rel);
        let mut buf = vec![0.0; self.design.record_len];
        tables.inputs[stage_index(stage)].convert(thresholds, &tables.levels, &mut buf);
        let metrics = tables.spectrum.analyze(&mut buf)?;
        Ok(self.performance(stage, metrics, die.power_corner))
    }

    /// Assembles a die's metrics from its spectrum and its power corner.
    fn performance(
        &self,
        stage: Stage,
        metrics: SpectralMetrics,
        power_corner: f64,
    ) -> AdcPerformance {
        let d = &self.design;
        let overhead = match stage {
            Stage::Schematic => 1.0,
            Stage::PostLayout => 1.0 + self.layout.power_overhead,
        };
        let power_w =
            self.comparator_count() as f64 * d.comparator_bias * d.vdd * power_corner * overhead;

        AdcPerformance {
            snr_db: metrics.snr_db,
            sinad_db: metrics.sinad_db,
            sfdr_db: metrics.sfdr_db,
            thd_db: metrics.thd_db,
            power_w,
        }
    }

    /// Performance at the nominal (variation-free) corner — `P_NOM` for the
    /// paper's shift operation.
    ///
    /// # Errors
    ///
    /// Propagates signal-analysis failures.
    pub fn nominal_performance(&self, stage: Stage) -> Result<AdcPerformance> {
        self.simulate(stage, &Die::nominal())
    }

    /// Simulates one Monte Carlo die.
    ///
    /// # Errors
    ///
    /// Propagates signal-analysis failures.
    pub fn sample_performance<R: Rng + ?Sized>(
        &self,
        stage: Stage,
        rng: &mut R,
    ) -> Result<AdcPerformance> {
        let die = self.draw(stage, rng);
        self.simulate(stage, &die)
    }

    /// Draws one die's mismatch.
    fn draw<R: Rng + ?Sized>(&self, stage: Stage, rng: &mut R) -> Die {
        let global = self.variation.sample_global(rng);
        let count = self.comparator_count();

        // Comparator offsets: Pelgrom local mismatch (the global Vth shift
        // is common-mode for a differential comparator and cancels),
        // inflated by routing asymmetry after layout.
        let sigma_off = self.variation.avt / self.design.comparator_geometry.area().sqrt();
        let inflation = match stage {
            Stage::Schematic => 1.0,
            Stage::PostLayout => self.layout.offset_inflation,
        };
        let offsets: Vec<f64> = (0..count)
            .map(|_| sigma_off * inflation * sample_standard_normal(rng))
            .collect();

        let levels = 1usize << self.design.bits;
        let ladder_rel: Vec<f64> = (0..levels)
            .map(|_| self.design.ladder_sigma_rel * sample_standard_normal(rng))
            .collect();

        // Bias currents track the global k' corner (same mirror for all).
        let power_corner = (1.0 + global.rel_kprime).max(0.2);

        Die {
            offsets,
            ladder_rel,
            power_corner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(303)
    }

    #[test]
    fn nominal_matches_ideal_quantiser_theory() {
        let tb = AdcTestbench::default_180nm();
        let p = tb.nominal_performance(Stage::Schematic).unwrap();
        // 6-bit ideal: 6.02·6 + 1.76 ≈ 37.9 dB (amplitude 0.49 FS → ~0.2 dB less).
        assert!((p.sinad_db - 37.7).abs() < 2.0, "sinad = {}", p.sinad_db);
        assert!(p.snr_db >= p.sinad_db);
        assert!(p.sfdr_db > 40.0);
        assert!(p.thd_db < -40.0);
        assert!(p.power_w > 1e-3 && p.power_w < 1e-2);
    }

    #[test]
    fn post_layout_nominal_shows_distortion() {
        let tb = AdcTestbench::default_180nm();
        let sch = tb.nominal_performance(Stage::Schematic).unwrap();
        let lay = tb.nominal_performance(Stage::PostLayout).unwrap();
        // Cubic settling + ladder bow worsen distortion metrics.
        assert!(
            lay.thd_db > sch.thd_db,
            "thd {} vs {}",
            lay.thd_db,
            sch.thd_db
        );
        assert!(lay.sfdr_db < sch.sfdr_db);
        assert!(lay.power_w > sch.power_w);
    }

    #[test]
    fn mismatch_degrades_snr_statistically() {
        let tb = AdcTestbench::default_180nm();
        let nominal = tb.nominal_performance(Stage::Schematic).unwrap();
        let mut r = rng();
        let n = 25;
        let mean_snr: f64 = (0..n)
            .map(|_| {
                tb.sample_performance(Stage::Schematic, &mut r)
                    .unwrap()
                    .snr_db
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            mean_snr < nominal.snr_db,
            "mean MC snr {mean_snr} should fall below nominal {}",
            nominal.snr_db
        );
        // …but the converter still works.
        assert!(mean_snr > 25.0);
    }

    #[test]
    fn samples_vary_and_are_reproducible() {
        let tb = AdcTestbench::default_180nm();
        let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(9);
        let a = tb.sample_performance(Stage::PostLayout, &mut r1).unwrap();
        let b = tb.sample_performance(Stage::PostLayout, &mut r2).unwrap();
        assert_eq!(a, b);
        let c = tb.sample_performance(Stage::PostLayout, &mut r1).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn design_validation() {
        let mut d = *AdcTestbench::default_180nm().design();
        d.bits = 1;
        assert!(AdcTestbench::new(
            d,
            VariationModel::nominal_180nm(),
            AdcLayoutEffects::default_180nm()
        )
        .is_err());

        let mut d = *AdcTestbench::default_180nm().design();
        d.record_len = 1000;
        assert!(AdcTestbench::new(
            d,
            VariationModel::nominal_180nm(),
            AdcLayoutEffects::default_180nm()
        )
        .is_err());

        let mut d = *AdcTestbench::default_180nm().design();
        d.signal_bin = 128; // even
        assert!(AdcTestbench::new(
            d,
            VariationModel::nominal_180nm(),
            AdcLayoutEffects::default_180nm()
        )
        .is_err());

        let mut d = *AdcTestbench::default_180nm().design();
        d.vref = -1.0;
        assert!(AdcTestbench::new(
            d,
            VariationModel::nominal_180nm(),
            AdcLayoutEffects::default_180nm()
        )
        .is_err());
    }

    #[test]
    fn converter_is_monotone_in_input_for_ideal_thresholds() {
        let tb = AdcTestbench::default_180nm();
        let thresholds = tb.thresholds(Stage::Schematic, &[], &[]);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..100 {
            let x = i as f64 / 99.0;
            let y = tb.convert(&thresholds, x);
            assert!(y >= prev);
            prev = y;
        }
    }

    /// The per-die path the tables replace: the stimulus settled and
    /// quantised sample by sample by the ones-counter.
    fn reference_record(
        tb: &AdcTestbench,
        stimulus: &[f64],
        stage: Stage,
        thresholds: &[f64],
    ) -> Vec<f64> {
        stimulus
            .iter()
            .map(|&x| tb.convert(thresholds, tb.settled(stage, x)))
            .collect()
    }

    /// The walk of `input` through `thresholds` into the FFT buffer, read
    /// back in record order: each slot mapped to its record index.
    fn walked_record(tables: &AdcTables, input: &SortedRecord, thresholds: Vec<f64>) -> Vec<f64> {
        let fft = tables.spectrum.fft();
        let mut buf = vec![0.0; fft.len()];
        input.convert(thresholds, &tables.levels, &mut buf);
        let mut record = vec![0.0; buf.len()];
        for (slot, &y) in buf.iter().enumerate() {
            record[fft.record_index(slot)] = y;
        }
        record
    }

    /// Simulates 2,000 seeded dies of `stage` both ways. The reference is
    /// the path before the tables and the split-format FFT: the per-sample
    /// ones-counter, then the radix-2 array-of-structs FFT of the full
    /// complex record. Records must match bit for bit, metrics to 1e-9
    /// relative.
    fn check_against_reference(stage: Stage) {
        let tb = AdcTestbench::default_180nm();
        let tables = tb.tables();
        let stimulus = tb.stimulus().unwrap();
        let names = AdcPerformance::metric_names();
        let mut r = rand::rngs::StdRng::seed_from_u64(2015);
        for die in 0..2000 {
            let d = tb.draw(stage, &mut r);
            let thresholds = tb.thresholds(stage, &d.offsets, &d.ladder_rel);
            let record = reference_record(&tb, &stimulus, stage, &thresholds);
            let walked = walked_record(tables, &tables.inputs[stage_index(stage)], thresholds);
            assert_eq!(walked, record, "{stage} die {die}");
            let reference = tb.performance(
                stage,
                crate::spectrum::analyze_reference(&record, tb.design.signal_bin).unwrap(),
                d.power_corner,
            );
            let planned = tb.simulate(stage, &d).unwrap();
            for ((name, x), y) in names
                .iter()
                .zip(reference.to_array())
                .zip(planned.to_array())
            {
                assert!(
                    (x - y).abs() <= 1e-9 * x.abs(),
                    "{stage} die {die}: {name} {x} (reference) vs {y} (planned)"
                );
            }
        }
    }

    #[test]
    fn schematic_dies_match_reference_path() {
        check_against_reference(Stage::Schematic);
    }

    #[test]
    fn post_layout_dies_match_reference_path() {
        check_against_reference(Stage::PostLayout);
    }

    proptest::proptest! {
        /// The merge walk is the ones-counter on any comparator bank:
        /// thresholds on a coarse grid in random order (non-monotone, with
        /// ties, some NaN), inputs exactly on thresholds, beyond both ends
        /// of the ladder and non-finite.
        #[test]
        fn merge_walk_matches_ones_counter(
            grid in proptest::collection::vec(0usize..18, 1..64),
            on in proptest::collection::vec(0usize..64, 0..40),
            free in proptest::collection::vec(-0.5..1.5f64, 0..40),
        ) {
            let tb = AdcTestbench::default_180nm();
            let thresholds: Vec<f64> = grid
                .iter()
                .map(|&q| if q == 17 { f64::NAN } else { q as f64 / 16.0 })
                .collect();
            let mut inputs: Vec<f64> =
                on.iter().map(|&i| thresholds[i % thresholds.len()]).collect();
            inputs.extend(free);
            inputs.extend([-1.0, 2.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN]);
            // Slots in reverse record order; each is mapped back.
            let last = inputs.len() - 1;
            let mut walked = vec![0.0; inputs.len()];
            SortedRecord::new(inputs.iter().copied(), |i| last - i).convert(
                thresholds.clone(),
                &tb.tables().levels,
                &mut walked,
            );
            walked.reverse();
            let counted: Vec<f64> =
                inputs.iter().map(|&x| tb.convert(&thresholds, x)).collect();
            proptest::prop_assert_eq!(walked, counted);
        }

        /// With k₃ = −3 V⁻² the settled transfer `x + k₃(x − Vcm)³` folds
        /// back for |x − Vcm| > 1/3 V, so the post-layout record is not in
        /// the schematic's order. Its own sort must still give the
        /// ones-counter's record on every die.
        #[test]
        fn non_monotone_settling_keeps_its_own_order(seed in 0u64..1_000_000) {
            let layout = AdcLayoutEffects {
                cubic_nonlinearity: -3.0,
                ..AdcLayoutEffects::default_180nm()
            };
            let tb = AdcTestbench::new(
                *AdcTestbench::default_180nm().design(),
                VariationModel::nominal_180nm(),
                layout,
            )
            .unwrap();
            let tables = tb.tables();
            let order = |r: &SortedRecord| r.0.iter().map(|&(_, i)| i).collect::<Vec<_>>();
            proptest::prop_assert_ne!(order(&tables.inputs[0]), order(&tables.inputs[1]));
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let die = tb.draw(Stage::PostLayout, &mut r);
            let thresholds = tb.thresholds(Stage::PostLayout, &die.offsets, &die.ladder_rel);
            let stimulus = tb.stimulus().unwrap();
            let record = reference_record(&tb, &stimulus, Stage::PostLayout, &thresholds);
            let walked = walked_record(tables, &tables.inputs[1], thresholds);
            proptest::prop_assert_eq!(walked, record);
        }
    }

    #[test]
    fn tables_wait_for_the_first_simulation() {
        let tb = AdcTestbench::default_180nm();
        assert!(tb.tables.get().is_none());
        tb.nominal_performance(Stage::Schematic).unwrap();
        assert!(tb.tables.get().is_some());
    }

    #[test]
    fn threshold_count_and_range() {
        let tb = AdcTestbench::default_180nm();
        let thresholds = tb.thresholds(Stage::Schematic, &[], &[]);
        assert_eq!(thresholds.len(), 63);
        assert!(thresholds[0] > 0.0);
        assert!(*thresholds.last().unwrap() < tb.design().vref);
        // Evenly spaced for the nominal die.
        let lsb = tb.design().vref / 64.0;
        for w in thresholds.windows(2) {
            assert!((w[1] - w[0] - lsb).abs() < 1e-12);
        }
    }

    #[test]
    fn more_bits_more_snr() {
        let mut d = *AdcTestbench::default_180nm().design();
        d.bits = 8;
        let tb8 = AdcTestbench::new(
            d,
            VariationModel::nominal_180nm(),
            AdcLayoutEffects::default_180nm(),
        )
        .unwrap();
        let tb6 = AdcTestbench::default_180nm();
        let p8 = tb8.nominal_performance(Stage::Schematic).unwrap();
        let p6 = tb6.nominal_performance(Stage::Schematic).unwrap();
        assert!(p8.sinad_db > p6.sinad_db + 8.0); // ≈ +12 dB for 2 bits
        assert_eq!(tb8.comparator_count(), 255);
    }

    #[test]
    fn metric_order_is_stable() {
        let p = AdcPerformance {
            snr_db: 1.0,
            sinad_db: 2.0,
            sfdr_db: 3.0,
            thd_db: 4.0,
            power_w: 5.0,
        };
        assert_eq!(p.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(AdcPerformance::metric_names()[4], "power_w");
    }
}
