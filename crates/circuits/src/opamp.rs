//! Two-stage Miller-compensated operational amplifier testbench.
//!
//! This reproduces the paper's first circuit example: a two-stage op-amp in
//! a 45 nm process, measured at the schematic and post-layout stages for
//! five correlated metrics — **DC gain (dB), −3 dB bandwidth (Hz), power
//! (W), input-referred offset (V) and phase margin (°)**.
//!
//! The signal path is the classic topology (paper Fig. 3): a PMOS input
//! differential pair (M1/M2) with NMOS current-mirror load (M3/M4), biased
//! by a tail mirror (M5 ← M8 ← I_REF), followed by an NMOS common-source
//! second stage (M6) with PMOS current-source load (M7) and Miller
//! compensation `R_z + C_c`, driving a load capacitance `C_L`.
//!
//! For every Monte Carlo sample the testbench:
//! 1. draws die-global + per-device local process variation,
//! 2. resolves the bias point (mirror ratio errors from V_th mismatch,
//!    headroom compression from global V_th shift),
//! 3. extracts each device's small-signal parameters,
//! 4. builds the small-signal [`Netlist`], extracts its transfer function
//!    `H(s) = N(s)/D(s)` once from the MNA pencil `G + sC`
//!    ([`crate::mna::AcAnalysis::transfer_function`]) and measures it:
//!    DC gain, then for the −3 dB and the unity-gain crossing a 60-point
//!    log scan that brackets it and a bracketed false position in
//!    `ln f` that polishes it to a few ulps (about 67 probes a die, each
//!    one Horner evaluation), and the phase margin `180° + ∠H(jω_u)` in
//!    closed form: the Horner value of the angle, turned by the sum of
//!    the angles under which the roots of `N` and `D` see `[0, jω_u]`
//!    ([`RationalTransfer::phase`]). Two references are tested against:
//!    the same scan with its bracket bisected 60 times (to 1e-13), and
//!    the dense per-`ω` solve ([`crate::mna::AcAnalysis::transfer`])
//!    with the phase unwrapped along a 240-point sweep (to 1e-9),
//! 5. computes power from the actual branch currents and the input offset
//!    from the mismatch terms.
//!
//! The **post-layout** stage adds extracted-style parasitics: wiring
//! capacitance on the high-impedance nodes, extra Miller capacitance,
//! series resistance (transconductance degradation), reduced output
//! resistance, a systematic offset and an IR-drop term that costs headroom.
//! The parasitic interconnect also carries its own global process spread.

use crate::mna::{AcAnalysis, RationalTransfer};
use crate::mosfet::{DeviceVariation, Geometry, Mosfet, Polarity, TechnologyParams};
use crate::netlist::Netlist;
use crate::variation::VariationModel;
use crate::{CircuitError, Result};
use bmf_linalg::Complex64;
use bmf_obs::{histograms, PhaseClock};
use bmf_stats::sample_standard_normal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The five op-amp performance metrics of one simulated die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpAmpPerformance {
    /// DC open-loop gain in dB.
    pub gain_db: f64,
    /// −3 dB bandwidth in Hz.
    pub bandwidth_hz: f64,
    /// Static power consumption in watts.
    pub power_w: f64,
    /// Input-referred offset voltage in volts.
    pub offset_v: f64,
    /// Phase margin in degrees.
    pub phase_margin_deg: f64,
}

impl OpAmpPerformance {
    /// Metric names, in the order of [`Self::to_array`].
    pub fn metric_names() -> [&'static str; 5] {
        [
            "gain_db",
            "bandwidth_hz",
            "power_w",
            "offset_v",
            "phase_margin_deg",
        ]
    }

    /// The metrics as a fixed-order array (matches [`Self::metric_names`]).
    pub fn to_array(&self) -> [f64; 5] {
        [
            self.gain_db,
            self.bandwidth_hz,
            self.power_w,
            self.offset_v,
            self.phase_margin_deg,
        ]
    }
}

/// Extracted-style layout parasitics applied at the post-layout stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayoutParasitics {
    /// Extra wiring capacitance at the first-stage output, farads.
    pub c_node1: f64,
    /// Extra wiring capacitance at the op-amp output, farads.
    pub c_out: f64,
    /// Extra capacitance in parallel with the Miller capacitor, farads.
    pub c_miller: f64,
    /// Relative transconductance degradation from series wiring resistance
    /// (e.g. `0.04` = −4 %).
    pub gm_degradation: f64,
    /// Relative output-resistance degradation (well proximity, stress).
    pub ro_degradation: f64,
    /// Systematic input offset introduced by asymmetric routing, volts.
    pub systematic_offset: f64,
    /// Extra supply current drawn by layout-induced leakage, relative.
    pub power_overhead: f64,
    /// Supply IR drop in volts — costs tail headroom (see
    /// `OpAmpTestbench::headroom_factor`).
    pub ir_drop: f64,
    /// Relative σ of the interconnect-parasitic global corner.
    pub interconnect_sigma: f64,
    /// Extraction-corner bias: the single nominal extraction run is done at
    /// the typical corner, while the *statistical* interconnect population
    /// averages higher coupling — so Monte Carlo parasitics are multiplied
    /// by this factor (> 1) relative to the nominal run. This is the
    /// physical mechanism that leaves a **residual late-stage mean shift
    /// the paper's nominal-shift step cannot remove** (§5.1: the op-amp's
    /// early mean prior is less trustworthy than its covariance prior).
    pub extraction_bias: f64,
}

impl LayoutParasitics {
    /// Representative extraction results for the 45 nm op-amp layout.
    pub fn default_45nm() -> Self {
        LayoutParasitics {
            c_node1: 120e-15,
            c_out: 350e-15,
            c_miller: 60e-15,
            gm_degradation: 0.02,
            ro_degradation: 0.04,
            systematic_offset: 1.5e-3,
            power_overhead: 0.03,
            ir_drop: 0.020,
            interconnect_sigma: 0.02,
            extraction_bias: 1.10,
        }
    }
}

/// Curvature of the tail-headroom compression (1/V²); see
/// `OpAmpTestbench::headroom_factor`.
const HEADROOM_ALPHA: f64 = 10.0;

/// Output node of the small-signal netlist (see `OpAmpTestbench::bias_die`).
const OUT_NODE: usize = 3;

/// Design parameters of the two-stage op-amp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpAmpDesign {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Reference current fed to the bias mirror, amperes.
    pub iref: f64,
    /// Tail-mirror ratio: `I_tail = ratio_tail · I_REF`.
    pub ratio_tail: f64,
    /// Second-stage mirror ratio: `I_6 = ratio_stage2 · I_REF`.
    pub ratio_stage2: f64,
    /// Miller compensation capacitor, farads.
    pub cc: f64,
    /// Zero-nulling resistor in series with `C_c`, ohms.
    pub rz: f64,
    /// Load capacitance, farads.
    pub cl: f64,
    /// Input pair geometry (M1/M2, PMOS).
    pub geom_input: Geometry,
    /// Mirror-load geometry (M3/M4, NMOS).
    pub geom_load: Geometry,
    /// Tail source geometry (M5, PMOS).
    pub geom_tail: Geometry,
    /// Second-stage driver geometry (M6, NMOS).
    pub geom_stage2: Geometry,
    /// Second-stage current-source geometry (M7, PMOS).
    pub geom_src2: Geometry,
}

/// Which design stage a simulation models (paper: early = schematic, late =
/// post-layout). Re-exported as [`crate::monte_carlo::Stage`].
pub use crate::monte_carlo::Stage;

/// Two-stage op-amp Monte Carlo testbench.
///
/// # Example
///
/// ```
/// use bmf_circuits::opamp::OpAmpTestbench;
/// use bmf_circuits::monte_carlo::Stage;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// let tb = OpAmpTestbench::default_45nm();
/// let nominal = tb.nominal_performance(Stage::PostLayout)?;
/// assert!(nominal.gain_db > 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpAmpTestbench {
    design: OpAmpDesign,
    nmos: TechnologyParams,
    pmos: TechnologyParams,
    variation: VariationModel,
    parasitics: LayoutParasitics,
}

/// Internal: resolved per-die variation set for the eight devices.
struct DieVariations {
    m1: DeviceVariation,
    m2: DeviceVariation,
    m3: DeviceVariation,
    m4: DeviceVariation,
    m5: DeviceVariation,
    m6: DeviceVariation,
    m7: DeviceVariation,
    m8: DeviceVariation,
    /// Interconnect global corner multiplier (post-layout only), ≈ N(1, σ).
    interconnect: f64,
    /// Die-global threshold shift (drives headroom compression).
    global_dvth: f64,
}

impl DieVariations {
    fn nominal() -> Self {
        DieVariations {
            m1: DeviceVariation::default(),
            m2: DeviceVariation::default(),
            m3: DeviceVariation::default(),
            m4: DeviceVariation::default(),
            m5: DeviceVariation::default(),
            m6: DeviceVariation::default(),
            m7: DeviceVariation::default(),
            m8: DeviceVariation::default(),
            interconnect: 1.0,
            global_dvth: 0.0,
        }
    }
}

/// Internal: one biased die, ready for its AC measurement.
struct BiasedDie {
    /// Small-signal netlist, driven at node 1, output at [`OUT_NODE`].
    netlist: Netlist,
    power_w: f64,
    offset_v: f64,
}

/// Internal: the three metrics read off `H(jω)`.
#[derive(Debug)]
struct AcMetrics {
    gain_db: f64,
    bandwidth_hz: f64,
    phase_margin_deg: f64,
}

impl OpAmpTestbench {
    /// Creates a testbench from explicit design, technology and variation
    /// descriptions.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] for an invalid variation model
    /// or non-positive design values.
    pub fn new(
        design: OpAmpDesign,
        nmos: TechnologyParams,
        pmos: TechnologyParams,
        variation: VariationModel,
        parasitics: LayoutParasitics,
    ) -> Result<Self> {
        variation.validate()?;
        for (what, v) in [
            ("vdd", design.vdd),
            ("iref", design.iref),
            ("ratio_tail", design.ratio_tail),
            ("ratio_stage2", design.ratio_stage2),
            ("cc", design.cc),
            ("rz", design.rz),
            ("cl", design.cl),
        ] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(CircuitError::InvalidValue {
                    what,
                    value: v,
                    constraint: "positive and finite",
                });
            }
        }
        Ok(OpAmpTestbench {
            design,
            nmos,
            pmos,
            variation,
            parasitics,
        })
    }

    /// The default 45 nm design used by the paper-reproduction experiments.
    pub fn default_45nm() -> Self {
        let design = OpAmpDesign {
            vdd: 1.1,
            iref: 20e-6,
            ratio_tail: 1.0,
            ratio_stage2: 3.0,
            cc: 1.0e-12,
            rz: 300.0,
            cl: 2.0e-12,
            geom_input: Geometry::new(20e-6, 0.2e-6).expect("valid geometry"),
            geom_load: Geometry::new(8e-6, 0.4e-6).expect("valid geometry"),
            geom_tail: Geometry::new(16e-6, 0.4e-6).expect("valid geometry"),
            geom_stage2: Geometry::new(50e-6, 0.2e-6).expect("valid geometry"),
            geom_src2: Geometry::new(48e-6, 0.4e-6).expect("valid geometry"),
        };
        OpAmpTestbench::new(
            design,
            TechnologyParams::nmos_45nm(),
            TechnologyParams::pmos_45nm(),
            VariationModel::nominal_45nm(),
            LayoutParasitics::default_45nm(),
        )
        .expect("default design is valid")
    }

    /// The design parameters.
    pub fn design(&self) -> &OpAmpDesign {
        &self.design
    }

    /// The variation model.
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// Tail-current headroom compression.
    ///
    /// A positive die-global V_th shift squeezes the saturation headroom of
    /// the tail and bias devices; post-layout the supply IR drop makes it
    /// worse. The effect is asymmetric (only the slow corner suffers), which
    /// is what leaves a *residual mean discrepancy between the stages even
    /// after nominal shifting* — the op-amp behaviour the paper observes
    /// (prior mean less trustworthy than prior covariance).
    fn headroom_factor(&self, global_dvth: f64, stage: Stage) -> f64 {
        let extra = match stage {
            Stage::Schematic => 0.0,
            Stage::PostLayout => self.parasitics.ir_drop,
        };
        let squeeze = (global_dvth + extra).max(0.0);
        (1.0 - HEADROOM_ALPHA * squeeze * squeeze).max(0.2)
    }

    /// Draws one die worth of device variations.
    fn draw_variations<R: Rng + ?Sized>(&self, rng: &mut R, stage: Stage) -> DieVariations {
        let global = self.variation.sample_global(rng);
        let d = &self.design;
        let dev = |g: &Geometry, rng: &mut R| self.variation.sample_device(rng, &global, g);
        let interconnect = match stage {
            Stage::Schematic => 1.0,
            Stage::PostLayout => {
                self.parasitics.extraction_bias
                    + self.parasitics.interconnect_sigma * sample_standard_normal(rng)
            }
        };
        DieVariations {
            m1: dev(&d.geom_input, rng),
            m2: dev(&d.geom_input, rng),
            m3: dev(&d.geom_load, rng),
            m4: dev(&d.geom_load, rng),
            m5: dev(&d.geom_tail, rng),
            m6: dev(&d.geom_stage2, rng),
            m7: dev(&d.geom_src2, rng),
            m8: dev(&d.geom_tail, rng),
            interconnect,
            global_dvth: global.delta_vth,
        }
    }

    /// Simulates one die at the given stage on the variations `draw`
    /// returns. The draw with the bias and the transfer-function extraction
    /// each record their latency histogram on one [`PhaseClock`], which
    /// [`measure_ac`] carries on through the crossings and the phase.
    fn simulate(
        &self,
        stage: Stage,
        draw: impl FnOnce() -> DieVariations,
    ) -> Result<OpAmpPerformance> {
        let mut clock = PhaseClock::start();
        let die = clock.time(&histograms::OPAMP_BIAS_NS, || self.bias_die(stage, &draw()))?;
        let h = clock.time(&histograms::OPAMP_EXTRACTION_NS, || {
            AcAnalysis::new(&die.netlist).transfer_function(OUT_NODE)
        })?;
        let ac = measure_ac(&h, &mut clock)?;
        Ok(OpAmpPerformance {
            gain_db: ac.gain_db,
            bandwidth_hz: ac.bandwidth_hz,
            power_w: die.power_w,
            offset_v: die.offset_v,
            phase_margin_deg: ac.phase_margin_deg,
        })
    }

    /// Resolves one die's bias point and builds its small-signal netlist;
    /// power and offset follow from the bias alone.
    fn bias_die(&self, stage: Stage, vars: &DieVariations) -> Result<BiasedDie> {
        let d = &self.design;
        let (gm_derate, ro_derate, c1_extra, cout_extra, cc_extra, power_over, offset_sys) =
            match stage {
                Stage::Schematic => (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0),
                Stage::PostLayout => (
                    1.0 - self.parasitics.gm_degradation,
                    1.0 - self.parasitics.ro_degradation,
                    self.parasitics.c_node1 * vars.interconnect,
                    self.parasitics.c_out * vars.interconnect,
                    self.parasitics.c_miller * vars.interconnect,
                    1.0 + self.parasitics.power_overhead,
                    self.parasitics.systematic_offset,
                ),
            };

        // --- Bias resolution -------------------------------------------------
        let input = Mosfet::new(Polarity::Pmos, self.pmos, d.geom_input);
        let load = Mosfet::new(Polarity::Nmos, self.nmos, d.geom_load);
        let tail = Mosfet::new(Polarity::Pmos, self.pmos, d.geom_tail);
        let stage2 = Mosfet::new(Polarity::Nmos, self.nmos, d.geom_stage2);
        let src2 = Mosfet::new(Polarity::Pmos, self.pmos, d.geom_src2);

        let headroom = self.headroom_factor(vars.global_dvth, stage);

        // Mirror ratio errors: ΔI/I = −2 ΔV_th_mismatch / V_ov of the mirror.
        let tail_ref = tail.bias_with_current(d.iref * d.ratio_tail, 0.3, &vars.m8)?;
        let tail_mismatch = -2.0 * (vars.m5.delta_vth - vars.m8.delta_vth) / tail_ref.vov;
        let i_tail = d.iref * d.ratio_tail * (1.0 + tail_mismatch) * headroom;
        if i_tail <= 0.0 {
            return Err(CircuitError::BiasFailure {
                reason: format!("tail current collapsed: {i_tail:.3e} A"),
            });
        }
        let id1 = 0.5 * i_tail;

        let src_ref = src2.bias_with_current(d.iref * d.ratio_stage2, 0.3, &vars.m8)?;
        let src_mismatch = -2.0 * (vars.m7.delta_vth - vars.m8.delta_vth) / src_ref.vov;
        let i6 = d.iref * d.ratio_stage2 * (1.0 + src_mismatch) * headroom;
        if i6 <= 0.0 {
            return Err(CircuitError::BiasFailure {
                reason: format!("second-stage current collapsed: {i6:.3e} A"),
            });
        }

        // --- Small-signal parameters ----------------------------------------
        let vds1 = 0.4 * d.vdd;
        let ss1 = input.bias_with_current(id1, vds1, &vars.m1)?;
        let ss2 = input.bias_with_current(id1, vds1, &vars.m2)?;
        let ss3 = load.bias_with_current(id1, 0.3 * d.vdd, &vars.m3)?;
        let ss4 = load.bias_with_current(id1, 0.3 * d.vdd, &vars.m4)?;
        let ss6 = stage2.bias_with_current(i6, 0.5 * d.vdd, &vars.m6)?;
        let ss7 = src2.bias_with_current(i6, 0.5 * d.vdd, &vars.m7)?;

        let gm1 = 0.5 * (ss1.gm + ss2.gm) * gm_derate;
        let r1 = ro_derate / (ss2.gds + ss4.gds);
        let c1 = ss6.cgs + ss4.cgd + ss2.cgd + c1_extra;
        let gm6 = ss6.gm * gm_derate;
        let r2 = ro_derate / (ss6.gds + ss7.gds);
        let c_out = d.cl + ss6.cgd + ss7.cgd + cout_extra;
        let cc = d.cc + cc_extra;

        // --- Small-signal netlist (nodes: 1 in, 2 stage-1 out, 3 out, 4 Rz) -
        let mut nl = Netlist::new(5);
        nl.voltage_source(1, 0, 1.0)?;
        nl.vccs(2, 0, 1, 0, gm1)?;
        nl.resistor(2, 0, r1)?;
        nl.capacitor(2, 0, c1)?;
        nl.vccs(OUT_NODE, 0, 2, 0, gm6)?;
        nl.resistor(OUT_NODE, 0, r2)?;
        nl.capacitor(OUT_NODE, 0, c_out)?;
        nl.capacitor(2, 4, cc)?;
        nl.resistor(4, OUT_NODE, d.rz)?;

        // Input-referred offset: input-pair mismatch plus mirror mismatch
        // reflected through the gm ratio, plus layout-systematic term.
        let offset_v = (vars.m1.delta_vth - vars.m2.delta_vth)
            + (ss3.gm / gm1.max(1e-12)) * (vars.m3.delta_vth - vars.m4.delta_vth)
            + offset_sys;

        Ok(BiasedDie {
            netlist: nl,
            power_w: d.vdd * (d.iref + i_tail + i6) * power_over,
            offset_v,
        })
    }

    /// Performance at the nominal (variation-free) corner — the `P_NOM`
    /// measurement the paper's shift operation uses (§4.1).
    ///
    /// # Errors
    ///
    /// Propagates simulation/measurement failures.
    pub fn nominal_performance(&self, stage: Stage) -> Result<OpAmpPerformance> {
        self.simulate(stage, DieVariations::nominal)
    }

    /// Simulates one Monte Carlo die.
    ///
    /// # Errors
    ///
    /// Propagates bias or measurement failures (rare at the default
    /// variation level; callers doing large MC runs may retry).
    pub fn sample_performance<R: Rng + ?Sized>(
        &self,
        stage: Stage,
        rng: &mut R,
    ) -> Result<OpAmpPerformance> {
        self.simulate(stage, || self.draw_variations(rng, stage))
    }
}

const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

/// Internal: what the magnitude of `H(jω)` gives — the DC gain and the
/// two crossings the phase margin hangs on.
struct Crossings {
    gain0: f64,
    bandwidth_hz: f64,
    unity_hz: f64,
}

/// Measures DC gain, −3 dB bandwidth and phase margin on the die's
/// transfer function: the crossings from probes of `|H(jω)|`, the phase
/// margin `180° + ∠H(jω_u)` unwrapped by the roots of `N` and `D`
/// ([`RationalTransfer::phase`]). The crossings and the phase each record
/// their latency histogram on `clock`.
///
/// # Errors
///
/// [`CircuitError::MeasurementFailure`] naming the metric that could not
/// be measured; evaluation errors propagate where a value is required.
fn measure_ac(h: &RationalTransfer, clock: &mut PhaseClock) -> Result<AcMetrics> {
    let c = clock.time(&histograms::OPAMP_CROSSINGS_NS, || {
        crossings(|omega| h.eval(omega))
    })?;
    let phase_margin_deg =
        clock.time(&histograms::OPAMP_PHASE_NS, || phase_margin(h, c.unity_hz))?;
    Ok(AcMetrics {
        gain_db: 20.0 * c.gain0.log10(),
        bandwidth_hz: c.bandwidth_hz,
        phase_margin_deg,
    })
}

/// `180° + ∠H(jω_u)` in degrees, with the phase taken relative to `H(0)`
/// (0 for the op-amp's non-inverting path).
fn phase_margin(h: &RationalTransfer, unity_hz: f64) -> Result<f64> {
    let phase = h.phase(TWO_PI * unity_hz).map_err(|e| match e {
        CircuitError::MeasurementFailure { reason, .. } => CircuitError::MeasurementFailure {
            metric: "phase margin",
            reason,
        },
        other => other,
    })?;
    Ok(180.0 + phase.to_degrees())
}

/// DC gain, −3 dB bandwidth and unity-gain frequency from `h`, an
/// evaluator of `H(jω)` at the output node for angular frequency `ω`.
/// Its probes count into `opamp.crossing_evals` once, whatever the
/// outcome.
///
/// # Errors
///
/// [`CircuitError::MeasurementFailure`] naming the metric that could not
/// be measured; evaluator errors propagate where a value is required.
fn crossings(h: impl Fn(f64) -> Result<Complex64>) -> Result<Crossings> {
    let probes = std::cell::Cell::new(0u64);
    let probe = |omega| {
        probes.set(probes.get() + 1);
        h(omega)
    };
    let result = search_crossings(probe, |h, target, f_lo, f_hi| {
        find_crossing_freq(h, target, f_lo, f_hi)
    });
    bmf_obs::counters::OPAMP_CROSSING_EVALS.add(probes.get());
    result
}

/// [`crossings`] without the count, each crossing found by `find` (the
/// tests pass the bisection reference here).
fn search_crossings<H: Fn(f64) -> Result<Complex64>>(
    h: H,
    find: impl Fn(&H, f64, f64, f64) -> Option<f64>,
) -> Result<Crossings> {
    let gain0 = h(0.0)?.abs();
    if !(gain0 > 1.0) {
        return Err(CircuitError::MeasurementFailure {
            metric: "dc gain",
            reason: format!("|H(0)| = {gain0:.3e} <= 1"),
        });
    }
    let bandwidth_hz = find(&h, gain0 / 2f64.sqrt(), 1.0, 1e11).ok_or_else(|| {
        CircuitError::MeasurementFailure {
            metric: "-3dB bandwidth",
            reason: "no crossing in [1 Hz, 100 GHz]".to_string(),
        }
    })?;
    let unity_hz =
        find(&h, 1.0, bandwidth_hz, 1e12).ok_or_else(|| CircuitError::MeasurementFailure {
            metric: "unity-gain frequency",
            reason: "no crossing above the -3dB point".to_string(),
        })?;
    Ok(Crossings {
        gain0,
        bandwidth_hz,
        unity_hz,
    })
}

/// Points of the log scan that brackets a crossing.
const SCAN_POINTS: usize = 60;

/// Half the log-width `ln(f_b/f_a)`, in ulps of 1, at which the polish
/// stops: the bracket is then a few ulps of `f` wide.
const POLISH_ULPS: f64 = 2.0;

/// Hard cap on the polish steps. A crossing of the op-amp takes at most 10
/// (over the 2,000 seeded dies per stage and the 12σ corners of the tests).
const MAX_POLISH_STEPS: usize = 64;

/// Finds the frequency (Hz) where `|H|` first crosses `target` from above
/// in `[f_lo, f_hi]`: a 60-point log scan brackets the first crossing
/// ([`scan_bracket`]) and a safeguarded false position polishes it inside
/// that bracket ([`polish`]). Returns `None` if no bracket is found or a
/// probe fails (`h` errs or `|H|` is NaN).
fn find_crossing_freq(
    h: impl Fn(f64) -> Result<Complex64>,
    target: f64,
    f_lo: f64,
    f_hi: f64,
) -> Option<f64> {
    let mag = |f: f64| -> f64 { h(TWO_PI * f).map(|v| v.abs()).unwrap_or(f64::NAN) };
    polish(mag, target, scan_bracket(mag, target, f_lo, f_hi)?)
}

/// The first step of a [`SCAN_POINTS`]-point log grid over `[f_lo, f_hi]`
/// whose upper end has `|H| ≤ target`, as `(f, |H|)` at both ends (`|H|
/// > target` at the lower). `None` if `|H(f_lo)|` is not above `target`,
/// a probe is NaN, or the grid never falls to `target`.
fn scan_bracket(
    mag: impl Fn(f64) -> f64,
    target: f64,
    f_lo: f64,
    f_hi: f64,
) -> Option<[(f64, f64); 2]> {
    let l0 = f_lo.log10();
    let l1 = f_hi.log10();
    let mut prev = (f_lo, mag(f_lo));
    if !(prev.1 > target) {
        return None; // already below target at the low end
    }
    for k in 1..=SCAN_POINTS {
        let f = 10f64.powf(l0 + (l1 - l0) * k as f64 / SCAN_POINTS as f64);
        let m = mag(f);
        if m.is_nan() {
            return None;
        }
        if m <= target {
            return Some([prev, (f, m)]);
        }
        prev = (f, m);
    }
    None
}

/// Polishes a [`scan_bracket`] to the crossing by false position on
/// `g = ln(|H|/target)` over `ln f`, which needs no derivative and is near
/// linear across a scan step. The bracket `[f_a, f_b]` keeps
/// `g(f_a) > 0 ≥ g(f_b)` and is held in `f`: each step goes to `f_a·eᵘ`
/// for a `u` within the log-width `w = ln(f_b/f_a)`, so the crossing is
/// resolved to ulps of `f`, not of `ln f`. The safeguards:
/// - a chord that leaves the bracket (or is NaN, as at `|H| = 0`) is
///   replaced by a bisection;
/// - a step within `tol` of an end moves `tol` inside, so a converged end
///   pulls the other one in;
/// - when the same end moves twice running, the value kept at the other
///   end is scaled down (the Anderson–Björck form of the Illinois rule),
///   which keeps the convergence superlinear.
///
/// Stops once `w ≤ 2·tol` (`tol` is [`POLISH_ULPS`] ulps of 1), once no
/// float lies between the ends, or after [`MAX_POLISH_STEPS`]; returns
/// the bracket's geometric centre, or `None` at a NaN probe.
fn polish(mag: impl Fn(f64) -> f64, target: f64, bracket: [(f64, f64); 2]) -> Option<f64> {
    const TOL: f64 = POLISH_ULPS * f64::EPSILON;
    let g = |m: f64| (m / target).ln();
    let [(mut fa, mut ga), (mut fb, mut gb)] = bracket.map(|(f, m)| (f, g(m)));
    let mut last_above = None;
    for _ in 0..MAX_POLISH_STEPS {
        let w = (fb / fa).ln();
        if w <= 2.0 * TOL {
            break;
        }
        // Where the chord crosses zero, as a share of the log-width.
        let t = ga / (ga - gb);
        let u = if t > 0.0 && t <= 1.0 {
            (t * w).max(TOL).min(w - TOL)
        } else {
            0.5 * w
        };
        let f = fa * u.exp();
        if !(f > fa && f < fb) {
            break;
        }
        let gf = g(mag(f));
        if gf.is_nan() {
            return None;
        }
        let above = gf > 0.0;
        let (moved, kept) = if above {
            fa = f;
            (&mut ga, &mut gb)
        } else {
            fb = f;
            (&mut gb, &mut ga)
        };
        if last_above == Some(above) {
            let scale = 1.0 - gf / *moved;
            *kept *= if scale > 0.0 { scale } else { 0.5 };
        }
        *moved = gf;
        last_above = Some(above);
    }
    Some((fa * fb).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(101)
    }

    #[test]
    fn nominal_schematic_is_a_working_opamp() {
        let tb = OpAmpTestbench::default_45nm();
        let p = tb.nominal_performance(Stage::Schematic).unwrap();
        assert!(
            p.gain_db > 50.0 && p.gain_db < 110.0,
            "gain = {} dB",
            p.gain_db
        );
        assert!(
            p.bandwidth_hz > 1e2 && p.bandwidth_hz < 1e7,
            "bw = {} Hz",
            p.bandwidth_hz
        );
        assert!(
            p.power_w > 1e-5 && p.power_w < 1e-3,
            "power = {} W",
            p.power_w
        );
        assert!(p.offset_v.abs() < 1e-3, "offset = {} V", p.offset_v);
        assert!(
            p.phase_margin_deg > 30.0 && p.phase_margin_deg < 120.0,
            "pm = {}°",
            p.phase_margin_deg
        );
    }

    #[test]
    fn post_layout_shifts_the_nominal_point() {
        let tb = OpAmpTestbench::default_45nm();
        let sch = tb.nominal_performance(Stage::Schematic).unwrap();
        let lay = tb.nominal_performance(Stage::PostLayout).unwrap();
        // Lower gain (gm/ro degradation) — note the −3 dB corner itself may
        // move *up* because bw ≈ GBW/A₀ and A₀ dropped.
        assert!(lay.gain_db < sch.gain_db);
        // The nominal point must shift noticeably in every AC metric — this
        // is what makes the paper's shift operation (§4.1) necessary.
        assert!((lay.bandwidth_hz - sch.bandwidth_hz).abs() / sch.bandwidth_hz > 0.01);
        assert!(lay.phase_margin_deg < sch.phase_margin_deg); // extra load cap
        assert!(lay.power_w > sch.power_w * 0.9); // overhead vs headroom squeeze
        assert!(lay.offset_v > sch.offset_v); // systematic offset added
    }

    #[test]
    fn monte_carlo_samples_spread_around_nominal() {
        let tb = OpAmpTestbench::default_45nm();
        let mut r = rng();
        let nominal = tb.nominal_performance(Stage::Schematic).unwrap();
        let n = 60;
        let mut gains = Vec::new();
        let mut offsets = Vec::new();
        for _ in 0..n {
            let p = tb.sample_performance(Stage::Schematic, &mut r).unwrap();
            gains.push(p.gain_db);
            offsets.push(p.offset_v);
        }
        let gain_mean: f64 = gains.iter().sum::<f64>() / n as f64;
        assert!((gain_mean - nominal.gain_db).abs() < 5.0);
        // Offsets scatter around ~0 with mV-scale spread.
        let off_sd: f64 = {
            let m: f64 = offsets.iter().sum::<f64>() / n as f64;
            (offsets.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n as f64 - 1.0)).sqrt()
        };
        assert!(off_sd > 1e-5 && off_sd < 1e-2, "offset sd = {off_sd}");
        // Samples are not all identical.
        assert!(gains.iter().any(|&g| (g - gains[0]).abs() > 1e-6));
    }

    #[test]
    fn sampling_is_reproducible_with_same_seed() {
        let tb = OpAmpTestbench::default_45nm();
        let mut r1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(5);
        let a = tb.sample_performance(Stage::PostLayout, &mut r1).unwrap();
        let b = tb.sample_performance(Stage::PostLayout, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn metric_order_is_stable() {
        let p = OpAmpPerformance {
            gain_db: 1.0,
            bandwidth_hz: 2.0,
            power_w: 3.0,
            offset_v: 4.0,
            phase_margin_deg: 5.0,
        };
        assert_eq!(p.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(OpAmpPerformance::metric_names()[2], "power_w");
    }

    #[test]
    fn headroom_compression_is_asymmetric() {
        let tb = OpAmpTestbench::default_45nm();
        // Fast corner (negative dVth) keeps full headroom at schematic…
        assert_eq!(tb.headroom_factor(-0.05, Stage::Schematic), 1.0);
        // …slow corner loses current.
        assert!(tb.headroom_factor(0.05, Stage::Schematic) < 1.0);
        // Post-layout IR drop makes the same corner worse.
        assert!(
            tb.headroom_factor(0.05, Stage::PostLayout)
                < tb.headroom_factor(0.05, Stage::Schematic)
        );
        // Never collapses below the floor.
        assert!(tb.headroom_factor(1.0, Stage::PostLayout) >= 0.2);
    }

    #[test]
    fn invalid_design_is_rejected() {
        let mut design = OpAmpTestbench::default_45nm().design;
        design.cc = -1e-12;
        assert!(OpAmpTestbench::new(
            design,
            TechnologyParams::nmos_45nm(),
            TechnologyParams::pmos_45nm(),
            VariationModel::nominal_45nm(),
            LayoutParasitics::default_45nm(),
        )
        .is_err());
    }

    #[test]
    fn crossing_finder_agrees_with_analytic_rc() {
        // Single-pole RC: crossing of 1/√2 is exactly f_c, whichever way
        // H(jω) is evaluated.
        let r = 1e3;
        let c = 1e-9;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        let tf = ac.transfer_function(2).unwrap();
        let dense = |w: f64| ac.transfer(2, w);
        let pencil = |w: f64| tf.eval(w);
        for f in [
            find_crossing_freq(dense, std::f64::consts::FRAC_1_SQRT_2, 1.0, 1e10).unwrap(),
            find_crossing_freq(pencil, std::f64::consts::FRAC_1_SQRT_2, 1.0, 1e10).unwrap(),
        ] {
            assert!((f - fc).abs() <= 1e-12 * fc, "f = {f}, fc = {fc}");
        }
        // No crossing when the target is above the passband value.
        assert!(find_crossing_freq(dense, 2.0, 1.0, 1e10).is_none());
        assert!(find_crossing_freq(pencil, 2.0, 1.0, 1e10).is_none());
    }

    #[test]
    fn failed_probe_inside_the_bracket_is_no_crossing() {
        // One pole at f_c ≈ 159 kHz. The log scan over [1 Hz, 10 GHz]
        // brackets it between 10^(31/6) ≈ 147 kHz and 10^(32/6) ≈ 215 kHz;
        // every probe strictly inside (150, 210) kHz fails, so the first
        // polish step (≈ 157 kHz, the chord in log–log) does.
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let one_pole =
            |w: f64| Complex64::ONE / Complex64::new(1.0, w / (2.0 * std::f64::consts::PI * fc));
        let in_hole = |w: f64| {
            let f = w / (2.0 * std::f64::consts::PI);
            f > 150e3 && f < 210e3
        };
        let target = std::f64::consts::FRAC_1_SQRT_2;
        assert!(find_crossing_freq(|w| Ok(one_pole(w)), target, 1.0, 1e10).is_some());
        let nan = |w: f64| {
            Ok(if in_hole(w) {
                Complex64::new(f64::NAN, f64::NAN)
            } else {
                one_pole(w)
            })
        };
        assert_eq!(find_crossing_freq(nan, target, 1.0, 1e10), None);
        let err = |w: f64| {
            if in_hole(w) {
                Err(CircuitError::SingularSystem { omega: w })
            } else {
                Ok(one_pole(w))
            }
        };
        assert_eq!(find_crossing_freq(err, target, 1.0, 1e10), None);
        // So a die whose bandwidth probe fails is a measurement failure.
        let die = |w: f64| nan(w).map(|h| h * 1e3);
        assert!(matches!(
            crossings(die),
            Err(CircuitError::MeasurementFailure {
                metric: "-3dB bandwidth",
                ..
            })
        ));
    }

    /// The reference measurement: the same crossings on `h`, and the phase
    /// margin unwrapped along a 240-point log sweep from a decade below the
    /// −3 dB corner up to the unity-gain frequency.
    fn measure_ac_swept(h: impl Fn(f64) -> Result<Complex64>) -> Result<AcMetrics> {
        let c = crossings(&h)?;
        let f_start = (c.bandwidth_hz / 10.0).max(1e-2);
        let points = 240;
        let l0 = f_start.log10();
        let l1 = c.unity_hz.log10();
        let mut prev = h(TWO_PI * f_start)?.arg();
        // Phase relative to the DC phase (0 for the double-inverting path).
        let mut unwrapped = prev - h(0.0)?.arg();
        for k in 1..=points {
            let f = 10f64.powf(l0 + (l1 - l0) * k as f64 / points as f64);
            let cur = h(TWO_PI * f)?.arg();
            let mut delta = cur - prev;
            while delta > std::f64::consts::PI {
                delta -= std::f64::consts::TAU;
            }
            while delta < -std::f64::consts::PI {
                delta += std::f64::consts::TAU;
            }
            unwrapped += delta;
            prev = cur;
        }
        Ok(AcMetrics {
            gain_db: 20.0 * c.gain0.log10(),
            bandwidth_hz: c.bandwidth_hz,
            phase_margin_deg: 180.0 + unwrapped.to_degrees(),
        })
    }

    /// The reference crossing search: the same log scan, its bracket then
    /// bisected 60 times in log f.
    fn find_crossing_freq_bisected(
        h: impl Fn(f64) -> Result<Complex64>,
        target: f64,
        f_lo: f64,
        f_hi: f64,
    ) -> Option<f64> {
        let mag = |f: f64| -> f64 { h(TWO_PI * f).map(|v| v.abs()).unwrap_or(f64::NAN) };
        let [(mut lo, _), (mut hi, _)] = scan_bracket(mag, target, f_lo, f_hi)?;
        for _ in 0..60 {
            let mid = (lo.log10() + hi.log10()) / 2.0;
            let fm = 10f64.powf(mid);
            let m = mag(fm);
            if m.is_nan() {
                return None;
            }
            if m > target {
                lo = fm;
            } else {
                hi = fm;
            }
        }
        Some((lo * hi).sqrt())
    }

    /// The crossings of `tf` by `find`, with the phase margin at the unity
    /// crossing, as `(name, value)` pairs.
    fn crossings_and_margin(
        tf: &RationalTransfer,
        find: impl Fn(&dyn Fn(f64) -> Result<Complex64>, f64, f64, f64) -> Option<f64>,
    ) -> Result<[(&'static str, f64); 4]> {
        let eval: &dyn Fn(f64) -> Result<Complex64> = &|w| tf.eval(w);
        let c = search_crossings(eval, |h, t, lo, hi| find(*h, t, lo, hi))?;
        Ok([
            ("dc gain", c.gain0),
            ("bandwidth", c.bandwidth_hz),
            ("unity frequency", c.unity_hz),
            ("phase margin", phase_margin(tf, c.unity_hz)?),
        ])
    }

    /// Asserts that two measurements of one die agree to `rel` relative,
    /// metric by metric, or fail with the same metric; returns whether
    /// they failed.
    fn assert_agree<const N: usize>(
        label: &str,
        a: Result<[(&str, f64); N]>,
        b: Result<[(&str, f64); N]>,
        rel: f64,
    ) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                for ((name, x), (_, y)) in a.into_iter().zip(b) {
                    assert!(
                        (x - y).abs() <= rel * x.abs(),
                        "{label}: {name} {x} vs {y} ({:.2e} relative)",
                        (x - y).abs() / x.abs()
                    );
                }
                false
            }
            (
                Err(CircuitError::MeasurementFailure { metric: m1, .. }),
                Err(CircuitError::MeasurementFailure { metric: m2, .. }),
            ) => {
                assert_eq!(m1, m2, "{label}");
                true
            }
            (a, b) => panic!("{label}: {a:?} vs {b:?}"),
        }
    }

    /// Calls `check` with the MNA analysis of each of `dies` seeded dies
    /// per stage that biases (bias failures happen before any evaluator
    /// is built) and a label naming the die.
    fn for_each_die(
        tb: &OpAmpTestbench,
        dies: usize,
        seed: u64,
        mut check: impl FnMut(&str, &AcAnalysis),
    ) {
        for stage in [Stage::Schematic, Stage::PostLayout] {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            for die in 0..dies {
                let vars = tb.draw_variations(&mut r, stage);
                if let Ok(biased) = tb.bias_die(stage, &vars) {
                    check(
                        &format!("{stage} die {die}"),
                        &AcAnalysis::new(&biased.netlist),
                    );
                }
            }
        }
    }

    /// Measures `dies` seeded dies per stage twice: the testbench's way, on
    /// the extracted transfer function with the phase from its roots, and
    /// the reference way, on the dense per-ω solve with the swept phase.
    /// The metrics must agree to 1e-9 relative and the same dies must fail
    /// with the same metric. Returns the number of measurement failures.
    fn check_pencil_against_dense(tb: &OpAmpTestbench, dies: usize, seed: u64) -> usize {
        let mut failures = 0;
        let metrics = |m: AcMetrics| {
            [
                ("gain", m.gain_db),
                ("bandwidth", m.bandwidth_hz),
                ("phase margin", m.phase_margin_deg),
            ]
        };
        for_each_die(tb, dies, seed, |label, ac| {
            let tf = ac.transfer_function(OUT_NODE).unwrap();
            let dense = measure_ac_swept(|w| ac.transfer(OUT_NODE, w)).map(metrics);
            let pencil = measure_ac(&tf, &mut PhaseClock::start()).map(metrics);
            failures += usize::from(assert_agree(label, dense, pencil, 1e-9));
        });
        failures
    }

    /// Crosses `dies` seeded dies per stage by the polish and by the
    /// bisection reference on the same transfer function: the crossings
    /// and the phase margin must agree to 1e-13 relative and the same
    /// dies must fail with the same metric. Returns the number of
    /// measurement failures.
    fn check_polish_against_bisection(tb: &OpAmpTestbench, dies: usize, seed: u64) -> usize {
        let mut failures = 0;
        for_each_die(tb, dies, seed, |label, ac| {
            let tf = ac.transfer_function(OUT_NODE).unwrap();
            let polished =
                crossings_and_margin(&tf, |h, t, lo, hi| find_crossing_freq(h, t, lo, hi));
            let bisected = crossings_and_margin(&tf, |h, t, lo, hi| {
                find_crossing_freq_bisected(h, t, lo, hi)
            });
            failures += usize::from(assert_agree(label, bisected, polished, 1e-13));
        });
        failures
    }

    #[test]
    fn phase_margin_matches_analytic_transfers() {
        let real = Complex64::from_re;
        let f_u = 1e6;
        let w = TWO_PI * f_u;
        let (p1, w0, zeta) = (TWO_PI * 1e3, TWO_PI * 3e6, 0.4);
        let lag = |p: f64| -(w / p).atan();
        let pair = Complex64::new(-zeta * w0, w0 * (1.0 - zeta * zeta).sqrt());
        // (zeros, poles, ∠H(jω_u) in radians).
        let cases = [
            (vec![], vec![real(-p1)], lag(p1)),
            (
                vec![],
                vec![real(-p1), real(-TWO_PI * 3e6), real(-TWO_PI * 2e7)],
                lag(p1) + lag(TWO_PI * 3e6) + lag(TWO_PI * 2e7),
            ),
            (
                vec![],
                vec![real(-p1), pair, pair.conj()],
                lag(p1) - (2.0 * zeta * w0 * w).atan2(w0 * w0 - w * w),
            ),
            // The Miller zero in the right half-plane lags like a pole.
            (
                vec![real(TWO_PI * 2e7)],
                vec![real(-p1), real(-TWO_PI * 4e6)],
                lag(TWO_PI * 2e7) + lag(p1) + lag(TWO_PI * 4e6),
            ),
            // A triple pole, which the root finder resolves only to about
            // ε^{1/3}: the root sum must pick the turn, not the value.
            (vec![], vec![real(-p1); 3], 3.0 * lag(p1)),
        ];
        for (zeros, poles, phase) in cases {
            // The gain that puts the unity crossing at f_u.
            let unit = RationalTransfer::from_roots(1.0, &zeros, &poles);
            let gain = 1.0 / unit.eval(w).unwrap().abs();
            let h = RationalTransfer::from_roots(gain, &zeros, &poles);
            let pm = measure_ac(&h, &mut PhaseClock::start())
                .unwrap()
                .phase_margin_deg;
            let expected = 180.0 + phase.to_degrees();
            assert!(
                (pm - expected).abs() <= 1e-12 * expected.abs(),
                "{} poles, {} zeros: {pm} vs {expected}",
                poles.len(),
                zeros.len()
            );
        }
    }

    #[test]
    fn root_on_the_axis_below_unity_is_a_phase_margin_failure() {
        // A lossless resonance at 10 kHz under a unity crossing near 21 kHz.
        let w0 = TWO_PI * 1e4;
        let h = RationalTransfer::from_roots(
            1e3,
            &[],
            &[
                Complex64::from_re(-TWO_PI * 100.0),
                Complex64::new(0.0, w0),
                Complex64::new(0.0, -w0),
            ],
        );
        assert!(matches!(
            measure_ac(&h, &mut PhaseClock::start()),
            Err(CircuitError::MeasurementFailure {
                metric: "phase margin",
                ..
            })
        ));
    }

    #[test]
    fn unconverged_root_solve_is_a_phase_margin_failure() {
        let h = RationalTransfer::from_roots(1e3, &[], &[Complex64::from_re(f64::NAN)]);
        assert!(matches!(
            phase_margin(&h, 1e5),
            Err(CircuitError::MeasurementFailure {
                metric: "phase margin",
                ..
            })
        ));
    }

    #[test]
    fn pencil_measurement_matches_dense_oracle() {
        let tb = OpAmpTestbench::default_45nm();
        assert_eq!(check_pencil_against_dense(&tb, 2000, 2015), 0);
    }

    /// Every σ twelve-fold: corner dies whose λ nearly vanishes have their
    /// −3 dB corner below 1 Hz.
    fn corner_testbench() -> OpAmpTestbench {
        let base = OpAmpTestbench::default_45nm();
        let v = VariationModel::nominal_45nm();
        let wide = VariationModel {
            sigma_vth_global: 12.0 * v.sigma_vth_global,
            avt: 12.0 * v.avt,
            sigma_kprime_global: 12.0 * v.sigma_kprime_global,
            ak: 12.0 * v.ak,
            sigma_lambda_global: 12.0 * v.sigma_lambda_global,
        };
        OpAmpTestbench::new(base.design, base.nmos, base.pmos, wide, base.parasitics).unwrap()
    }

    #[test]
    fn pencil_measurement_matches_dense_oracle_at_corners() {
        // Both paths must reject the same corner dies with the same metric.
        let failures = check_pencil_against_dense(&corner_testbench(), 1000, 7);
        assert!(failures > 0, "the widened run must reach failing dies");
    }

    #[test]
    fn polished_crossings_match_the_bisection_reference() {
        let tb = OpAmpTestbench::default_45nm();
        assert_eq!(check_polish_against_bisection(&tb, 2000, 2015), 0);
        let failures = check_polish_against_bisection(&corner_testbench(), 1000, 7);
        assert!(failures > 0, "the widened run must reach failing dies");
    }
}
