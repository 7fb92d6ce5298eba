//! Criterion benchmarks for the circuit-simulation substrate.

use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::fft::fft_real;
use bmf_circuits::mna::AcAnalysis;
use bmf_circuits::monte_carlo::Stage;
use bmf_circuits::netlist::Netlist;
use bmf_circuits::opamp::OpAmpTestbench;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

fn bench_mna_solve(c: &mut Criterion) {
    // Ladder network with `n` RC sections.
    let mut group = c.benchmark_group("mna_solve");
    for &sections in &[5usize, 20, 50] {
        let mut nl = Netlist::new(sections + 2);
        nl.voltage_source(1, 0, 1.0).expect("node");
        for k in 0..sections {
            nl.resistor(k + 1, k + 2, 1e3).expect("node");
            nl.capacitor(k + 2, 0, 1e-12).expect("node");
        }
        let ac = AcAnalysis::new(&nl);
        group.bench_with_input(BenchmarkId::new("rc_ladder", sections), &ac, |b, ac| {
            b.iter(|| ac.solve(black_box(1e6)).expect("solve"))
        });
    }
    group.finish();
}

fn bench_opamp_sample(c: &mut Criterion) {
    let tb = OpAmpTestbench::default_45nm();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    c.bench_function("opamp_mc_sample", |b| {
        b.iter(|| {
            tb.sample_performance(Stage::PostLayout, &mut rng)
                .expect("sample")
        })
    });
}

fn bench_adc_sample(c: &mut Criterion) {
    let tb = AdcTestbench::default_180nm();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    c.bench_function("adc_mc_sample", |b| {
        b.iter(|| {
            tb.sample_performance(Stage::PostLayout, &mut rng)
                .expect("sample")
        })
    });
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[1024usize, 4096] {
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        group.bench_with_input(BenchmarkId::new("real", n), &signal, |b, s| {
            b.iter(|| fft_real(black_box(s)).expect("power of two"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mna_solve,
    bench_opamp_sample,
    bench_adc_sample,
    bench_fft
);
criterion_main!(benches);
