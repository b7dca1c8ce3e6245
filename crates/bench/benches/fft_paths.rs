//! FFT-path ablation (DESIGN.md §6): the radix-2 engine vs Bluestein's
//! algorithm for the non-power-of-two DRM lengths, and scaling across the
//! family's transform sizes. Each bench holds one `FftScratch` and calls
//! the `*_in` forms, as the transmitter and receivers do, so Bluestein's
//! work buffer is allocated once rather than timed on every call.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ofdm_dsp::fft::{Fft, FftScratch};
use ofdm_dsp::Complex64;
use std::hint::black_box;

fn test_vector(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_engine");
    // 256 (DRM mode B, radix-2) vs 288 (DRM mode A, Bluestein): the two
    // neighbouring sizes show the Bluestein cost factor directly.
    for &n in &[112usize, 128, 176, 256, 288] {
        let fft = Fft::new(n);
        let input = test_vector(n);
        let label = if fft.is_radix2() {
            "radix2"
        } else {
            "bluestein"
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new(label, n), &input, |b, input| {
            let mut buf = input.clone();
            let mut scratch = FftScratch::new();
            b.iter(|| {
                buf.copy_from_slice(input);
                fft.forward_in(&mut buf, &mut scratch);
                black_box(&buf);
            });
        });
    }
    group.finish();
}

fn bench_family_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_family_sizes");
    group.sample_size(20);
    // One IFFT per standard's transform length.
    for &(name, n) in &[
        ("wlan_64", 64usize),
        ("homeplug_256", 256),
        ("drm_a_288", 288),
        ("adsl_512", 512),
        ("dab_2048", 2048),
        ("vdsl_8192", 8192),
    ] {
        let fft = Fft::new(n);
        let input = test_vector(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &input, |b, input| {
            let mut buf = input.clone();
            let mut scratch = FftScratch::new();
            b.iter(|| {
                buf.copy_from_slice(input);
                fft.inverse_in(&mut buf, &mut scratch);
                black_box(&buf);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_family_sizes);
criterion_main!(benches);
