//! Batched split-kernel benchmarks (DESIGN.md §3.5): the SoA hot loops
//! against the retained per-sample polar paths they replaced, on a real
//! 802.11a envelope. The `pa_speedup` scenario of `experiments bench`
//! tracks the same comparison per standard with hard floors; this bench
//! is the fine-grained criterion view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ofdm_bench::transmit_frame;
use ofdm_dsp::{kernels, Complex64};
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use std::hint::black_box;

/// An 802.11a frame tiled to at least `min` samples, as split components.
fn test_envelope(min: usize) -> (Vec<f64>, Vec<f64>) {
    let frame = transmit_frame(&ieee80211a::params(WlanRate::Mbps54), 12_000, 4);
    let (frame_re, frame_im) = frame.signal().parts();
    let (mut re, mut im) = (Vec::new(), Vec::new());
    while re.len() < min {
        re.extend_from_slice(frame_re);
        im.extend_from_slice(frame_im);
    }
    (re, im)
}

fn bench_pa_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("pa_kernels");
    let (re, im) = test_envelope(1 << 15);
    let n = re.len();
    let samples: Vec<Complex64> = re
        .iter()
        .zip(&im)
        .map(|(&r, &i)| Complex64::new(r, i))
        .collect();
    group.throughput(Throughput::Elements(n as u64));

    let rapp = RappPa::new(1.0, 3.0).with_input_backoff_db(8.0);
    let saleh = SalehPa::classic().with_gain_db(-12.0);
    let clip = SoftClipPa::new(1.0).with_gain_db(-6.0);

    let mut split = |name: &str, apply: &dyn Fn(&mut [f64], &mut [f64])| {
        group.bench_with_input(BenchmarkId::new("batched", name), &(), |b, ()| {
            let mut wre = re.clone();
            let mut wim = im.clone();
            b.iter(|| {
                wre.copy_from_slice(&re);
                wim.copy_from_slice(&im);
                apply(&mut wre, &mut wim);
                black_box((&wre, &wim));
            });
        });
    };
    split("rapp_p3", &|r, i| rapp.apply_split(r, i));
    split("saleh", &|r, i| saleh.apply_split(r, i));
    split("softclip", &|r, i| clip.apply_split(r, i));

    let mut polar = |name: &str, oracle: &dyn Fn(Complex64) -> Complex64| {
        group.bench_with_input(BenchmarkId::new("scalar_polar", name), &(), |b, ()| {
            let mut out = samples.clone();
            b.iter(|| {
                for (dst, &z) in out.iter_mut().zip(&samples) {
                    *dst = oracle(z);
                }
                black_box(&out);
            });
        });
    };
    polar("rapp_p3", &|z| rapp.distort_reference(z));
    polar("saleh", &|z| saleh.distort_reference(z));
    polar("softclip", &|z| clip.distort_reference(z));
    group.finish();
}

fn bench_split_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("split_primitives");
    let (re, im) = test_envelope(1 << 15);
    let n = re.len();
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function("scale_split", |b| {
        let mut wre = re.clone();
        let mut wim = im.clone();
        b.iter(|| {
            // Alternate inverse gains so the buffer neither decays to zero
            // nor overflows across iterations.
            kernels::scale_split(&mut wre, &mut wim, 1.0009);
            kernels::scale_split(&mut wre, &mut wim, 1.0 / 1.0009);
            black_box((&wre, &wim));
        });
    });
    group.bench_function("sum_power_split", |b| {
        b.iter(|| black_box(kernels::sum_power_split(&re, &im)));
    });
    group.bench_function("interleave", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            kernels::interleave(&re, &im, &mut out);
            black_box(&out);
        });
    });
    group.bench_function("deinterleave", |b| {
        let mut out = Vec::new();
        kernels::interleave(&re, &im, &mut out);
        let (mut wre, mut wim) = (Vec::new(), Vec::new());
        b.iter(|| {
            kernels::deinterleave(&out, &mut wre, &mut wim);
            black_box((&wre, &wim));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pa_kernels, bench_split_primitives);
criterion_main!(benches);
