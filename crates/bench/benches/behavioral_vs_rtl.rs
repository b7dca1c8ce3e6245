//! E3 benchmark: behavioral Mother Model vs the cycle-scheduled RT-level
//! transmitter, plus the RF-simulation overhead of embedding each.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdm_bench::payload_bits;
use ofdm_core::source::OfdmSource;
use ofdm_core::MotherModel;
use ofdm_rtl::Tx80211aRtl;
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use std::hint::black_box;

const RATE: WlanRate = WlanRate::Mbps12;

fn bench_tx_abstractions(c: &mut Criterion) {
    let mut group = c.benchmark_group("tx_abstraction");
    group.sample_size(10);
    for &n_symbols in &[10usize, 50] {
        let bits = payload_bits(n_symbols * RATE.n_cbps() / 2 - 6, 3);
        group.bench_with_input(
            BenchmarkId::new("behavioral", n_symbols),
            &bits,
            |b, bits| {
                let mut tx = MotherModel::new(ieee80211a::params(RATE)).expect("valid");
                b.iter(|| black_box(tx.transmit(bits).expect("transmits")));
            },
        );
        group.bench_with_input(BenchmarkId::new("rt_level", n_symbols), &bits, |b, bits| {
            let tx = Tx80211aRtl::new(RATE);
            b.iter(|| black_box(tx.transmit(bits)));
        });
    }
    group.finish();
}

fn bench_rf_embedding(c: &mut Criterion) {
    let mut group = c.benchmark_group("rf_embedding");
    group.sample_size(10);
    let bits = 50 * RATE.n_cbps() / 2 - 6;
    let n_samples = 320 + 50 * 80;

    let build_and_run = |use_ofdm: bool| {
        let mut g = Graph::new();
        let src = if use_ofdm {
            g.add(OfdmSource::new(ieee80211a::params(RATE), bits, 1).expect("valid"))
        } else {
            g.add(ToneSource::new(1e6, 20e6, n_samples))
        };
        let dac = g.add(Dac::new(10, 4.0));
        let lo = g.add(LocalOscillator::new(0.0, 100.0, 3));
        let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
        let sa = g.add(SpectrumAnalyzer::new(256));
        g.chain(&[src, dac, lo, pa, sa]).expect("wires");
        g.execute(&ExecPlan::batch()).expect("runs");
        g
    };

    group.bench_function("rf_sim_tone_source", |b| {
        b.iter(|| black_box(build_and_run(false)));
    });
    group.bench_function("rf_sim_ofdm_source", |b| {
        b.iter(|| black_box(build_and_run(true)));
    });
    group.finish();
}

criterion_group!(benches, bench_tx_abstractions, bench_rf_embedding);
criterion_main!(benches);
