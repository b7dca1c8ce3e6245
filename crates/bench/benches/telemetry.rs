//! Telemetry overhead benchmarks: instrumented vs uninstrumented graph
//! runs, and the transmitter's stage-timing hook on vs off.
//!
//! The acceptance bar is that a streaming plan with telemetry on stays
//! within a few percent of the same plan with telemetry off — the recorder only adds two `Instant`
//! reads and a handful of counter bumps per block invocation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdm_bench::payload_bits;
use ofdm_core::source::OfdmSource;
use ofdm_core::{MotherModel, StreamState};
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use std::hint::black_box;

const RATE: WlanRate = WlanRate::Mbps12;

fn build_chain(bits: usize) -> Graph {
    let mut g = Graph::new();
    let src = g.add(OfdmSource::new(ieee80211a::params(RATE), bits, 1).expect("valid preset"));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, pa, meter]).expect("wires");
    g
}

fn bench_instrumented_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_streaming");
    group.sample_size(10);
    let n_symbols = 100usize;
    let bits = n_symbols * RATE.n_cbps() / 2 - 6;
    for &chunk in &[80usize, 1280] {
        group.bench_function(BenchmarkId::new("plain", chunk), |b| {
            let mut g = build_chain(bits);
            b.iter(|| g.execute(&ExecPlan::streaming(chunk)).expect("runs"));
        });
        group.bench_function(BenchmarkId::new("instrumented", chunk), |b| {
            let mut g = build_chain(bits);
            let plan = ExecPlan::streaming(chunk).with_telemetry(true);
            b.iter(|| black_box(g.execute(&plan).expect("runs")));
        });
    }
    group.finish();
}

fn bench_instrumented_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_batch");
    group.sample_size(10);
    let bits = 100 * RATE.n_cbps() / 2 - 6;
    group.bench_function("plain", |b| {
        let mut g = build_chain(bits);
        b.iter(|| g.execute(&ExecPlan::batch()).expect("runs"));
    });
    group.bench_function("instrumented", |b| {
        let mut g = build_chain(bits);
        let plan = ExecPlan::batch().with_telemetry(true);
        b.iter(|| black_box(g.execute(&plan).expect("runs")));
    });
    group.finish();
}

fn bench_stage_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_timing");
    group.sample_size(10);
    let payload = payload_bits(50 * RATE.n_cbps() / 2 - 6, 3);
    for &timed in &[false, true] {
        let label = if timed { "on" } else { "off" };
        group.bench_function(BenchmarkId::new("stream", label), |b| {
            let mut tx = MotherModel::new(ieee80211a::params(RATE)).expect("valid");
            let mut state = StreamState::new();
            state.set_stage_timing(timed);
            let mut out = Vec::new();
            b.iter(|| {
                tx.begin_stream(&payload, &mut state).expect("streams");
                out.clear();
                while tx.stream_into(&mut state, 4096, &mut out) > 0 {}
                black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_instrumented_streaming,
    bench_instrumented_batch,
    bench_stage_timing
);
criterion_main!(benches);
