//! Streaming-path benchmarks: the chunked scheduler vs the batch engine,
//! the frame emitter's buffer-reuse path vs `transmit`, and the parallel
//! scenario runner's scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ofdm_bench::payload_bits;
use ofdm_core::source::OfdmSource;
use ofdm_core::{MotherModel, StreamState};
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;
use std::hint::black_box;

const RATE: WlanRate = WlanRate::Mbps12;

/// OFDM source → PA → AWGN (fixed reference) → power meter: every block in
/// the chain has a native streaming override.
fn build_chain(bits: usize) -> (Graph, BlockId) {
    let mut g = Graph::new();
    let src = g.add(OfdmSource::new(ieee80211a::params(RATE), bits, 1).expect("valid preset"));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
    let ch = g.add(AwgnChannel::from_snr_db(20.0, 5).with_reference_power(0.16));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, pa, ch, meter]).expect("wires");
    (g, meter)
}

fn bench_batch_vs_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    let n_symbols = 100usize;
    let bits = n_symbols * RATE.n_cbps() / 2 - 6;
    group.bench_function(BenchmarkId::new("batch", n_symbols), |b| {
        let (mut g, _) = build_chain(bits);
        b.iter(|| g.execute(&ExecPlan::batch()).expect("runs"));
    });
    for &chunk in &[80usize, 320, 1280] {
        group.bench_function(BenchmarkId::new(format!("chunk{chunk}"), n_symbols), |b| {
            let (mut g, _) = build_chain(bits);
            b.iter(|| g.execute(&ExecPlan::streaming(chunk)).expect("runs"));
        });
    }
    group.finish();
}

fn bench_frame_emitter(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_emitter");
    group.sample_size(10);
    let payload = payload_bits(50 * RATE.n_cbps() / 2 - 6, 3);

    group.bench_function("transmit_alloc", |b| {
        let mut tx = MotherModel::new(ieee80211a::params(RATE)).expect("valid");
        b.iter(|| black_box(tx.transmit(&payload).expect("transmits")));
    });
    group.bench_function("stream_reuse", |b| {
        let mut tx = MotherModel::new(ieee80211a::params(RATE)).expect("valid");
        let mut state = StreamState::new();
        let mut out = Vec::new();
        b.iter(|| {
            tx.begin_stream(&payload, &mut state).expect("streams");
            out.clear();
            while tx.stream_into(&mut state, 4096, &mut out) > 0 {}
            black_box(out.len())
        });
    });
    group.finish();
}

/// An 8-scenario back-off sweep at 1 vs 4 worker threads. On a single-core
/// host the two are equal (modulo spawn overhead); speedup tracks the
/// number of physical cores available.
fn bench_scenario_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_runner");
    group.sample_size(10);
    let bits = 50 * RATE.n_cbps() / 2 - 6;
    let sweep = |threads: usize| {
        SweepPlan::new(8)
            .threads(threads)
            .run_fail_fast(|i| -> Result<f64, SimError> {
                let mut g = Graph::new();
                let src = g.add(
                    OfdmSource::new(ieee80211a::params(RATE), bits, scenario_seed(7, i))
                        .expect("valid preset"),
                );
                let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(i as f64));
                let meter = g.add(PowerMeter::new());
                g.chain(&[src, pa, meter])?;
                g.execute(&ExecPlan::batch())?;
                Ok(g.block::<PowerMeter>(meter)
                    .expect("present")
                    .power()
                    .expect("ran"))
            })
            .expect("sweep runs")
            .0
    };
    for &threads in &[1usize, 4] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| black_box(sweep(threads)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_vs_streaming,
    bench_frame_emitter,
    bench_scenario_runner
);
criterion_main!(benches);
