//! End-to-end equivalence of the chunked streaming scheduler with the
//! batch engine, over a realistic transmit chain:
//!
//! ```text
//! OfdmSource → RappPa → AwgnChannel(fixed reference) → PowerMeter
//! ```
//!
//! The issue's acceptance criteria: chunked execution is sample-exact
//! against batch for several chunk sizes (including non-divisors of the
//! frame length), per-edge buffers stay bounded by the chunk size after
//! warm-up, and the parallel scenario runner reproduces sequential results
//! for the same seeds.

use ofdm_core::params::presets::minimal_test_params;
use ofdm_core::source::OfdmSource;
use rfsim::prelude::*;
use rfsim::Graph;

/// Builds the reference TX → PA → channel → meter chain. The AWGN block
/// uses a fixed reference power so its σ does not depend on chunking.
fn build_chain(seed: u64) -> (Graph, BlockId, BlockId, BlockId, BlockId) {
    let mut g = Graph::new();
    let src = g.add(OfdmSource::new(minimal_test_params(), 480, seed).unwrap());
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
    let ch = g.add(AwgnChannel::from_snr_db(25.0, seed ^ 0xA5A5).with_reference_power(1.0));
    let meter = g.add(PowerMeter::new());
    g.connect(src, pa, 0).unwrap();
    g.connect(pa, ch, 0).unwrap();
    g.connect(ch, meter, 0).unwrap();
    (g, src, pa, ch, meter)
}

#[test]
fn chunked_run_is_bit_identical_to_batch() {
    let (mut batch, _, _, ch, meter) = build_chain(17);
    batch.execute(&ExecPlan::batch()).unwrap();
    let want = batch.output(ch).unwrap().clone();
    let want_power = batch.block::<PowerMeter>(meter).unwrap().power().unwrap();
    // 480 payload bits / 24 per symbol → 20 symbols × 80 samples = 1600.
    assert_eq!(want.len(), 1600);

    // Chunk sizes: tiny, a non-divisor of both the symbol (80) and frame
    // (1600) lengths, the symbol length, and larger-than-frame.
    for chunk_len in [1usize, 7, 77, 80, 256, 5000] {
        let (mut g, _, _, ch, meter) = build_chain(17);
        g.probe(ch).unwrap();
        g.execute(&ExecPlan::streaming(chunk_len)).unwrap();
        let got = g.output(ch).unwrap();
        assert_eq!(got, &want, "chunk_len {chunk_len}");
        let got_power = g.block::<PowerMeter>(meter).unwrap().power().unwrap();
        assert_eq!(got_power, want_power, "chunk_len {chunk_len}");
    }
}

#[test]
fn unprobed_nodes_retain_nothing_probed_nodes_everything() {
    let (mut g, src, pa, ch, meter) = build_chain(3);
    g.probe(ch).unwrap();
    g.execute(&ExecPlan::streaming(128)).unwrap();
    assert!(g.output(src).is_none(), "unprobed source must not retain");
    assert!(g.output(pa).is_none(), "unprobed PA must not retain");
    assert!(g.output(meter).is_none(), "unprobed meter must not retain");
    assert_eq!(g.output(ch).unwrap().len(), 1600);
    // The instrument still measured the whole pass.
    assert!(g.block::<PowerMeter>(meter).unwrap().power().is_some());
}

/// Per-edge memory is bounded by the chunk size: stream one frame chunk by
/// chunk through the PA block directly and check its reused output buffer
/// never grows beyond one chunk (plus slack for the initial reserve).
#[test]
fn per_edge_buffers_are_bounded_by_chunk_size() {
    let chunk_len = 64usize;
    let mut src = OfdmSource::new(minimal_test_params(), 480, 9).unwrap();
    let mut pa = RappPa::new(1.0, 3.0);
    src.begin_stream();
    Block::begin_stream(&mut pa);
    let mut chunk = Signal::default();
    let mut out = Signal::default();
    let mut total = 0usize;
    loop {
        let n = src.stream_chunk(chunk_len, &mut chunk).unwrap();
        if n == 0 {
            break;
        }
        pa.process_chunk(&[&chunk], &mut out).unwrap();
        total += out.len();
        assert!(
            chunk.capacity() <= 2 * chunk_len && out.capacity() <= 2 * chunk_len,
            "edge buffers must stay O(chunk): src cap {} pa cap {}",
            chunk.capacity(),
            out.capacity()
        );
    }
    pa.end_stream().unwrap();
    assert_eq!(total, 1600, "whole frame must have flowed through");
}

/// The parallel scenario runner reproduces a sequential sweep bit for bit:
/// same per-scenario seeds → same measured powers, in scenario order.
#[test]
fn parallel_scenario_sweep_reproduces_sequential() {
    let sweep = |threads: usize| -> Vec<(f64, usize)> {
        let (results, _) = SweepPlan::new(6)
            .threads(threads)
            .run_fail_fast(|i| -> Result<(f64, usize), SimError> {
                let seed = scenario_seed(1234, i);
                let (mut g, _, _, ch, meter) = build_chain(seed);
                g.probe(ch).unwrap();
                // Mix batch and streaming scenarios: both engines must give
                // the same result for the same seed either way.
                let plan = if i % 2 == 0 {
                    ExecPlan::batch()
                } else {
                    ExecPlan::streaming(100 + i)
                };
                g.execute(&plan)?;
                let p = g.block::<PowerMeter>(meter).unwrap().power().unwrap();
                Ok((p, g.output(ch).unwrap().len()))
            })
            .unwrap();
        results
    };
    let seq = sweep(1);
    let par = sweep(4);
    assert_eq!(seq, par);
    for (p, len) in &seq {
        assert_eq!(*len, 1600);
        // 8 dB input back-off puts the PA output near 10^{-0.8} ≈ 0.16 of
        // the unit-power frame; AWGN at 25 dB under the unit reference adds
        // a further ~0.003.
        assert!((*p - 0.16).abs() < 0.05, "power {p}");
    }
}

/// Fresh instances of every interior block shipped in `rfsim`: each runs
/// through its one chunk kernel, and `process` is that kernel over the
/// whole pass as one chunk.
fn whole_pass_blocks() -> Vec<Box<dyn Block>> {
    use ofdm_dsp::Complex64;
    let mask = vec![
        MaskPoint {
            offset_hz: 1.5e6,
            limit_dbr: -20.0,
        },
        MaskPoint {
            offset_hz: 2.5e6,
            limit_dbr: -40.0,
        },
    ];
    let fir = ofdm_dsp::fir::lowpass(21, 0.2, ofdm_dsp::window::Window::Hamming);
    let echoes = vec![
        Complex64::new(1.0, 0.0),
        Complex64::new(0.3, -0.2),
        Complex64::ZERO,
        Complex64::new(-0.1, 0.05),
    ];
    let paths = vec![(0, 0.7), (3, 0.2), (9, 0.1)];
    vec![
        Box::new(RappPa::new(1.0, 3.0).with_input_backoff_db(3.0)),
        Box::new(SalehPa::classic()),
        Box::new(SoftClipPa::new(0.8)),
        Box::new(AwgnChannel::from_snr_db(12.0, 42).with_reference_power(1.0)),
        Box::new(MultipathChannel::new(echoes)),
        Box::new(FadingChannel::rician(paths, 2.0, 120.0, 11)),
        Box::new(CfoChannel::new(12_345.0).with_phase(0.4)),
        Box::new(PhaseNoiseChannel::new(5_000.0, 21)),
        Box::new(FirBlock::new(fir)),
        Box::new(ButterworthLowpass::new(4, 1.0e6)),
        Box::new(PowerMeter::new()),
        Box::new(SpectrumAnalyzer::new(64)),
        Box::new(AcprMeter::new(1.0e6, 2.0e6, 64)),
        Box::new(CcdfProbe::new()),
        Box::new(MaskChecker::new(mask, 1.0e6, 64)),
        Box::new(GainBlock::from_db(-3.5)),
        Box::new(SampleDropper::new(0.1, 7)),
        Box::new(NanInjector::new(0.05, 3)),
        Box::new(ClockDriftJitter::new(20.0, 0.01, 9)),
        Box::new(Dac::new(6, 1.2)),
        Box::new(LocalOscillator::new(150.0e3, 2_000.0, 5)),
        Box::new(Mixer::new()),
        Box::new(Combiner::new()),
        Box::new(IqImbalance::new(1.0, 2.0)),
        Box::new(DslLineChannel::new(13.8, 300.0e3)),
        Box::new(ImpulsiveNoiseChannel::new(20.0, 0.02, 25.0, 13)),
        Box::new(Upsampler::new(4)),
        Box::new(Downsampler::new(2)),
    ]
}

/// What a block measured over its last pass, as bit patterns: instrument
/// readings and impairment fault counters (nothing for pure signal blocks).
fn reading_bits(b: &dyn Block) -> Vec<u64> {
    let any = b as &dyn std::any::Any;
    let values: Vec<f64> = if let Some(m) = any.downcast_ref::<PowerMeter>() {
        m.power().into_iter().collect()
    } else if let Some(sa) = any.downcast_ref::<SpectrumAnalyzer>() {
        sa.psd().expect("measured").to_vec()
    } else if let Some(acpr) = any.downcast_ref::<AcprMeter>() {
        let (lo, up) = acpr.acpr_db().expect("measured");
        vec![lo, up]
    } else if let Some(probe) = any.downcast_ref::<CcdfProbe>() {
        let ccdf = probe.ccdf().expect("measured").into_iter().map(|(_, p)| p);
        ccdf.chain(probe.papr_db()).collect()
    } else if let Some(chk) = any.downcast_ref::<MaskChecker>() {
        chk.margin_db().into_iter().collect()
    } else if let Some(d) = any.downcast_ref::<SampleDropper>() {
        vec![d.dropped() as f64]
    } else if let Some(inj) = any.downcast_ref::<NanInjector>() {
        vec![inj.injected() as f64]
    } else {
        Vec::new()
    };
    values.into_iter().map(f64::to_bits).collect()
}

/// A deterministic two-tone test pass of `n` samples at 8 MHz, offset by
/// `phase` so consecutive passes differ.
fn test_pass(n: usize, phase: f64) -> Signal {
    let fs = 8.0e6;
    let samples = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            ofdm_dsp::Complex64::cis(std::f64::consts::TAU * 0.4e6 * t + phase)
                + ofdm_dsp::Complex64::cis(std::f64::consts::TAU * 2.1e6 * t).scale(0.05)
        })
        .collect();
    Signal::new(samples, fs)
}

/// A signal's samples as bit patterns, so NaN outputs compare exactly.
fn sample_bits(s: &Signal) -> (Vec<u64>, Vec<u64>, u64) {
    (
        s.re().iter().map(|x| x.to_bits()).collect(),
        s.im().iter().map(|x| x.to_bits()).collect(),
        s.sample_rate().to_bits(),
    )
}

/// Two consecutive `process` passes equal two streamed passes
/// (`begin_stream`, `process_chunk` per chunk, `end_stream`) bit for bit —
/// outputs and instrument readings — at chunk sizes 1, 7 and the whole
/// pass, for every interior block. Two-input blocks get the same chunk on
/// both ports.
#[test]
fn every_whole_pass_block_streams_bit_identically() {
    let passes = [test_pass(300, 0.0), test_pass(257, 1.3)];
    let count = whole_pass_blocks().len();
    assert_eq!(count, 28, "one entry per whole-pass block");
    for k in 0..count {
        let mut batch = whole_pass_blocks().swap_remove(k);
        let ports = batch.input_count();
        let want: Vec<_> = passes
            .iter()
            .map(|pass| {
                let out = batch.process(&vec![pass.clone(); ports]).unwrap();
                (sample_bits(&out), reading_bits(&*batch))
            })
            .collect();
        // Impulsive noise measures its σ per chunk, so only the whole-pass
        // chunk reproduces the batch pass.
        let chunk_lens: &[Option<usize>] = if batch.name() == "impulsive-noise-channel" {
            &[None]
        } else {
            &[Some(1), Some(7), None]
        };
        for &chunk_len in chunk_lens {
            let mut streamed = whole_pass_blocks().swap_remove(k);
            for (pass, want) in passes.iter().zip(&want) {
                let chunk_len = chunk_len.unwrap_or(pass.len());
                streamed.begin_stream();
                let mut got = Signal::default();
                let mut chunk = Signal::default();
                let mut out = Signal::default();
                for pos in (0..pass.len()).step_by(chunk_len) {
                    chunk.assign_range(pass, pos, chunk_len.min(pass.len() - pos));
                    streamed
                        .process_chunk(&vec![&chunk; ports], &mut out)
                        .unwrap();
                    // Resamplers change the rate: take it from the output.
                    got.extend_from_parts(out.re(), out.im());
                    got.set_sample_rate(out.sample_rate());
                }
                streamed.end_stream().unwrap();
                let got = (sample_bits(&got), reading_bits(&*streamed));
                assert_eq!(&got, want, "{} at chunk_len {chunk_len}", batch.name());
            }
        }
    }
}
