//! `tx_chain`: the paper's co-simulation use. Each standard's Mother
//! Model drives an `OfdmSource` → `RappPa` → `PowerMeter` lineup through
//! `Graph::execute(&ExecPlan::streaming(256))`, one frame per run, with
//! every standard pushing about the same sample count; each round also
//! sends one 802.11a payload through the behavioral model and the RTL
//! transmitter (the C3 ratio). Closed loop, one thread.

use crate::gen::{self, frame_len, TxChainInputs, C3_SYMBOLS};
use crate::report::{name_part, Metric, Outcome};
use crate::stats::{median, quantile, ratio};
use crate::trace::Trace;
use crate::{host, RunArgs};
use ofdm_core::params::OfdmParams;
use ofdm_core::source::OfdmSource;
use ofdm_core::tx::StageNanos;
use ofdm_core::MotherModel;
use ofdm_rtl::Tx80211aRtl;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{default_params, ieee80211a, StandardId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfsim::prelude::{ExecPlan, Graph, PowerMeter, RappPa};
use rfsim::{Block, BlockId, BlockRole, Signal, SimError};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Samples every standard's frame is sized to reach.
pub const TARGET_SAMPLES: usize = 65_536;
/// Streaming chunk length of the lineup.
const CHUNK: usize = 256;

/// One standard's frame geometry.
#[derive(Debug, Clone)]
struct Lane {
    id: StandardId,
    params: OfdmParams,
    payload_bits: usize,
    samples: usize,
}

/// Sizes each standard's payload so its frame has about
/// [`TARGET_SAMPLES`] samples. Depends on the parameter sets only.
fn size_lanes() -> Result<Vec<Lane>, String> {
    StandardId::ALL
        .iter()
        .map(|&id| {
            let params = default_params(id);
            let (lo, hi) = (4_000, 40_000);
            let (s_lo, s_hi) = (frame_len(&params, lo)?, frame_len(&params, hi)?);
            let per_bit = (s_hi - s_lo) as f64 / (hi - lo) as f64;
            let payload_bits = if per_bit > 0.0 {
                (lo as f64 + (TARGET_SAMPLES as f64 - s_lo as f64) / per_bit).max(1.0) as usize
            } else {
                hi
            };
            let samples = frame_len(&params, payload_bits)?;
            Ok(Lane {
                id,
                params,
                payload_bits,
                samples,
            })
        })
        .collect()
}

/// Wraps a block and sums the time of its calls, so a traced run can
/// split `Graph::execute` into block time and scheduler time.
struct Timed<B> {
    inner: B,
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl<B> Timed<B> {
    fn new(inner: B) -> Self {
        Timed {
            inner,
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn record(&self, since: Instant) {
        self.busy_ns.fetch_add(ns_since(since), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(busy_ns, calls)` since the last take.
    fn take(&self) -> (u64, u64) {
        (
            self.busy_ns.swap(0, Ordering::Relaxed),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

impl<B: Block> Block for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn input_count(&self) -> usize {
        self.inner.input_count()
    }
    fn role(&self) -> BlockRole {
        self.inner.role()
    }
    fn process(&mut self, inputs: &[Signal]) -> Result<Signal, SimError> {
        let t = Instant::now();
        let r = self.inner.process(inputs);
        self.record(t);
        r
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn begin_stream(&mut self) {
        self.inner.begin_stream();
    }
    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        let t = Instant::now();
        let r = self.inner.process_chunk(inputs, out);
        self.record(t);
        r
    }
    fn end_stream(&mut self) -> Result<(), SimError> {
        let t = Instant::now();
        let r = self.inner.end_stream();
        self.record(t);
        r
    }
    fn supports_streaming(&self) -> bool {
        self.inner.supports_streaming()
    }
    fn stream_chunk(&mut self, max_samples: usize, out: &mut Signal) -> Result<usize, SimError> {
        let t = Instant::now();
        let r = self.inner.stream_chunk(max_samples, out);
        self.record(t);
        r
    }
}

/// One standard's lineup.
struct Chain {
    graph: Graph,
    src: BlockId,
    pa: BlockId,
    meter: BlockId,
    traced: bool,
}

impl Chain {
    fn build(lane: &Lane, seed: u64, traced: bool) -> Result<Chain, String> {
        let mut src = OfdmSource::new(lane.params.clone(), lane.payload_bits, seed)
            .map_err(|e| e.to_string())?;
        let mut graph = Graph::new();
        let pa = RappPa::new(1.0, 3.0);
        let meter = PowerMeter::new();
        let (src, pa, meter) = if traced {
            src.set_stage_timing(true);
            (
                graph.add(Timed::new(src)),
                graph.add(Timed::new(pa)),
                graph.add(Timed::new(meter)),
            )
        } else {
            (graph.add(src), graph.add(pa), graph.add(meter))
        };
        graph.chain(&[src, pa, meter]).map_err(|e| e.to_string())?;
        Ok(Chain {
            graph,
            src,
            pa,
            meter,
            traced,
        })
    }

    fn power(&self) -> Option<f64> {
        if self.traced {
            self.graph
                .block::<Timed<PowerMeter>>(self.meter)
                .and_then(|m| m.inner.power())
        } else {
            self.graph
                .block::<PowerMeter>(self.meter)
                .and_then(PowerMeter::power)
        }
    }

    /// Traced chains only: `(source, pa, meter)` busy time and calls.
    fn take_block_times(&self) -> [(u64, u64); 3] {
        let g = &self.graph;
        let src = g
            .block::<Timed<OfdmSource>>(self.src)
            .map_or((0, 0), Timed::take);
        let pa = g
            .block::<Timed<RappPa>>(self.pa)
            .map_or((0, 0), Timed::take);
        let meter = g
            .block::<Timed<PowerMeter>>(self.meter)
            .map_or((0, 0), Timed::take);
        [src, pa, meter]
    }

    fn stage_nanos(&self) -> StageNanos {
        self.graph
            .block::<Timed<OfdmSource>>(self.src)
            .map(|s| s.inner.stage_nanos())
            .unwrap_or_default()
    }
}

/// Everything a timed loop needs, built by [`setup`].
struct Rig {
    chains: Vec<Chain>,
    behavioral: MotherModel,
    rtl: Tx80211aRtl,
    /// One model per lane for timing the bit chain (traced rigs).
    bitchain: Vec<MotherModel>,
    /// Each chain's first-pass meter reading.
    first_power: Vec<f64>,
}

/// Builds the lineups and the C3 pair, and runs each once to warm FFT
/// plans and buffers.
fn setup(lanes: &[Lane], inputs: &TxChainInputs, traced: bool) -> Result<Rig, String> {
    let plan = ExecPlan::streaming(CHUNK);
    let mut chains = Vec::with_capacity(lanes.len());
    let mut first_power = Vec::with_capacity(lanes.len());
    for (lane, &seed) in lanes.iter().zip(&inputs.source_seeds) {
        let mut chain = Chain::build(lane, seed, traced)?;
        chain.graph.execute(&plan).map_err(|e| e.to_string())?;
        first_power.push(chain.power().ok_or("power meter saw no samples")?);
        if traced {
            chain.take_block_times();
        }
        chains.push(chain);
    }
    let mut behavioral =
        MotherModel::new(ieee80211a::params(gen::C3_RATE)).map_err(|e| e.to_string())?;
    let rtl = Tx80211aRtl::new(gen::C3_RATE);
    black_box(
        behavioral
            .transmit(&inputs.c3_payload)
            .map_err(|e| e.to_string())?,
    );
    black_box(rtl.transmit(&inputs.c3_payload));
    let bitchain = if traced {
        lanes
            .iter()
            .map(|l| MotherModel::new(l.params.clone()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    Ok(Rig {
        chains,
        behavioral,
        rtl,
        bitchain,
        first_power,
    })
}

/// Per-lane layer totals of a traced loop.
#[derive(Debug, Default, Clone)]
struct LaneLayers {
    runs: u64,
    samples: u64,
    exec_ns: u64,
    source_ns: u64,
    pa_ns: u64,
    meter_ns: u64,
    bitchain_ns: u64,
    stages: StageNanos,
}

/// What one timed loop measured.
#[derive(Debug, Default)]
struct Measured {
    /// `(lane, ns)` per chain run.
    runs: Vec<(usize, u64)>,
    /// Throughput of each round (every lineup once), in Msps.
    round_msps: Vec<f64>,
    /// Mean frame latency of each round (round time over lineups), in ms.
    round_frame_ms: Vec<f64>,
    behavioral_ns: Vec<f64>,
    rtl_ns: Vec<f64>,
    layers: Vec<LaneLayers>,
    failed: u64,
}

impl Measured {
    /// The throughput 90% of rounds reach (10th percentile of round
    /// throughput). Shared hosts run some stretches much faster than
    /// their usual speed; this figure follows the usual speed.
    fn msps(&self) -> f64 {
        quantile(&self.round_msps, 0.1)
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn ns_since(t: Instant) -> u64 {
    ns_between(t, Instant::now())
}

/// Runs rounds (every lineup once, then the C3 pair) into `m`, at
/// least one and then until `until`.
fn measure(
    rig: &mut Rig,
    lanes: &[Lane],
    inputs: &TxChainInputs,
    until: Instant,
    trace: Option<&Trace>,
    m: &mut Measured,
) {
    let plan = ExecPlan::streaming(CHUNK);
    m.layers.resize(lanes.len(), LaneLayers::default());
    let bit_payloads: Vec<Vec<u8>> = if trace.is_some() {
        lanes
            .iter()
            .zip(&inputs.source_seeds)
            .map(|(l, &s)| mirror_payload(s, l.payload_bits))
            .collect()
    } else {
        Vec::new()
    };
    let round_samples: usize = lanes.iter().map(|l| l.samples).sum();
    loop {
        let mut round_ns = 0;
        for k in 0..lanes.len() {
            let lane = (k + inputs.rotation) % lanes.len();
            let op = m.runs.len() as u64;
            let chain = &mut rig.chains[lane];
            let stages_before = trace.map(|_| chain.stage_nanos());
            let t0 = Instant::now();
            let ok = chain.graph.execute(&plan).is_ok();
            let t1 = Instant::now();
            let ns = ns_between(t0, t1);
            if !ok || !chain.power().is_some_and(|p| p.is_finite() && p > 0.0) {
                m.failed += 1;
            }
            m.runs.push((lane, ns));
            round_ns += ns;
            if let (Some(trace), Some(before)) = (trace, stages_before) {
                let l = &mut m.layers[lane];
                let [src, pa, meter] = chain.take_block_times();
                let after = chain.stage_nanos();
                let stages = StageNanos {
                    pilot: after.pilot - before.pilot,
                    map: after.map - before.map,
                    ifft: after.ifft - before.ifft,
                    cp: after.cp - before.cp,
                    symbols: after.symbols - before.symbols,
                };
                let root = trace.span("rfsim:graph.execute", t0, t1, None, op);
                let sid = trace.folded("core:source", (t0, t1), Some(root), op, src.0, src.1);
                trace.folded("rfsim:pa", (t0, t1), Some(root), op, pa.0, pa.1);
                trace.folded("rfsim:meter", (t0, t1), Some(root), op, meter.0, meter.1);
                for (name, ns) in [
                    ("core:stage.pilot", stages.pilot),
                    ("core:stage.map", stages.map),
                    ("core:stage.ifft", stages.ifft),
                    ("core:stage.cp", stages.cp),
                ] {
                    trace.folded(name, (t0, t1), Some(sid), op, ns, stages.symbols);
                }
                // The bit chain runs inside the source's first chunk and
                // cannot be wrapped there; time the same call on a payload
                // of the same size right after.
                let b0 = Instant::now();
                black_box(rig.bitchain[lane].encode_payload(&bit_payloads[lane]));
                let b1 = Instant::now();
                trace.span("core:bitchain", b0, b1, None, op);
                l.runs += 1;
                l.samples += lanes[lane].samples as u64;
                l.exec_ns += ns;
                l.source_ns += src.0;
                l.pa_ns += pa.0;
                l.meter_ns += meter.0;
                l.bitchain_ns += ns_between(b0, b1);
                l.stages.pilot += stages.pilot;
                l.stages.map += stages.map;
                l.stages.ifft += stages.ifft;
                l.stages.cp += stages.cp;
                l.stages.symbols += stages.symbols;
            }
        }
        m.round_msps
            .push(ratio(round_samples as f64 * 1e3, round_ns as f64));
        m.round_frame_ms
            .push(round_ns as f64 / 1e6 / lanes.len() as f64);
        let t0 = Instant::now();
        let frame = rig.behavioral.transmit(&inputs.c3_payload);
        let t1 = Instant::now();
        black_box(rig.rtl.transmit(&inputs.c3_payload));
        let t2 = Instant::now();
        if black_box(frame).is_err() {
            m.failed += 1;
        }
        m.behavioral_ns.push((t1 - t0).as_nanos() as f64);
        m.rtl_ns.push((t2 - t1).as_nanos() as f64);
        if let Some(trace) = trace {
            let op = m.runs.len() as u64;
            trace.span("core:transmit", t0, t1, None, op);
            trace.span("rtl:transmit", t1, t2, None, op);
        }
        if Instant::now() >= until {
            break;
        }
    }
}

/// The payload an `OfdmSource` seeded with `seed` sends on its first
/// pass (it draws one `gen_range(0..=1)` per bit from `StdRng`).
fn mirror_payload(seed: u64, bits: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..bits).map(|_| rng.gen_range(0..=1u8)).collect()
}

/// Decodes each standard's first frame noise-free and counts bit errors.
fn decode_check(lanes: &[Lane], inputs: &TxChainInputs, out: &mut Outcome) -> Vec<u64> {
    let mut errors = Vec::with_capacity(lanes.len());
    for (lane, &seed) in lanes.iter().zip(&inputs.source_seeds) {
        let key = lane.id.key();
        let result = (|| -> Result<u64, String> {
            let mut src = OfdmSource::new(lane.params.clone(), lane.payload_bits, seed)
                .map_err(|e| e.to_string())?;
            let frame = src.process(&[]).map_err(|e| e.to_string())?;
            if frame.len() != lane.samples {
                return Err(format!(
                    "frame has {} samples, sized for {}",
                    frame.len(),
                    lane.samples
                ));
            }
            let sent = mirror_payload(seed, lane.payload_bits);
            let mut rx = ReferenceReceiver::new(lane.params.clone()).map_err(|e| e.to_string())?;
            let got = rx
                .receive(&frame, sent.len())
                .map_err(|e| format!("decode: {e}"))?;
            Ok(sent.iter().zip(&got).filter(|(a, b)| a != b).count() as u64)
        })();
        match result {
            Ok(0) => errors.push(0),
            Ok(n) => {
                out.fail(format!(
                    "tx_chain {key}: {n} bit errors decoding the noise-free frame"
                ));
                errors.push(n);
            }
            Err(e) => {
                out.fail(format!("tx_chain {key}: {e}"));
                errors.push(u64::MAX);
            }
        }
    }
    errors
}

/// The untraced loop, cut into `setups` segments of `window`: each
/// segment builds a fresh rig with a timed setup and runs rounds on it,
/// so the setups sample the same stretches of host speed as the rounds.
/// Returns the setup times, the first rig's meter readings and the
/// rounds.
fn plain_loop(
    lanes: &[Lane],
    inputs: &TxChainInputs,
    window: Duration,
    setups: usize,
) -> Result<(Vec<f64>, Vec<f64>, Measured), String> {
    let start = Instant::now();
    let mut times = Vec::with_capacity(setups);
    let mut first_power = Vec::new();
    let mut m = Measured::default();
    for k in 1..=setups {
        let t = Instant::now();
        let mut rig = setup(lanes, inputs, false)?;
        times.push(t.elapsed().as_secs_f64());
        if k == 1 {
            first_power = rig.first_power.clone();
        }
        let until = start + window.mul_f64(k as f64 / setups as f64);
        measure(&mut rig, lanes, inputs, until, None, &mut m);
    }
    Ok((times, first_power, m))
}

/// Runs the workload.
///
/// # Errors
///
/// A message if a model or lineup cannot be built.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let lanes = size_lanes()?;
    let inputs = gen::tx_chain(args.seed);
    let window = args.window();
    let (setups, first_power, plain) = plain_loop(&lanes, &inputs, window, args.setups())?;

    let mut traced = None;
    if args.trace {
        let trace = Trace::new();
        let mut rig = setup(&lanes, &inputs, true)?;
        let mut m = Measured::default();
        let until = Instant::now() + window;
        measure(&mut rig, &lanes, &inputs, until, Some(&trace), &mut m);
        traced = Some((trace, m));
    }

    let decode_errors = decode_check(&lanes, &inputs, &mut out);
    let r = &plain.round_msps;
    out.notes.push(format!(
        "round throughput p10/p50/p90/max: {:.3} / {:.3} / {:.3} / {:.3} Msps over {} rounds",
        quantile(r, 0.1),
        quantile(r, 0.5),
        quantile(r, 0.9),
        quantile(r, 1.0),
        r.len()
    ));
    out.attempted = (plain.runs.len() + plain.rtl_ns.len()) as u64;
    out.failed = plain.failed;

    // One operation is a round: its latency is the round's mean frame
    // latency, so the quantiles do not fall between standards' frame
    // times.
    let lat = &plain.round_frame_ms;
    let c3 = ratio(median(&plain.rtl_ns), median(&plain.behavioral_ns));
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new("sim_msps", "Msps", plain.msps(), plain.round_msps.len()),
        Metric::new("op_latency_ms.p95", "ms", quantile(lat, 0.95), lat.len()),
        Metric::new(
            "peak_rss_mb",
            "MB",
            host::peak_rss_mb(None).unwrap_or(f64::NAN),
            1,
        ),
    ];
    out.workload.push(Metric::new(
        "op_latency_ms.p50",
        "ms",
        quantile(lat, 0.5),
        lat.len(),
    ));
    out.workload.push(Metric::new(
        "chain_msps",
        "Msps",
        plain.msps(),
        plain.round_msps.len(),
    ));
    out.workload.push(Metric::new(
        "c3_rtl_over_behavioral",
        "x",
        c3,
        plain.rtl_ns.len(),
    ));
    for (i, lane) in lanes.iter().enumerate() {
        let ns: Vec<f64> = plain
            .runs
            .iter()
            .filter(|r| r.0 == i)
            .map(|r| r.1 as f64)
            .collect();
        let msps = ratio(lane.samples as f64 * 1e3, median(&ns));
        let name = format!("chain_msps.{}", name_part(lane.id.key()));
        out.workload.push(Metric::new(name, "Msps", msps, ns.len()));
    }
    out.workload.push(Metric::new(
        "failed_share",
        "share",
        ratio(out.failed as f64, out.attempted as f64),
        out.attempted as usize,
    ));

    for (i, lane) in lanes.iter().enumerate() {
        out.digest.push(format!(
            "tx_chain.{} payload_bits={} samples={} first_pass_power={:.12e} decode_bit_errors={}",
            lane.id.key(),
            lane.payload_bits,
            lane.samples,
            first_power[i],
            decode_errors[i]
        ));
    }
    let beh = frame_len(&ieee80211a::params(gen::C3_RATE), inputs.c3_payload.len())?;
    let rtl = Tx80211aRtl::new(gen::C3_RATE).transmit(&inputs.c3_payload);
    out.digest.push(format!(
        "tx_chain.c3 payload_bits={} behavioral_samples={beh} rtl_samples={} rtl_cycles={}",
        inputs.c3_payload.len(),
        rtl.samples.len(),
        rtl.cycles
    ));

    if let Some((trace, m)) = traced {
        layer_metrics(&lanes, &plain, &m, &mut out);
        out.self_time = trace.self_time_ms();
        if let Err(e) = trace.write(&args.work_dir.join("trace-tx_chain.json")) {
            out.notes.push(format!("trace not written: {e}"));
        }
    }
    Ok(out)
}

/// The per-layer metrics of a traced loop.
fn layer_metrics(lanes: &[Lane], plain: &Measured, m: &Measured, out: &mut Outcome) {
    let sum = |f: &dyn Fn(&LaneLayers) -> u64| m.layers.iter().map(f).sum::<u64>() as f64;
    let samples = sum(&|l| l.samples);
    let runs = m.runs.len();
    let per_sample = |ns: f64| ratio(ns, samples);
    let layers = &mut out.layers;
    layers.push(Metric::new(
        "core.bitchain_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.bitchain_ns)),
        runs,
    ));
    layers.push(Metric::new(
        "core.stage.pilot_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.stages.pilot)),
        runs,
    ));
    layers.push(Metric::new(
        "core.stage.map_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.stages.map)),
        runs,
    ));
    layers.push(Metric::new(
        "core.stage.ifft_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.stages.ifft)),
        runs,
    ));
    layers.push(Metric::new(
        "core.stage.cp_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.stages.cp)),
        runs,
    ));
    for (lane, l) in lanes.iter().zip(&m.layers) {
        let key = name_part(lane.id.key());
        let n = l.runs as usize;
        let source = l.source_ns as f64;
        let attributed = l.bitchain_ns as f64 + l.stages.total() as f64;
        layers.push(Metric::new(
            format!("core.source_ns_per_sample.{key}"),
            "ns",
            ratio(source, l.samples as f64),
            n,
        ));
        layers.push(Metric::new(
            format!("core.unattributed_share.{key}"),
            "share",
            ratio(source - attributed, source),
            n,
        ));
    }
    let block_ns = sum(&|l| l.source_ns + l.pa_ns + l.meter_ns);
    let exec = sum(&|l| l.exec_ns);
    layers.push(Metric::new(
        "rfsim.pa_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.pa_ns)),
        runs,
    ));
    layers.push(Metric::new(
        "rfsim.meter_ns_per_sample",
        "ns",
        per_sample(sum(&|l| l.meter_ns)),
        runs,
    ));
    layers.push(Metric::new(
        "rfsim.graph_overhead_share",
        "share",
        ratio(exec - block_ns, exec),
        runs,
    ));
    layers.push(Metric::new(
        "rtl.tx_ns_per_symbol",
        "ns",
        median(&m.rtl_ns) / C3_SYMBOLS as f64,
        m.rtl_ns.len(),
    ));
    layers.push(Metric::new(
        "core.tx_ns_per_symbol",
        "ns",
        median(&m.behavioral_ns) / C3_SYMBOLS as f64,
        m.behavioral_ns.len(),
    ));
    fft_metrics(lanes, layers);
    layers.push(Metric::new(
        "trace.overhead_share",
        "share",
        1.0 - ratio(m.msps(), plain.msps()),
        runs,
    ));
}

/// `dsp.fft_ns.<n>`: median inverse-FFT time for every FFT size the ten
/// standards use, through the process-wide plan cache. Timed apart from
/// the chains (inside them the IFFT is `core.stage.ifft`), so it records
/// no spans.
fn fft_metrics(lanes: &[Lane], layers: &mut Vec<Metric>) {
    let mut sizes: Vec<usize> = lanes.iter().map(|l| l.params.map.fft_size()).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for n in sizes {
        let plan = ofdm_dsp::fft::plan(n);
        let mut scratch = ofdm_dsp::fft::FftScratch::new();
        let mut buf: Vec<ofdm_dsp::Complex64> = (0..n)
            .map(|i| ofdm_dsp::Complex64::new((i % 7) as f64 - 3.0, (i % 5) as f64 - 2.0))
            .collect();
        plan.inverse_in(&mut buf, &mut scratch);
        let mut times = Vec::new();
        let start = Instant::now();
        while times.len() < 20
            || (start.elapsed() < Duration::from_millis(40) && times.len() < 5_000)
        {
            let t = Instant::now();
            plan.inverse_in(black_box(&mut buf), &mut scratch);
            times.push(t.elapsed().as_nanos() as f64);
        }
        layers.push(Metric::new(
            format!("dsp.fft_ns.{n}"),
            "ns",
            median(&times),
            times.len(),
        ));
    }
}
