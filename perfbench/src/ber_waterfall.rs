//! `ber_waterfall`: BER-vs-SNR sweeps as the shipped `--waterfall` runs
//! them — `run_waterfall` with a checkpoint path on a two-thread
//! `SweepPlan` — over two grids: all ten standards over AWGN, and a
//! smaller Rayleigh grid. Closed loop: one session (both grids) after
//! another.

use crate::gen::{self, frame_len, WaterfallInputs};
use crate::report::{name_part, Metric, Outcome};
use crate::stats::{median, quantile, ratio};
use crate::trace::{SpanId, Trace};
use crate::{host, RunArgs};
use ofdm_bench::waterfall::{
    checkpoint_label, run_waterfall, waterfall_point, ChannelProfile, WaterfallReport,
    WaterfallSpec,
};
use ofdm_core::ber::{BerCounter, BitSource};
use ofdm_core::MotherModel;
use ofdm_dsp::Complex64;
use ofdm_rx::eq::ChannelEstimate;
use ofdm_rx::receiver::ReferenceReceiver;
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::{AwgnChannel, Block, FadingChannel};
use rfsim::{scenario_seed, SweepCheckpoint, SweepPlan};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sweep worker threads.
const THREADS: usize = 2;

/// Per-point `(errors, bits)` of a grid, in grid-index order.
type Tallies = Vec<(u64, u64)>;
/// Per-curve-point `(standard, snr, errors, bits)` of a grid.
type CurveTallies = Vec<(usize, usize, u64, u64)>;

/// Total transmitted samples of one run of `spec`.
fn grid_samples(spec: &WaterfallSpec) -> Result<u64, String> {
    let cells = (spec.snr_db.len() * spec.realizations) as u64;
    spec.standards
        .iter()
        .map(|&id| Ok(cells * frame_len(&default_params(id), spec.payload_bits)? as u64))
        .sum()
}

/// Curves of `report` flattened to `(standard, snr, errors, bits)`.
fn curve_tallies(report: &WaterfallReport) -> CurveTallies {
    report
        .curves
        .iter()
        .enumerate()
        .flat_map(|(s, c)| {
            c.points
                .iter()
                .enumerate()
                .map(move |(g, p)| (s, g, p.errors, p.bits))
        })
        .collect()
}

/// Aggregates per-point tallies the way `run_waterfall` does.
fn aggregate(spec: &WaterfallSpec, points: &Tallies) -> CurveTallies {
    let mut out = Vec::new();
    for s in 0..spec.standards.len() {
        for g in 0..spec.snr_db.len() {
            let mut c = BerCounter::new();
            for r in 0..spec.realizations {
                let (e, b) = points[(s * spec.snr_db.len() + g) * spec.realizations + r];
                c.add(e, b);
            }
            out.push((s, g, c.errors, c.bits));
        }
    }
    out
}

/// Reference per-point tallies through `waterfall_point`, outside any
/// timed region.
fn reference(spec: &WaterfallSpec) -> Result<Tallies, String> {
    let plan = SweepPlan::new(spec.point_count()).threads(THREADS);
    plan.run_fail_fast(|i| waterfall_point(spec, i))
        .map(|(r, _)| r)
}

/// Warms FFT plans and receiver tables: one point per standard and
/// profile.
fn setup(inputs: &WaterfallInputs) -> Result<(), String> {
    for spec in [&inputs.awgn, &inputs.rayleigh] {
        let per_std = spec.snr_db.len() * spec.realizations;
        for s in 0..spec.standards.len() {
            waterfall_point(spec, s * per_std)?;
        }
    }
    Ok(())
}

/// One timed session: both grids through `run_waterfall`.
fn session(inputs: &WaterfallInputs, work: &Path) -> Result<[WaterfallReport; 2], String> {
    Ok([
        run_waterfall(&inputs.awgn, Some(&work.join("wf-awgn.ckpt.json")))?,
        run_waterfall(&inputs.rayleigh, Some(&work.join("wf-rayleigh.ckpt.json")))?,
    ])
}

/// Per-standard layer totals of a traced session loop.
#[derive(Debug, Default, Clone)]
struct StdLayers {
    points: u64,
    receive_ns: u64,
    decode_failed: u64,
}

/// What the traced loop measured.
#[derive(Debug, Default)]
struct Traced {
    sessions: Vec<f64>,
    point_ms: Vec<f64>,
    awgn_ns: Vec<f64>,
    fading_ns: Vec<f64>,
    per_std: Vec<StdLayers>,
    mismatched: u64,
}

fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Layer timings of one traced grid point.
#[derive(Debug, Clone, Default)]
struct PointLayers {
    fading_ns: Option<u64>,
    awgn_ns: u64,
    receive_ns: u64,
    decode_failed: bool,
    point_ns: u64,
}

/// One grid point split into its layer calls — the steps of
/// `measure_ber_point`, each under its own span.
fn traced_point(
    spec: &WaterfallSpec,
    index: usize,
    trace: &Trace,
    parent: SpanId,
) -> Result<((u64, u64), PointLayers), String> {
    let (std_idx, snr_idx, _) = spec.decompose(index);
    let params = default_params(spec.standards[std_idx]);
    let seed = scenario_seed(spec.base_seed, index);
    let op = index as u64;
    let mut layers = PointLayers::default();
    let t0 = Instant::now();
    let sent = BitSource::new(scenario_seed(seed, 1)).take(spec.payload_bits);
    let mut tx = MotherModel::new(params.clone()).map_err(|e| format!("tx: {e}"))?;
    let frame = tx.transmit(&sent).map_err(|e| format!("transmit: {e}"))?;
    let tx_power = frame.signal().power();
    let t1 = Instant::now();
    trace.span("core:transmit", t0, t1, Some(parent), op);
    let mut rx = ReferenceReceiver::new(params.clone()).map_err(|e| format!("rx: {e}"))?;
    let mut signal = frame.signal().clone();
    if let ChannelProfile::Rayleigh { paths } = &spec.profile {
        let f0 = Instant::now();
        let mut fading = FadingChannel::rayleigh(paths.clone(), 0.0, scenario_seed(seed, 2));
        signal = fading
            .process(std::slice::from_ref(&signal))
            .map_err(|e| format!("fading: {e}"))?;
        let fft = params.map.fft_size() as f64;
        let known: Vec<(i32, Complex64)> = params
            .map
            .data_carriers()
            .iter()
            .map(|&k| (k, fading.freq_response_at(k as f64 / fft, 0, 1.0)))
            .collect();
        let reference: Vec<(i32, Complex64)> =
            known.iter().map(|&(k, _)| (k, Complex64::ONE)).collect();
        rx.set_channel_estimate(ChannelEstimate::from_reference(&known, &reference));
        let f1 = Instant::now();
        trace.span("rfsim:fading", f0, f1, Some(parent), op);
        layers.fading_ns = Some(ns(f0, f1));
    }
    let a0 = Instant::now();
    let mut awgn = AwgnChannel::from_snr_db(spec.snr_db[snr_idx], scenario_seed(seed, 3))
        .with_reference_power(tx_power);
    let noisy = awgn
        .process(std::slice::from_ref(&signal))
        .map_err(|e| format!("awgn: {e}"))?;
    let a1 = Instant::now();
    trace.span("rfsim:awgn", a0, a1, Some(parent), op);
    let got = rx.receive(&noisy, sent.len());
    let r1 = Instant::now();
    trace.span("rx:receive", a1, r1, Some(parent), op);
    layers.awgn_ns = ns(a0, a1);
    layers.receive_ns = ns(a1, r1);
    let mut counter = BerCounter::new();
    match got {
        Ok(bits) => counter.record(&sent, &bits),
        Err(_) => {
            counter.add(sent.len() as u64, sent.len() as u64);
            layers.decode_failed = true;
        }
    }
    Ok(((counter.errors, counter.bits), layers))
}

/// The traced loop: the same sessions, driving `SweepPlan` and
/// `SweepCheckpoint` as `run_waterfall` does, with a spanned point.
fn traced_sessions(
    inputs: &WaterfallInputs,
    refs: &[Tallies; 2],
    work: &Path,
    window: Duration,
    trace: &Trace,
) -> Traced {
    let mut out = Traced {
        per_std: vec![StdLayers::default(); StandardId::ALL.len()],
        ..Traced::default()
    };
    let start = Instant::now();
    let mut session_id = 0u64;
    while out.sessions.is_empty() || start.elapsed() < window {
        let s0 = Instant::now();
        let session = trace.open("sweep:session", s0, None, session_id);
        for (k, spec) in [&inputs.awgn, &inputs.rayleigh].into_iter().enumerate() {
            let count = spec.point_count();
            let grid = trace.open("sweep:grid", Instant::now(), Some(session), session_id);
            let path: PathBuf = work.join(format!("wf-traced-{k}.ckpt.json"));
            let Ok(mut ckpt) = SweepCheckpoint::load(&path, &checkpoint_label(spec), count) else {
                out.mismatched += count as u64;
                continue;
            };
            // Layer timings travel beside the checkpointed tallies.
            let layers: Mutex<Vec<Option<PointLayers>>> = Mutex::new(vec![None; count]);
            let plan = SweepPlan::new(count).threads(THREADS);
            let (outcomes, _) = plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| {
                let p0 = Instant::now();
                let point = trace.open("sweep:point", p0, Some(grid), i as u64);
                let (tally, mut l) = traced_point(spec, i, trace, point)?;
                let p1 = Instant::now();
                trace.close(point, p1);
                l.point_ns = ns(p0, p1);
                layers.lock().expect("no point panics")[i] = Some(l);
                Ok::<_, String>(tally)
            });
            let _ = ckpt.discard();
            trace.close(grid, Instant::now());
            let layers = layers.into_inner().expect("no point panics");
            for (i, (o, l)) in outcomes.iter().zip(layers).enumerate() {
                let (Some(&tally), Some(l)) = (o.result(), l) else {
                    out.mismatched += 1;
                    continue;
                };
                if refs[k][i] != tally {
                    out.mismatched += 1;
                }
                let id = spec.standards[spec.decompose(i).0];
                if let Some(pos) = StandardId::ALL.iter().position(|&s| s == id) {
                    let per = &mut out.per_std[pos];
                    per.points += 1;
                    per.receive_ns += l.receive_ns;
                    per.decode_failed += u64::from(l.decode_failed);
                }
                out.awgn_ns.push(l.awgn_ns as f64);
                if let Some(f) = l.fading_ns {
                    out.fading_ns.push(f as f64);
                }
                out.point_ms.push(l.point_ns as f64 / 1e6);
            }
        }
        let s1 = Instant::now();
        trace.close(session, s1);
        out.sessions.push((s1 - s0).as_secs_f64());
        session_id += 1;
    }
    out
}

/// Runs the workload.
///
/// # Errors
///
/// A message if a grid cannot be built or run.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = gen::ber_waterfall(args.seed);
    // Warm once before the reference; the timed setups are below.
    setup(&inputs)?;
    let refs = [reference(&inputs.awgn)?, reference(&inputs.rayleigh)?];
    let samples = grid_samples(&inputs.awgn)? + grid_samples(&inputs.rayleigh)?;
    let points = (inputs.awgn.point_count() + inputs.rayleigh.point_count()) as u64;

    // The window is cut into one segment per timed setup, so the setups
    // sample the same stretches of host speed as the sessions.
    let window = args.window();
    let count = args.setups();
    let mut setups = Vec::with_capacity(count);
    let start = Instant::now();
    let mut times = Vec::new();
    // Every session must reproduce the per-point reference and the first
    // session exactly. Each is checked as it ends, outside its timing,
    // and only the first is kept, so memory does not grow with the
    // session count.
    let want = [
        aggregate(&inputs.awgn, &refs[0]),
        aggregate(&inputs.rayleigh, &refs[1]),
    ];
    let grids = [&inputs.awgn, &inputs.rayleigh];
    let mut first: Option<[CurveTallies; 2]> = None;
    for k in 1..=count {
        let t = Instant::now();
        setup(&inputs)?;
        setups.push(t.elapsed().as_secs_f64());
        let until = start + window.mul_f64(k as f64 / count as f64);
        while times.is_empty() || Instant::now() < until {
            let t = Instant::now();
            let r = session(&inputs, &args.work_dir)?;
            times.push(t.elapsed().as_secs_f64());
            let got = [curve_tallies(&r[0]), curve_tallies(&r[1])];
            let first = first.get_or_insert_with(|| got.clone());
            for (k, spec) in grids.iter().enumerate() {
                if got[k] != want[k] || got[k] != first[k] {
                    // The grid's points are all counted wrong.
                    out.failed += spec.point_count() as u64;
                    out.fail(format!(
                        "ber_waterfall session {} grid {k}: tallies differ from the reference",
                        times.len() - 1
                    ));
                }
            }
        }
    }

    out.attempted = points * times.len() as u64;

    let wall: f64 = times.iter().sum();
    out.notes.push(format!(
        "session ms p10/p50/p90/max: {:.1} / {:.1} / {:.1} / {:.1} over {} sessions",
        quantile(&times, 0.1) * 1e3,
        quantile(&times, 0.5) * 1e3,
        quantile(&times, 0.9) * 1e3,
        quantile(&times, 1.0) * 1e3,
        times.len()
    ));
    // The shared host runs some stretches much faster than its usual
    // speed: throughput is read at the session time 90% of sessions beat.
    let lat: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new(
            "sim_msps",
            "Msps",
            ratio(samples as f64 / 1e6, quantile(&times, 0.9)),
            times.len(),
        ),
        Metric::new("op_latency_ms.p95", "ms", quantile(&lat, 0.95), lat.len()),
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
        quantile(&lat, 0.5),
        lat.len(),
    ));
    out.workload.push(Metric::new(
        "waterfall_points_per_s",
        "1/s",
        ratio(out.attempted as f64, wall),
        out.attempted as usize,
    ));
    out.workload.push(Metric::new(
        "failed_share",
        "share",
        ratio(out.failed as f64, out.attempted as f64),
        out.attempted as usize,
    ));

    for (k, spec) in [&inputs.awgn, &inputs.rayleigh].into_iter().enumerate() {
        let label = spec.profile.label();
        let per_std = spec.snr_db.len() * spec.realizations;
        for (s, id) in spec.standards.iter().enumerate() {
            let cells = &want[k][s * spec.snr_db.len()..(s + 1) * spec.snr_db.len()];
            let tallies: Vec<String> = cells.iter().map(|c| format!("{}/{}", c.2, c.3)).collect();
            let failures = refs[k][s * per_std..(s + 1) * per_std]
                .iter()
                .filter(|(e, b)| e == b && *b > 0)
                .count();
            out.digest.push(format!(
                "ber_waterfall.{label}.{} samples_per_point={} errors/bits={} decode_failures={failures}/{per_std}",
                id.key(),
                frame_len(&default_params(*id), spec.payload_bits)?,
                tallies.join(",")
            ));
        }
    }

    if args.trace {
        let trace = Trace::new();
        let t = traced_sessions(&inputs, &refs, &args.work_dir, window, &trace);
        if t.mismatched > 0 {
            out.fail(format!(
                "ber_waterfall traced: {} points differ from waterfall_point",
                t.mismatched
            ));
        }
        let traced_wall: f64 = t.sessions.iter().sum();
        let busy: f64 = t.point_ms.iter().sum::<f64>() / 1e3;
        let layers = &mut out.layers;
        for (id, l) in StandardId::ALL.iter().zip(&t.per_std) {
            layers.push(Metric::new(
                format!("rx.receive_ns_per_point.{}", name_part(id.key())),
                "ns",
                ratio(l.receive_ns as f64, l.points as f64),
                l.points as usize,
            ));
        }
        let failed: u64 = t.per_std.iter().map(|l| l.decode_failed).sum();
        layers.push(Metric::new(
            "rx.decode_failed_share",
            "share",
            ratio(failed as f64, t.point_ms.len() as f64),
            t.point_ms.len(),
        ));
        layers.push(Metric::new(
            "rfsim.awgn_ns_per_point",
            "ns",
            t.awgn_ns.iter().sum::<f64>() / t.awgn_ns.len() as f64,
            t.awgn_ns.len(),
        ));
        layers.push(Metric::new(
            "rfsim.fading_ns_per_point",
            "ns",
            t.fading_ns.iter().sum::<f64>() / t.fading_ns.len() as f64,
            t.fading_ns.len(),
        ));
        layers.push(Metric::new(
            "sweep.busy_share",
            "share",
            ratio(busy, traced_wall * THREADS as f64),
            t.point_ms.len(),
        ));
        layers.push(Metric::new(
            "sweep.point_ms.p50",
            "ms",
            quantile(&t.point_ms, 0.5),
            t.point_ms.len(),
        ));
        layers.push(Metric::new(
            "sweep.point_ms.p95",
            "ms",
            quantile(&t.point_ms, 0.95),
            t.point_ms.len(),
        ));
        let traced_rate = ratio(t.point_ms.len() as f64, traced_wall);
        let plain_rate = ratio(out.attempted as f64, wall);
        layers.push(Metric::new(
            "trace.overhead_share",
            "share",
            1.0 - ratio(traced_rate, plain_rate),
            t.sessions.len(),
        ));
        out.self_time = trace.self_time_ms();
        if let Err(e) = trace.write(&args.work_dir.join("trace-ber_waterfall.json")) {
            out.notes.push(format!("trace not written: {e}"));
        }
    }
    Ok(out)
}
