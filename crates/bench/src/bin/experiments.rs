//! The experiment harness: runs every EXPERIMENTS.md table from a
//! declarative spec under `examples/lab/`.
//!
//! Run all experiments (release build strongly recommended):
//!
//! ```text
//! cargo run -p ofdm-bench --release --bin experiments
//! ```
//!
//! or a subset by short name: `… --bin experiments -- e1 e3 e6` (a short
//! name can map to several specs — `e11` runs both the AWGN and the
//! Rayleigh grid). Arbitrary spec files run with `--spec FILE`; the spec
//! directory itself moves with `--lab-dir DIR` (default: `examples/lab`
//! next to the workspace). `--list` prints the name → spec table.
//!
//! Lab outputs: `--lab-out FILE` writes the byte-stable `lab/v1` JSON of
//! the (single) run, `--lab-checkpoint FILE` resumes interrupted runs,
//! and `--check-lab FILE` validates an emitted document plus its verdict
//! (the CI gate).
//!
//! Machine-readable telemetry (the C3 claim, decomposed per block and per
//! transmitter stage):
//!
//! ```text
//! … --bin experiments -- --emit-bench BENCH_ofdm.json [--bench-symbols N]
//! … --bin experiments -- --check-bench BENCH_ofdm.json
//! ```
//!
//! Fault-injection smoke sweep (E9 alone): `… --bin experiments -- --faults`.
//!
//! Supervised-runtime smoke sweep (E10 alone): `… --bin experiments -- --supervise`.

use ofdm_bench::lab::{report, ExperimentSpec, LabOptions};
use ofdm_bench::{gates, payload_bits, time_per_run};
use ofdm_core::{MotherModel, StreamState};
use ofdm_rtl::Tx80211aRtl;
use ofdm_standards::ieee80211a::{self, WlanRate};
use ofdm_standards::{default_params, StandardId};
use rfsim::prelude::*;
use serde::json::Value;
use std::path::{Path, PathBuf};

/// Short experiment name → spec files under the lab directory. One name
/// can fan out to several specs (the legacy experiment had several
/// independent parts).
const EXPERIMENTS: [(&str, &[&str]); 13] = [
    ("e1", &["e1.json"]),
    ("e2", &["e2.json"]),
    ("e3", &["e3.json"]),
    ("e4", &["e4.json"]),
    ("e5", &["e5.json"]),
    ("e6", &["e6_pa.json", "e6_lo.json"]),
    ("e7", &["e7.json"]),
    ("e8", &["e8.json"]),
    ("e9", &["e9_faults.json", "e9_dropper.json"]),
    (
        "e10",
        &[
            "e10_watchdog.json",
            "e10_breaker.json",
            "e10_checkpoint.json",
        ],
    ),
    ("e11", &["e11_awgn.json", "e11_rayleigh.json"]),
    ("e12", &["e12.json"]),
    ("e13", &["e13.json"]),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "experiments: {}; flags: --spec FILE, --lab-dir DIR, --lab-out FILE, \
         --lab-checkpoint FILE, --check-lab FILE, --list, --emit-bench FILE, \
         --check-bench FILE, --bench-symbols N, --faults, --supervise",
        names.join(", ")
    )
}

/// Locates the spec directory: an explicit `--lab-dir`, else
/// `examples/lab` under the current directory, else the copy that ships
/// next to this crate's workspace (so `cargo run` works from anywhere
/// inside the repo).
fn lab_dir(explicit: Option<&str>) -> PathBuf {
    if let Some(dir) = explicit {
        return PathBuf::from(dir);
    }
    let cwd = PathBuf::from("examples/lab");
    if cwd.is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lab")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut emit_bench: Option<String> = None;
    let mut check_bench: Option<String> = None;
    let mut check_lab: Option<String> = None;
    let mut lab_out: Option<String> = None;
    let mut lab_ckpt: Option<String> = None;
    let mut lab_dir_arg: Option<String> = None;
    let mut bench_symbols = 50usize;
    let mut list = false;
    let mut names: Vec<String> = Vec::new();
    let mut spec_files: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--emit-bench" => {
                emit_bench = Some(it.next().ok_or("--emit-bench needs a file path")?);
            }
            "--check-bench" => {
                check_bench = Some(it.next().ok_or("--check-bench needs a file path")?);
            }
            "--check-lab" => {
                check_lab = Some(it.next().ok_or("--check-lab needs a file path")?);
            }
            "--spec" => {
                spec_files.push(PathBuf::from(it.next().ok_or("--spec needs a file path")?));
            }
            "--lab-dir" => {
                lab_dir_arg = Some(it.next().ok_or("--lab-dir needs a directory")?);
            }
            "--lab-out" => {
                lab_out = Some(it.next().ok_or("--lab-out needs a file path")?);
            }
            "--lab-checkpoint" => {
                lab_ckpt = Some(it.next().ok_or("--lab-checkpoint needs a file path")?);
            }
            "--bench-symbols" => {
                bench_symbols = it
                    .next()
                    .ok_or("--bench-symbols needs a count")?
                    .parse()
                    .map_err(|e| format!("--bench-symbols: {e}"))?;
            }
            "--list" => list = true,
            // The fault smoke sweep is experiment E9 under a flag name.
            "--faults" => names.push("e9".into()),
            // The supervised-runtime smoke sweep is E10 under a flag name.
            "--supervise" => names.push("e10".into()),
            name if EXPERIMENTS.iter().any(|(n, _)| *n == name) => names.push(arg),
            bad => {
                eprintln!("error: unknown argument `{bad}`; {}", usage());
                std::process::exit(2);
            }
        }
    }
    let dir = lab_dir(lab_dir_arg.as_deref());
    if list {
        for (name, specs) in EXPERIMENTS {
            let paths: Vec<String> = specs
                .iter()
                .map(|s| dir.join(s).display().to_string())
                .collect();
            println!("{name}: {}", paths.join(", "));
        }
        return Ok(());
    }
    if let Some(path) = &emit_bench {
        emit_bench_json(path, bench_symbols)?;
    }
    if let Some(path) = &check_bench {
        for line in gates::check_bench_json(path)? {
            println!("{line}");
        }
    }
    if let Some(path) = &check_lab {
        for line in gates::check_lab_json(path)? {
            println!("{line}");
        }
    }
    let had_side_job = emit_bench.is_some() || check_bench.is_some() || check_lab.is_some();

    // Resolve short names against the lab directory; `--spec` paths ride
    // along as-is. No selection at all means the full E1–E13 suite —
    // unless a side job above was the whole request.
    for name in &names {
        let specs = EXPERIMENTS
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or("unreachable: name was validated")?;
        spec_files.extend(specs.iter().map(|s| dir.join(s)));
    }
    if spec_files.is_empty() && !had_side_job {
        for (_, specs) in EXPERIMENTS {
            spec_files.extend(specs.iter().map(|s| dir.join(s)));
        }
    }
    if spec_files.is_empty() {
        return Ok(());
    }
    if lab_out.is_some() && spec_files.len() > 1 {
        eprintln!(
            "error: --lab-out needs exactly one spec (got {})",
            spec_files.len()
        );
        std::process::exit(2);
    }

    let options = LabOptions {
        threads: None,
        checkpoint: lab_ckpt.as_ref().map(PathBuf::from),
    };
    let mut failed = false;
    for path in &spec_files {
        let spec = ExperimentSpec::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = ofdm_bench::lab::run_spec(&spec, &options)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", report::render(&run));
        if let Some(out) = &lab_out {
            std::fs::write(out, format!("{}\n", report::lab_json(&run)))?;
            println!("wrote {out}");
        }
        if !run.verdict {
            failed = true;
        }
    }
    if failed {
        return Err("at least one lab assertion failed".into());
    }
    Ok(())
}

fn finite_ratio(num: f64, den: f64) -> f64 {
    (num.max(1e-12) / den.max(1e-12)).clamp(1e-9, 1e9)
}

/// The structure-of-arrays payoff gate riding along in the trajectory
/// file: per standard, the batched split-component Rapp kernel (the same
/// PA the bench chain drives) timed against the retained per-sample polar
/// path on that standard's own waveform, tiled to a fixed working-set
/// size. `--check-bench` holds the speedups to the DESIGN §3.5 floors.
fn simd_speedup_snapshot() -> Result<Value, Box<dyn std::error::Error>> {
    use ofdm_dsp::Complex64;
    /// Working-set floor per standard — every measurement runs on at least
    /// this many samples so short-frame standards (802.11a) are not timed
    /// on cache-warm toy buffers while DVB-T runs a full 8k frame.
    const MIN_SAMPLES: usize = 1 << 15;
    const REPS: usize = 8;
    let pa = RappPa::new(1.0, 3.0).with_input_backoff_db(8.0);
    let mut entries: Vec<(String, Value)> = Vec::new();
    let mut log_sum = 0.0;
    for id in StandardId::ALL {
        let p = default_params(id);
        let bits = 2 * p.nominal_bits_per_symbol().max(100);
        let mut tx = MotherModel::new(p)?;
        let frame = tx.transmit(&payload_bits(bits, 5))?;
        let (frame_re, frame_im) = frame.signal().parts();
        let mut re: Vec<f64> = Vec::with_capacity(MIN_SAMPLES + frame_re.len());
        let mut im: Vec<f64> = Vec::with_capacity(MIN_SAMPLES + frame_im.len());
        while re.len() < MIN_SAMPLES {
            re.extend_from_slice(frame_re);
            im.extend_from_slice(frame_im);
        }
        let n = re.len();
        let samples: Vec<Complex64> = re
            .iter()
            .zip(&im)
            .map(|(&r, &i)| Complex64::new(r, i))
            .collect();

        // Both variants read one n-sample buffer and write one n-sample
        // result per run, so the comparison is pure compute.
        let mut scalar_out = samples.clone();
        let t_scalar = time_per_run(
            || {
                for (dst, &z) in scalar_out.iter_mut().zip(&samples) {
                    *dst = pa.distort_reference(z);
                }
                std::hint::black_box(&scalar_out);
            },
            REPS,
        );
        let mut batch_re = re.clone();
        let mut batch_im = im.clone();
        let t_batched = time_per_run(
            || {
                batch_re.copy_from_slice(&re);
                batch_im.copy_from_slice(&im);
                pa.apply_split(&mut batch_re, &mut batch_im);
                std::hint::black_box((&batch_re, &batch_im));
            },
            REPS,
        );
        let speedup = finite_ratio(t_scalar, t_batched);
        log_sum += speedup.ln();
        entries.push((
            id.key().to_string(),
            Value::Object(vec![
                ("samples".into(), n.into()),
                ("scalar_ns".into(), (t_scalar * 1e9).into()),
                ("batched_ns".into(), (t_batched * 1e9).into()),
                ("speedup".into(), speedup.into()),
            ]),
        ));
    }
    let geomean = (log_sum / StandardId::ALL.len() as f64).exp();
    Ok(Value::Object(vec![
        ("min_samples".into(), MIN_SAMPLES.into()),
        ("standards".into(), Value::Object(entries)),
        ("geomean".into(), geomean.into()),
    ]))
}

/// The streaming telemetry chain used for `--emit-bench`: OFDM source →
/// PA → power meter, the same shape E3 times.
fn bench_chain(params: &ofdm_core::params::OfdmParams, bits: usize) -> Graph {
    let mut g = Graph::new();
    let src =
        g.add(ofdm_core::source::OfdmSource::new(params.clone(), bits, 1).expect("valid preset"));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, pa, meter]).expect("wires");
    g
}

/// `--emit-bench FILE` — writes `BENCH_ofdm.json`: per-block nanoseconds,
/// throughput and transmitter stage split for every standard, plus the
/// behavioral-vs-RTL ratio (the paper's C3 claim) and the instrumentation
/// overhead ratio.
fn emit_bench_json(path: &str, n_symbols: usize) -> Result<(), Box<dyn std::error::Error>> {
    let n_symbols = n_symbols.max(1);
    const CHUNK: usize = 256;
    let plain = ExecPlan::streaming(CHUNK);
    let instrumented = plain.clone().with_telemetry(true);
    let mut standards: Vec<(String, Value)> = Vec::new();
    for id in StandardId::ALL {
        let p = default_params(id);
        let bits = n_symbols * p.nominal_bits_per_symbol().max(100);
        let report = bench_chain(&p, bits)
            .execute(&instrumented)?
            .ok_or("telemetry requested but no report")?;
        let per_block: Vec<(String, Value)> = report
            .blocks
            .iter()
            .map(|b| (b.name.clone(), Value::from(b.nanos)))
            .collect();

        // The stage split (pilot/map/IFFT/CP) comes straight from the
        // transmitter's own stream state, outside the graph.
        let mut tx = MotherModel::new(p.clone())?;
        let mut state = StreamState::new();
        state.set_stage_timing(true);
        let payload = payload_bits(bits, 1);
        tx.begin_stream(&payload, &mut state)?;
        let mut out = Vec::new();
        while tx.stream_into(&mut state, CHUNK, &mut out) > 0 {}
        let stages = state.stage_nanos();

        standards.push((
            id.key().to_string(),
            Value::Object(vec![
                ("total_ns".into(), report.total_nanos.into()),
                ("samples".into(), report.source_samples().into()),
                ("throughput_msps".into(), report.throughput_msps().into()),
                ("per_block_ns".into(), Value::Object(per_block)),
                (
                    "stages_ns".into(),
                    Value::Object(vec![
                        ("pilot".into(), stages.pilot.into()),
                        ("map".into(), stages.map.into()),
                        ("ifft".into(), stages.ifft.into()),
                        ("cp".into(), stages.cp.into()),
                    ]),
                ),
            ]),
        ));
    }

    // Behavioral vs RTL transmitter wall time (802.11a, as in E3).
    let rate = WlanRate::Mbps12;
    let wlan_bits = n_symbols.max(4) * rate.n_cbps() / 2 - 6;
    let payload = payload_bits(wlan_bits, 3);
    let mut beh = MotherModel::new(ieee80211a::params(rate))?;
    let t_beh = time_per_run(
        || {
            beh.transmit(&payload).expect("transmits");
        },
        3,
    );
    let rtl = Tx80211aRtl::new(rate);
    let t_rtl = time_per_run(
        || {
            rtl.transmit(&payload);
        },
        3,
    );

    // Instrumented vs uninstrumented streaming on the same chain.
    let wlan = ieee80211a::params(rate);
    let t_plain = time_per_run(
        || {
            bench_chain(&wlan, wlan_bits).execute(&plain).expect("runs");
        },
        3,
    );
    let t_inst = time_per_run(
        || {
            bench_chain(&wlan, wlan_bits)
                .execute(&instrumented)
                .expect("runs");
        },
        3,
    );

    let doc = Value::Object(vec![
        ("schema".into(), "bench-ofdm/v1".into()),
        ("symbols".into(), n_symbols.into()),
        (
            "behavioral_vs_rtl_ratio".into(),
            finite_ratio(t_rtl, t_beh).into(),
        ),
        (
            "instrumented_overhead_ratio".into(),
            finite_ratio(t_inst, t_plain).into(),
        ),
        ("standards".into(), Value::Object(standards)),
        ("simd_speedup".into(), simd_speedup_snapshot()?),
    ]);
    let simd_geomean = doc
        .get("simd_speedup")
        .and_then(|s| s.get("geomean"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN);
    std::fs::write(path, format!("{doc}\n"))?;
    println!(
        "wrote {path}: {} standards, RTL/behavioral {:.1}x, instrumentation overhead {:.3}x, \
         SoA kernel geomean {:.1}x",
        StandardId::ALL.len(),
        finite_ratio(t_rtl, t_beh),
        finite_ratio(t_inst, t_plain),
        simd_geomean,
    );
    Ok(())
}
