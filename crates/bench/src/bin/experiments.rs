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
//! The bench (the C3 claim, decomposed per block and per transmitter
//! stage, plus the batched-PA speedup gate) is the `bench` spec:
//! `… --bin experiments -- bench`.

use ofdm_bench::gates;
use ofdm_bench::lab::{report, ExperimentSpec, LabOptions};
use std::path::{Path, PathBuf};

/// Short experiment name → spec files under the lab directory. One name
/// can fan out to several specs (the legacy experiment had several
/// independent parts).
const EXPERIMENTS: [(&str, &[&str]); 14] = [
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
    ("bench", &["bench.json"]),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "experiments: {}; flags: --spec FILE, --lab-dir DIR, --lab-out FILE, \
         --lab-checkpoint FILE, --check-lab FILE, --list",
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
    let mut check_lab: Option<String> = None;
    let mut lab_out: Option<String> = None;
    let mut lab_ckpt: Option<String> = None;
    let mut lab_dir_arg: Option<String> = None;
    let mut list = false;
    let mut names: Vec<String> = Vec::new();
    let mut spec_files: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
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
            "--list" => list = true,
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
    if let Some(path) = &check_lab {
        for line in gates::check_lab_json(path)? {
            println!("{line}");
        }
    }

    // Resolve short names against the lab directory; `--spec` paths ride
    // along as-is. No selection at all means the full E1–E13 suite plus
    // the bench — unless `--check-lab` was the whole request.
    for name in &names {
        let specs = EXPERIMENTS
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .ok_or("unreachable: name was validated")?;
        spec_files.extend(specs.iter().map(|s| dir.join(s)));
    }
    if spec_files.is_empty() && check_lab.is_none() {
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
