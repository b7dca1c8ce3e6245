//! The repository benchmark: three workloads against the release code,
//! with correctness checks, a digest of simulated statistics, and a
//! traced mode for per-layer numbers. See `perfbench/README.md`.
//!
//! ```text
//! ofdm-perfbench --workload tx_chain|ber_waterfall|service_jobs|all
//!                --seed N --seconds S --trace 0|1
//!                --work-dir DIR [--server-bin PATH]
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it are the human-readable report.

mod ber_waterfall;
mod gen;
mod host;
mod report;
mod service_jobs;
mod stats;
mod trace;
mod tx_chain;

use report::{metric_line, result_json, valid_name, Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["tx_chain", "ber_waterfall", "service_jobs"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
    server_bin: Option<PathBuf>,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            work_dir: PathBuf::new(),
            server_bin: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => out.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
                "--work-dir" => out.work_dir = value.into(),
                "--server-bin" => out.server_bin = Some(value.into()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all",
                WORKLOADS.join(", ")
            ));
        }
        if out.seconds == 0 || out.work_dir.as_os_str().is_empty() {
            return Err("--seconds must be positive and --work-dir given".to_owned());
        }
        Ok(out)
    }

    /// Length of one measured loop: the whole run, or half of it when
    /// a traced loop follows the untraced one.
    fn window(&self) -> Duration {
        let secs = self.seconds as f64;
        Duration::from_secs_f64(if self.trace { secs / 2.0 } else { secs })
    }

    /// Timed setups of an untraced loop: one per second of the window,
    /// at least five.
    fn setups(&self) -> usize {
        (self.window().as_secs() as usize).max(5)
    }

    fn server_bin(&self) -> Result<PathBuf, String> {
        self.server_bin
            .clone()
            .ok_or_else(|| "service_jobs needs --server-bin".to_owned())
    }
}

fn run_one(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "tx_chain" => tx_chain::run(args)?,
        "ber_waterfall" => ber_waterfall::run(args)?,
        _ => service_jobs::run(args)?,
    };
    match gen::check_determinism(&args.workload, args.seed) {
        Ok(digest) => out
            .notes
            .push(format!("inputs digest {digest:016x} (seed {})", args.seed)),
        Err(e) => out.fail(format!("generator: {e}")),
    }
    if args.trace && out.self_time.iter().all(|&(_, ms, _)| ms <= 0.0) {
        out.fail("traced run recorded no span time");
    }
    let traced = out.traced_metrics();
    let bad: Vec<String> = (out
        .end_to_end
        .iter()
        .chain(&out.workload)
        .chain(&out.layers)
        .chain(&traced))
    .filter(|m| !valid_name(&m.name))
    .map(|m| format!("metric name `{}` breaks the grammar", m.name))
    .collect();
    out.errors.extend(bad);
    Ok(out)
}

fn print_outcome(workload: &str, out: &Outcome) {
    println!("== {workload}");
    for n in &out.notes {
        println!("note      {n}");
    }
    for m in &out.end_to_end {
        println!("{}", metric_line("e2e", m));
    }
    for m in &out.workload {
        println!("{}", metric_line("workload", m));
    }
    for m in &out.layers {
        println!("{}", metric_line("layer", m));
    }
    for (layer, ms, spans) in &out.self_time {
        println!("self-time {layer:44} {ms:>14.3} ms     (spans={spans})");
    }
    let digest = report::fnv1a(out.digest.join("\n").as_bytes());
    for d in &out.digest {
        println!("digest    {d}");
    }
    println!("digest    {workload}.hash={digest:016x}");
    println!(
        "checks    attempted={} failed={} errors={}",
        out.attempted,
        out.failed,
        out.errors.len()
    );
    for e in &out.errors {
        println!("FAIL      {e}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: work dir: {e}");
        return ExitCode::from(2);
    }
    println!("host      {}", host::fingerprint());
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics: Vec<Metric> = Vec::new();
    for w in &workloads {
        let one = RunArgs {
            workload: (*w).to_owned(),
            ..args.clone()
        };
        let out = match run_one(&one) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_outcome(w, &out);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.correct();
        let mut picked = if args.trace {
            out.traced_metrics()
        } else {
            out.end_to_end
        };
        if workloads.len() > 1 {
            for m in &mut picked {
                m.name = format!("{w}.{}", m.name);
            }
        }
        metrics.extend(picked);
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
