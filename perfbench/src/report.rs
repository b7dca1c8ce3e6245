//! Metric records, the name grammar, and the human and JSON renderings.

use crate::stats::ratio;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted metric name (see [`valid_name`]).
    pub name: String,
    /// Unit, for example `ms`, `s`, `Msps`, `MB`, `ns`, `share`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` observations.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// The layers every traced run reports a self-time share for, whether
/// or not its workload reaches them.
pub const LAYERS: [&str; 7] = ["core", "rfsim", "rx", "rtl", "sweep", "server", "client"];

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (chain runs, grid points or jobs).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Correctness-check failures, one line each.
    pub errors: Vec<String>,
    /// The workload-independent end-to-end metrics (untraced).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures, named as the benchmark
    /// README names them (untraced).
    pub workload: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Self time per layer from the traced spans, `(layer, ms, spans)`.
    pub self_time: Vec<(String, f64, usize)>,
    /// Simulated statistics, one `key=value` line each; they repeat
    /// exactly for a given seed whatever the host.
    pub digest: Vec<String>,
    /// Free-form context lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a correctness failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// `true` when every correctness check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The traced run's result metrics: each layer's share of the traced
    /// self time and the tracing overhead. A layer the workload does not
    /// reach has no spans and reads exactly 0; a traced run with no span
    /// time at all fails its checks (see `run_one`). The workload's detailed per-layer metrics are in
    /// [`Outcome::layers`].
    pub fn traced_metrics(&self) -> Vec<Metric> {
        let total: f64 = self.self_time.iter().map(|(_, ms, _)| ms).sum();
        let mut out: Vec<Metric> = LAYERS
            .iter()
            .map(|&layer| {
                let (ms, spans) = self
                    .self_time
                    .iter()
                    .find(|(l, _, _)| l == layer)
                    .map_or((0.0, 0), |(_, ms, n)| (*ms, *n));
                Metric::new(
                    format!("{layer}.self_share"),
                    "share",
                    ratio(ms, total),
                    spans,
                )
            })
            .collect();
        out.extend(
            self.layers
                .iter()
                .filter(|m| m.name == "trace.overhead_share")
                .cloned(),
        );
        out
    }
}

/// Metric-name grammar: starts with a letter or digit, at most 64 of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A metric-name fragment for a standard key (`adsl2+` → `adsl2plus`).
pub fn name_part(key: &str) -> String {
    key.replace('+', "plus")
}

/// FNV-1a over `bytes`: the digest of simulated statistics and inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders a finite number for JSON; non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// One human-readable metric line.
pub fn metric_line(section: &str, m: &Metric) -> String {
    format!(
        "{section:9} {:44} {:>14.6} {:6} (n={})",
        m.name, m.value, m.unit, m.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar() {
        assert!(valid_name("op_latency_ms.p95"));
        assert!(valid_name("dsp.fft_ns.8192"));
        assert!(valid_name("core.source_ns_per_sample.dvb-t"));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("adsl2+"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&format!("rx.x.{}", name_part("adsl2+"))));
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", "s", 0.5, 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
