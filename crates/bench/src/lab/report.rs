//! Aggregation, declarative-assertion evaluation and report emission for
//! the experiment lab.
//!
//! The `lab/v1` document is byte-stable: cells carry only deterministic
//! metrics (values per repeat plus p50/p95/p99 stats); volatile metrics
//! contribute their *names* only. Assertions evaluate over the
//! aggregated matrix and their outcomes (with deterministic detail
//! strings) are part of the document, so a rerun with the same spec and
//! seed reproduces it byte for byte.

use super::spec::{Assertion, CellSel, Direction, ExperimentSpec, Op};
use super::CellRun;
use rfsim::{scenario_seed, Percentiles, SweepReport};
use serde::json::Value;

/// One metric aggregated over a cell's repeats.
#[derive(Debug, Clone)]
pub struct MetricAgg {
    /// Metric name.
    pub name: String,
    /// Wall-clock metric — excluded from `lab/v1` cells.
    pub volatile: bool,
    /// Per-repeat values, in repeat order.
    pub values: Vec<f64>,
    /// Percentile statistics over `values`.
    pub stats: Percentiles,
}

/// One (scenario, variant) cell of the aggregated matrix.
#[derive(Debug, Clone)]
pub struct CellAgg {
    /// Scenario label.
    pub scenario: String,
    /// Variant label.
    pub variant: String,
    /// The first repeat's derived seed (repeats r > 0 use the subsequent
    /// flat indices).
    pub seed: u64,
    /// Aggregated metrics, in kernel emission order.
    pub metrics: Vec<MetricAgg>,
}

impl CellAgg {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&MetricAgg> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The evaluated result of one declarative assertion.
#[derive(Debug, Clone)]
pub struct AssertionOutcome {
    /// The assertion kind (`bound`, `monotone`, `order`, `equal`).
    pub kind: &'static str,
    /// Deterministic human-readable description of what was checked (and
    /// what failed).
    pub detail: String,
    /// Whether the check held.
    pub pass: bool,
}

/// A completed lab run: the aggregated matrix, assertion outcomes and
/// the sweep telemetry.
#[derive(Debug, Clone)]
pub struct LabRun {
    /// The spec that produced this run.
    pub spec: ExperimentSpec,
    /// Scenario-major, variant-fastest cell matrix.
    pub cells: Vec<CellAgg>,
    /// One outcome per spec assertion, in spec order.
    pub assertions: Vec<AssertionOutcome>,
    /// `true` when every assertion passed.
    pub verdict: bool,
    /// Sweep telemetry (wall time, per-run duration percentiles) — part
    /// of the rendered table, never of the byte-stable JSON.
    pub sweep: SweepReport,
}

/// Formats a value exactly as the JSON layer would — shortest
/// round-trip — so assertion details stay byte-stable.
fn fmt(v: f64) -> String {
    Value::from(v).to_string()
}

/// Groups flat runs into cells, aggregates percentiles and evaluates the
/// spec's assertions.
///
/// # Errors
///
/// Inconsistent metric sets across repeats, or an assertion referencing
/// an unknown scenario/variant/metric (a spec-authoring bug — it fails
/// the run loudly instead of passing vacuously).
pub fn aggregate(
    spec: &ExperimentSpec,
    runs: Vec<CellRun>,
    sweep: SweepReport,
) -> Result<LabRun, String> {
    let mut cells = Vec::with_capacity(spec.scenarios.len() * spec.variants.len());
    for (s, scenario) in spec.scenarios.iter().enumerate() {
        for (v, variant) in spec.variants.iter().enumerate() {
            let first_flat = (s * spec.variants.len() + v) * spec.repeats;
            let first = &runs[first_flat].0;
            let mut metrics = Vec::with_capacity(first.len());
            for m in first {
                let mut values = Vec::with_capacity(spec.repeats);
                for r in 0..spec.repeats {
                    let run = &runs[first_flat + r];
                    let found = run.0.iter().find(|x| x.name == m.name).ok_or_else(|| {
                        format!(
                            "cell ({}, {}): repeat {r} is missing metric `{}`",
                            scenario.label, variant.label, m.name
                        )
                    })?;
                    values.push(found.value);
                }
                let stats = Percentiles::from_samples(&values)
                    .ok_or_else(|| format!("metric `{}` has no samples", m.name))?;
                metrics.push(MetricAgg {
                    name: m.name.clone(),
                    volatile: m.volatile,
                    values,
                    stats,
                });
            }
            cells.push(CellAgg {
                scenario: scenario.label.clone(),
                variant: variant.label.clone(),
                seed: scenario_seed(spec.base_seed, first_flat),
                metrics,
            });
        }
    }
    let matrix = Matrix {
        spec,
        cells: &cells,
    };
    let assertions = spec
        .assertions
        .iter()
        .map(|a| matrix.evaluate(a))
        .collect::<Result<Vec<_>, _>>()?;
    let verdict = assertions.iter().all(|a| a.pass);
    Ok(LabRun {
        spec: spec.clone(),
        cells,
        assertions,
        verdict,
        sweep,
    })
}

/// Lookup helper over the aggregated matrix during assertion evaluation.
struct Matrix<'a> {
    spec: &'a ExperimentSpec,
    cells: &'a [CellAgg],
}

impl Matrix<'_> {
    fn cell(&self, scenario: &str, variant: &str) -> Result<&CellAgg, String> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.variant == variant)
            .ok_or_else(|| format!("assertion references unknown cell ({scenario}, {variant})"))
    }

    fn stat(&self, scenario: &str, variant: &str, metric: &str, stat: &str) -> Result<f64, String> {
        let cell = self.cell(scenario, variant)?;
        let m = cell.metric(metric).ok_or_else(|| {
            format!(
                "assertion references unknown metric `{metric}` in cell ({scenario}, {variant})"
            )
        })?;
        if m.volatile {
            return Err(format!(
                "assertion references volatile metric `{metric}` — volatile metrics are \
                 wall-clock measurements and cannot be asserted deterministically"
            ));
        }
        m.stats
            .stat(stat)
            .ok_or_else(|| format!("unknown statistic `{stat}`"))
    }

    fn scenario_labels(&self) -> Vec<&str> {
        self.spec
            .scenarios
            .iter()
            .map(|s| s.label.as_str())
            .collect()
    }

    fn variant_labels<'a>(&'a self, filter: Option<&'a str>) -> Vec<&'a str> {
        match filter {
            Some(v) => vec![v],
            None => self
                .spec
                .variants
                .iter()
                .map(|v| v.label.as_str())
                .collect(),
        }
    }

    fn evaluate(&self, assertion: &Assertion) -> Result<AssertionOutcome, String> {
        let (pass, detail) = match assertion {
            Assertion::Bound {
                metric,
                stat,
                scenario,
                variant,
                op,
                value,
                tol,
            } => {
                let scenarios: Vec<&str> = match scenario {
                    Some(s) => vec![s.as_str()],
                    None => self.scenario_labels(),
                };
                let variants = self.variant_labels(variant.as_deref());
                let mut fail: Option<String> = None;
                for s in &scenarios {
                    for v in &variants {
                        let x = self.stat(s, v, metric, stat)?;
                        let ok = match op {
                            Op::Le => x <= *value,
                            Op::Ge => x >= *value,
                            Op::Lt => x < *value,
                            Op::Gt => x > *value,
                            Op::Eq => (x - value).abs() <= *tol,
                        };
                        if !ok && fail.is_none() {
                            fail = Some(format!(" — cell ({s}, {v}): {}", fmt(x)));
                        }
                    }
                }
                let mut detail = format!(
                    "{metric}.{stat} {} {} over {} cell(s)",
                    op.symbol(),
                    fmt(*value),
                    scenarios.len() * variants.len()
                );
                if let Some(f) = &fail {
                    detail.push_str(f);
                }
                (fail.is_none(), detail)
            }
            Assertion::Monotone {
                metric,
                stat,
                variant,
                scenarios,
                direction,
                factor,
                slack,
            } => {
                let order: Vec<&str> = match scenarios {
                    Some(list) => list.iter().map(String::as_str).collect(),
                    None => self.scenario_labels(),
                };
                let variants = self.variant_labels(variant.as_deref());
                let mut fail: Option<String> = None;
                for v in &variants {
                    for pair in order.windows(2) {
                        let prev = self.stat(pair[0], v, metric, stat)?;
                        let next = self.stat(pair[1], v, metric, stat)?;
                        let bound = prev * factor;
                        let ok = match direction {
                            Direction::NonIncreasing => next <= bound + slack,
                            Direction::NonDecreasing => next >= bound - slack,
                            Direction::Increasing => next > bound + slack,
                            Direction::Decreasing => next < bound - slack,
                        };
                        if !ok && fail.is_none() {
                            fail = Some(format!(
                                " — variant {v}: {} -> {} breaks at {} ({} -> {})",
                                pair[0],
                                pair[1],
                                fmt(next),
                                fmt(prev),
                                fmt(next)
                            ));
                        }
                    }
                }
                let mut detail = format!(
                    "{metric}.{stat} {} across {} scenario(s)",
                    direction.name(),
                    order.len()
                );
                if let Some(f) = &fail {
                    detail.push_str(f);
                }
                (fail.is_none(), detail)
            }
            Assertion::Order {
                metric,
                stat,
                lesser,
                greater,
                factor,
                margin,
            } => {
                let mut fail: Option<String> = None;
                let mut count = 0usize;
                self.for_each_pair(lesser, greater, |s_l, v_l, s_g, v_g| {
                    let m_l = side_metric(lesser, metric)?;
                    let m_g = side_metric(greater, metric)?;
                    let lo = self.stat(s_l, v_l, m_l, stat)?;
                    let hi = self.stat(s_g, v_g, m_g, stat)?;
                    count += 1;
                    if lo >= hi * factor - margin && fail.is_none() {
                        fail = Some(format!(
                            " — ({s_l}, {v_l}).{m_l} = {} not < ({s_g}, {v_g}).{m_g} * {} - {} = {}",
                            fmt(lo),
                            fmt(*factor),
                            fmt(*margin),
                            fmt(hi * factor - margin)
                        ));
                    }
                    Ok(())
                })?;
                let mut detail = format!(
                    "order: {} < {} * {} - {} over {count} pair(s)",
                    describe_side(lesser, metric),
                    describe_side(greater, metric),
                    fmt(*factor),
                    fmt(*margin)
                );
                if let Some(f) = &fail {
                    detail.push_str(f);
                }
                (fail.is_none(), detail)
            }
            Assertion::Equal {
                metric,
                stat,
                left,
                right,
                tol,
            } => {
                let mut fail: Option<String> = None;
                let mut count = 0usize;
                self.for_each_pair(left, right, |s_l, v_l, s_r, v_r| {
                    let m_l = side_metric(left, metric)?;
                    let m_r = side_metric(right, metric)?;
                    let a = self.stat(s_l, v_l, m_l, stat)?;
                    let b = self.stat(s_r, v_r, m_r, stat)?;
                    count += 1;
                    if (a - b).abs() > *tol && fail.is_none() {
                        fail = Some(format!(
                            " — ({s_l}, {v_l}).{m_l} = {} != ({s_r}, {v_r}).{m_r} = {}",
                            fmt(a),
                            fmt(b)
                        ));
                    }
                    Ok(())
                })?;
                let mut detail = format!(
                    "equal: {} == {} (tol {}) over {count} pair(s)",
                    describe_side(left, metric),
                    describe_side(right, metric),
                    fmt(*tol)
                );
                if let Some(f) = &fail {
                    detail.push_str(f);
                }
                (fail.is_none(), detail)
            }
        };
        Ok(AssertionOutcome {
            kind: assertion.kind(),
            detail,
            pass,
        })
    }

    /// Iterates the joint instances of a pair comparison: axes pinned on
    /// both sides use their pins once; axes free on both sides loop
    /// jointly over the spec's labels (parse-time validation rules out
    /// mixed pinning).
    fn for_each_pair<F>(&self, a: &CellSel, b: &CellSel, mut f: F) -> Result<(), String>
    where
        F: FnMut(&str, &str, &str, &str) -> Result<(), String>,
    {
        let scenario_pairs: Vec<(&str, &str)> = match (&a.scenario, &b.scenario) {
            (Some(x), Some(y)) => vec![(x.as_str(), y.as_str())],
            _ => self.scenario_labels().iter().map(|&s| (s, s)).collect(),
        };
        let variant_pairs: Vec<(&str, &str)> = match (&a.variant, &b.variant) {
            (Some(x), Some(y)) => vec![(x.as_str(), y.as_str())],
            _ => self
                .spec
                .variants
                .iter()
                .map(|v| (v.label.as_str(), v.label.as_str()))
                .collect(),
        };
        for (s_a, s_b) in &scenario_pairs {
            for (v_a, v_b) in &variant_pairs {
                f(s_a, v_a, s_b, v_b)?;
            }
        }
        Ok(())
    }
}

fn side_metric<'a>(side: &'a CellSel, default: &'a Option<String>) -> Result<&'a str, String> {
    side.metric
        .as_deref()
        .or(default.as_deref())
        .ok_or_else(|| "pair assertion needs a `metric` (top-level or per side)".to_owned())
}

fn describe_side(side: &CellSel, default: &Option<String>) -> String {
    let metric = side.metric.as_deref().or(default.as_deref()).unwrap_or("?");
    let mut s = String::new();
    if let Some(sc) = &side.scenario {
        s.push_str(sc);
        s.push('.');
    }
    if let Some(v) = &side.variant {
        s.push_str(v);
        s.push('.');
    }
    s.push_str(metric);
    s
}

/// Renders the byte-stable `lab/v1` document. Volatile metrics appear by
/// name only; everything else is a pure function of `(spec, seed)`.
pub fn lab_json(run: &LabRun) -> Value {
    let spec = &run.spec;
    let labels = |points: &[super::spec::AxisPoint]| {
        Value::Array(
            points
                .iter()
                .map(|p| Value::from(p.label.as_str()))
                .collect(),
        )
    };
    let mut cells = Vec::with_capacity(run.cells.len());
    for cell in &run.cells {
        let mut metrics: Vec<(String, Value)> = Vec::new();
        let mut volatile: Vec<Value> = Vec::new();
        for m in &cell.metrics {
            if m.volatile {
                volatile.push(Value::from(m.name.as_str()));
                continue;
            }
            metrics.push((
                m.name.clone(),
                Value::Object(vec![
                    (
                        "values".into(),
                        Value::Array(m.values.iter().map(|&v| Value::from(v)).collect()),
                    ),
                    ("stats".into(), m.stats.to_json_value()),
                ]),
            ));
        }
        let mut fields = vec![
            ("scenario".into(), Value::from(cell.scenario.as_str())),
            ("variant".into(), Value::from(cell.variant.as_str())),
            ("seed".into(), Value::from(cell.seed)),
            ("metrics".into(), Value::Object(metrics)),
        ];
        if !volatile.is_empty() {
            fields.push(("volatile".into(), Value::Array(volatile)));
        }
        cells.push(Value::Object(fields));
    }
    let assertions = run
        .assertions
        .iter()
        .map(|a| {
            Value::Object(vec![
                ("check".into(), Value::from(a.kind)),
                ("detail".into(), Value::from(a.detail.as_str())),
                ("pass".into(), Value::from(a.pass)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), Value::from("lab/v1")),
        ("name".into(), Value::from(spec.name.as_str())),
        ("title".into(), Value::from(spec.title.as_str())),
        ("workload".into(), Value::from(spec.workload.as_str())),
        ("base_seed".into(), Value::from(spec.base_seed)),
        ("repeats".into(), Value::from(spec.repeats)),
        ("scenarios".into(), labels(&spec.scenarios)),
        ("variants".into(), labels(&spec.variants)),
        ("cells".into(), Value::Array(cells)),
        ("assertions".into(), Value::Array(assertions)),
        (
            "verdict".into(),
            Value::from(if run.verdict { "pass" } else { "fail" }),
        ),
    ])
}

/// Renders the human comparison table: one scenario × variant table per
/// metric (p50 over repeats; volatile metrics marked), the assertion
/// outcomes, and the sweep telemetry line (with the per-run duration
/// percentiles from [`SweepReport::duration_percentiles`]).
pub fn render(run: &LabRun) -> String {
    let spec = &run.spec;
    let mut out = String::new();
    out.push_str(&format!("\n## {}\n\n", spec.title));
    out.push_str(&format!(
        "workload `{}` · seed {} · {} scenario(s) x {} variant(s) x {} repeat(s)\n",
        spec.workload,
        spec.base_seed,
        spec.scenarios.len(),
        spec.variants.len(),
        spec.repeats,
    ));

    // Union of metric names across cells (cells may differ when scenarios
    // override the workload), headline first, otherwise first-seen order.
    let mut names: Vec<(String, bool)> = Vec::new();
    for cell in &run.cells {
        for m in &cell.metrics {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((m.name.clone(), m.volatile));
            }
        }
    }
    if let Some(headline) = &spec.headline {
        if let Some(pos) = names.iter().position(|(n, _)| n == headline) {
            let h = names.remove(pos);
            names.insert(0, h);
        }
    }
    let variants: Vec<&str> = spec.variants.iter().map(|v| v.label.as_str()).collect();
    for (name, volatile) in &names {
        out.push_str(&format!(
            "\n### {name}{} (p50 of {} repeat(s))\n\n",
            if *volatile { " — volatile" } else { "" },
            spec.repeats
        ));
        out.push_str(&format!("| scenario | {} |\n", variants.join(" | ")));
        out.push_str(&format!("|---|{}\n", "---|".repeat(variants.len())));
        for scenario in &spec.scenarios {
            let row: Vec<String> = variants
                .iter()
                .map(|v| {
                    run.cells
                        .iter()
                        .find(|c| c.scenario == scenario.label && c.variant == *v)
                        .and_then(|c| c.metric(name))
                        .map(|m| fmt(m.stats.p50))
                        .unwrap_or_else(|| "-".to_owned())
                })
                .collect();
            // A scenario whose workload never reports this metric gets no row.
            if row.iter().all(|cell| cell == "-") {
                continue;
            }
            out.push_str(&format!("| {} | {} |\n", scenario.label, row.join(" | ")));
        }
    }
    if !run.assertions.is_empty() {
        out.push_str("\nassertions:\n");
        for a in &run.assertions {
            out.push_str(&format!(
                "- [{}] {}: {}\n",
                if a.pass { "ok" } else { "FAIL" },
                a.kind,
                a.detail
            ));
        }
    }
    out.push_str(&format!(
        "\nverdict: {} · sweep: {}\n",
        if run.verdict { "pass" } else { "fail" },
        run.sweep.summary(),
    ));
    out
}
