//! Engine-level tests for the declarative experiment lab: spec parsing,
//! assertion semantics, byte-stable documents, checkpointed runs, and
//! the "new experiment = new spec file" workflow.

use ofdm_bench::gates;
use ofdm_bench::lab::{report, run_spec, ExperimentSpec, LabOptions};
use serde::json::{parse, Value};

fn spec_from(text: &str) -> ExperimentSpec {
    let doc = parse(text).expect("valid JSON");
    ExperimentSpec::parse(&doc).expect("valid spec")
}

/// A cheap two-cell spec: `design_effort` is pure parameter inspection.
fn tiny_spec(assertions: &str) -> ExperimentSpec {
    spec_from(&format!(
        r#"{{
            "schema": "lab-spec/v1",
            "name": "tiny",
            "workload": "design_effort",
            "base_seed": 3,
            "scenarios": [
                {{ "label": "wlan", "standard": "802.11a" }},
                {{ "label": "dab", "standard": "dab" }}
            ],
            "assertions": {assertions}
        }}"#
    ))
}

#[test]
fn lab_json_is_byte_stable_across_runs() {
    let spec = tiny_spec("[]");
    let a = run_spec(&spec, &LabOptions::default()).expect("runs");
    let b = run_spec(&spec, &LabOptions::default()).expect("runs");
    assert_eq!(
        report::lab_json(&a).to_string(),
        report::lab_json(&b).to_string()
    );
}

#[test]
fn parse_rejects_wrong_schema_and_duplicates() {
    let doc = parse(r#"{"schema": "nope", "name": "x"}"#).expect("valid JSON");
    let err = ExperimentSpec::parse(&doc).expect_err("schema gate");
    assert!(err.contains("lab-spec/v1"), "{err}");

    let doc = parse(
        r#"{
            "schema": "lab-spec/v1", "name": "x", "workload": "design_effort",
            "base_seed": 1,
            "scenarios": [{ "label": "a" }, { "label": "a" }]
        }"#,
    )
    .expect("valid JSON");
    let err = ExperimentSpec::parse(&doc).expect_err("duplicate labels");
    assert!(err.contains("duplicate label"), "{err}");
}

#[test]
fn parse_rejects_half_pinned_order_assertion() {
    let doc = parse(
        r#"{
            "schema": "lab-spec/v1", "name": "x", "workload": "design_effort",
            "base_seed": 1,
            "scenarios": [{ "label": "a" }, { "label": "b" }],
            "assertions": [{
                "check": "order", "metric": "mechanism_count",
                "lesser": { "scenario": "a" }, "greater": {}
            }]
        }"#,
    )
    .expect("valid JSON");
    let err = ExperimentSpec::parse(&doc).expect_err("half-pinned pair");
    assert!(err.contains("pinned on both sides or neither"), "{err}");
}

#[test]
fn failing_bound_flips_the_verdict_with_detail() {
    let run = run_spec(
        &tiny_spec(
            r#"[{ "check": "bound", "metric": "mechanism_count", "op": ">", "value": 100 }]"#,
        ),
        &LabOptions::default(),
    )
    .expect("runs");
    assert!(!run.verdict);
    assert_eq!(run.assertions.len(), 1);
    assert!(!run.assertions[0].pass);
    // The detail names the first offending cell so failures are actionable.
    assert!(
        run.assertions[0].detail.contains("wlan"),
        "{}",
        run.assertions[0].detail
    );
    // And the rendered table carries the FAIL marker plus the verdict.
    let text = report::render(&run);
    assert!(text.contains("[FAIL]"), "{text}");
    assert!(text.contains("verdict: fail"), "{text}");
}

#[test]
fn equal_assertion_compares_cells_within_tolerance() {
    let run = run_spec(
        &tiny_spec(
            r#"[{
                "check": "equal", "metric": "mechanism_count",
                "left": { "scenario": "wlan" }, "right": { "scenario": "dab" },
                "tol": 100
            }]"#,
        ),
        &LabOptions::default(),
    )
    .expect("runs");
    assert!(run.verdict, "{}", report::render(&run));
}

#[test]
fn unknown_metric_and_unknown_cell_are_hard_errors() {
    let err = run_spec(
        &tiny_spec(r#"[{ "check": "bound", "metric": "nope", "op": ">", "value": 0 }]"#),
        &LabOptions::default(),
    )
    .expect_err("unknown metric");
    assert!(err.contains("nope"), "{err}");

    let err = run_spec(
        &tiny_spec(
            r#"[{ "check": "bound", "metric": "mechanism_count", "scenario": "ghost",
                  "op": ">", "value": 0 }]"#,
        ),
        &LabOptions::default(),
    )
    .expect_err("unknown scenario");
    assert!(err.contains("ghost"), "{err}");
}

#[test]
fn volatile_metrics_cannot_be_asserted() {
    // `tx_timing` emits wall-clock metrics flagged volatile; pinning an
    // assertion to one must fail loudly, not flake.
    let spec = spec_from(
        r#"{
            "schema": "lab-spec/v1", "name": "volatile", "workload": "tx_timing",
            "base_seed": 1,
            "defaults": { "n_symbols": 2 },
            "scenarios": [{ "label": "s" }],
            "assertions": [{ "check": "bound", "metric": "t_rtl_s", "op": ">", "value": 0 }]
        }"#,
    );
    let err = run_spec(&spec, &LabOptions::default()).expect_err("volatile assert");
    assert!(err.contains("volatile"), "{err}");
}

#[test]
fn volatile_metrics_stay_out_of_the_cells() {
    let spec = spec_from(
        r#"{
            "schema": "lab-spec/v1", "name": "volatile", "workload": "tx_timing",
            "base_seed": 1,
            "defaults": { "n_symbols": 2 },
            "scenarios": [{ "label": "s" }]
        }"#,
    );
    let run = run_spec(&spec, &LabOptions::default()).expect("runs");
    let doc = report::lab_json(&run);
    let cell = &doc.get("cells").and_then(Value::as_array).expect("cells")[0];
    let metrics = cell
        .get("metrics")
        .and_then(|m| m.as_object())
        .expect("metrics");
    assert!(metrics.iter().any(|(k, _)| k == "bits"));
    // Timing values appear only as names under "volatile".
    assert!(metrics.iter().all(|(k, _)| !k.starts_with("t_")));
    let volatile = cell
        .get("volatile")
        .and_then(Value::as_array)
        .expect("volatile list");
    assert!(volatile.iter().any(|v| v.as_str() == Some("t_rtl_s")));
}

#[test]
fn checkpointed_run_matches_direct_run() {
    let spec = tiny_spec("[]");
    let ckpt = std::env::temp_dir().join(format!("lab-engine-ckpt-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let direct = run_spec(&spec, &LabOptions::default()).expect("runs");
    let options = LabOptions {
        threads: None,
        checkpoint: Some(ckpt.clone()),
    };
    let resumed = run_spec(&spec, &options).expect("runs");
    assert_eq!(
        report::lab_json(&direct).to_string(),
        report::lab_json(&resumed).to_string()
    );
    // A completed run discards its checkpoint.
    assert!(!ckpt.exists());
}

#[test]
fn new_experiment_is_a_new_spec_file() {
    // The whole point of the lab: adding an experiment is writing JSON,
    // not code. Drop a spec in a temp dir, load and run it.
    let path = std::env::temp_dir().join(format!("lab-new-exp-{}.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{
            "schema": "lab-spec/v1",
            "name": "adhoc",
            "workload": "loopback",
            "base_seed": 99,
            "repeats": 2,
            "defaults": { "payload_seed": 17 },
            "scenarios": [{ "label": "adsl", "standard": "adsl" }],
            "assertions": [
                { "check": "bound", "metric": "loopback_errors", "op": "==", "value": 0 }
            ]
        }"#,
    )
    .expect("writes");
    let spec = ExperimentSpec::load(&path).expect("loads");
    assert_eq!(spec.run_count(), 2);
    let run = run_spec(&spec, &LabOptions::default()).expect("runs");
    assert!(run.verdict, "{}", report::render(&run));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_lab_doc_validates_shape_and_verdict() {
    let run = run_spec(&tiny_spec("[]"), &LabOptions::default()).expect("runs");
    let doc = report::lab_json(&run);
    let (cells, assertions) = gates::check_lab_doc(&doc).expect("valid doc");
    assert_eq!((cells, assertions), (2, 0));

    // A failing verdict is a gate failure even if the shape is fine.
    let text = doc.to_string().replace("\"pass\"", "\"fail\"");
    let failing = parse(&text).expect("valid JSON");
    let err = gates::check_lab_doc(&failing).expect_err("verdict gate");
    assert!(err.contains("verdict"), "{err}");
}

#[test]
fn repeats_feed_percentile_spread() {
    // Loopback PAPR varies with the per-repeat cell seed, so repeats>1
    // must produce a real distribution, not copies.
    let spec = spec_from(
        r#"{
            "schema": "lab-spec/v1", "name": "spread", "workload": "loopback",
            "base_seed": 5, "repeats": 3,
            "scenarios": [{ "label": "wlan", "standard": "802.11a" }]
        }"#,
    );
    let run = run_spec(&spec, &LabOptions::default()).expect("runs");
    let papr = run.cells[0].metric("papr_db").expect("papr metric");
    assert_eq!(papr.values.len(), 3);
    assert!(papr.stats.max > papr.stats.min);
    assert!(papr.stats.p50 >= papr.stats.min && papr.stats.p50 <= papr.stats.max);
}

#[test]
fn zero_symbol_frames_are_typed_errors_not_panics() {
    // `n_symbols: 0` once underflowed the E3 payload size and took the
    // whole binary down through the fail-fast sweep.
    for workload in ["tx_timing", "bench"] {
        let spec = spec_from(&format!(
            r#"{{
                "schema": "lab-spec/v1", "name": "zero", "workload": "{workload}",
                "base_seed": 1,
                "defaults": {{ "n_symbols": 0, "standard": "802.11a" }},
                "scenarios": [{{ "label": "zero" }}]
            }}"#
        ));
        let err = run_spec(&spec, &LabOptions::default()).expect_err("zero symbols");
        assert!(err.contains("n_symbols must be ≥ 1"), "{workload}: {err}");
    }
}

#[test]
fn bench_cell_reads_blocks_and_stages_from_the_graph() {
    let spec = spec_from(
        r#"{
            "schema": "lab-spec/v1", "name": "bench_tiny", "workload": "bench",
            "base_seed": 1, "threads": 1,
            "defaults": { "n_symbols": 2 },
            "scenarios": [{ "label": "dab", "standard": "dab" }]
        }"#,
    );
    let run = run_spec(&spec, &LabOptions::default()).expect("runs");
    let cell = &run.cells[0];
    let samples = cell.metric("samples").expect("samples");
    assert!(!samples.volatile && samples.values[0] > 0.0);
    for name in [
        "throughput_msps",
        "source_ns",
        "pa_ns",
        "meter_ns",
        "map_ns",
        "ifft_ns",
        "cp_ns",
        "telemetry_overhead",
    ] {
        let m = cell
            .metric(name)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert!(m.volatile, "{name} must be volatile");
        // Stage timing is switched on inside the graph's own source, so
        // the map/IFFT/CP split is populated without a second transmit.
        assert!(m.values[0] > 0.0, "{name} = {}", m.values[0]);
    }
    assert!(cell.metric("pilot_ns").is_some_and(|m| m.volatile));
}
