//! CI gate validators for the machine-readable bench documents.
//!
//! Each emitted JSON artifact has a schema-checking twin here:
//! `BENCH_ofdm.json` (`bench-ofdm/v1`) and the experiment-lab report
//! (`lab/v1`). The `check_*_doc` functions validate an in-memory [`Value`]; the
//! `check_*_json` wrappers add file IO and prefix errors with the path.
//! The experiments binary delegates `--check-bench` / `--check-lab` to
//! these, and the failure paths are unit-tested below — a gate that only
//! ever sees happy-path input is not a gate.

use ofdm_standards::StandardId;
use serde::json::Value;

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn finite(v: Option<f64>, what: &str) -> Result<f64, String> {
    let v = v.ok_or_else(|| format!("missing numeric {what}"))?;
    if !v.is_finite() {
        return Err(format!("{what} is not finite: {v}"));
    }
    Ok(v)
}

/// Validates a `bench-ofdm/v1` document: every required key present and
/// well-typed for all ten standards, the optional SIMD section sound when
/// present, and every gated ratio within its floor. This is the CI gate on the telemetry pipeline.
pub fn check_bench_doc(doc: &Value) -> Result<(), String> {
    if doc.get("schema").and_then(Value::as_str) != Some("bench-ofdm/v1") {
        return Err("missing or wrong `schema` (want \"bench-ofdm/v1\")".into());
    }
    for key in [
        "symbols",
        "behavioral_vs_rtl_ratio",
        "instrumented_overhead_ratio",
    ] {
        let v = doc
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric `{key}`"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("`{key}` must be finite and positive, got {v}"));
        }
    }
    let standards = doc.get("standards").ok_or("missing `standards`")?;
    // The shim serializes non-finite f64 as `null` (caught as a missing
    // numeric), but a hand-edited or foreign file can still carry
    // garbage — reject any non-finite number explicitly.
    for id in StandardId::ALL {
        let key = id.key();
        let s = standards
            .get(key)
            .ok_or_else(|| format!("missing standard `{key}`"))?;
        for field in ["total_ns", "samples", "throughput_msps"] {
            finite(
                s.get(field).and_then(Value::as_f64),
                &format!("`{key}`.`{field}`"),
            )?;
        }
        let per_block = s
            .get("per_block_ns")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("`{key}` missing object `per_block_ns`"))?;
        if per_block.is_empty() {
            return Err(format!("`{key}`: `per_block_ns` is empty"));
        }
        for (block, ns) in per_block {
            finite(ns.as_f64(), &format!("`{key}` block `{block}` ns"))?;
        }
        let stages = s
            .get("stages_ns")
            .ok_or_else(|| format!("`{key}` missing `stages_ns`"))?;
        for stage in ["pilot", "map", "ifft", "cp"] {
            finite(
                stages.get(stage).and_then(Value::as_f64),
                &format!("`{key}` stage `{stage}`"),
            )?;
        }
    }
    // The SoA payoff gate: optional in files predating the split-layout
    // refactor; when present, every standard's batched kernel must at
    // minimum not regress the scalar path, the two headline standards
    // (802.11a and DVB-T) must clear 5x, and the family geomean 3x.
    if let Some(simd) = doc.get("simd_speedup") {
        let entries = simd
            .get("standards")
            .and_then(Value::as_object)
            .ok_or("`simd_speedup` missing object `standards`")?;
        if entries.len() != StandardId::ALL.len() {
            return Err(format!(
                "`simd_speedup`.`standards` has {} entries, want {}",
                entries.len(),
                StandardId::ALL.len()
            ));
        }
        for id in StandardId::ALL {
            let key = id.key();
            let s = simd
                .get("standards")
                .and_then(|e| e.get(key))
                .ok_or_else(|| format!("`simd_speedup` missing standard `{key}`"))?;
            for field in ["samples", "scalar_ns", "batched_ns"] {
                finite(
                    s.get(field).and_then(Value::as_f64),
                    &format!("`simd_speedup`.`{key}`.`{field}`"),
                )?;
            }
            let speedup = finite(
                s.get("speedup").and_then(Value::as_f64),
                &format!("`simd_speedup`.`{key}`.`speedup`"),
            )?;
            if speedup < 1.0 {
                return Err(format!(
                    "`simd_speedup`.`{key}`: batched kernel slower than the \
                     scalar path ({speedup:.2}x, floor 1x)"
                ));
            }
            let floor = match id {
                StandardId::Ieee80211a | StandardId::DvbT => 5.0,
                _ => 1.0,
            };
            if speedup < floor {
                return Err(format!(
                    "`simd_speedup`.`{key}`: {speedup:.2}x below the {floor}x floor"
                ));
            }
        }
        let geomean = finite(
            simd.get("geomean").and_then(Value::as_f64),
            "`simd_speedup`.`geomean`",
        )?;
        if geomean < 3.0 {
            return Err(format!(
                "`simd_speedup`.`geomean` {geomean:.2}x below the 3x family floor"
            ));
        }
    }
    Ok(())
}

/// `--check-bench FILE`: reads and validates an emitted `BENCH_ofdm.json`,
/// returning the human summary lines to print.
pub fn check_bench_json(path: &str) -> Result<Vec<String>, String> {
    let doc = read_doc(path)?;
    check_bench_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(vec![format!(
        "{path}: ok ({} standards)",
        StandardId::ALL.len()
    )])
}

/// Validates a `lab/v1` experiment report: schema and identity fields,
/// a non-empty cell matrix whose deterministic metrics all carry finite
/// sample values with consistent percentile stats, declarative assertion
/// results whose `pass` flags agree with the overall verdict — and a
/// `pass` verdict, because a lab report that failed its own assertions
/// must fail the gate that checks it.
pub fn check_lab_doc(doc: &Value) -> Result<(usize, usize), String> {
    if doc.get("schema").and_then(Value::as_str) != Some("lab/v1") {
        return Err("missing or wrong `schema` (want \"lab/v1\")".into());
    }
    for key in ["name", "workload"] {
        if doc
            .get(key)
            .and_then(Value::as_str)
            .is_none_or(|s| s.is_empty())
        {
            return Err(format!("missing or empty string `{key}`"));
        }
    }
    doc.get("base_seed")
        .and_then(Value::as_u64)
        .ok_or("missing integer `base_seed`")?;
    let repeats = doc
        .get("repeats")
        .and_then(Value::as_u64)
        .ok_or("missing integer `repeats`")?;
    if repeats == 0 {
        return Err("`repeats` must be at least 1".into());
    }
    let names = |key: &str| -> Result<usize, String> {
        let arr = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("missing array `{key}`"))?;
        if arr.is_empty() {
            return Err(format!("`{key}` is empty"));
        }
        for (i, v) in arr.iter().enumerate() {
            if v.as_str().is_none_or(|s| s.is_empty()) {
                return Err(format!("`{key}[{i}]` is not a non-empty string"));
            }
        }
        Ok(arr.len())
    };
    let n_scenarios = names("scenarios")?;
    let n_variants = names("variants")?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("missing array `cells`")?;
    if cells.len() != n_scenarios * n_variants {
        return Err(format!(
            "`cells` has {} entries, want {} ({n_scenarios} scenarios x {n_variants} variants)",
            cells.len(),
            n_scenarios * n_variants
        ));
    }
    for (i, cell) in cells.iter().enumerate() {
        for key in ["scenario", "variant"] {
            if cell.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("`cells[{i}]` missing string `{key}`"));
            }
        }
        cell.get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("`cells[{i}]` missing integer `seed`"))?;
        let metrics = cell
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("`cells[{i}]` missing object `metrics`"))?;
        for (name, metric) in metrics {
            let what = format!("`cells[{i}]` metric `{name}`");
            let values = metric
                .get("values")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{what} missing array `values`"))?;
            if values.len() != repeats as usize {
                return Err(format!(
                    "{what} has {} values, want {repeats}",
                    values.len()
                ));
            }
            for (r, v) in values.iter().enumerate() {
                finite(v.as_f64(), &format!("{what} `values[{r}]`"))?;
            }
            let stats = metric
                .get("stats")
                .ok_or_else(|| format!("{what} missing object `stats`"))?;
            let count = finite(stats.get("count").and_then(Value::as_f64), &what)?;
            if count as usize != values.len() {
                return Err(format!("{what}: stats count {count} != {}", values.len()));
            }
            for stat in ["min", "max", "mean", "p50", "p95", "p99"] {
                finite(
                    stats.get(stat).and_then(Value::as_f64),
                    &format!("{what} stat `{stat}`"),
                )?;
            }
        }
        if let Some(volatile) = cell.get("volatile") {
            let arr = volatile
                .as_array()
                .ok_or_else(|| format!("`cells[{i}]`.`volatile` is not an array"))?;
            for v in arr {
                if v.as_str().is_none() {
                    return Err(format!("`cells[{i}]`.`volatile` has a non-string entry"));
                }
            }
        }
    }
    let assertions = doc
        .get("assertions")
        .and_then(Value::as_array)
        .ok_or("missing array `assertions`")?;
    let mut all_pass = true;
    for (i, a) in assertions.iter().enumerate() {
        if a.get("check").and_then(Value::as_str).is_none() {
            return Err(format!("`assertions[{i}]` missing string `check`"));
        }
        let pass = a
            .get("pass")
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("`assertions[{i}]` missing bool `pass`"))?;
        all_pass &= pass;
    }
    let verdict = doc
        .get("verdict")
        .and_then(Value::as_str)
        .ok_or("missing string `verdict`")?;
    let want = if all_pass { "pass" } else { "fail" };
    if verdict != want {
        return Err(format!(
            "`verdict` is `{verdict}` but the assertion results say `{want}`"
        ));
    }
    if verdict != "pass" {
        return Err("report verdict is `fail`".into());
    }
    Ok((cells.len(), assertions.len()))
}

/// `--check-lab FILE`: reads and validates a `lab/v1` report file,
/// returning the summary lines to print.
pub fn check_lab_json(path: &str) -> Result<Vec<String>, String> {
    let doc = read_doc(path)?;
    let (cells, assertions) = check_lab_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(vec![format!(
        "{path}: ok ({cells} cells, {assertions} assertions)"
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(members: Vec<(&str, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A minimal document that passes `check_bench_doc`: the three scalar
    /// ratios plus every standard's timing block. Tests mutate one field
    /// at a time and assert the validator names it.
    fn valid_bench_doc() -> Value {
        let standard = || {
            obj(vec![
                ("total_ns", Value::from(1.0e6)),
                ("samples", Value::from(4096.0)),
                ("throughput_msps", Value::from(12.5)),
                ("per_block_ns", obj(vec![("tx", Value::from(9.0e5))])),
                (
                    "stages_ns",
                    obj(vec![
                        ("pilot", Value::from(1.0e4)),
                        ("map", Value::from(2.0e4)),
                        ("ifft", Value::from(6.0e5)),
                        ("cp", Value::from(5.0e4)),
                    ]),
                ),
            ])
        };
        obj(vec![
            ("schema", Value::from("bench-ofdm/v1")),
            ("symbols", Value::from(4.0)),
            ("behavioral_vs_rtl_ratio", Value::from(0.02)),
            ("instrumented_overhead_ratio", Value::from(1.01)),
            (
                "standards",
                Value::Object(
                    StandardId::ALL
                        .iter()
                        .map(|id| (id.key().to_string(), standard()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Replaces `doc.<path>` (dot-separated member path) with `v`.
    fn set(doc: &mut Value, path: &str, v: Value) {
        let mut cur = doc;
        let mut parts = path.split('.').peekable();
        while let Some(key) = parts.next() {
            let Value::Object(members) = cur else {
                panic!("set: `{key}` parent is not an object")
            };
            if parts.peek().is_none() {
                match members.iter_mut().find(|(k, _)| k == key) {
                    Some(slot) => slot.1 = v,
                    None => members.push((key.into(), v)),
                }
                return;
            }
            cur = members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, child)| child)
                .expect("set: missing intermediate member");
        }
    }

    #[test]
    fn bench_doc_happy_path_passes() {
        assert_eq!(check_bench_doc(&valid_bench_doc()), Ok(()));
    }

    #[test]
    fn bench_doc_rejects_missing_schema_and_keys() {
        let mut doc = valid_bench_doc();
        set(&mut doc, "schema", Value::from("bench-ofdm/v2"));
        let err = check_bench_doc(&doc).expect_err("wrong schema");
        assert!(err.contains("schema"), "{err}");

        let mut doc = valid_bench_doc();
        set(&mut doc, "symbols", Value::Null);
        let err = check_bench_doc(&doc).expect_err("missing key");
        assert!(err.contains("symbols"), "{err}");

        // A standard with no `stages_ns.ifft` names the standard and stage.
        let mut doc = valid_bench_doc();
        set(&mut doc, "standards.dab.stages_ns.ifft", Value::Null);
        let err = check_bench_doc(&doc).expect_err("missing stage");
        assert!(err.contains("dab") && err.contains("ifft"), "{err}");
    }

    #[test]
    fn bench_doc_rejects_non_finite_values() {
        // The shim parses `null` where a non-finite f64 was serialized;
        // `Value::from(f64::NAN)` models a hand-built in-memory document.
        let mut doc = valid_bench_doc();
        set(&mut doc, "standards.adsl.total_ns", Value::from(f64::NAN));
        let err = check_bench_doc(&doc).expect_err("NaN total_ns");
        assert!(err.contains("adsl"), "{err}");

        let mut doc = valid_bench_doc();
        set(
            &mut doc,
            "standards.vdsl.per_block_ns.tx",
            Value::from(f64::INFINITY),
        );
        let err = check_bench_doc(&doc).expect_err("inf block ns");
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn bench_doc_rejects_out_of_range_ratios() {
        for key in ["behavioral_vs_rtl_ratio", "instrumented_overhead_ratio"] {
            for bad in [0.0, -1.0] {
                let mut doc = valid_bench_doc();
                set(&mut doc, key, Value::from(bad));
                let err = check_bench_doc(&doc).expect_err("non-positive ratio");
                assert!(err.contains(key) && err.contains("positive"), "{err}");
            }
        }
    }

    #[test]
    fn bench_doc_gates_simd_floors() {
        let simd_entry = |speedup: f64| {
            obj(vec![
                ("samples", Value::from(4096.0)),
                ("scalar_ns", Value::from(1.0e6)),
                ("batched_ns", Value::from(1.0e6 / speedup)),
                ("speedup", Value::from(speedup)),
            ])
        };
        let mut doc = valid_bench_doc();
        set(
            &mut doc,
            "simd_speedup",
            obj(vec![
                (
                    "standards",
                    Value::Object(
                        StandardId::ALL
                            .iter()
                            .map(|id| (id.key().to_string(), simd_entry(6.0)))
                            .collect(),
                    ),
                ),
                ("geomean", Value::from(6.0)),
            ]),
        );
        assert_eq!(check_bench_doc(&doc), Ok(()));
        // DVB-T below its 5x headline floor trips the gate even though it
        // clears the family-wide 1x floor.
        set(&mut doc, "simd_speedup.standards.dvb-t", simd_entry(2.0));
        let err = check_bench_doc(&doc).expect_err("headline floor");
        assert!(err.contains("5x floor"), "{err}");
    }
}
