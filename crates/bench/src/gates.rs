//! CI gates: the `lab/v1` document validator and the SIMD speedup floors.
//!
//! [`check_lab_doc`] validates an in-memory experiment-lab report and
//! [`check_lab_json`] adds file IO (the experiments binary's
//! `--check-lab`). [`check_simd_speedups`] holds the batched PA kernel to
//! its floors; the `pa_speedup` lab kernel calls it, so a missed floor
//! fails the `bench` run. The failure paths are unit-tested — a gate that
//! only ever sees happy-path input is not a gate.

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

/// Per-standard floor on the batched Rapp kernel's speedup over the
/// scalar polar path: the split layout must never be slower.
pub const SIMD_FLOOR: f64 = 1.0;
/// Floor for the two headline standards, 802.11a and DVB-T.
pub const SIMD_HEADLINE_FLOOR: f64 = 5.0;
/// Floor for the geometric mean over the whole family.
pub const SIMD_GEOMEAN_FLOOR: f64 = 3.0;

/// The structure-of-arrays payoff gate (DESIGN §3.5): every standard's
/// batched-vs-scalar PA speedup clears [`SIMD_FLOOR`], 802.11a and DVB-T
/// clear [`SIMD_HEADLINE_FLOOR`], and the geometric mean clears
/// [`SIMD_GEOMEAN_FLOOR`]. Returns the geometric mean.
///
/// # Errors
///
/// The first missed floor, naming the standard, the speedup and the
/// floor; or an empty measurement set.
pub fn check_simd_speedups(speedups: &[(StandardId, f64)]) -> Result<f64, String> {
    if speedups.is_empty() {
        return Err("simd_speedup: no standards measured".into());
    }
    let mut log_sum = 0.0;
    for &(id, speedup) in speedups {
        let floor = match id {
            StandardId::Ieee80211a | StandardId::DvbT => SIMD_HEADLINE_FLOOR,
            _ => SIMD_FLOOR,
        };
        if speedup.is_nan() || speedup < floor {
            return Err(format!(
                "simd_speedup `{}`: {speedup:.2}x below the {floor}x floor",
                id.key()
            ));
        }
        log_sum += speedup.ln();
    }
    let geomean = (log_sum / speedups.len() as f64).exp();
    if geomean < SIMD_GEOMEAN_FLOOR {
        return Err(format!(
            "simd_speedup geomean: {geomean:.2}x below the {SIMD_GEOMEAN_FLOOR}x family floor"
        ));
    }
    Ok(geomean)
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

    /// Every standard at `speedup`, then `id` overridden to `own`.
    fn family(speedup: f64, id: StandardId, own: f64) -> Vec<(StandardId, f64)> {
        StandardId::ALL
            .iter()
            .map(|&s| (s, if s == id { own } else { speedup }))
            .collect()
    }

    #[test]
    fn simd_floors_pass_a_healthy_family() {
        let geomean = check_simd_speedups(&family(6.0, StandardId::Dab, 6.0)).expect("passes");
        assert!((geomean - 6.0).abs() < 1e-12, "{geomean}");
    }

    #[test]
    fn simd_floor_trips_on_any_standard_below_1x() {
        let err = check_simd_speedups(&family(6.0, StandardId::Adsl, 0.9)).expect_err("1x floor");
        assert!(
            err.contains("`adsl`") && err.contains("0.90x") && err.contains("1x floor"),
            "{err}"
        );
    }

    #[test]
    fn simd_floor_trips_on_dvb_t_below_5x() {
        // 4x clears the family-wide 1x floor but not DVB-T's headline floor.
        let err = check_simd_speedups(&family(6.0, StandardId::DvbT, 4.0)).expect_err("5x floor");
        assert!(
            err.contains("`dvb-t`") && err.contains("4.00x") && err.contains("5x floor"),
            "{err}"
        );
        // The same 4x on a non-headline standard passes.
        assert!(check_simd_speedups(&family(6.0, StandardId::Drm, 4.0)).is_ok());
    }

    #[test]
    fn simd_floor_trips_on_geomean_below_3x() {
        // Headline standards at 5x, the other eight at 2x: geomean ≈ 2.4x.
        let speedups: Vec<(StandardId, f64)> = StandardId::ALL
            .iter()
            .map(|&s| match s {
                StandardId::Ieee80211a | StandardId::DvbT => (s, 5.0),
                _ => (s, 2.0),
            })
            .collect();
        let err = check_simd_speedups(&speedups).expect_err("geomean floor");
        assert!(
            err.contains("geomean") && err.contains("3x family floor"),
            "{err}"
        );
    }

    #[test]
    fn simd_floor_rejects_nan_and_empty_input() {
        assert!(check_simd_speedups(&family(6.0, StandardId::Dab, f64::NAN)).is_err());
        assert!(check_simd_speedups(&[]).is_err());
    }
}
