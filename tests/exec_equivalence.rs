//! The unified-engine contract: every feature the engine understands is a
//! toggle of one `ExecPlan` handed to `Graph::execute`, and the toggles
//! compose without disturbing the signal path. A streaming pass must
//! reproduce the batch pass bit for bit — outputs, measurements,
//! supervision outcome and report counts — for every feature combination
//! the plan can express (guard × telemetry × budget × breakers), telemetry
//! must never change what a pass computes or how it fails, and one plan
//! value drives any number of graphs.

use rfsim::prelude::*;
use std::time::Duration;

/// Tone → PA → AWGN (fixed reference, seeded) → power meter: a fully
/// deterministic chain where every block has a native streaming override.
fn build_chain(seed: u64) -> (Graph, BlockId, BlockId) {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 2048));
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(6.0));
    let ch = g.add(AwgnChannel::from_snr_db(25.0, seed).with_reference_power(0.2));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, pa, ch, meter]).expect("wires");
    g.probe(ch).expect("probe");
    (g, ch, meter)
}

/// A chain whose impairment fails on every invocation: the material for
/// the guard and breaker paths. With a breaker policy the failing block
/// is bypassed pass-through; with the non-finite guard and no breaker the
/// pass fails.
fn build_faulty_chain(error_rate: f64, nan_rate: f64) -> (Graph, BlockId, BlockId) {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e6, 20.0e6, 2048));
    let bad = g.add(
        FaultPlan::new()
            .with_error_rate(error_rate)
            .with_nan_rate(nan_rate)
            .wrap(0xEE, NanInjector::new(1.0, 5)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, bad, pa]).expect("wires");
    g.probe(pa).expect("probe");
    (g, bad, pa)
}

/// Reports of two passes over the same samples must agree on the
/// supervision outcome and on each block's sample flow, whatever the
/// mode. Wall-clock timings never compare.
fn assert_outcomes_match(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.health, b.health, "{label}: health");
    assert_eq!(a.breaker_trips, b.breaker_trips, "{label}: breaker trips");
    assert_eq!(
        a.bypassed_invocations, b.bypassed_invocations,
        "{label}: bypassed invocations"
    );
    assert_eq!(a.blocks.len(), b.blocks.len(), "{label}: blocks");
    for (x, y) in a.blocks.iter().zip(&b.blocks) {
        assert_eq!(x.name, y.name, "{label}: block name");
        assert_eq!(x.samples_in, y.samples_in, "{label}: {} samples in", x.name);
        assert_eq!(
            x.samples_out, y.samples_out,
            "{label}: {} samples out",
            x.name
        );
        assert_eq!(x.bypassed, y.bypassed, "{label}: {} bypassed", x.name);
    }
}

/// Reports of two passes in the same mode must agree on everything except
/// wall-clock timings.
fn assert_reports_match(a: &RunReport, b: &RunReport, label: &str) {
    assert_outcomes_match(a, b, label);
    assert_eq!(a.mode, b.mode, "{label}: mode");
    assert_eq!(a.rounds, b.rounds, "{label}: rounds");
    for (x, y) in a.blocks.iter().zip(&b.blocks) {
        assert_eq!(
            x.invocations, y.invocations,
            "{label}: {} invocations",
            x.name
        );
        assert_eq!(
            x.buffer_high_water, y.buffer_high_water,
            "{label}: {} buffer high water",
            x.name
        );
    }
}

/// The full feature matrix on a clean chain: guard × telemetry × budget ×
/// breakers. For every combination the batch plan and the streaming plan
/// must give bit-identical probed outputs and measurements — identical to
/// a featureless batch pass too — and matching report contracts.
#[test]
fn batch_and_streaming_plans_agree_per_feature_combination() {
    let chunk_len = 77usize;
    let (mut reference, ref_ch, ref_meter) = build_chain(11);
    reference.execute(&ExecPlan::batch()).expect("reference");
    let want = reference.output(ref_ch).expect("reference ran").clone();
    let want_power = reference.block::<PowerMeter>(ref_meter).unwrap().power();

    for &telemetry in &[false, true] {
        for &guard in &[false, true] {
            for &budget in &[None, Some(Duration::from_secs(3600))] {
                for &breakers in &[None, Some(BreakerPolicy::new().with_threshold(2))] {
                    let label = format!(
                        "telemetry={telemetry} guard={guard} budget={} breakers={}",
                        budget.is_some(),
                        breakers.is_some()
                    );
                    let plan = |mode| {
                        ExecPlan::new(mode)
                            .with_telemetry(telemetry)
                            .guard_non_finite(guard)
                            .with_budget(budget)
                            .with_breaker_policy(breakers)
                    };

                    let (mut batch, ch, meter) = build_chain(11);
                    let batch_report = batch.execute(&plan(ExecMode::Batch)).expect(&label);
                    let (mut stream, ch2, meter2) = build_chain(11);
                    let stream_report = stream
                        .execute(&plan(ExecMode::Streaming { chunk_len }))
                        .expect(&label);

                    // Bit-identical signal path and measurement.
                    assert_eq!(batch.output(ch), Some(&want), "{label}: batch output");
                    assert_eq!(stream.output(ch2), Some(&want), "{label}: streaming output");
                    assert_eq!(
                        batch.block::<PowerMeter>(meter).unwrap().power(),
                        want_power,
                        "{label}: batch power"
                    );
                    assert_eq!(
                        stream.block::<PowerMeter>(meter2).unwrap().power(),
                        want_power,
                        "{label}: streaming power"
                    );

                    // The telemetry contract: a report exactly when asked,
                    // returned and retained alike.
                    for (g, report) in [(&batch, &batch_report), (&stream, &stream_report)] {
                        assert_eq!(report.is_some(), telemetry, "{label}: report");
                        assert_eq!(g.last_report(), report.as_ref(), "{label}: retained");
                        assert_eq!(g.health(), Health::Healthy, "{label}: health");
                    }
                    if let (Some(a), Some(b)) = (&batch_report, &stream_report) {
                        assert_eq!(a.mode, RunMode::Batch, "{label}");
                        assert_eq!(b.mode, RunMode::Streaming { chunk_len }, "{label}");
                        assert_outcomes_match(a, b, &label);
                    }
                }
            }
        }
    }
}

/// A guarded pass fails the same way with and without telemetry: same
/// typed error, same failed health, and no retained report.
#[test]
fn guard_failure_is_identical_with_and_without_telemetry() {
    for mode in [ExecMode::Batch, ExecMode::Streaming { chunk_len: 64 }] {
        let plan = ExecPlan::new(mode).guard_non_finite(true);
        let (mut plain, _, _) = build_faulty_chain(0.0, 1.0);
        let plain_err = plain.execute(&plan).unwrap_err();
        let (mut traced, _, _) = build_faulty_chain(0.0, 1.0);
        let traced_err = traced
            .execute(&plan.clone().with_telemetry(true))
            .unwrap_err();

        assert!(
            matches!(plain_err, SimError::NonFiniteSample { .. }),
            "{mode:?}: {plain_err:?}"
        );
        assert_eq!(format!("{plain_err}"), format!("{traced_err}"), "{mode:?}");
        assert_eq!(plain.health(), Health::Failed, "{mode:?}");
        assert_eq!(traced.health(), Health::Failed, "{mode:?}");
        assert!(
            traced.last_report().is_none(),
            "failed run must not retain a report"
        );
    }
}

/// Breaker-degraded streaming passes agree block for block with and
/// without telemetry — same trips, same bypass counts, same degraded
/// health, same pass-through output — and the report tells the same
/// story as the graph's own supervision accessors.
#[test]
fn breaker_degradation_is_identical_with_and_without_telemetry() {
    let plan =
        ExecPlan::streaming(128).with_breaker_policy(Some(BreakerPolicy::new().with_threshold(1)));

    let (mut plain, bad, pa) = build_faulty_chain(1.0, 0.0);
    assert!(plain.execute(&plan).expect("degrades").is_none());
    let (mut traced, bad2, pa2) = build_faulty_chain(1.0, 0.0);
    let report = traced
        .execute(&plan.clone().with_telemetry(true))
        .expect("degrades")
        .expect("telemetry requested");

    assert_eq!(plain.health(), Health::Degraded);
    assert_eq!(traced.health(), Health::Degraded);
    assert_eq!(plain.breaker_trips(), traced.breaker_trips());
    assert_eq!(plain.bypassed_invocations(), traced.bypassed_invocations());
    assert_eq!(plain.bypassed(bad), traced.bypassed(bad2));
    assert_eq!(
        plain.breaker_state(bad).map(|s| s.is_open()),
        traced.breaker_state(bad2).map(|s| s.is_open())
    );
    assert_eq!(plain.output(pa), traced.output(pa2), "pass-through output");

    assert_eq!(report.health, Health::Degraded);
    assert_eq!(report.breaker_trips, traced.breaker_trips());
    assert_eq!(report.bypassed_invocations, traced.bypassed_invocations());
    assert_eq!(
        report.block("fault(nan-injector)").map(|b| b.bypassed),
        traced.bypassed(bad2)
    );
}

/// Supervision limits fire identically in both modes: an exhausted
/// deadline and a pre-cancelled token abort batch and streaming passes
/// with the same typed errors.
#[test]
fn deadline_and_cancellation_are_identical_in_batch_and_streaming() {
    let modes = [ExecMode::Batch, ExecMode::Streaming { chunk_len: 64 }];

    // Deadline: a zero budget trips at the first supervision check.
    let errs: Vec<SimError> = modes
        .iter()
        .map(|&mode| {
            let (mut g, _, _) = build_chain(3);
            let plan = ExecPlan::new(mode).with_budget(Some(Duration::ZERO));
            g.execute(&plan).unwrap_err()
        })
        .collect();
    // The rendered message embeds the elapsed wall time, so compare the
    // typed failure, not the rendering.
    assert!(
        matches!(&errs[0], SimError::DeadlineExceeded { .. })
            && std::mem::discriminant(&errs[0]) == std::mem::discriminant(&errs[1]),
        "deadline: batch {:?} vs streaming {:?}",
        errs[0],
        errs[1]
    );

    // Cancellation: an already-cancelled token aborts before any block.
    let token = CancelToken::new();
    token.cancel();
    let errs: Vec<String> = modes
        .iter()
        .map(|&mode| {
            let (mut g, _, _) = build_chain(3);
            let plan = ExecPlan::new(mode).with_cancel_token(Some(token.clone()));
            let err = g.execute(&plan).unwrap_err();
            assert!(matches!(err, SimError::Cancelled { .. }), "{err:?}");
            assert_eq!(g.health(), Health::Failed);
            format!("{err}")
        })
        .collect();
    assert_eq!(errs[0], errs[1], "cancel");
}

/// One plan value drives many graphs — the paper's "same simulator
/// engine, many IP configurations" shape: reusing the plan across a sweep
/// reproduces, graph for graph, what a freshly built plan computes.
#[test]
fn one_plan_drives_a_sweep_of_graphs() {
    let plan = ExecPlan::streaming(80).with_telemetry(true);
    let mut outputs = Vec::new();
    for seed in [1u64, 2, 3] {
        let (mut swept, ch, _) = build_chain(seed);
        let swept_report = swept
            .execute(&plan)
            .expect("runs")
            .expect("telemetry requested");

        let (mut fresh, ch2, _) = build_chain(seed);
        let fresh_report = fresh
            .execute(&ExecPlan::streaming(80).with_telemetry(true))
            .expect("runs")
            .expect("telemetry requested");

        assert_eq!(swept.output(ch), fresh.output(ch2), "seed {seed}");
        assert_reports_match(&swept_report, &fresh_report, &format!("seed {seed}"));
        outputs.push(swept.output(ch).expect("probed").clone());
    }
    // The plan carries no data: each seed still gets its own noise.
    assert_ne!(outputs[0], outputs[1]);
    assert_ne!(outputs[1], outputs[2]);
}
