//! Integration coverage for the supervised execution runtime: deadlines
//! and cooperative cancellation on real TX graphs, circuit-breaker
//! degraded mode with pass-through output, and the checkpoint/resume
//! exactness guarantee for scenario sweeps.

use rfsim::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Mean output power of a tone through an AWGN channel and soft limiter —
/// the reference scenario used throughout this file. Deterministic per
/// `(seed, i)`.
fn scenario_power(seed: u64, i: usize) -> Result<f64, SimError> {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e3, 1.0e6, 256));
    let ch = g.add(AwgnChannel::from_snr_db(
        3.0 + i as f64,
        rfsim::scenario::scenario_seed(seed, i),
    ));
    let pa = g.add(SoftClipPa::new(1.0));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, ch, pa, meter])?;
    g.execute(&ExecPlan::batch())?;
    Ok(g.block::<PowerMeter>(meter)
        .expect("meter")
        .power()
        .expect("ran"))
}

#[test]
fn hung_streaming_graph_is_killed_by_its_deadline() {
    let mut g = Graph::new();
    let src = g.add(StalledSource::new(1.0e6, Duration::from_millis(4)));
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, pa]).expect("wiring");
    let plan = ExecPlan::streaming(32).with_budget(Some(Duration::from_millis(25)));
    let started = Instant::now();
    let err = g.execute(&plan).expect_err("must not run forever");
    assert!(
        matches!(err, SimError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline must bound the pass"
    );
    assert_eq!(g.health(), Health::Failed);
}

#[test]
fn watchdog_kills_hung_scenarios_and_sweep_completes() {
    // Every 4th scenario hangs on a stalled source; the rest compute real
    // powers. The watchdog must kill the hung ones without stalling the
    // sweep or disturbing the healthy results.
    let healthy_reference: Vec<f64> = (0..12)
        .filter(|i| i % 4 != 3)
        .map(|i| scenario_power(7, i).expect("healthy scenario"))
        .collect();

    let supervisor = SweepSupervisor::new()
        .with_scenario_budget(Duration::from_millis(200))
        .with_poll_interval(Duration::from_millis(2));
    let started = Instant::now();
    let (outcomes, report) = SweepPlan::new(12)
        .threads(4)
        .with_retry(RetryPolicy::none())
        .with_supervisor(supervisor)
        .run(|i, _attempt, ctx| -> Result<f64, SimError> {
            if i % 4 == 3 {
                let mut g = Graph::new();
                let src = g.add(StalledSource::new(1.0e6, Duration::from_millis(2)));
                let pa = g.add(SoftClipPa::new(1.0));
                g.chain(&[src, pa])?;
                g.execute(&ctx.supervise(ExecPlan::streaming(64)))?;
                unreachable!("a stalled source never finishes a pass");
            }
            scenario_power(7, i)
        });
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "sweep must not stall on hung scenarios"
    );
    let faults = report.faults.expect("fault account");
    assert_eq!(faults.succeeded, 9);
    assert_eq!(faults.faulted, 3);
    let sup = report.supervision.expect("supervision account");
    assert_eq!(sup.deadline_kills, 3);
    let healthy: Vec<f64> = outcomes
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 != 3)
        .map(|(_, o)| *o.result().expect("healthy scenario succeeded"))
        .collect();
    assert_eq!(healthy, healthy_reference, "kills must not disturb results");
    for (i, o) in outcomes.iter().enumerate() {
        if i % 4 == 3 {
            assert!(o.is_faulted(), "scenario {i} should have been killed");
        }
    }
}

#[test]
fn tripped_impairment_breaker_degrades_to_pass_through() {
    // Reference: the clean chain without the impairment.
    let mut clean = Graph::new();
    let src = clean.add(ToneSource::new(1.0e3, 1.0e6, 512));
    let pa = clean.add(SoftClipPa::new(1.0));
    clean.chain(&[src, pa]).expect("wiring");
    clean.probe(pa).expect("probe");
    clean.execute(&ExecPlan::streaming(64)).expect("clean run");
    let clean_out = clean.output(pa).expect("probed").clone();

    // Same chain with an always-erroring impairment in the middle.
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e3, 1.0e6, 512));
    let bad = g.add(
        FaultPlan::new()
            .with_error_rate(1.0)
            .wrap(11, NanInjector::new(1.0, 11)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, bad, pa]).expect("wiring");
    g.probe(pa).expect("probe");
    let plan = ExecPlan::streaming(64)
        .with_telemetry(true)
        .with_breaker_policy(Some(BreakerPolicy::new().with_threshold(1)));
    let report = g
        .execute(&plan)
        .expect("degraded run")
        .expect("telemetry requested");

    assert_eq!(report.health, Health::Degraded);
    assert_eq!(g.health(), Health::Degraded);
    assert_eq!(
        report.breaker_trips, 1,
        "threshold 1 trips on first failure"
    );
    assert!(report.bypassed_invocations >= 8, "every chunk bypassed");
    let out = g.output(pa).expect("probed");
    assert_eq!(out.samples(), clean_out.samples(), "bypass is pass-through");
}

#[test]
fn open_source_breaker_fails_fast_across_runs() {
    let mut g = Graph::new();
    let src = g.add(
        FaultPlan::new()
            .with_error_rate(1.0)
            .wrap(3, ToneSource::new(1.0e3, 1.0e6, 64)),
    );
    let pa = g.add(SoftClipPa::new(1.0));
    g.chain(&[src, pa]).expect("wiring");
    let plan = ExecPlan::batch().with_breaker_policy(Some(BreakerPolicy::new().with_threshold(2)));
    // Two runs feed the breaker with the injector's own faults...
    for _ in 0..2 {
        let err = g.execute(&plan).expect_err("injector always faults");
        assert!(matches!(err, SimError::BlockFault { .. }), "got {err:?}");
    }
    // ...after which the open breaker rejects the run without invoking.
    let err = g.execute(&plan).expect_err("breaker is open");
    match err {
        SimError::BlockFault { fault, .. } => {
            assert!(fault.contains("circuit breaker open"), "{fault}")
        }
        other => panic!("expected breaker fail-fast, got {other:?}"),
    }
    // reset() restores the breaker; the same plan invokes the block again.
    g.reset();
    let err = g
        .execute(&plan)
        .expect_err("injector still faults after reset");
    match err {
        SimError::BlockFault { fault, .. } => {
            assert!(fault.contains("injected"), "{fault}")
        }
        other => panic!("expected injected fault, got {other:?}"),
    }
}

#[test]
fn interrupted_sweep_resumes_exactly() {
    const COUNT: usize = 24;
    const SEED: u64 = 99;
    let path = std::env::temp_dir().join(format!(
        "rfsim-supervision-resume-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Reference: the uninterrupted sweep.
    let mut reference = SweepCheckpoint::load_or_new("/nonexistent/never-written", "ref", COUNT);
    let plan = SweepPlan::new(COUNT).threads(4);
    let (uninterrupted, _) =
        plan.run_checkpointed(&mut reference, |i, _attempt, _ctx| scenario_power(SEED, i));

    // Interrupted run: the back half of the sweep fails this time around
    // (standing in for a killed process), so only the front half lands in
    // the checkpoint.
    let mut ckpt = SweepCheckpoint::load_or_new(&path, "resume-test", COUNT).with_batch(4);
    let (_partial, partial_report) = plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| {
        if i >= COUNT / 2 {
            return Err(SimError::BlockFailure {
                block: "sweep".into(),
                message: "interrupted".into(),
            });
        }
        scenario_power(SEED, i)
    });
    assert_eq!(partial_report.faults.expect("present").faulted, COUNT / 2);
    drop(ckpt);

    // Resume from disk with the same seed: restored scenarios must not
    // re-run, and the merged sweep must equal the uninterrupted one.
    let reran = AtomicUsize::new(0);
    let mut ckpt = SweepCheckpoint::load_or_new(&path, "resume-test", COUNT);
    assert_eq!(ckpt.len(), COUNT / 2, "front half persisted");
    let (resumed, resumed_report) = plan.run_checkpointed(&mut ckpt, |i, _attempt, _ctx| {
        reran.fetch_add(1, Ordering::Relaxed);
        scenario_power(SEED, i)
    });
    assert_eq!(
        reran.load(Ordering::Relaxed),
        COUNT / 2,
        "restored scenarios must not re-run"
    );
    let faults = resumed_report.faults.expect("present");
    assert_eq!(faults.succeeded, COUNT);
    assert_eq!(faults.faulted, 0);
    assert_eq!(
        resumed_report.supervision.expect("present").resumed,
        COUNT / 2
    );
    // Exactness: outcome-by-outcome identical results.
    assert_eq!(uninterrupted.len(), resumed.len());
    for (i, (a, b)) in uninterrupted.iter().zip(&resumed).enumerate() {
        assert_eq!(
            a.result(),
            b.result(),
            "scenario {i} differs between uninterrupted and resumed sweeps"
        );
    }
    ckpt.discard().expect("cleanup");
}

#[test]
fn run_report_json_carries_supervision_fields() {
    let mut g = Graph::new();
    let src = g.add(ToneSource::new(1.0e3, 1.0e6, 128));
    let bad = g.add(
        FaultPlan::new()
            .with_error_rate(1.0)
            .wrap(5, SampleDropper::new(0.1, 5)),
    );
    g.chain(&[src, bad]).expect("wiring");
    let plan = ExecPlan::batch()
        .with_telemetry(true)
        .with_breaker_policy(Some(BreakerPolicy::new().with_threshold(1)));
    let report = g
        .execute(&plan)
        .expect("degraded run")
        .expect("telemetry requested");
    let doc = serde::json::parse(&report.to_json()).expect("valid JSON");
    use serde::json::Value;
    assert_eq!(doc.get("health").and_then(Value::as_str), Some("degraded"));
    assert_eq!(doc.get("breaker_trips").and_then(Value::as_f64), Some(1.0));
    assert_eq!(
        doc.get("bypassed_invocations").and_then(Value::as_f64),
        Some(1.0)
    );
    let summary = report.summary();
    assert!(summary.contains("health degraded"), "{summary}");
}

#[test]
fn deadline_kill_on_final_retry_counts_each_scenario_once() {
    // Regression: the kill tally must count killed *scenarios*, not
    // killed attempts. Every scenario with i % 3 == 2 hangs on every
    // attempt, so with one retry the watchdog cancels each twice — once on
    // the first attempt and once more when the deadline fires during
    // the final retry. Counting per attempt would report 6 kills for 3
    // scenarios and break the partition below.
    let supervisor = SweepSupervisor::new()
        .with_scenario_budget(Duration::from_millis(40))
        .with_poll_interval(Duration::from_millis(1));
    let (outcomes, report) = SweepPlan::new(9)
        .threads(3)
        .with_retry(RetryPolicy::retries(1))
        .with_supervisor(supervisor)
        .run(|i, _attempt, ctx| -> Result<usize, String> {
            match i % 3 {
                // Clean successes.
                0 => Ok(i),
                // Plain faults: fail fast on both attempts, well inside
                // the budget, so the watchdog never touches them.
                1 => Err(format!("scenario {i} fails on its own")),
                // Deadline faults: hang until the watchdog cancels,
                // on the initial attempt and again on the final retry.
                _ => loop {
                    if ctx.is_cancelled() {
                        return Err(format!("scenario {i} cancelled by watchdog"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                },
            }
        });
    let faults = report.faults.expect("fault account");
    let sup = report.supervision.expect("supervision account");
    assert_eq!(faults.succeeded, 3);
    assert_eq!(faults.retried, 0);
    assert_eq!(faults.faulted, 6, "plain faults plus deadline faults");
    for (i, o) in outcomes.iter().enumerate() {
        if i % 3 == 0 {
            assert_eq!(o.result(), Some(&i));
        } else {
            assert!(o.is_faulted());
            assert_eq!(o.attempts(), 2, "faulting scenario consumed its retry");
        }
    }
    assert_eq!(
        sup.deadline_kills, 3,
        "a scenario killed on both attempts is one kill, not two"
    );
    // Kills, clean successes, and non-deadline faults partition the
    // sweep. Per-attempt counting would double the kill tally and break
    // this sum (6 + 3 + 3 != 9).
    let plain_faults = outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| o.is_faulted() && i % 3 == 1)
        .count();
    assert_eq!(
        sup.deadline_kills + faults.succeeded + plain_faults,
        outcomes.len(),
        "kills partition against clean successes and non-deadline faults"
    );
}
