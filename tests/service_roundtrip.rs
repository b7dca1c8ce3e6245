//! Integration coverage for the rfsim service: concurrent clients over
//! real sockets, per-session result ordering, backpressure, cancellation
//! isolation, deadlines, server-side checkpoints, and clean shutdown.
//!
//! Every assertion of result *content* is a byte comparison of the
//! assembled `waterfall.json` against an in-process `run_waterfall` of
//! the same spec — the service must be indistinguishable from calling
//! the library directly.

use ofdm_bench::waterfall::{run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec};
use ofdm_server::wire::JobSpec;
use ofdm_server::{Client, Server, ServerConfig, SubmitOutcome};
use ofdm_standards::StandardId;

fn spec(standard: StandardId, realizations: usize, payload_bits: usize) -> WaterfallSpec {
    WaterfallSpec {
        standards: vec![standard],
        snr_db: vec![4.0, 10.0],
        realizations,
        payload_bits,
        base_seed: 0xA11CE ^ standard as u64,
        profile: ChannelProfile::Awgn,
        threads: 1,
    }
}

fn job(spec: WaterfallSpec) -> JobSpec {
    JobSpec {
        spec,
        deadline_ms: None,
    }
}

/// Binds a server on an ephemeral port and runs it on a background
/// thread; returns the address and the join handle.
fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn four_concurrent_clients_stream_byte_identical_results() {
    let (addr, server) = start(ServerConfig::default());
    let standards = [
        StandardId::Ieee80211a,
        StandardId::Dab,
        StandardId::Drm,
        StandardId::HomePlug10,
    ];
    let mut clients = Vec::new();
    for (n, &standard) in standards.iter().enumerate() {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr, &format!("client-{n}")).expect("connect");
            let job = job(spec(standard, 3, 192));
            // tail_job verifies in-order streaming internally; a result
            // arriving out of index order fails the tail.
            let outcome = client.run_job(&job).expect("job runs");
            assert_eq!(outcome.status, "complete");
            assert_eq!(outcome.results.len(), job.spec.point_count());
            let served =
                waterfall_json(&job.spec, &outcome.report(&job.spec).expect("report")).to_string();
            client.bye().expect("bye");
            (job.spec, served)
        }));
    }
    for handle in clients {
        let (spec, served) = handle.join().expect("client thread");
        let local = run_waterfall(&spec, None).expect("local run");
        assert_eq!(
            served,
            waterfall_json(&spec, &local).to_string(),
            "{:?}: served results must be byte-identical to a local run",
            spec.standards
        );
    }
    // Shut the server down and verify nothing lingers.
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    server
        .join()
        .expect("server thread")
        .expect("clean shutdown");
}

#[test]
fn full_queue_rejects_with_backpressure_then_recovers() {
    let (addr, server) = start(ServerConfig {
        queue_capacity: 1,
        retry_after_ms: 25,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr, "pushy").expect("connect");
    // A job heavy enough to still be queued when the next submit lands.
    let big = job(spec(StandardId::Ieee80211a, 24, 1024));
    let (big_id, _) = match client.submit(&big).expect("submit") {
        SubmitOutcome::Accepted { job, points } => (job, points),
        other => panic!("first submit must be accepted, got {other:?}"),
    };
    // The queue (capacity 1) is full: an immediate second submit bounces
    // with the configured retry hint.
    let small = job(spec(StandardId::Dab, 2, 128));
    match client.submit(&small).expect("submit") {
        SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(reason.contains("queue full"), "{reason}");
            assert_eq!(retry_after_ms, 25);
        }
        other => panic!("second submit must bounce, got {other:?}"),
    }
    // Riding out the backpressure eventually lands the job, and both
    // streams are intact.
    let (small_id, _) = client
        .submit_with_retry(&small, 10_000)
        .expect("retries in");
    let big_out = client.tail_job(big_id).expect("big job");
    assert_eq!(big_out.status, "complete");
    let small_out = client.tail_job(small_id).expect("small job");
    assert_eq!(small_out.status, "complete");
    let local = run_waterfall(&small.spec, None).expect("local");
    assert_eq!(
        waterfall_json(&small.spec, &small_out.report(&small.spec).expect("report")).to_string(),
        waterfall_json(&small.spec, &local).to_string(),
        "results that waited out backpressure are still byte-identical"
    );
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    server.join().expect("server thread").expect("clean");
}

#[test]
fn cancelling_one_session_leaves_the_other_byte_identical() {
    let (addr, server) = start(ServerConfig::default());

    let mut victim = Client::connect(&addr, "victim").expect("connect");
    let doomed = job(spec(StandardId::Ieee80216a, 32, 2048));
    let (doomed_id, _) = victim.submit_with_retry(&doomed, 10).expect("accepted");
    victim.cancel(doomed_id).expect("cancel sent");

    let mut bystander = Client::connect(&addr, "bystander").expect("connect");
    let quiet = job(spec(StandardId::Dab, 3, 192));
    let quiet_out = bystander.run_job(&quiet).expect("job runs");
    assert_eq!(quiet_out.status, "complete");

    let doomed_out = victim.tail_job(doomed_id).expect("tail");
    assert_eq!(doomed_out.status, "cancelled");
    assert!(
        doomed_out.results.len() < doomed.spec.point_count(),
        "the cancelled sweep must not have run to completion"
    );

    let local = run_waterfall(&quiet.spec, None).expect("local");
    assert_eq!(
        waterfall_json(&quiet.spec, &quiet_out.report(&quiet.spec).expect("report")).to_string(),
        waterfall_json(&quiet.spec, &local).to_string(),
        "a neighbor's cancellation must not perturb this session's results"
    );

    victim.bye().expect("bye");
    bystander.bye().expect("bye");
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    server.join().expect("server thread").expect("clean");
}

#[test]
fn expired_deadline_abandons_the_job_with_typed_status() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr, "hurried").expect("connect");
    // A deadline that expires while the sweep is still running.
    let hurried = JobSpec {
        spec: spec(StandardId::Vdsl, 64, 4096),
        deadline_ms: Some(1),
    };
    let (id, _) = client.submit_with_retry(&hurried, 10).expect("accepted");
    let outcome = client.tail_job(id).expect("tail");
    assert_eq!(outcome.status, "deadline", "watchdog status is typed");
    assert!(outcome.results.len() < hurried.spec.point_count());
    client.bye().expect("bye");
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    server.join().expect("server thread").expect("clean");
}

#[test]
fn server_side_checkpoint_restores_a_resubmitted_grid() {
    let dir = std::env::temp_dir().join(format!("rfsim-server-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, server) = start(ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr, "resumer").expect("connect");
    let sweep = job(spec(StandardId::Ieee80211a, 16, 1024));

    // First attempt: cancel partway; the server persists what it has.
    let (first, _) = client.submit_with_retry(&sweep, 10).expect("accepted");
    // Let a few points land before pulling the plug.
    let mut seen = 0;
    loop {
        use ofdm_server::wire::ServerMsg;
        match client.next_msg().expect("stream") {
            ServerMsg::Result { .. } => {
                seen += 1;
                if seen == 3 {
                    client.cancel(first).expect("cancel");
                }
            }
            ServerMsg::Done { job, .. } if job == first => break,
            _ => {}
        }
    }
    assert!(seen >= 3, "some points completed before the cancel");

    // Second attempt: identical grid — the checkpoint fills in the
    // prefix and the stream is still byte-identical to a local run.
    let outcome = client.run_job(&sweep).expect("resubmit");
    assert_eq!(outcome.status, "complete");
    assert!(
        outcome.computed < sweep.spec.point_count(),
        "restored points ({}) must not be recomputed",
        sweep.spec.point_count() - outcome.computed
    );
    let local = run_waterfall(&sweep.spec, None).expect("local");
    assert_eq!(
        waterfall_json(&sweep.spec, &outcome.report(&sweep.spec).expect("report")).to_string(),
        waterfall_json(&sweep.spec, &local).to_string(),
        "checkpoint-restored stream is byte-identical to a local run"
    );

    client.bye().expect("bye");
    Client::connect(&addr, "closer")
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    server.join().expect("server thread").expect("clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn accepted_is_the_first_frame_of_every_job() {
    use ofdm_server::wire::{self, ClientMsg, ServerMsg};
    use std::collections::HashSet;

    // Light one-point jobs keep both workers finishing points while the
    // next submits land: a job's `Result` or `Done` written before its
    // `Accepted` shows up here as a frame for a job not yet accepted.
    const JOBS: u64 = 200;
    let (addr, server) = start(ServerConfig {
        workers: 2,
        queue_capacity: JOBS as usize,
        ..ServerConfig::default()
    });
    let mut reader = std::net::TcpStream::connect(&addr).expect("connect");
    reader.set_nodelay(true).expect("nodelay");
    let hello = ClientMsg::Hello {
        client: "raw".to_owned(),
    };
    wire::send(&mut reader, &hello.to_value()).expect("hello");
    let welcome = ServerMsg::from_value(&wire::recv(&mut reader).expect("frame")).expect("msg");
    assert!(matches!(welcome, ServerMsg::Welcome { .. }), "{welcome:?}");

    let mut writer = reader.try_clone().expect("clone");
    let submitter = std::thread::spawn(move || {
        for n in 0..JOBS {
            let mut light = spec(StandardId::Ieee80211a, 1, 64);
            light.snr_db = vec![12.0];
            light.base_seed = n; // a distinct grid per job
            let submit = ClientMsg::Submit { job: job(light) };
            wire::send(&mut writer, &submit.to_value()).expect("submit");
        }
    });

    let mut accepted = HashSet::new();
    let mut done = 0;
    while done < JOBS {
        let msg = ServerMsg::from_value(&wire::recv(&mut reader).expect("frame")).expect("msg");
        match msg {
            ServerMsg::Accepted { job, points } => {
                assert_eq!(points, 1);
                assert!(accepted.insert(job), "job {job} accepted twice");
            }
            ServerMsg::Result { job, .. } | ServerMsg::Telemetry { job, .. } => {
                assert!(
                    accepted.contains(&job),
                    "job {job} streamed before Accepted"
                );
            }
            ServerMsg::Done { job, status, .. } => {
                assert!(
                    accepted.contains(&job),
                    "job {job} finished before Accepted"
                );
                assert_eq!(status, "complete", "job {job}");
                done += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    submitter.join().expect("submitter thread");
    assert_eq!(accepted.len() as u64, JOBS);

    wire::send(&mut reader, &ClientMsg::Shutdown.to_value()).expect("shutdown");
    server.join().expect("server thread").expect("clean");
}
