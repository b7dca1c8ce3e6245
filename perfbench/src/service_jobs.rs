//! `service_jobs`: a spawned release `rfsim-server --workers 2` receives
//! a seeded stream of small waterfall jobs at a fixed rate from one
//! connection (one thread sends on schedule, one reads). Open loop: each
//! job is timed from its due time, so a stall shows in every job behind
//! it, and the sender's lateness is reported.

use crate::gen::{self, JobPlan, SERVICE_JOBS_PER_S};
use crate::report::{Metric, Outcome};
use crate::stats::{median, quantile, ratio};
use crate::trace::{SpanId, Trace};
use crate::{host, RunArgs};
use ofdm_bench::waterfall::{run_waterfall, waterfall_json, ChannelProfile, WaterfallSpec};
use ofdm_server::wire::{self, ClientMsg, FrameReader, JobSpec, ServerMsg};
use ofdm_server::JobOutcome;
use ofdm_standards::{default_params, StandardId};
use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;
/// Per-session queue capacity; high enough that the fixed rate never
/// meets backpressure.
const QUEUE_CAPACITY: usize = 64;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Per-job wall-clock budget handed to the server.
const DEADLINE_MS: u64 = 60_000;
/// How long after the last due time the reader waits for stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(20);

/// A spawned `rfsim-server`, killed if dropped while still running.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawns the server on an ephemeral loopback port and waits for
    /// the port file it writes once bound.
    fn spawn(bin: &Path, port_file: &Path) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .args(["--queue-capacity", &QUEUE_CAPACITY.to_string()])
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: String::new(),
        };
        let start = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(port_file) {
                if !addr.trim().is_empty() {
                    server.addr = addr.trim().to_owned();
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before binding: {status}"));
            }
            if start.elapsed() > Duration::from_secs(20) {
                return Err("server did not bind within 20 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to shut down over `conn` and waits for it to exit.
    fn stop(mut self, conn: Conn) -> Result<(), String> {
        let mut stream = conn.stream;
        let sent = wire::send(&mut stream, &ClientMsg::Shutdown.to_value());
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(20) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && sent.is_ok() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit within 20 s of shutdown".to_owned())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection, after the hello handshake.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // The generator's own sends go out at once; the server's sockets
        // stay as shipped.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let hello = ClientMsg::Hello {
            client: "perfbench".to_owned(),
        };
        wire::send(&mut stream, &hello.to_value()).map_err(|e| e.to_string())?;
        let welcome = wire::recv(&mut stream).map_err(|e| e.to_string())?;
        match ServerMsg::from_value(&welcome).map_err(|e| e.to_string())? {
            ServerMsg::Welcome { .. } => Ok(Conn { stream }),
            other => Err(format!("expected welcome, got {other:?}")),
        }
    }

    /// Runs `specs` to completion one after another (setup warm-up).
    fn run_blocking(&mut self, specs: &[WaterfallSpec]) -> Result<(), String> {
        for spec in specs {
            let job = JobSpec {
                spec: spec.clone(),
                deadline_ms: Some(DEADLINE_MS),
            };
            let submit = ClientMsg::Submit { job };
            wire::send(&mut self.stream, &submit.to_value()).map_err(|e| e.to_string())?;
            loop {
                let msg = wire::recv(&mut self.stream).map_err(|e| e.to_string())?;
                match ServerMsg::from_value(&msg).map_err(|e| e.to_string())? {
                    ServerMsg::Rejected { reason, .. } => {
                        return Err(format!("warm-up rejected: {reason}"))
                    }
                    ServerMsg::Done { status, .. } if status == "complete" => break,
                    ServerMsg::Done { status, detail, .. } => {
                        return Err(format!("warm-up job ended {status}: {detail}"))
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// One small grid per standard the stream uses, so every FFT plan and
/// receiver table is built before timing starts.
fn warm_specs(seed: u64) -> Vec<WaterfallSpec> {
    [
        StandardId::Adsl,
        StandardId::Adsl2Plus,
        StandardId::Dab,
        StandardId::Ieee80216a,
    ]
    .iter()
    .enumerate()
    .map(|(i, &id)| WaterfallSpec {
        standards: vec![id],
        snr_db: vec![10.0],
        realizations: 1,
        payload_bits: gen::SERVICE_PAYLOAD_BITS,
        base_seed: seed.wrapping_add(i as u64),
        profile: ChannelProfile::Awgn,
        threads: 1,
    })
    .collect()
}

/// Spawns, binds, connects and warms a server.
fn setup(args: &RunArgs, n: usize) -> Result<(ServerProc, Conn), String> {
    let server = ServerProc::spawn(
        &args.server_bin()?,
        &args.work_dir.join(format!("port-{n}")),
    )?;
    let mut conn = Conn::connect(&server.addr)?;
    conn.run_blocking(&warm_specs(args.seed))?;
    Ok((server, conn))
}

/// Everything observed about one job, in seconds since the stream's
/// origin.
#[derive(Debug, Clone, Default)]
struct JobRecord {
    due: f64,
    sent: Option<f64>,
    accepted: Option<f64>,
    rejected: bool,
    first_result: Option<f64>,
    last_result: Option<f64>,
    result_gaps: Vec<f64>,
    done: Option<f64>,
    id: u64,
    status: String,
    computed: usize,
    detail: String,
    results: Vec<(u64, u64)>,
    frames: u64,
    wire_error: bool,
    /// A `Result` arrived out of grid-index order.
    out_of_order: bool,
}

/// A job the sender has submitted and the server has not yet answered:
/// its index, when it was sent, and its open `client:job` span (traced
/// streams only).
type InFlight = (usize, f64, Option<SpanId>);

/// Sends `jobs` on schedule over `conn` and records every frame the
/// server returns, until each job is resolved or the grace period ends.
/// With a `trace`, the sender and the reader record each job's spans
/// while the stream runs: `client:job` (due → `Done`) with the children
/// `client:send` (due → sent, the generator's lateness), `server:accept`
/// (sent → `Accepted`), `server:first_result` (`Accepted` → first
/// `Result`) and `server:stream` (first `Result` → `Done`).
fn stream(conn: &Conn, jobs: &[JobPlan], trace: Option<&Trace>) -> Result<Stream, String> {
    let mut reader_stream = conn.stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
    reader_stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let origin = Instant::now() + Duration::from_millis(20);
    let secs = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
    let in_flight: Mutex<VecDeque<InFlight>> = Mutex::new(VecDeque::new());
    let mut records: Vec<JobRecord> = jobs
        .iter()
        .map(|j| JobRecord {
            due: j.due_s,
            ..JobRecord::default()
        })
        .collect();
    let last_due = jobs.last().map_or(0.0, |j| j.due_s);

    let mut stray: Vec<String> = Vec::new();
    let sent: Vec<Option<f64>> = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(job.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let msg = ClientMsg::Submit {
                    job: JobSpec {
                        spec: job.spec.clone(),
                        deadline_ms: Some(DEADLINE_MS),
                    },
                }
                .to_value();
                let t = Instant::now();
                let span = trace.map(|tr| {
                    let span = tr.open("client:job", due, None, i as u64);
                    tr.span("client:send", due, t, Some(span), i as u64);
                    span
                });
                in_flight
                    .lock()
                    .expect("reader never panics")
                    .push_back((i, secs(t), span));
                if wire::send(&mut writer, &msg).is_err() {
                    sent.push(None);
                    break;
                }
                sent.push(Some(secs(t)));
            }
            sent
        });

        let mut reader = FrameReader::new();
        let stray = &mut stray;
        let mut early: HashMap<u64, Vec<(ServerMsg, f64)>> = HashMap::new();
        let mut by_id: HashMap<u64, InFlight> = HashMap::new();
        let mut resolved = 0usize;
        // Closes a resolved job's spans.
        let finish = |r: &JobRecord, (i, sent, span): InFlight| {
            let (Some(tr), Some(job)) = (trace, span) else {
                return;
            };
            let at = |s: f64| origin + Duration::from_secs_f64(s.max(0.0));
            let op = i as u64;
            if let (Some(acc), Some(first), Some(done)) = (r.accepted, r.first_result, r.done) {
                tr.span("server:accept", at(sent), at(acc), Some(job), op);
                tr.span("server:first_result", at(acc), at(first), Some(job), op);
                tr.span("server:stream", at(first), at(done), Some(job), op);
            }
            tr.close(job, Instant::now());
        };
        while resolved < jobs.len() {
            if secs(Instant::now()) > last_due + DRAIN_GRACE.as_secs_f64() {
                break;
            }
            let payload = match reader.poll(&mut reader_stream) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    if sender.is_finished()
                        && in_flight.lock().expect("sender never panics").is_empty()
                        && by_id.is_empty()
                    {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            };
            let now = secs(Instant::now());
            let Ok(msg) = wire::parse_payload(&payload).and_then(|v| ServerMsg::from_value(&v))
            else {
                break;
            };
            match msg {
                ServerMsg::Accepted { job, .. } => {
                    if let Some(entry) = in_flight.lock().expect("sender never panics").pop_front()
                    {
                        by_id.insert(job, entry);
                        let r = &mut records[entry.0];
                        r.accepted = Some(now);
                        r.id = job;
                        r.frames += 1;
                        // Workers may stream a job's first frames before
                        // the session writes its `Accepted`.
                        for (m, t) in early.remove(&job).unwrap_or_default() {
                            if apply(&mut records[entry.0], m, t) {
                                by_id.remove(&job);
                                finish(&records[entry.0], entry);
                                resolved += 1;
                            }
                        }
                    }
                }
                ServerMsg::Rejected { .. } => {
                    if let Some(entry) = in_flight.lock().expect("sender never panics").pop_front()
                    {
                        records[entry.0].rejected = true;
                        records[entry.0].frames += 1;
                        finish(&records[entry.0], entry);
                        resolved += 1;
                    }
                }
                ServerMsg::Result { job, .. }
                | ServerMsg::Telemetry { job, .. }
                | ServerMsg::Done { job, .. } => match by_id.get(&job).copied() {
                    Some(entry) => {
                        if apply(&mut records[entry.0], msg, now) {
                            by_id.remove(&job);
                            finish(&records[entry.0], entry);
                            resolved += 1;
                        }
                    }
                    None => early.entry(job).or_default().push((msg, now)),
                },
                other => stray.push(format!("{other:?}")),
            }
        }
        stray.extend(early.into_values().flatten().map(|(m, _)| format!("{m:?}")));
        sender.join().expect("sender thread never panics")
    });
    for (r, s) in records.iter_mut().zip(&sent) {
        r.sent = *s;
    }
    for r in records
        .iter_mut()
        .filter(|r| r.done.is_none() && !r.rejected)
    {
        r.wire_error = true;
    }
    Ok(Stream { records, stray })
}

/// Applies one of a job's frames to its record; `true` when the frame
/// ends the job.
fn apply(r: &mut JobRecord, msg: ServerMsg, now: f64) -> bool {
    r.frames += 1;
    match msg {
        ServerMsg::Result {
            index,
            errors,
            bits,
            ..
        } => {
            r.out_of_order |= index != r.results.len();
            if let Some(prev) = r.last_result {
                r.result_gaps.push(now - prev);
            }
            r.first_result.get_or_insert(now);
            r.last_result = Some(now);
            r.results.push((errors, bits));
            false
        }
        ServerMsg::Done {
            status,
            computed,
            detail,
            ..
        } => {
            r.done = Some(now);
            r.status = status;
            r.computed = computed;
            r.detail = detail;
            true
        }
        _ => false,
    }
}

/// What one stream observed.
struct Stream {
    records: Vec<JobRecord>,
    /// Frames that belonged to no job in flight.
    stray: Vec<String>,
}

/// The waterfall document a job streamed back, or why there is none.
fn streamed_document(plan: &JobPlan, r: &JobRecord) -> Result<String, String> {
    let outcome = JobOutcome {
        job: r.id,
        status: r.status.clone(),
        computed: r.computed,
        detail: r.detail.clone(),
        results: r.results.clone(),
    };
    let report = outcome.report(&plan.spec)?;
    Ok(waterfall_json(&plan.spec, &report).to_string())
}

/// Checks every completed job's document against an in-process
/// `run_waterfall` of the same spec, on two threads. Returns the indices
/// of jobs whose documents differ.
fn check_documents(jobs: &[JobPlan], records: &[JobRecord]) -> Vec<usize> {
    let bad = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for part in 0..2 {
            let bad = &bad;
            scope.spawn(move || {
                for i in (part..jobs.len()).step_by(2) {
                    let r = &records[i];
                    if r.done.is_none() {
                        continue;
                    }
                    let local = run_waterfall(&jobs[i].spec, None)
                        .map(|rep| waterfall_json(&jobs[i].spec, &rep).to_string());
                    let streamed = streamed_document(&jobs[i], r);
                    if local.is_err() || streamed.is_err() || local != streamed {
                        bad.lock().expect("no checker panics").push(i);
                    }
                }
            });
        }
    });
    let mut bad = bad.into_inner().expect("no checker panics");
    bad.sort_unstable();
    bad
}

/// Which jobs of a stream failed: rejected, no `Done`, results out of
/// order, not complete, or a document that differs from the in-process
/// one. Reports the first few failures and every stray frame.
fn job_failures(label: &str, jobs: &[JobPlan], s: &Stream, out: &mut Outcome) -> Vec<bool> {
    for f in s.stray.iter().take(5) {
        out.fail(format!("{label}: frame for no job in flight: {f}"));
    }
    let mismatched = check_documents(jobs, &s.records);
    let failed: Vec<bool> = s
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.rejected
                || r.wire_error
                || r.out_of_order
                || r.status != "complete"
                || mismatched.binary_search(&i).is_ok()
        })
        .collect();
    for (i, r) in s
        .records
        .iter()
        .enumerate()
        .filter(|(i, _)| failed[*i])
        .take(5)
    {
        out.fail(format!(
            "{label} job {i} ({} x{} points, id {}): status `{}` {}, rejected={} no_done={} out_of_order={} results={} frames={} document_differs={}",
            jobs[i].spec.standards[0].key(),
            jobs[i].spec.point_count(),
            r.id,
            r.status,
            r.detail,
            r.rejected,
            r.wire_error,
            r.out_of_order,
            r.results.len(),
            r.frames,
            mismatched.binary_search(&i).is_ok()
        ));
    }
    failed
}

/// Due time → `Done` of every job in ms; a failed job misses every
/// latency limit (infinite latency).
fn latency_ms(records: &[JobRecord], failed: &[bool]) -> Vec<f64> {
    records
        .iter()
        .zip(failed)
        .map(|(r, &f)| match (f, r.done) {
            (false, Some(d)) => (d - r.due) * 1e3,
            _ => f64::INFINITY,
        })
        .collect()
}

fn ms(v: impl IntoIterator<Item = f64>) -> Vec<f64> {
    v.into_iter().map(|s| s * 1e3).collect()
}

/// Runs the workload.
///
/// # Errors
///
/// A message if the server cannot be spawned, bound or reached.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for n in 0..SETUPS {
        let t = Instant::now();
        let (server, conn) = setup(args, n)?;
        setups.push(t.elapsed().as_secs_f64());
        if n + 1 < SETUPS {
            server.stop(conn)?;
        } else {
            kept = Some((server, conn));
        }
    }
    let (server, conn) = kept.expect("SETUPS > 0");
    let pid = server.pid();

    let window = args.window().as_secs_f64();
    let plain_jobs = gen::service_jobs(args.seed, window);
    out.notes.push(format!(
        "job stream: {} jobs at {SERVICE_JOBS_PER_S}/s, {} heavy, inputs digest {:016x}",
        plain_jobs.len(),
        plain_jobs.iter().filter(|j| j.heavy).count(),
        crate::report::fnv1a(format!("{plain_jobs:?}").as_bytes())
    ));
    let plain_jobs = plain_jobs.as_slice();

    let plain = stream(&conn, plain_jobs, None)?;
    // The traced half sends the same jobs again, so its latencies compare
    // job for job with the untraced half's. The first stream has resolved
    // every job, so none of them is live and the idempotency registry
    // bounces no repeat.
    let traced = if args.trace {
        let trace = Trace::new();
        let cpu0 = host::cpu_seconds(pid);
        let t = Instant::now();
        let s = stream(&conn, plain_jobs, Some(&trace))?;
        let wall = t.elapsed().as_secs_f64();
        let cpu_s = match (cpu0, host::cpu_seconds(pid)) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        Some((trace, s, wall, cpu_s))
    } else {
        None
    };
    let server_rss = host::peak_rss_mb(Some(pid)).unwrap_or(f64::NAN);
    server.stop(conn)?;

    let failed_jobs = job_failures("service_jobs", plain_jobs, &plain, &mut out);
    let records = plain.records;
    out.attempted = records.len() as u64;
    out.failed = failed_jobs.iter().filter(|&&f| f).count() as u64;

    let latency = latency_ms(&records, &failed_jobs);
    let ttfr = ms(records
        .iter()
        .map(|r| r.first_result.map_or(f64::INFINITY, |t| t - r.due)));
    let mut per_point: HashMap<(StandardId, usize), u64> = HashMap::new();
    let mut samples = 0u64;
    for (j, _) in plain_jobs.iter().zip(&failed_jobs).filter(|(_, &f)| !f) {
        for &id in &j.spec.standards {
            let n = match per_point.get(&(id, j.spec.payload_bits)) {
                Some(&n) => n,
                None => {
                    let n = gen::frame_len(&default_params(id), j.spec.payload_bits)? as u64;
                    per_point.insert((id, j.spec.payload_bits), n);
                    n
                }
            };
            samples += n * (j.spec.snr_db.len() * j.spec.realizations) as u64;
        }
    }
    let last_done = records.iter().filter_map(|r| r.done).fold(0.0, f64::max);
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(&setups), SETUPS),
        Metric::new(
            "sim_msps",
            "Msps",
            ratio(samples as f64 / 1e6, last_done),
            records.len(),
        ),
        Metric::new(
            "op_latency_ms.p95",
            "ms",
            quantile(&latency, 0.95),
            latency.len(),
        ),
        Metric::new("peak_rss_mb", "MB", server_rss, 1),
    ];
    let w = &mut out.workload;
    w.push(Metric::new(
        "job_latency_ms.p50",
        "ms",
        quantile(&latency, 0.5),
        latency.len(),
    ));
    w.push(Metric::new(
        "job_latency_ms.p95",
        "ms",
        quantile(&latency, 0.95),
        latency.len(),
    ));
    w.push(Metric::new(
        "ttfr_ms.p50",
        "ms",
        quantile(&ttfr, 0.5),
        ttfr.len(),
    ));
    w.push(Metric::new(
        "ttfr_ms.p95",
        "ms",
        quantile(&ttfr, 0.95),
        ttfr.len(),
    ));
    w.push(Metric::new("server_rss_mb", "MB", server_rss, 1));
    w.push(Metric::new(
        "peak_rss_mb.client",
        "MB",
        host::peak_rss_mb(None).unwrap_or(f64::NAN),
        1,
    ));
    w.push(Metric::new(
        "failed_share",
        "share",
        ratio(out.failed as f64, out.attempted as f64),
        records.len(),
    ));

    let mut per_std: Vec<(String, u64, u64, u64, u64)> = Vec::new();
    for (j, r) in plain_jobs.iter().zip(&records) {
        let key = j.spec.standards[0].key().to_owned();
        let idx = match per_std.iter().position(|p| p.0 == key) {
            Some(i) => i,
            None => {
                per_std.push((key, 0, 0, 0, 0));
                per_std.len() - 1
            }
        };
        let e = &mut per_std[idx];
        for &(errors, bits) in &r.results {
            e.1 += errors;
            e.2 += bits;
            e.3 += u64::from(errors == bits && bits > 0);
            e.4 += 1;
        }
    }
    per_std.sort();
    for (key, errors, bits, failures, points) in per_std {
        out.digest.push(format!(
            "service_jobs.{key} errors/bits={errors}/{bits} decode_failures={failures}/{points}"
        ));
    }

    if let Some((trace, s, wall, cpu_s)) = traced {
        let failed = job_failures("service_jobs traced", plain_jobs, &s, &mut out);
        out.attempted += s.records.len() as u64;
        out.failed += failed.iter().filter(|&&f| f).count() as u64;
        let traced_latency = latency_ms(&s.records, &failed);
        layer_metrics(
            &s.records,
            (wall, cpu_s),
            &latency,
            &traced_latency,
            &mut out,
        );
        out.self_time = trace.self_time_ms();
        if let Err(e) = trace.write(&args.work_dir.join("trace-service_jobs.json")) {
            out.notes.push(format!("trace not written: {e}"));
        }
    }
    Ok(out)
}

/// The per-layer metrics of the traced half, from the client's own
/// timestamps; `plain_latency` and `traced_latency` are the two halves'
/// job latencies on the same jobs.
fn layer_metrics(
    recs: &[JobRecord],
    (wall, cpu_s): (f64, f64),
    plain_latency: &[f64],
    traced_latency: &[f64],
    out: &mut Outcome,
) {
    let accept = ms(recs.iter().filter_map(|r| Some(r.accepted? - r.sent?)));
    let gaps = ms(recs.iter().flat_map(|r| r.result_gaps.iter().copied()));
    let lateness = ms(recs.iter().filter_map(|r| Some(r.sent? - r.due)));
    let frames: u64 = recs.iter().map(|r| r.frames).sum();
    let points: usize = recs.iter().map(|r| r.computed).sum();
    let n = recs.len();
    let l = &mut out.layers;
    l.push(Metric::new(
        "server.accept_ms.p50",
        "ms",
        quantile(&accept, 0.5),
        accept.len(),
    ));
    l.push(Metric::new(
        "server.accept_ms.p95",
        "ms",
        quantile(&accept, 0.95),
        accept.len(),
    ));
    l.push(Metric::new(
        "server.result_gap_ms.p50",
        "ms",
        quantile(&gaps, 0.5),
        gaps.len(),
    ));
    l.push(Metric::new(
        "server.result_gap_ms.p95",
        "ms",
        quantile(&gaps, 0.95),
        gaps.len(),
    ));
    l.push(Metric::new(
        "server.frames_per_job",
        "count",
        ratio(frames as f64, n as f64),
        n,
    ));
    l.push(Metric::new(
        "server.rejected",
        "count",
        recs.iter().filter(|r| r.rejected).count() as f64,
        n,
    ));
    l.push(Metric::new(
        "server.deadline_expired",
        "count",
        recs.iter().filter(|r| r.status == "deadline").count() as f64,
        n,
    ));
    l.push(Metric::new(
        "server.cpu_ms_per_point",
        "ms",
        ratio(cpu_s * 1e3, points as f64),
        points,
    ));
    l.push(Metric::new(
        "server.busy_share",
        "share",
        ratio(cpu_s, wall * WORKERS as f64),
        n,
    ));
    l.push(Metric::new(
        "client.lateness_ms.p95",
        "ms",
        quantile(&lateness, 0.95),
        lateness.len(),
    ));
    l.push(Metric::new(
        "trace.overhead_share",
        "share",
        ratio(median(traced_latency), median(plain_latency)) - 1.0,
        n,
    ));
}
