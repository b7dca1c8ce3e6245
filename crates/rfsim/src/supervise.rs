//! Supervised execution: run deadlines, cooperative cancellation,
//! per-block circuit breakers with degraded-mode bypass, and durable
//! checkpoints for scenario sweeps.
//!
//! The paper's C3 claim — the behavioral model has negligible influence on
//! total simulation time — only survives contact with long multi-standard
//! sweeps if one hung or misbehaving block cannot stall the whole run.
//! This module supplies the supervision side of the fault story started by
//! [`crate::fault`]:
//!
//! * **Deadlines** — [`ExecPlan::with_budget`](crate::ExecPlan::with_budget)
//!   arms a wall-clock [`Deadline`] checked at every block boundary (per chunk in
//!   streaming runs); an overrun fails the pass with
//!   [`SimError::DeadlineExceeded`].
//! * **Cancellation** — a [`CancelToken`] installed via
//!   [`ExecPlan::with_cancel_token`](crate::ExecPlan::with_cancel_token) is polled
//!   at the same boundaries, so a watchdog thread
//!   ([`crate::scenario::SweepPlan::run`]) can kill a runaway
//!   scenario cooperatively with [`SimError::Cancelled`].
//! * **Circuit breakers** — with a [`BreakerPolicy`] enabled, each block
//!   carries a [`BreakerState`]. Repeated failures of a *bypassable* block
//!   (role [`BlockRole::Impairment`] or [`BlockRole::Instrument`]) open the
//!   breaker: the block is skipped pass-through and the run completes with
//!   [`Health::Degraded`]. Failures of a source/essential block propagate,
//!   and once their breaker is open later runs fail fast with
//!   [`SimError::BlockFault`] without invoking the block.
//! * **Checkpoints** — [`SweepCheckpoint`] persists completed scenario
//!   outcomes as JSON so an interrupted sweep restarted with the same seed
//!   skips finished work and merges into one
//!   [`SweepReport`](crate::telemetry::SweepReport) identical to an
//!   uninterrupted run.

use crate::block::SimError;
use serde::json::Value;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Overall condition of a graph run or sweep under supervision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Health {
    /// Every block ran normally.
    #[default]
    Healthy,
    /// The run completed, but at least one block was bypassed by its
    /// circuit breaker — results omit that block's contribution.
    Degraded,
    /// The run failed with an error.
    Failed,
}

impl Health {
    /// Lowercase label used in summaries and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Failed => "failed",
        }
    }

    /// Downgrades `Healthy` to `Degraded`; `Failed` is sticky.
    pub fn degrade(&mut self) {
        if *self == Health::Healthy {
            *self = Health::Degraded;
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A wall-clock budget armed at run start and checked at block boundaries.
///
/// Construct via [`Deadline::starting_now`]; the schedulers arm one
/// automatically when the plan carries a budget
/// ([`ExecPlan::with_budget`](crate::ExecPlan::with_budget)).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn starting_now(budget: Duration) -> Self {
        Deadline {
            started: Instant::now(),
            budget,
        }
    }

    /// Wall time since the deadline was armed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The armed budget.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.started.elapsed())
    }

    /// Returns `true` once the budget is spent.
    pub fn expired(&self) -> bool {
        self.started.elapsed() > self.budget
    }

    /// Fails with [`SimError::DeadlineExceeded`] naming `block` once the
    /// budget is spent.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] after expiry.
    pub fn check(&self, block: &str) -> Result<(), SimError> {
        let elapsed = self.started.elapsed();
        if elapsed > self.budget {
            Err(SimError::DeadlineExceeded {
                block: block.to_owned(),
                elapsed,
            })
        } else {
            Ok(())
        }
    }
}

/// A shared cooperative cancellation flag.
///
/// Clones observe the same flag; cancellation is one-way and sticky. The
/// schedulers poll the token at block/chunk boundaries, so a long pass
/// stops within one block invocation of [`CancelToken::cancel`].
///
/// Tokens form scopes: [`CancelToken::child`] derives a token that is
/// also cancelled whenever any ancestor is, while cancelling the child
/// leaves the parent untouched. A service can hand every session a child
/// of its own shutdown token and every job a child of its session token —
/// one `cancel()` at any level stops exactly that subtree.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<CancelInner>);

#[derive(Debug, Default)]
struct CancelInner {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A new token scoped under `self`: it reports cancelled when either
    /// its own flag or any ancestor's flag is raised, but cancelling it
    /// does not propagate upward.
    pub fn child(&self) -> Self {
        CancelToken(Arc::new(CancelInner {
            flag: AtomicBool::new(false),
            parent: Some(self.clone()),
        }))
    }

    /// Raises this token's own flag (ancestors are untouched). Returns
    /// `true` if this call performed the cancellation (i.e. the flag was
    /// not already raised) — used by watchdogs to count kills exactly
    /// once. An already-cancelled ancestor does not make this return
    /// `false`; only this token's own flag is consulted.
    pub fn cancel(&self) -> bool {
        !self.0.flag.swap(true, Ordering::SeqCst)
    }

    /// Whether this token's flag — or any ancestor's — has been raised.
    pub fn is_cancelled(&self) -> bool {
        if self.0.flag.load(Ordering::SeqCst) {
            return true;
        }
        let mut parent = self.0.parent.as_ref();
        while let Some(p) = parent {
            if p.0.flag.load(Ordering::SeqCst) {
                return true;
            }
            parent = p.0.parent.as_ref();
        }
        false
    }

    /// Fails with [`SimError::Cancelled`] naming `block` once cancelled.
    ///
    /// # Errors
    ///
    /// [`SimError::Cancelled`] after [`CancelToken::cancel`].
    pub fn check(&self, block: &str) -> Result<(), SimError> {
        if self.is_cancelled() {
            Err(SimError::Cancelled {
                block: block.to_owned(),
            })
        } else {
            Ok(())
        }
    }
}

/// A heartbeat-refreshed time-to-live, shared between the party proving
/// liveness (which calls [`Lease::touch`]) and the party enforcing it
/// (which polls [`Lease::expired`]).
///
/// A service hands every session a lease and touches it on every frame
/// the client sends; a [`LeaseReaper`] cancels the session's
/// [`CancelToken`] once the client has been silent longer than the TTL —
/// the supervision answer to clients that die without closing their
/// socket. Lock-free: the last-touch timestamp is an atomic nanosecond
/// offset from the lease's creation instant.
#[derive(Debug)]
pub struct Lease {
    ttl: Duration,
    epoch: Instant,
    /// Nanoseconds after `epoch` of the most recent touch.
    last: AtomicU64,
}

impl Lease {
    /// A fresh lease that expires `ttl` from now unless touched.
    pub fn new(ttl: Duration) -> Self {
        Lease {
            ttl,
            epoch: Instant::now(),
            last: AtomicU64::new(0),
        }
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Records a proof of liveness, restarting the TTL window.
    pub fn touch(&self) {
        let nanos = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.last.fetch_max(nanos, Ordering::SeqCst);
    }

    /// Time since the last touch (or creation, if never touched).
    pub fn idle(&self) -> Duration {
        let now = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Duration::from_nanos(now.saturating_sub(self.last.load(Ordering::SeqCst)))
    }

    /// Whether the holder has been silent longer than the TTL.
    pub fn expired(&self) -> bool {
        self.idle() > self.ttl
    }
}

/// Associates [`Lease`]s with the [`CancelToken`]s they keep alive.
///
/// [`LeaseReaper::sweep`] cancels the token of every expired lease and
/// forgets it; entries whose token was cancelled by someone else (a clean
/// session teardown) are pruned without counting as reaped. A service
/// runs one sweeping thread at a fraction of the lease TTL.
#[derive(Debug, Default)]
pub struct LeaseReaper {
    entries: Mutex<Vec<(Arc<Lease>, CancelToken)>>,
}

impl LeaseReaper {
    /// An empty reaper.
    pub fn new() -> Self {
        LeaseReaper::default()
    }

    /// Starts enforcing `lease`: when it expires, `token` is cancelled.
    pub fn register(&self, lease: Arc<Lease>, token: CancelToken) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((lease, token));
    }

    /// Leases currently being enforced.
    pub fn tracked(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Cancels the token of every expired lease, prunes entries whose
    /// token is already cancelled, and returns how many leases this sweep
    /// reaped.
    pub fn sweep(&self) -> usize {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut reaped = 0;
        entries.retain(|(lease, token)| {
            if token.is_cancelled() {
                return false; // ended cleanly; nothing to reap
            }
            if lease.expired() {
                token.cancel();
                reaped += 1;
                return false;
            }
            true
        });
        reaped
    }
}

/// How the circuit-breaker layer treats a block when it fails repeatedly.
///
/// Returned by [`Block::role`](crate::Block::role); the default derives
/// `Source` for input-less blocks and `Essential` otherwise, and the
/// impairment/instrument blocks shipped with this crate override it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRole {
    /// Emits the stimulus; nothing to bypass to. Fails fast.
    Source,
    /// Carries the signal path (PAs, filters, channels). Fails fast.
    Essential,
    /// Degrades the signal on purpose (fault/impairment models). Safe to
    /// bypass pass-through.
    Impairment,
    /// Measures without transforming. Safe to bypass pass-through.
    Instrument,
}

impl BlockRole {
    /// Whether an open breaker may skip the block pass-through instead of
    /// failing the run.
    pub fn bypassable(self) -> bool {
        matches!(self, BlockRole::Impairment | BlockRole::Instrument)
    }

    /// Lowercase label used in summaries and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            BlockRole::Source => "source",
            BlockRole::Essential => "essential",
            BlockRole::Impairment => "impairment",
            BlockRole::Instrument => "instrument",
        }
    }
}

/// Thresholds for the per-block circuit breaker
/// ([`ExecPlan::with_breaker_policy`](crate::ExecPlan::with_breaker_policy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    threshold: u32,
    probation: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            threshold: 3,
            probation: 16,
        }
    }
}

impl BreakerPolicy {
    /// The default policy: open after 3 failures, retry after 16 bypassed
    /// invocations.
    pub fn new() -> Self {
        BreakerPolicy::default()
    }

    /// Builder: failures (cumulative since the last success or reset)
    /// before the breaker opens. Clamped to at least 1.
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    /// Builder: bypassed invocations an open breaker absorbs before
    /// allowing one half-open trial invocation.
    pub fn with_probation(mut self, probation: u32) -> Self {
        self.probation = probation;
        self
    }

    /// Failure count that opens the breaker.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Bypassed invocations before a half-open trial.
    pub fn probation(&self) -> u32 {
        self.probation
    }
}

/// The classic three-state circuit breaker, tracked per block by the
/// schedulers when a [`BreakerPolicy`] is enabled.
///
/// `Closed` (normal, counting consecutive failures) → `Open` (bypassing /
/// failing fast, counting probation) → `HalfOpen` (one trial invocation) →
/// `Closed` on success or back to `Open` on failure. State survives across
/// runs and is cleared by [`Graph::reset`](crate::Graph::reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; `failures` failures since the last success.
    Closed {
        /// Failures accumulated toward the policy threshold.
        failures: u32,
    },
    /// Tripped: invocations are bypassed (or fail fast for essential
    /// blocks); `bypassed` counts probation progress.
    Open {
        /// Invocations bypassed since the breaker opened.
        bypassed: u32,
    },
    /// Probation expired: the next invocation is a real trial.
    HalfOpen,
}

impl Default for BreakerState {
    fn default() -> Self {
        BreakerState::Closed { failures: 0 }
    }
}

impl BreakerState {
    /// Whether the breaker is currently tripped (open or probing).
    pub fn is_open(&self) -> bool {
        !matches!(self, BreakerState::Closed { .. })
    }

    /// Asks whether the next invocation should actually run. `Open`
    /// breakers say no until `policy.probation()` invocations have been
    /// absorbed, then transition to `HalfOpen` and allow one trial.
    pub fn should_attempt(&mut self, policy: &BreakerPolicy) -> bool {
        match self {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { bypassed } => {
                if *bypassed >= policy.probation {
                    *self = BreakerState::HalfOpen;
                    true
                } else {
                    *bypassed += 1;
                    false
                }
            }
        }
    }

    /// Records a failed invocation. Returns `true` when this failure
    /// transitions the breaker into `Open` (a trip — including a failed
    /// half-open trial re-opening it).
    pub fn record_failure(&mut self, policy: &BreakerPolicy) -> bool {
        match self {
            BreakerState::Closed { failures } => {
                *failures += 1;
                if *failures >= policy.threshold {
                    *self = BreakerState::Open { bypassed: 0 };
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                *self = BreakerState::Open { bypassed: 0 };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Records a successful invocation: clears the failure streak and
    /// closes a half-open breaker.
    pub fn record_success(&mut self) {
        *self = BreakerState::Closed { failures: 0 };
    }
}

/// Watchdog configuration for supervised sweeps
/// ([`SweepPlan::run`](crate::scenario::SweepPlan::run)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSupervisor {
    scenario_budget: Option<Duration>,
    poll_interval: Duration,
}

impl Default for SweepSupervisor {
    fn default() -> Self {
        SweepSupervisor {
            scenario_budget: None,
            poll_interval: Duration::from_millis(2),
        }
    }
}

impl SweepSupervisor {
    /// No watchdog: scenarios run unbounded (the PR 3 behavior).
    pub fn new() -> Self {
        SweepSupervisor::default()
    }

    /// Builder: wall-clock budget per scenario *attempt*. A watchdog
    /// thread cancels attempts that exceed it via their
    /// [`ScenarioCtx`](crate::scenario::ScenarioCtx) token.
    pub fn with_scenario_budget(mut self, budget: Duration) -> Self {
        self.scenario_budget = Some(budget);
        self
    }

    /// Builder: how often the watchdog scans running attempts.
    pub fn with_poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval.max(Duration::from_micros(100));
        self
    }

    /// The per-attempt budget, if any.
    pub fn scenario_budget(&self) -> Option<Duration> {
        self.scenario_budget
    }

    /// The watchdog scan interval.
    pub fn poll_interval(&self) -> Duration {
        self.poll_interval
    }
}

/// Sweep-level supervision outcomes, attached to
/// [`SweepReport`](crate::telemetry::SweepReport) by the supervised
/// runners.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Number of scenarios the watchdog killed for exceeding the per-scenario
    /// budget — counted once per scenario, even when several of its
    /// attempts (initial run plus retries) were each cancelled.
    pub deadline_kills: usize,
    /// Number of scenarios restored from a [`SweepCheckpoint`] instead of re-run.
    pub resumed: usize,
}

impl SupervisionReport {
    /// One-line human-readable digest.
    pub fn summary(&self) -> String {
        format!(
            "{} deadline kills, {} resumed from checkpoint",
            self.deadline_kills, self.resumed
        )
    }

    /// The supervision counts as a JSON document.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("deadline_kills".into(), Value::from(self.deadline_kills)),
            ("resumed".into(), Value::from(self.resumed)),
        ])
    }
}

/// A scenario result that can ride through a [`SweepCheckpoint`].
///
/// The JSON writer emits shortest-roundtrip decimals, so finite `f64`
/// payloads restore bit for bit — the basis of the resumed ≡ uninterrupted
/// exactness guarantee. Non-finite floats serialize as `null` and fail to
/// decode, which safely forces a re-run of that scenario.
pub trait CheckpointPayload: Sized {
    /// Encodes the result for persistence.
    fn to_checkpoint_value(&self) -> Value;
    /// Decodes a persisted result; `None` marks the entry unusable (the
    /// scenario is re-run).
    fn from_checkpoint_value(value: &Value) -> Option<Self>;
}

impl CheckpointPayload for f64 {
    fn to_checkpoint_value(&self) -> Value {
        Value::from(*self)
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        value.as_f64()
    }
}

impl CheckpointPayload for u64 {
    fn to_checkpoint_value(&self) -> Value {
        Value::from(*self)
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        let x = value.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64).then_some(x as u64)
    }
}

impl CheckpointPayload for u32 {
    fn to_checkpoint_value(&self) -> Value {
        Value::from(u64::from(*self))
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        u64::from_checkpoint_value(value).and_then(|x| u32::try_from(x).ok())
    }
}

impl CheckpointPayload for usize {
    fn to_checkpoint_value(&self) -> Value {
        Value::from(*self)
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        u64::from_checkpoint_value(value).and_then(|x| usize::try_from(x).ok())
    }
}

impl CheckpointPayload for bool {
    fn to_checkpoint_value(&self) -> Value {
        Value::from(*self)
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl CheckpointPayload for String {
    fn to_checkpoint_value(&self) -> Value {
        Value::from(self.as_str())
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl CheckpointPayload for () {
    fn to_checkpoint_value(&self) -> Value {
        Value::Null
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        matches!(value, Value::Null).then_some(())
    }
}

impl<T: CheckpointPayload> CheckpointPayload for Vec<T> {
    fn to_checkpoint_value(&self) -> Value {
        Value::Array(self.iter().map(T::to_checkpoint_value).collect())
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        value
            .as_array()?
            .iter()
            .map(T::from_checkpoint_value)
            .collect()
    }
}

impl<A: CheckpointPayload, B: CheckpointPayload> CheckpointPayload for (A, B) {
    fn to_checkpoint_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_checkpoint_value(),
            self.1.to_checkpoint_value(),
        ])
    }
    fn from_checkpoint_value(value: &Value) -> Option<Self> {
        match value.as_array()? {
            [a, b] => Some((A::from_checkpoint_value(a)?, B::from_checkpoint_value(b)?)),
            _ => None,
        }
    }
}

/// One persisted completion inside a [`SweepCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Scenario index within the sweep.
    pub index: usize,
    /// Attempts the scenario consumed (1 = clean success).
    pub attempts: u32,
    /// Wall time of the successful attempt chain, in nanoseconds.
    pub nanos: u64,
    /// The encoded scenario result.
    pub result: Value,
}

/// The schema tag every persisted [`SweepCheckpoint`] document carries —
/// exposed so services can census a checkpoint directory (e.g. a crash
/// recovery scan) without constructing a checkpoint per file.
pub const CHECKPOINT_SCHEMA: &str = "sweep-checkpoint/v1";

/// Durable sweep state: which scenarios of a named sweep have completed,
/// and with what results.
///
/// Only *successful* outcomes (clean or retried) are persisted — faulted
/// scenarios are re-attempted on resume, so a transient infrastructure
/// failure does not become permanent. Persistence is batched
/// ([`SweepCheckpoint::with_batch`]) and crash-safe (write to a sibling
/// temp file, then rename).
///
/// # Example
///
/// ```no_run
/// use rfsim::prelude::*;
/// use std::time::Duration;
///
/// let mut ckpt = SweepCheckpoint::load_or_new("sweep.ckpt.json", "snr-sweep", 64);
/// let (outcomes, report) = SweepPlan::new(64)
///     .with_retry(RetryPolicy::retries(1))
///     .with_supervisor(SweepSupervisor::new().with_scenario_budget(Duration::from_secs(5)))
///     .run_checkpointed(&mut ckpt, |i, _attempt, _ctx| -> Result<f64, SimError> {
///         Ok(i as f64)
///     });
/// assert_eq!(outcomes.len(), 64);
/// assert!(report.faults.is_some());
/// ```
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    label: String,
    count: usize,
    batch: usize,
    pending: usize,
    entries: Vec<CheckpointEntry>,
}

impl SweepCheckpoint {
    /// Opens the checkpoint at `path` for a sweep identified by `label`
    /// and `count`, failing loudly on damage: a file that exists but does
    /// not decode (truncated or corrupted mid-write) is an error, never a
    /// silent restart from zero.
    ///
    /// A *missing* file and an *identity mismatch* (a valid checkpoint
    /// written for a different label or count — a stale file from another
    /// sweep) both start fresh: neither is damage, and the stale-label
    /// case is the documented guard against merging incompatible grids.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointCorrupt`] when the file exists but is not
    /// valid JSON, or is valid JSON that is not a checkpoint document
    /// (wrong or missing schema tag).
    pub fn load(path: impl Into<PathBuf>, label: &str, count: usize) -> Result<Self, SimError> {
        let path = path.into();
        let mut ckpt = SweepCheckpoint {
            path,
            label: label.to_owned(),
            count,
            batch: 8,
            pending: 0,
            entries: Vec::new(),
        };
        let corrupt = |ckpt: &SweepCheckpoint, detail: String| SimError::CheckpointCorrupt {
            path: ckpt.path.display().to_string(),
            detail,
        };
        let text = match std::fs::read_to_string(&ckpt.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ckpt),
            Err(e) => return Err(corrupt(&ckpt, format!("unreadable: {e}"))),
        };
        let doc = serde::json::parse(&text).map_err(|e| corrupt(&ckpt, e.to_string()))?;
        if doc.get("schema").and_then(Value::as_str) != Some(CHECKPOINT_SCHEMA) {
            return Err(corrupt(
                &ckpt,
                format!("not a {CHECKPOINT_SCHEMA} document"),
            ));
        }
        ckpt.absorb(&doc);
        Ok(ckpt)
    }

    /// Lenient variant of [`SweepCheckpoint::load`]: damage falls back to
    /// an empty checkpoint instead of an error. Callers that resume real
    /// sweeps should prefer `load`, so a truncated file is surfaced
    /// rather than silently recomputed from zero.
    pub fn load_or_new(path: impl Into<PathBuf>, label: &str, count: usize) -> Self {
        let path = path.into();
        SweepCheckpoint::load(path.clone(), label, count).unwrap_or(SweepCheckpoint {
            path,
            label: label.to_owned(),
            count,
            batch: 8,
            pending: 0,
            entries: Vec::new(),
        })
    }

    /// Loads entries from a parsed checkpoint document if its identity
    /// matches; silently keeps the checkpoint empty otherwise.
    fn absorb(&mut self, doc: &Value) {
        let identity_matches = doc.get("schema").and_then(Value::as_str) == Some(CHECKPOINT_SCHEMA)
            && doc.get("label").and_then(Value::as_str) == Some(self.label.as_str())
            && doc.get("count").and_then(Value::as_f64) == Some(self.count as f64);
        if !identity_matches {
            return;
        }
        let Some(done) = doc.get("done").and_then(Value::as_array) else {
            return;
        };
        for item in done {
            let entry = (|| {
                let index = usize::from_checkpoint_value(item.get("index")?)?;
                let attempts = u32::from_checkpoint_value(item.get("attempts")?)?;
                let nanos = u64::from_checkpoint_value(item.get("nanos")?)?;
                let result = item.get("result")?.clone();
                Some(CheckpointEntry {
                    index,
                    attempts,
                    nanos,
                    result,
                })
            })();
            if let Some(entry) = entry {
                if entry.index < self.count && !self.contains(entry.index) {
                    self.entries.push(entry);
                }
            }
        }
    }

    /// Builder: persist automatically after every `batch` recorded
    /// completions (default 8; clamped to at least 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// The file this checkpoint persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sweep identity label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sweep's scenario count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of completed scenarios recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no completions are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether scenario `index` is recorded as completed.
    pub fn contains(&self, index: usize) -> bool {
        self.entries.iter().any(|e| e.index == index)
    }

    /// The recorded completions, in recording order.
    pub fn entries(&self) -> &[CheckpointEntry] {
        &self.entries
    }

    /// Records one completed scenario and persists (best-effort) when the
    /// batch fills. Out-of-range and duplicate indices are ignored.
    pub fn record(&mut self, entry: CheckpointEntry) {
        if entry.index >= self.count || self.contains(entry.index) {
            return;
        }
        self.entries.push(entry);
        self.pending += 1;
        if self.pending >= self.batch {
            let _ = self.persist();
            self.pending = 0;
        }
    }

    /// The checkpoint as a JSON document.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), Value::from(CHECKPOINT_SCHEMA)),
            ("label".into(), Value::from(self.label.as_str())),
            ("count".into(), Value::from(self.count)),
            (
                "done".into(),
                Value::Array(
                    self.entries
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                ("index".into(), Value::from(e.index)),
                                ("attempts".into(), Value::from(u64::from(e.attempts))),
                                ("nanos".into(), Value::from(e.nanos)),
                                ("result".into(), e.result.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the checkpoint to its path atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Any filesystem error from writing or renaming.
    pub fn persist(&self) -> std::io::Result<()> {
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json_value().to_string())?;
        std::fs::rename(&tmp, &self.path)
    }

    /// Removes the checkpoint file (e.g. after the sweep completed).
    ///
    /// # Errors
    ///
    /// Any filesystem error except the file already being gone.
    pub fn discard(&self) -> std::io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_degrade_is_monotonic_and_failed_sticky() {
        let mut h = Health::default();
        assert_eq!(h, Health::Healthy);
        h.degrade();
        assert_eq!(h, Health::Degraded);
        h.degrade();
        assert_eq!(h, Health::Degraded);
        let mut f = Health::Failed;
        f.degrade();
        assert_eq!(f, Health::Failed);
        assert_eq!(Health::Degraded.to_string(), "degraded");
    }

    #[test]
    fn deadline_checks_and_expires() {
        let d = Deadline::starting_now(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.check("pa").is_ok());
        assert!(d.remaining() > Duration::from_secs(3000));
        assert_eq!(d.budget(), Duration::from_secs(3600));
        let z = Deadline::starting_now(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(z.expired());
        assert_eq!(z.remaining(), Duration::ZERO);
        match z.check("pa") {
            Err(SimError::DeadlineExceeded { block, elapsed }) => {
                assert_eq!(block, "pa");
                assert!(elapsed >= Duration::from_millis(1));
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn cancel_token_is_shared_sticky_and_counts_once() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        assert!(t.check("mix").is_ok());
        assert!(clone.cancel());
        assert!(!t.cancel(), "second cancel reports already-cancelled");
        assert!(t.is_cancelled());
        assert_eq!(
            t.check("mix").unwrap_err(),
            SimError::Cancelled {
                block: "mix".into()
            }
        );
    }

    #[test]
    fn roles_classify_bypassability() {
        assert!(!BlockRole::Source.bypassable());
        assert!(!BlockRole::Essential.bypassable());
        assert!(BlockRole::Impairment.bypassable());
        assert!(BlockRole::Instrument.bypassable());
        assert_eq!(BlockRole::Impairment.as_str(), "impairment");
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_through_half_open() {
        let policy = BreakerPolicy::new().with_threshold(2).with_probation(3);
        let mut s = BreakerState::default();
        assert!(!s.is_open());
        assert!(s.should_attempt(&policy));
        assert!(!s.record_failure(&policy), "below threshold");
        assert!(s.record_failure(&policy), "trips at threshold");
        assert!(s.is_open());
        // Probation: three bypasses, then a half-open trial.
        assert!(!s.should_attempt(&policy));
        assert!(!s.should_attempt(&policy));
        assert!(!s.should_attempt(&policy));
        assert!(s.should_attempt(&policy), "probation expired → trial");
        assert_eq!(s, BreakerState::HalfOpen);
        // Successful trial closes and clears the streak.
        s.record_success();
        assert_eq!(s, BreakerState::Closed { failures: 0 });
        // A failed trial re-opens (and counts as a trip).
        let mut s2 = BreakerState::HalfOpen;
        assert!(s2.record_failure(&policy));
        assert_eq!(s2, BreakerState::Open { bypassed: 0 });
        // Success in closed state clears accumulated failures.
        let mut s3 = BreakerState::default();
        assert!(!s3.record_failure(&policy));
        s3.record_success();
        assert!(!s3.record_failure(&policy), "streak restarted");
    }

    #[test]
    fn supervisor_builder_and_report_json() {
        let s = SweepSupervisor::new()
            .with_scenario_budget(Duration::from_millis(250))
            .with_poll_interval(Duration::from_millis(1));
        assert_eq!(s.scenario_budget(), Some(Duration::from_millis(250)));
        assert_eq!(s.poll_interval(), Duration::from_millis(1));
        assert_eq!(SweepSupervisor::new().scenario_budget(), None);
        let r = SupervisionReport {
            deadline_kills: 4,
            resumed: 16,
        };
        assert!(r.summary().contains("4 deadline kills"), "{}", r.summary());
        let doc = serde::json::parse(&r.to_json_value().to_string()).expect("valid");
        assert_eq!(doc.get("deadline_kills").and_then(Value::as_f64), Some(4.0));
        assert_eq!(doc.get("resumed").and_then(Value::as_f64), Some(16.0));
    }

    #[test]
    fn checkpoint_payload_roundtrips() {
        let x = 1.25e-3_f64;
        assert_eq!(
            f64::from_checkpoint_value(&x.to_checkpoint_value()),
            Some(x)
        );
        assert_eq!(
            u64::from_checkpoint_value(&7_u64.to_checkpoint_value()),
            Some(7)
        );
        assert_eq!(
            u64::from_checkpoint_value(&Value::from(-1.0)),
            None,
            "negative rejected"
        );
        assert_eq!(u32::from_checkpoint_value(&Value::from(1.5)), None);
        assert_eq!(
            String::from_checkpoint_value(&String::from("hi").to_checkpoint_value()),
            Some("hi".into())
        );
        assert_eq!(<()>::from_checkpoint_value(&Value::Null), Some(()));
        assert_eq!(<()>::from_checkpoint_value(&Value::from(1.0)), None);
        let v = vec![1.0, 2.5];
        assert_eq!(
            Vec::<f64>::from_checkpoint_value(&v.to_checkpoint_value()),
            Some(v)
        );
        let pair = (3.0_f64, true);
        assert_eq!(
            <(f64, bool)>::from_checkpoint_value(&pair.to_checkpoint_value()),
            Some(pair)
        );
        // Non-finite floats clamp to null and refuse to decode → re-run.
        assert_eq!(f64::from_checkpoint_value(&Value::Null), None);
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "rfsim-supervise-test-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn checkpoint_persists_and_reloads_matching_identity() {
        let path = temp_path("identity.json");
        let _ = std::fs::remove_file(&path);
        let mut ckpt = SweepCheckpoint::load_or_new(&path, "sweep-a", 8).with_batch(1);
        assert!(ckpt.is_empty());
        ckpt.record(CheckpointEntry {
            index: 3,
            attempts: 2,
            nanos: 42,
            result: Value::from(1.5),
        });
        // Duplicate and out-of-range records are ignored.
        ckpt.record(CheckpointEntry {
            index: 3,
            attempts: 1,
            nanos: 1,
            result: Value::from(9.0),
        });
        ckpt.record(CheckpointEntry {
            index: 99,
            attempts: 1,
            nanos: 1,
            result: Value::Null,
        });
        assert_eq!(ckpt.len(), 1);
        // Reload with the same identity: entry restored.
        let re = SweepCheckpoint::load_or_new(&path, "sweep-a", 8);
        assert_eq!(re.len(), 1);
        assert!(re.contains(3));
        assert_eq!(re.entries()[0].attempts, 2);
        assert_eq!(re.entries()[0].result, Value::from(1.5));
        // A different label or count starts fresh.
        assert!(SweepCheckpoint::load_or_new(&path, "sweep-b", 8).is_empty());
        assert!(SweepCheckpoint::load_or_new(&path, "sweep-a", 9).is_empty());
        ckpt.discard().expect("removable");
        assert!(SweepCheckpoint::load_or_new(&path, "sweep-a", 8).is_empty());
        // Discard on a missing file is not an error.
        ckpt.discard().expect("idempotent");
    }

    #[test]
    fn checkpoint_ignores_corrupt_files() {
        let path = temp_path("corrupt.json");
        std::fs::write(&path, "{ not json").expect("writable");
        assert!(SweepCheckpoint::load_or_new(&path, "x", 4).is_empty());
        std::fs::write(&path, "{\"schema\":\"other/v9\"}").expect("writable");
        assert!(SweepCheckpoint::load_or_new(&path, "x", 4).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_load_fails_typed_on_corruption() {
        let path = temp_path("corrupt-typed.json");
        // Truncated mid-write: not valid JSON at all.
        std::fs::write(&path, "{\"schema\":\"sweep-checkpoint/v1\",\"la").expect("writable");
        match SweepCheckpoint::load(&path, "x", 4) {
            Err(SimError::CheckpointCorrupt { path: p, .. }) => {
                assert!(p.ends_with("corrupt-typed.json"), "{p}");
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
        // Valid JSON that is not a checkpoint document.
        std::fs::write(&path, "{\"schema\":\"other/v9\"}").expect("writable");
        assert!(matches!(
            SweepCheckpoint::load(&path, "x", 4),
            Err(SimError::CheckpointCorrupt { .. })
        ));
        // Missing file and stale identity both start fresh, not error.
        let _ = std::fs::remove_file(&path);
        assert!(SweepCheckpoint::load(&path, "x", 4)
            .expect("missing file is fresh")
            .is_empty());
        let mut other = SweepCheckpoint::load(&path, "other-label", 4).expect("fresh");
        other.record(CheckpointEntry {
            index: 0,
            attempts: 1,
            nanos: 0,
            result: Value::from(1.0),
        });
        other.persist().expect("persist");
        let stale = SweepCheckpoint::load(&path, "x", 4).expect("stale identity starts fresh");
        assert!(stale.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lease_touch_restarts_the_ttl_window() {
        let lease = Lease::new(Duration::from_millis(40));
        assert_eq!(lease.ttl(), Duration::from_millis(40));
        assert!(!lease.expired(), "fresh lease is live");
        std::thread::sleep(Duration::from_millis(25));
        lease.touch();
        std::thread::sleep(Duration::from_millis(25));
        assert!(
            !lease.expired(),
            "touch restarted the window: 25ms idle < 40ms ttl"
        );
        std::thread::sleep(Duration::from_millis(30));
        assert!(lease.expired(), "55ms of silence exceeds the ttl");
        assert!(lease.idle() >= Duration::from_millis(40));
    }

    #[test]
    fn reaper_cancels_expired_leases_and_prunes_closed_sessions() {
        let reaper = LeaseReaper::new();
        let dead = Arc::new(Lease::new(Duration::ZERO));
        let live = Arc::new(Lease::new(Duration::from_secs(3600)));
        let closed = Arc::new(Lease::new(Duration::ZERO));
        let dead_token = CancelToken::new();
        let live_token = CancelToken::new();
        let closed_token = CancelToken::new();
        closed_token.cancel(); // clean teardown before the sweep
        reaper.register(Arc::clone(&dead), dead_token.clone());
        reaper.register(Arc::clone(&live), live_token.clone());
        reaper.register(Arc::clone(&closed), closed_token.clone());
        assert_eq!(reaper.tracked(), 3);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(reaper.sweep(), 1, "only the expired live session reaps");
        assert!(dead_token.is_cancelled(), "expired lease cancels its token");
        assert!(!live_token.is_cancelled(), "live lease untouched");
        assert_eq!(reaper.tracked(), 1, "reaped and closed entries pruned");
        assert_eq!(reaper.sweep(), 0, "idempotent");
    }

    #[test]
    fn cancel_token_children_scope_under_parents() {
        let root = CancelToken::new();
        let session = root.child();
        let job_a = session.child();
        let job_b = session.child();
        assert!(!job_a.is_cancelled() && !job_b.is_cancelled());
        // Cancelling one job leaves its siblings and ancestors running.
        assert!(job_a.cancel());
        assert!(job_a.is_cancelled());
        assert!(!job_b.is_cancelled());
        assert!(!session.is_cancelled());
        assert!(!root.is_cancelled());
        // Cancelling the session stops every job under it.
        session.cancel();
        assert!(job_b.is_cancelled());
        assert!(job_b.check("mix").is_err());
        assert!(!root.is_cancelled());
        // Root shutdown reaches a grandchild through the chain, and the
        // child's own cancel() still reports first-cancellation truly.
        let late = root.child().child();
        root.cancel();
        assert!(late.is_cancelled());
        assert!(late.cancel(), "own flag was not yet raised");
    }
}
