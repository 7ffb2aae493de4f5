//! The campaign worker: leases shards from a coordinator, executes them
//! through the unchanged engine (checkpoint forking, guards, early abort,
//! quarantine all apply), and streams every finished case's journal
//! record back as it happens.
//!
//! The worker is deliberately stateless: it writes no journal of its own.
//! Its entire output is the record stream, formatted by the same
//! [`journal`](amsfi_engine::journal) line formatters a local run uses —
//! which is what lets the coordinator's merged journal come out
//! byte-identical to a single-process run.
//!
//! Before running a lease, the worker rebuilds the campaign from its own
//! catalog and checks the case count and fingerprint against the lease.
//! A mismatch (same name, different fault list — e.g. a worker built from
//! a different revision) aborts the lease with a `shard_abort` so the
//! coordinator can place it on a compatible worker, and fails the worker
//! process: every lease for that campaign would fail the same way.
//!
//! # Link resilience
//!
//! A broken coordinator link is *not* fatal: [`run`] wraps each
//! connection in a session and reconnects with jittered exponential
//! [`Backoff`] (up to [`WorkerConfig::max_reconnects`]). Work done
//! before the break is never thrown away or repeated:
//!
//! * Every record line the engine produces is kept in a **replay
//!   cache**, keyed by the shard's coordinator-independent identity
//!   (campaign fingerprint + shard). When the same shard is re-leased
//!   after a reconnect, cached records the coordinator does not already
//!   hold are re-sent as-is and the cached indices join the lease's
//!   `done` list — so the engine re-simulates nothing.
//! * A shard's cache entry is dropped only after a *later* reply
//!   arrives on the same connection that carried its `shard_done`: TCP
//!   ordering then proves the coordinator processed the completion.
//!
//! Fatal errors (handshake rejected, campaign mismatch, engine failure)
//! still end the worker immediately — retrying those would fail the
//! same way forever.

use crate::backoff::Backoff;
use crate::proto::{self, Frame, ProtoError, PROTOCOL_VERSION};
use crate::CampaignSource;
use amsfi_engine::{Engine, EngineConfig, Event, RecordSink, Telemetry};
use amsfi_telemetry::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning and wiring for [`run`].
pub struct WorkerConfig {
    /// Coordinator address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Display name announced in the handshake.
    pub name: String,
    /// Engine worker threads per shard (`0`: one per core).
    pub threads: usize,
    /// Upper bound on the sleep between lease polls (the coordinator's
    /// `retry_ms` hint is respected up to this cap; the actual sleep is
    /// jittered so a worker fleet does not poll in lock-step).
    pub poll: Duration,
    /// Lease keep-alive interval while a shard runs. Must be well under
    /// the coordinator's lease timeout. Only a shard that outlives it
    /// sends a heartbeat; the end of a shard is never delayed by one.
    pub heartbeat: Duration,
    /// Exit cleanly when the coordinator reports all campaigns complete,
    /// instead of polling for future submissions.
    pub exit_when_done: bool,
    /// Stop after this many completed shards (tests; `None`: unlimited).
    pub max_shards: Option<usize>,
    /// Base delay of the reconnect backoff schedule.
    pub backoff: Duration,
    /// Cap on the reconnect backoff delay (before jitter).
    pub backoff_cap: Duration,
    /// Give up after this many reconnect attempts (`None`: retry
    /// forever — sensible for fleet workers behind a supervisor).
    pub max_reconnects: Option<usize>,
    /// Seed for the backoff jitter; `0` seeds from process entropy.
    pub backoff_seed: u64,
    /// Read/write deadline on the coordinator socket. Every read the
    /// worker issues expects an immediate reply, so a deadline this long
    /// expiring means the link or coordinator is gone. `None` disables.
    pub io_timeout: Option<Duration>,
    /// Ship cumulative [`MetricsSnapshot`]s to the coordinator inside
    /// heartbeat and `shard_done` frames, feeding the fleet Prometheus
    /// endpoint and `amsfi top`. Snapshots are cumulative, so losing or
    /// replaying one is harmless. When telemetry is otherwise disabled,
    /// a metrics-only registry is created internally so shipping still
    /// works without an events file.
    pub ship_metrics: bool,
    /// Structured event sink.
    pub telemetry: Telemetry,
    /// Resolves leased campaign names to case lists; must agree with the
    /// coordinator's catalog (enforced by fingerprint).
    pub source: CampaignSource,
}

impl WorkerConfig {
    /// Defaults: 250 ms poll cap, 1 s heartbeat, run until the
    /// coordinator drains, reconnect up to 8 times with 100 ms → 5 s
    /// jittered backoff, 10 s socket deadlines.
    pub fn new(addr: impl Into<String>, source: CampaignSource) -> Self {
        WorkerConfig {
            addr: addr.into(),
            name: format!("worker-{}", std::process::id()),
            threads: 0,
            poll: Duration::from_millis(250),
            heartbeat: Duration::from_secs(1),
            exit_when_done: true,
            max_shards: None,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            max_reconnects: Some(8),
            backoff_seed: 0,
            io_timeout: Some(Duration::from_secs(10)),
            ship_metrics: true,
            telemetry: Telemetry::disabled(),
            source,
        }
    }
}

impl fmt::Debug for WorkerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerConfig")
            .field("addr", &self.addr)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// What a worker did over its lifetime, reported on clean exit.
#[derive(Debug, Default, Clone)]
pub struct WorkerReport {
    /// Shards leased, executed and acknowledged with `shard_done`.
    pub shards_completed: usize,
    /// Cases this worker classified (excludes `done` carry-over and
    /// replayed records — each case is counted in exactly one worker's
    /// report, exactly once, even across reconnects).
    pub cases_executed: usize,
    /// Journal record frames streamed to the coordinator (live, not
    /// counting replays).
    pub records_streamed: u64,
    /// Cached records re-sent after a reconnect.
    pub records_replayed: u64,
    /// Times the coordinator link was re-established after a failure.
    pub reconnects: usize,
}

/// Fatal worker errors. Everything here ends the worker process; per-case
/// trouble is handled inside the engine (retry, skip, quarantine) and
/// reported through the record stream, and link failures are retried
/// with backoff before becoming fatal.
#[derive(Debug)]
pub enum WorkerError {
    /// Socket or protocol failure talking to the coordinator (fatal only
    /// once the reconnect budget is exhausted).
    Proto(ProtoError),
    /// The coordinator refused the handshake or a request.
    Rejected(String),
    /// The leased campaign does not match this worker's catalog.
    CampaignMismatch {
        /// Campaign name from the lease.
        name: String,
        /// Why the local rebuild does not match.
        why: String,
    },
    /// The engine failed fatally on a leased shard.
    Engine(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Proto(e) => write!(f, "coordinator link: {e}"),
            WorkerError::Rejected(reason) => write!(f, "coordinator refused: {reason}"),
            WorkerError::CampaignMismatch { name, why } => {
                write!(f, "campaign {name:?} mismatch: {why}")
            }
            WorkerError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<ProtoError> for WorkerError {
    fn from(e: ProtoError) -> Self {
        WorkerError::Proto(e)
    }
}

impl From<io::Error> for WorkerError {
    fn from(e: io::Error) -> Self {
        WorkerError::Proto(ProtoError::Io(e))
    }
}

fn send(writer: &Arc<Mutex<TcpStream>>, frame: &Frame) -> Result<(), ProtoError> {
    let mut w = writer.lock().expect("worker writer poisoned");
    proto::write_frame(&mut *w, frame)
}

/// Cumulative metrics snapshot to ship with a heartbeat or `shard_done`:
/// the kernel registry plus the worker's own lifetime counters, under the
/// names the coordinator's fleet view reads. `None` when shipping is off
/// or no metrics registry exists (disabled telemetry and shipping off).
fn ship_snapshot(
    ship: bool,
    telemetry: &Telemetry,
    reconnects: u64,
    replayed: u64,
    shards_done: u64,
    cases: u64,
) -> Option<MetricsSnapshot> {
    if !ship {
        return None;
    }
    let mut snap = match telemetry.metrics() {
        Some(metrics) => metrics.snapshot(),
        None => MetricsSnapshot::default(),
    };
    snap.set_counter("worker_reconnects", reconnects);
    snap.set_counter("worker_records_replayed", replayed);
    snap.set_counter("worker_shards_done", shards_done);
    snap.set_counter("worker_cases", cases);
    Some(snap)
}

/// A shard's coordinator-independent identity: campaign fingerprint plus
/// shard position. Lease ids change across reconnects and coordinator
/// restarts; this key does not.
type ShardKey = (u64, usize, usize);

/// Record lines produced by this worker, per shard, surviving link
/// breaks until their completion is provably acknowledged.
type ReplayCache = BTreeMap<ShardKey, Arc<Mutex<BTreeMap<usize, String>>>>;

/// Is this error worth a reconnect attempt? Only link trouble is;
/// rejections, mismatches and engine failures repeat identically.
fn retryable(e: &WorkerError) -> bool {
    matches!(e, WorkerError::Proto(_))
}

/// Connects to the coordinator and works until drained (or
/// `max_shards`), transparently reconnecting with jittered backoff when
/// the link fails. Blocking; run it on the process's main thread.
///
/// # Errors
///
/// See [`WorkerError`]; [`WorkerError::Proto`] only after the reconnect
/// budget is spent.
pub fn run(mut cfg: WorkerConfig) -> Result<WorkerReport, WorkerError> {
    if cfg.ship_metrics && !cfg.telemetry.is_enabled() {
        // No events file requested, but metrics shipping needs a live
        // kernel registry: build one with no event ring attached.
        if let Ok(metrics_only) = Telemetry::builder().build() {
            cfg.telemetry = metrics_only;
        }
    }
    let mut report = WorkerReport::default();
    let mut cache = ReplayCache::new();
    let mut backoff = if cfg.backoff_seed == 0 {
        Backoff::from_entropy(cfg.backoff, cfg.backoff_cap)
    } else {
        Backoff::new(cfg.backoff, cfg.backoff_cap, cfg.backoff_seed)
    };
    loop {
        match session(&cfg, &mut report, &mut cache, &mut backoff) {
            Ok(()) => {
                cfg.telemetry.flush();
                return Ok(report);
            }
            Err(e) if retryable(&e) => {
                if cfg
                    .max_reconnects
                    .is_some_and(|max| report.reconnects >= max)
                {
                    cfg.telemetry.flush();
                    return Err(e);
                }
                report.reconnects += 1;
                let delay = backoff.next_delay();
                eprintln!(
                    "worker: coordinator link lost ({e}); reconnect {} in {:.0?}",
                    report.reconnects, delay
                );
                cfg.telemetry.emit_with(|| {
                    Event::new("serve", "worker_reconnect")
                        .with_field("attempt", report.reconnects)
                        .with_field("delay_ms", delay.as_millis() as u64)
                });
                std::thread::sleep(delay);
            }
            Err(e) => {
                cfg.telemetry.flush();
                return Err(e);
            }
        }
    }
}

/// One connection's lifetime: connect, handshake, lease loop. Returns
/// `Ok(())` on a clean exit (drained / `max_shards`), a retryable
/// [`WorkerError::Proto`] on link failure.
fn session(
    cfg: &WorkerConfig,
    report: &mut WorkerReport,
    cache: &mut ReplayCache,
    backoff: &mut Backoff,
) -> Result<(), WorkerError> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(cfg.io_timeout).ok();
    stream.set_write_timeout(cfg.io_timeout).ok();
    let mut reader = stream.try_clone().map_err(ProtoError::Io)?;
    // Writes come from three places — the lease loop, the engine's record
    // sink (many threads), and the heartbeat thread — so the write half
    // lives behind a mutex. Reads happen only from this thread, strictly
    // as replies to requests it sent, so the protocol never deadlocks.
    let writer = Arc::new(Mutex::new(stream));

    send(
        &writer,
        &Frame::Hello {
            worker: cfg.name.clone(),
            protocol: PROTOCOL_VERSION,
        },
    )?;
    let epoch = match proto::read_frame(&mut reader)? {
        Frame::Welcome {
            protocol, epoch, ..
        } if protocol == PROTOCOL_VERSION => epoch,
        Frame::Welcome { protocol, .. } => {
            return Err(WorkerError::Rejected(format!(
                "coordinator speaks protocol {protocol}, this worker speaks {PROTOCOL_VERSION}"
            )));
        }
        Frame::Error { reason } => return Err(WorkerError::Rejected(reason)),
        other => {
            return Err(WorkerError::Rejected(format!(
                "expected welcome, got {}",
                other.kind()
            )));
        }
    };
    // Session-level trace context: every event this worker emits from
    // here on (engine included — the handle is shared) carries who and
    // which coordinator epoch, so a multi-process event stream joins.
    cfg.telemetry
        .set_context(&[("worker", &cfg.name), ("epoch", &epoch.to_string())]);
    // The link works again: future failures restart the backoff schedule
    // from its base.
    backoff.reset();

    // Set after a `shard_done`; cleared (with its cache entry) once any
    // later reply arrives on this connection — TCP ordering then proves
    // the coordinator consumed the completion.
    let mut acked_on_next_reply: Option<ShardKey> = None;

    loop {
        if cfg
            .max_shards
            .is_some_and(|max| report.shards_completed >= max)
        {
            break;
        }
        send(&writer, &Frame::LeaseRequest)?;
        let reply = proto::read_frame(&mut reader)?;
        if let Some(key) = acked_on_next_reply.take() {
            cache.remove(&key);
        }
        match reply {
            Frame::NoWork { retry_ms, drained } => {
                if drained && cfg.exit_when_done {
                    break;
                }
                // Jittered: a fleet of workers told the same retry hint
                // must not thundering-herd a freshly restarted
                // coordinator in lock-step.
                std::thread::sleep(backoff.jittered(Duration::from_millis(retry_ms).min(cfg.poll)));
            }
            Frame::Lease {
                lease,
                campaign,
                name,
                shard,
                cases,
                fingerprint,
                limit,
                checkpoint,
                early_abort,
                done,
            } => {
                cfg.telemetry.emit_with(|| {
                    Event::new("serve", "worker_lease")
                        .with_field("lease", lease)
                        .with_field("campaign", campaign)
                        .with_field("shard", shard)
                });
                let key: ShardKey = (fingerprint, shard.index, shard.count);
                let shard_cache = Arc::clone(cache.entry(key).or_default());
                // Lease-level trace context: every engine event emitted
                // while this shard runs names the campaign, shard and
                // lease, which is what `amsfi report --distributed` joins
                // on across process boundaries.
                cfg.telemetry.set_context(&[
                    ("worker", &cfg.name),
                    ("epoch", &epoch.to_string()),
                    ("campaign", &name),
                    ("fingerprint", &format!("{fingerprint:016x}")),
                    ("shard", &shard.index.to_string()),
                    ("shards", &shard.count.to_string()),
                    ("lease", &lease.to_string()),
                ]);
                let outcome = run_lease(
                    cfg,
                    &writer,
                    lease,
                    &name,
                    shard,
                    cases,
                    fingerprint,
                    limit,
                    checkpoint,
                    early_abort,
                    &done,
                    &shard_cache,
                    report,
                );
                cfg.telemetry
                    .set_context(&[("worker", &cfg.name), ("epoch", &epoch.to_string())]);
                outcome?;
                acked_on_next_reply = Some(key);
            }
            Frame::Error { reason } => return Err(WorkerError::Rejected(reason)),
            // A frame from a newer coordinator we don't understand: ask
            // again rather than dying.
            _ => {}
        }
    }
    send(&writer, &Frame::Bye).ok();
    Ok(())
}

#[allow(clippy::too_many_arguments)] // internal plumbing for one lease
fn run_lease(
    cfg: &WorkerConfig,
    writer: &Arc<Mutex<TcpStream>>,
    lease: u64,
    name: &str,
    shard: amsfi_engine::Shard,
    cases: usize,
    fingerprint: u64,
    limit: Option<usize>,
    checkpoint: bool,
    early_abort: bool,
    done: &[usize],
    shard_cache: &Arc<Mutex<BTreeMap<usize, String>>>,
    report: &mut WorkerReport,
) -> Result<(), WorkerError> {
    let abort = |why: String| -> Result<(), WorkerError> {
        send(
            writer,
            &Frame::ShardAbort {
                lease,
                reason: why.clone(),
            },
        )
        .ok();
        Err(WorkerError::CampaignMismatch {
            name: name.to_owned(),
            why,
        })
    };

    let Some(campaign) = (cfg.source)(name, limit) else {
        return abort(format!("campaign {name:?} not in this worker's catalog"));
    };
    let meta = campaign.meta();
    if meta.cases != cases || meta.fingerprint != fingerprint {
        return abort(format!(
            "lease says {cases} cases fingerprint {fingerprint:016x}, local catalog builds \
             {} cases fingerprint {:016x} — worker and coordinator disagree about the fault list",
            meta.cases, meta.fingerprint,
        ));
    }

    // Replay cached records from a previous, link-broken run of this
    // shard: anything we simulated but the coordinator may have lost is
    // re-sent verbatim under the new lease, and the engine treats the
    // cached indices as completed — no case is ever simulated twice.
    let mut completed: std::collections::BTreeSet<usize> = done.iter().copied().collect();
    {
        let cached = shard_cache.lock().expect("replay cache poisoned");
        let mut replayed = 0u64;
        for (&index, line) in cached.iter() {
            if completed.insert(index) {
                send(
                    writer,
                    &Frame::Record {
                        lease,
                        line: line.clone(),
                    },
                )?;
                replayed += 1;
            }
        }
        if replayed > 0 {
            report.records_replayed += replayed;
            eprintln!(
                "worker: replayed {replayed} cached records for shard {shard} after reconnect"
            );
            cfg.telemetry.emit_with(|| {
                Event::new("serve", "worker_replay")
                    .with_field("lease", lease)
                    .with_field("records", replayed)
            });
        }
    }
    let completed: Vec<usize> = completed.into_iter().collect();

    // Stream every finished case to the coordinator the instant its
    // journal line is formatted — but cache it first, so a mid-shard
    // link break loses nothing. Failures cannot propagate out of the
    // sink closure, so they raise a flag checked after the run.
    let link_broken = Arc::new(AtomicBool::new(false));
    let streamed = Arc::new(AtomicU64::new(0));
    let classified = Arc::new(AtomicU64::new(0));
    let sink = {
        let writer = Arc::clone(writer);
        let link_broken = Arc::clone(&link_broken);
        let streamed = Arc::clone(&streamed);
        let classified = Arc::clone(&classified);
        let shard_cache = Arc::clone(shard_cache);
        RecordSink::new(move |index, line| {
            shard_cache
                .lock()
                .expect("replay cache poisoned")
                .insert(index, line.to_owned());
            classified.fetch_add(1, Ordering::Relaxed);
            if link_broken.load(Ordering::Relaxed) {
                // The link is already gone: keep simulating and caching;
                // the records reach the coordinator on replay.
                return;
            }
            let frame = Frame::Record {
                lease,
                line: line.to_owned(),
            };
            if send(&writer, &frame).is_err() {
                link_broken.store(true, Ordering::Relaxed);
            } else {
                streamed.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // Keep the lease alive through cases that simulate longer than the
    // coordinator's lease timeout. Each beat carries a fresh cumulative
    // metrics snapshot, so the fleet view tracks a long shard live.
    // Dropping `hb_stop` when the shard ends wakes the thread at once.
    let (hb_stop, hb_wait) = mpsc::channel::<()>();
    let hb = {
        let writer = Arc::clone(writer);
        let interval = cfg.heartbeat;
        let telemetry = cfg.telemetry.clone();
        let ship = cfg.ship_metrics;
        let classified = Arc::clone(&classified);
        let reconnects = report.reconnects as u64;
        let replayed = report.records_replayed;
        let shards_done = report.shards_completed as u64;
        let cases_base = report.cases_executed as u64;
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = hb_wait.recv_timeout(interval) {
                let metrics = ship_snapshot(
                    ship,
                    &telemetry,
                    reconnects,
                    replayed,
                    shards_done,
                    cases_base + classified.load(Ordering::Relaxed),
                );
                send(&writer, &Frame::Heartbeat { lease, metrics }).ok();
            }
        })
    };

    let engine_cfg = EngineConfig::default()
        .with_workers(cfg.threads)
        .with_shard(shard)
        .with_checkpoint(checkpoint)
        .with_early_abort(early_abort)
        .with_telemetry(cfg.telemetry.clone())
        .with_record_sink(sink)
        .with_completed(completed);
    let outcome = Engine::new(engine_cfg).run(&campaign);

    drop(hb_stop);
    hb.join().ok();
    report.records_streamed += streamed.load(Ordering::Relaxed);

    match outcome {
        Ok(engine_report) => {
            if link_broken.load(Ordering::Relaxed) {
                // Everything this run simulated is cached; count it now
                // (the replayed resume will not re-run these) and turn
                // the broken link into a retryable session failure.
                report.cases_executed += classified.load(Ordering::Relaxed) as usize;
                return Err(WorkerError::Proto(ProtoError::Io(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "record stream to coordinator failed mid-shard",
                ))));
            }
            let executed_now = (engine_report.result.cases.len()
                + engine_report.skipped.len()
                + engine_report.quarantined.len())
            .saturating_sub(engine_report.resumed);
            // The completion frame carries the final snapshot for this
            // shard, counting the shard and its cases as done.
            let metrics = ship_snapshot(
                cfg.ship_metrics,
                &cfg.telemetry,
                report.reconnects as u64,
                report.records_replayed,
                report.shards_completed as u64 + 1,
                (report.cases_executed + executed_now) as u64,
            );
            send(writer, &Frame::ShardDone { lease, metrics })?;
            report.shards_completed += 1;
            report.cases_executed += executed_now;
            cfg.telemetry.emit_with(|| {
                Event::new("serve", "worker_shard_done")
                    .with_field("lease", lease)
                    .with_field("cases", engine_report.result.cases.len())
            });
            Ok(())
        }
        Err(e) => {
            // Fatal engine errors (golden-run failure, journal trouble)
            // are not shard-specific flakes: hand the shard back and die
            // loudly rather than silently re-leasing and failing forever.
            send(
                writer,
                &Frame::ShardAbort {
                    lease,
                    reason: e.to_string(),
                },
            )
            .ok();
            Err(WorkerError::Engine(e.to_string()))
        }
    }
}
