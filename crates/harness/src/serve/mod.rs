//! `harness::serve` — the always-on campaign query/submit daemon.
//!
//! Everything below the CLI so far is batch: run, checkpoint, exit.
//! This module keeps the result store *resident*: `campaign serve`
//! opens the store resumably (journal replay included), inverts it
//! into a hot [`index::StoreIndex`] (scenario → axis assignment →
//! cells, axis strings interned), and answers point/range metric
//! queries, report renders and campaign submissions over a
//! line-delimited JSON protocol on plain TCP — one compact JSON
//! request per line, one compact JSON response per line, std only
//! (thread-per-connection behind a bounded accept pool; the
//! environment is offline, so no async runtime).
//!
//! The division of labor under concurrency:
//!
//! * **Queries** read an `Arc` snapshot of the index and never touch
//!   the store or its lock — a running submit cannot stall them.
//! * **Submits** enqueue to a single background scheduler thread that
//!   runs each campaign on the existing streaming executor
//!   ([`crate::exec::run_campaign_with`]) inside a
//!   [`crate::session::Session`] — crash-resume journaling (compacted
//!   mid-run, so week-long submit streams stay bounded) and a
//!   checkpoint whatever the outcome — and atomically publishes a fresh
//!   index — readers see the old cells or the new cells, never a
//!   half-built state.
//! * **Shutdown** is graceful: stop accepting, drain in-flight
//!   connections, cancel any running job cooperatively (its completed
//!   cells are journaled, so a resubmit resumes), checkpoint, fsync,
//!   release the [`lock::StoreLock`].
//!
//! Because a submitted campaign runs through the same session (executor,
//! journal, checkpoint writer) as a batch `campaign run`, the store a daemon
//! leaves behind is byte-identical to the batch run's — the invariant
//! the process-level suite and the CI serve gate pin.
//!
//! The whole request path is observable ([`crate::obs`]): connections
//! get `serve/accept` spans, requests `serve/request` spans, submitted
//! campaigns `serve/submit_run` spans, and every point lookup bumps a
//! `serve/query_hit` or `serve/query_miss` counter.
//!
//! On top of the spans sits the steady-state layer
//! ([`crate::obs::metrics`]): every request records its latency into a
//! per-op log-bucketed histogram and a sliding request-rate window, the
//! scheduler publishes per-job progress gauges, and slow requests land
//! in a bounded ring. Three ops expose it — `metrics` (compact JSON +
//! Prometheus text exposition), `jobs` (per-job status, progress and
//! error strings), and `slowlog` — all purely observational: recording
//! never touches the store, so the byte-identity invariant holds with
//! metrics always on.

pub mod index;
pub mod lock;
pub mod top;

use crate::exec::{run_campaign_with, CellDomain, CellEvent, ExecConfig};
use crate::gen::{GenOptions, DEFAULT_CORPUS_SIZE};
use crate::json::Json;
use crate::matrix::Filter;
use crate::obs::metrics::{Counter, Histogram, Metrics, RateWindow, RATE_WINDOW_SECS};
use crate::obs::{monotonic_ns, Obs};
use crate::registry::Registry;
use crate::report;
use crate::scenario::{CellResult, Params, ScenarioError};
use crate::session::{unpoison, Session};
use crate::store::ResultStore;
use index::StoreIndex;
use lock::{LockInfo, StoreLock};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Every protocol op, in dispatch order. Each gets its own latency
/// histogram and request counter; unrecognized ops share an extra
/// `other` slot.
pub const SERVE_OPS: [&str; 10] = [
    "ping",
    "stats",
    "query",
    "query_range",
    "report",
    "submit",
    "metrics",
    "jobs",
    "slowlog",
    "shutdown",
];

/// Slot index for unknown ops / unparseable requests.
const OP_OTHER: usize = SERVE_OPS.len();

/// Terminal job records kept for the `jobs` op before the oldest are
/// evicted.
const JOB_HISTORY: usize = 64;

/// Slow requests kept in the ring buffer.
const SLOWLOG_CAP: usize = 64;

/// Request payload bytes kept per slowlog entry.
const SLOWLOG_PAYLOAD: usize = 128;

/// Daemon tuning knobs (the `campaign serve` flags).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port `0` means an ephemeral port (the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Connections served concurrently; further accepts queue in the
    /// listener backlog until a slot frees.
    pub accept_pool: usize,
    /// Executor threads for submitted campaigns.
    pub exec_threads: usize,
    /// Journal fsync batch for submitted campaigns (the batch `run`
    /// `--checkpoint-every` knob).
    pub checkpoint_every: usize,
    /// Fold the journal into the checkpoint whenever it exceeds this
    /// many lines mid-run (`--compact-journal-over`).
    pub compact_journal_over: Option<usize>,
    /// Requests slower than this land in the slowlog ring
    /// (`--slowlog-over-us`).
    pub slowlog_over_us: u64,
    /// Suppress per-job stderr notes.
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            accept_pool: 8,
            exec_threads: 4,
            checkpoint_every: 16,
            compact_journal_over: None,
            slowlog_over_us: 10_000,
            quiet: false,
        }
    }
}

/// One queued campaign submission (the `submit` op's payload).
#[derive(Debug, Clone)]
struct JobSpec {
    id: u64,
    scenarios: Vec<String>,
    filters: Vec<String>,
    seed: u64,
    corpus_size: Option<u32>,
    /// Replicates per base cell; the completed full-domain run folds
    /// them into distribution metrics exactly like `run --replicates`.
    replicates: Option<u32>,
    keep_replicates: bool,
}

/// Where a job is in its lifecycle, as reported by the `jobs` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
    Dropped,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Dropped => "dropped",
        }
    }

    fn terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Live progress of one job: the session's per-cell consumer stores
/// each [`CellEvent`]'s counts into these cells from worker threads,
/// and the `stats`/`jobs` ops read them without taking the job lock for
/// long.
#[derive(Debug, Default)]
struct JobProgress {
    /// Cells completed so far (fresh + memoized).
    cells_done: AtomicU64,
    /// Lazy cells in the job's domain (0 until the first cell event).
    cells_total: AtomicU64,
    /// Wall-clock start (`telemetry::now_ms`); 0 while queued.
    started_ms: AtomicU64,
}

/// Everything the `jobs` op can say about one submission.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    /// The error string of a failed run (previously stderr-only).
    error: Option<String>,
    progress: Arc<JobProgress>,
}

/// Scheduler queue + lifetime job accounting, under one lock. Records
/// persist past completion (bounded: the oldest terminal records are
/// evicted past [`JOB_HISTORY`]).
#[derive(Debug, Default)]
struct JobState {
    queued: VecDeque<u64>,
    records: BTreeMap<u64, JobRecord>,
    running: Option<u64>,
    done: u64,
    failed: u64,
    cancelled: u64,
    dropped: u64,
    next_id: u64,
}

impl JobState {
    /// Move a record to a terminal status and keep history bounded.
    fn finish(&mut self, id: u64, status: JobStatus, error: Option<String>) {
        if let Some(record) = self.records.get_mut(&id) {
            record.status = status;
            record.error = error;
        }
        while self.records.len() > JOB_HISTORY {
            let Some(oldest) = self
                .records
                .iter()
                .find(|(_, r)| r.status.terminal())
                .map(|(&id, _)| id)
            else {
                break;
            };
            self.records.remove(&oldest);
        }
    }
}

/// One slow request, as kept by the bounded slowlog ring.
#[derive(Debug, Clone)]
struct SlowEntry {
    op: String,
    duration_us: u64,
    at_ms: u64,
    payload: String,
}

/// The daemon's steady-state instruments: one latency histogram and
/// request counter per protocol op (plus an `other` slot), sliding
/// request/query rate windows, and gauges refreshed at scrape time.
/// Recording is wait-free.
struct ServeMetrics {
    registry: Metrics,
    op_latency: Vec<Arc<Histogram>>,
    op_requests: Vec<Arc<Counter>>,
    request_rate: Arc<RateWindow>,
    query_rate: Arc<RateWindow>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = Metrics::new();
        let mut op_latency = Vec::with_capacity(SERVE_OPS.len() + 1);
        let mut op_requests = Vec::with_capacity(SERVE_OPS.len() + 1);
        for op in SERVE_OPS.iter().copied().chain(std::iter::once("other")) {
            op_latency.push(registry.histogram(&format!(
                "harness_serve_request_latency_seconds{{op=\"{op}\"}}"
            )));
            op_requests
                .push(registry.counter(&format!("harness_serve_requests_total{{op=\"{op}\"}}")));
        }
        let request_rate = registry.rate_window("harness_serve_request_rate");
        let query_rate = registry.rate_window("harness_serve_query_rate");
        ServeMetrics {
            registry,
            op_latency,
            op_requests,
            request_rate,
            query_rate,
        }
    }

    /// Slot index for an op name ([`OP_OTHER`] for anything unknown).
    fn slot_of(op: &str) -> usize {
        SERVE_OPS.iter().position(|&o| o == op).unwrap_or(OP_OTHER)
    }

    /// Record one finished request: latency into the op's histogram,
    /// one tick into the rate windows.
    fn record_request(&self, slot: usize, dur_ns: u64, now_ns: u64) {
        self.op_latency[slot].record_ns(dur_ns);
        self.op_requests[slot].inc();
        self.request_rate.record_at(now_ns);
        if SERVE_OPS.get(slot) == Some(&"query") {
            self.query_rate.record_at(now_ns);
        }
    }
}

/// Shared state of a running daemon.
struct ServerInner {
    store_path: PathBuf,
    options: ServeOptions,
    /// The published query index: readers clone the `Arc`, a completed
    /// submit swaps it.
    index: RwLock<Arc<StoreIndex>>,
    /// The authoritative store. Held by the scheduler for the length
    /// of a submit run; the request path never takes it.
    store: Mutex<ResultStore>,
    /// Spec metadata for report joins and submit validation (identical
    /// ids regardless of gen options).
    registry: Registry,
    obs: Option<Obs>,
    /// Steady-state instruments (the `metrics` op's registry).
    metrics: ServeMetrics,
    /// Bounded ring of requests slower than `slowlog_over_us`.
    slowlog: Mutex<VecDeque<SlowEntry>>,
    start_ns: u64,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Cooperative cancel for the executor inside a running submit.
    cancel: AtomicBool,
    jobs: Mutex<JobState>,
    jobs_signal: Condvar,
    /// Free connection slots (bounded accept pool).
    pool: Mutex<usize>,
    pool_signal: Condvar,
    active_connections: AtomicUsize,
    connections: AtomicU64,
    requests: AtomicU64,
    queries: AtomicU64,
    query_hits: AtomicU64,
    query_misses: AtomicU64,
    submits: AtomicU64,
}

/// Final tallies of a daemon's lifetime, returned by
/// [`ServerHandle::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Cells in the final checkpointed store.
    pub cells: usize,
    /// Connections accepted.
    pub connections: u64,
    /// Requests handled.
    pub requests: u64,
    /// Point queries (`query` ops) answered.
    pub queries: u64,
    /// Point queries that hit an indexed assignment.
    pub query_hits: u64,
    /// Point queries that missed.
    pub query_misses: u64,
    /// Campaigns submitted.
    pub submits: u64,
    /// Submitted campaigns completed.
    pub jobs_done: u64,
    /// Submitted campaigns that errored.
    pub jobs_failed: u64,
    /// Submitted campaigns cancelled by shutdown mid-run.
    pub jobs_cancelled: u64,
    /// Queued campaigns dropped unstarted by shutdown.
    pub jobs_dropped: u64,
    /// Wall-clock uptime.
    pub uptime_ms: u64,
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Takes the store lock, opens the store resumably, builds the hot
    /// index, binds the listener and starts the accept + scheduler
    /// threads. The daemon then runs until a `shutdown` op (or
    /// [`ServerHandle::shutdown`]); call [`ServerHandle::wait`] to
    /// block until then.
    pub fn bind(
        store_path: &Path,
        options: ServeOptions,
        obs: Option<Obs>,
    ) -> Result<ServerHandle, ScenarioError> {
        let (store_lock, broke_stale_lock) = StoreLock::acquire(store_path, "serve")?;
        let (opened, replayed) = ResultStore::open_resumable_full(store_path, obs.as_ref())?;
        // A binary columnar checkpoint ships its symbol table; the
        // index adopts it wholesale instead of re-interning.
        let index = Arc::new(StoreIndex::build_with_vocab(&opened.store, opened.symbols));
        let store = opened.store;
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| ScenarioError::Store(format!("bind {}: {e}", options.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ScenarioError::Store(format!("local addr: {e}")))?;
        let pool = options.accept_pool.max(1);
        let metrics = ServeMetrics::new();
        let inner = Arc::new(ServerInner {
            store_path: store_path.to_path_buf(),
            options,
            index: RwLock::new(index),
            store: Mutex::new(store),
            registry: Registry::builtin_with(&GenOptions::default()),
            obs,
            metrics,
            slowlog: Mutex::new(VecDeque::new()),
            start_ns: monotonic_ns(),
            local_addr,
            shutdown: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            jobs: Mutex::new(JobState::default()),
            jobs_signal: Condvar::new(),
            pool: Mutex::new(pool),
            pool_signal: Condvar::new(),
            active_connections: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            query_hits: AtomicU64::new(0),
            query_misses: AtomicU64::new(0),
            submits: AtomicU64::new(0),
        });
        let accept = {
            let inner = inner.clone();
            std::thread::spawn(move || accept_loop(&inner, listener))
        };
        let scheduler = {
            let inner = inner.clone();
            std::thread::spawn(move || scheduler_loop(&inner))
        };
        Ok(ServerHandle {
            inner,
            store_lock: Some(store_lock),
            accept: Some(accept),
            scheduler: Some(scheduler),
            replayed,
            broke_stale_lock,
        })
    }
}

/// A running daemon: address, programmatic shutdown, and the blocking
/// [`ServerHandle::wait`] that finishes the lifecycle.
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    store_lock: Option<StoreLock>,
    accept: Option<std::thread::JoinHandle<()>>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    /// Journal cells replayed at open (crash recovery).
    pub replayed: usize,
    /// The stale lock broken at startup, if any (dead-pid remediation).
    pub broke_stale_lock: Option<LockInfo>,
}

impl ServerHandle {
    /// The bound address (resolves an ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Cells in the currently published index.
    pub fn cells(&self) -> usize {
        self.inner.snapshot().cells()
    }

    /// Initiates the same graceful shutdown as the `shutdown` op.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.inner);
    }

    /// Blocks until shutdown, then drains connections, joins the
    /// scheduler, writes the final checkpoint (fsync'd, journal folded
    /// in) and releases the store lock.
    pub fn wait(mut self) -> Result<ServeSummary, ScenarioError> {
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
        // Drain: in-flight handlers notice the shutdown flag within
        // their read timeout; the deadline only bounds a pathological
        // peer mid-request.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.inner.active_connections.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        if let Some(scheduler) = self.scheduler.take() {
            scheduler.join().ok();
        }
        let store = self
            .inner
            .store
            .lock()
            .map_err(|_| ScenarioError::Store("store lock poisoned".to_string()))?;
        store.checkpoint_observed(&self.inner.store_path, self.inner.obs.as_ref())?;
        let cells = store.len();
        drop(store);
        if let Some(store_lock) = self.store_lock.take() {
            store_lock.release()?;
        }
        let inner = &self.inner;
        let jobs = unpoison(inner.jobs.lock());
        Ok(ServeSummary {
            cells,
            connections: inner.connections.load(Ordering::SeqCst),
            requests: inner.requests.load(Ordering::SeqCst),
            queries: inner.queries.load(Ordering::SeqCst),
            query_hits: inner.query_hits.load(Ordering::SeqCst),
            query_misses: inner.query_misses.load(Ordering::SeqCst),
            submits: inner.submits.load(Ordering::SeqCst),
            jobs_done: jobs.done,
            jobs_failed: jobs.failed,
            jobs_cancelled: jobs.cancelled,
            jobs_dropped: jobs.dropped,
            uptime_ms: inner.uptime_ms(),
        })
    }
}

impl ServerInner {
    fn snapshot(&self) -> Arc<StoreIndex> {
        unpoison(self.index.read()).clone()
    }

    fn publish(&self, store: &ResultStore) {
        let index = Arc::new(StoreIndex::build(store));
        *unpoison(self.index.write()) = index;
    }

    fn uptime_ms(&self) -> u64 {
        monotonic_ns().saturating_sub(self.start_ns) / 1_000_000
    }

    /// Push a request into the slowlog ring when it crossed the
    /// threshold. The payload is truncated — the ring is a hint for
    /// the operator, not a request archive.
    fn note_slow(&self, slot: usize, dur_ns: u64, payload: &str) {
        let duration_us = dur_ns / 1_000;
        if duration_us < self.options.slowlog_over_us {
            return;
        }
        let mut truncated: String = payload.chars().take(SLOWLOG_PAYLOAD).collect();
        if truncated.len() < payload.len() {
            truncated.push('…');
        }
        let entry = SlowEntry {
            op: SERVE_OPS.get(slot).copied().unwrap_or("other").to_string(),
            duration_us,
            at_ms: crate::telemetry::now_ms(),
            payload: truncated,
        };
        let mut ring = unpoison(self.slowlog.lock());
        if ring.len() == SLOWLOG_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }
}

/// Flips the daemon into shutdown: drop queued jobs, cancel the
/// running one, wake the scheduler and the blocking accept. Returns
/// the number of queued jobs dropped (idempotent; repeat calls drop
/// nothing further).
fn initiate_shutdown(inner: &Arc<ServerInner>) -> u64 {
    let dropped = {
        let mut jobs = unpoison(inner.jobs.lock());
        let dropped = jobs.queued.len() as u64;
        jobs.dropped += dropped;
        let ids: Vec<u64> = jobs.queued.drain(..).collect();
        for id in ids {
            jobs.finish(id, JobStatus::Dropped, None);
        }
        dropped
    };
    inner.shutdown.store(true, Ordering::SeqCst);
    inner.cancel.store(true, Ordering::SeqCst);
    inner.jobs_signal.notify_all();
    // Wake the accept loop out of its blocking accept; it re-checks
    // the flag before handling what it accepted.
    TcpStream::connect(inner.local_addr).ok();
    dropped
}

fn accept_loop(inner: &Arc<ServerInner>, listener: TcpListener) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _accept_span = inner.obs.as_ref().map(|o| o.span("serve/accept", "serve"));
        // Bounded pool: block further accepts until a slot frees.
        {
            let mut free = unpoison(inner.pool.lock());
            while *free == 0 {
                free = unpoison(inner.pool_signal.wait(free));
            }
            *free -= 1;
        }
        inner.connections.fetch_add(1, Ordering::SeqCst);
        inner.active_connections.fetch_add(1, Ordering::SeqCst);
        let inner = inner.clone();
        std::thread::spawn(move || {
            serve_connection(&inner, stream);
            inner.active_connections.fetch_sub(1, Ordering::SeqCst);
            let mut free = unpoison(inner.pool.lock());
            *free += 1;
            inner.pool_signal.notify_one();
        });
    }
}

/// One connection: JSON-lines request/response until EOF, error or
/// shutdown. A torn line (bytes without the newline, then disconnect)
/// is simply an unfinished request — the handler closes cleanly.
fn serve_connection(inner: &Arc<ServerInner>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    // The timeout is the shutdown latency of an idle connection, not a
    // protocol deadline: on timeout the handler just re-checks the
    // shutdown flag and keeps listening.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            break;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let request_span = inner.obs.as_ref().map(|o| o.span("serve/request", "serve"));
            inner.requests.fetch_add(1, Ordering::SeqCst);
            let started_ns = monotonic_ns();
            let (slot, response, close) = match Json::parse(line) {
                Ok(doc) => {
                    let slot =
                        ServeMetrics::slot_of(doc.get("op").and_then(Json::as_str).unwrap_or(""));
                    let (response, close) = handle_request(inner, &doc);
                    (slot, response, close)
                }
                Err(e) => (OP_OTHER, error_json(&format!("bad request: {e}")), false),
            };
            let mut text = response.compact();
            text.push('\n');
            let written = stream.write_all(text.as_bytes());
            drop(request_span);
            // Recorded after the response is on the wire, so a
            // `metrics` scrape never counts its own in-flight request.
            let finished_ns = monotonic_ns();
            let dur_ns = finished_ns.saturating_sub(started_ns);
            inner.metrics.record_request(slot, dur_ns, finished_ns);
            inner.note_slow(slot, dur_ns, line);
            if written.is_err() || close {
                return;
            }
        }
    }
}

/// A `{"ok": false, "error": ...}` response.
fn error_json(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::str(message)),
    ])
}

/// A `{"ok": true, ...}` response.
fn ok_json(fields: Vec<(String, Json)>) -> Json {
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    members.extend(fields);
    Json::Obj(members)
}

/// Renders a request value usable as an axis value: strings pass
/// through, integral numbers lose the float suffix (`16`, not `16.0` —
/// axis values are canonical strings).
fn value_string(value: &Json) -> Option<String> {
    match value {
        Json::Str(s) => Some(s.clone()),
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => Some(format!("{}", *x as i64)),
        Json::Num(x) => Some(format!("{x}")),
        Json::Bool(b) => Some(b.to_string()),
        _ => None,
    }
}

/// Dispatches one parsed request. The bool asks the connection handler
/// to close after writing the response (only the `shutdown` op).
fn handle_request(inner: &Arc<ServerInner>, doc: &Json) -> (Json, bool) {
    let Some(op) = doc.get("op").and_then(Json::as_str) else {
        return (error_json("request has no `op`"), false);
    };
    match op {
        "ping" => (
            ok_json(vec![
                ("pong".to_string(), Json::Bool(true)),
                ("uptime_ms".to_string(), Json::Num(inner.uptime_ms() as f64)),
            ]),
            false,
        ),
        "stats" => (stats_response(inner), false),
        "query" => (query_response(inner, doc), false),
        "query_range" => (query_range_response(inner, doc), false),
        "report" => (report_response(inner, doc), false),
        "submit" => (submit_response(inner, doc), false),
        "metrics" => (metrics_response(inner), false),
        "jobs" => (jobs_response(inner), false),
        "slowlog" => (slowlog_response(inner), false),
        "shutdown" => {
            let dropped = initiate_shutdown(inner);
            let failed = unpoison(inner.jobs.lock()).failed;
            (
                ok_json(vec![
                    ("shutting_down".to_string(), Json::Bool(true)),
                    ("jobs_dropped".to_string(), Json::Num(dropped as f64)),
                    ("jobs_failed".to_string(), Json::Num(failed as f64)),
                ]),
                true,
            )
        }
        other => (error_json(&format!("unknown op `{other}`")), false),
    }
}

/// `metrics`: snapshot the registry, refresh the scrape-time gauges,
/// and render both compact JSON and Prometheus text exposition.
fn metrics_response(inner: &ServerInner) -> Json {
    let index = inner.snapshot();
    let registry = &inner.metrics.registry;
    registry
        .gauge("harness_serve_index_cells")
        .set(index.cells() as u64);
    registry
        .gauge("harness_serve_index_scenarios")
        .set(index.scenarios().count() as u64);
    registry
        .gauge("harness_serve_index_interned")
        .set(index.interned() as u64);
    registry
        .gauge("harness_serve_active_connections")
        .set(inner.active_connections.load(Ordering::SeqCst) as u64);
    {
        let jobs = unpoison(inner.jobs.lock());
        registry
            .gauge("harness_serve_jobs_queued")
            .set(jobs.queued.len() as u64);
        registry
            .gauge("harness_serve_jobs_running")
            .set(jobs.running.is_some() as u64);
        registry.gauge("harness_serve_jobs_done").set(jobs.done);
        registry.gauge("harness_serve_jobs_failed").set(jobs.failed);
    }
    let snapshot = registry.snapshot_at(monotonic_ns());
    ok_json(vec![
        ("metrics".to_string(), snapshot.to_json()),
        (
            "prometheus".to_string(),
            Json::str(snapshot.to_prometheus()),
        ),
    ])
}

/// `jobs`: every retained job record — status, spec, progress, error.
fn jobs_response(inner: &ServerInner) -> Json {
    let jobs = unpoison(inner.jobs.lock());
    let list = jobs
        .records
        .values()
        .map(|record| {
            let mut fields = vec![
                ("job".to_string(), Json::Num(record.spec.id as f64)),
                ("status".to_string(), Json::str(record.status.as_str())),
                (
                    "scenarios".to_string(),
                    Json::Arr(record.spec.scenarios.iter().map(Json::str).collect()),
                ),
                (
                    "filters".to_string(),
                    Json::Arr(record.spec.filters.iter().map(Json::str).collect()),
                ),
                ("seed".to_string(), Json::Num(record.spec.seed as f64)),
                (
                    "cells_done".to_string(),
                    Json::Num(record.progress.cells_done.load(Ordering::Relaxed) as f64),
                ),
                (
                    "cells_total".to_string(),
                    Json::Num(record.progress.cells_total.load(Ordering::Relaxed) as f64),
                ),
                (
                    "started_ms".to_string(),
                    Json::Num(record.progress.started_ms.load(Ordering::Relaxed) as f64),
                ),
            ];
            if let Some(error) = &record.error {
                fields.push(("error".to_string(), Json::str(error)));
            }
            Json::Obj(fields)
        })
        .collect();
    ok_json(vec![("jobs".to_string(), Json::Arr(list))])
}

/// `slowlog`: the ring of requests slower than the threshold, oldest
/// first.
fn slowlog_response(inner: &ServerInner) -> Json {
    let ring = unpoison(inner.slowlog.lock());
    let entries = ring
        .iter()
        .map(|entry| {
            Json::Obj(vec![
                ("op".to_string(), Json::str(&entry.op)),
                (
                    "duration_us".to_string(),
                    Json::Num(entry.duration_us as f64),
                ),
                ("at_ms".to_string(), Json::Num(entry.at_ms as f64)),
                ("payload".to_string(), Json::str(&entry.payload)),
            ])
        })
        .collect();
    ok_json(vec![
        (
            "threshold_us".to_string(),
            Json::Num(inner.options.slowlog_over_us as f64),
        ),
        ("entries".to_string(), Json::Arr(entries)),
    ])
}

fn stats_response(inner: &ServerInner) -> Json {
    let index = inner.snapshot();
    let uptime_ms = inner.uptime_ms();
    let queries = inner.queries.load(Ordering::SeqCst);
    // Lifetime average: a burst an hour ago inflates this forever, so
    // it is kept only as `qps_lifetime`; `qps` is the sliding window.
    let qps_lifetime = if uptime_ms > 0 {
        queries as f64 * 1000.0 / uptime_ms as f64
    } else {
        0.0
    };
    // Early in the uptime the full 10s window would divide a short
    // burst by seconds that never existed — clamp to seconds lived.
    let window_secs = uptime_ms.div_ceil(1_000).clamp(1, RATE_WINDOW_SECS);
    let qps = inner
        .metrics
        .query_rate
        .rate_over(monotonic_ns(), window_secs);
    let jobs = unpoison(inner.jobs.lock());
    let progress = jobs
        .running
        .and_then(|id| jobs.records.get(&id))
        .map(|record| {
            Json::Obj(vec![
                ("job".to_string(), Json::Num(record.spec.id as f64)),
                (
                    "cells_done".to_string(),
                    Json::Num(record.progress.cells_done.load(Ordering::Relaxed) as f64),
                ),
                (
                    "cells_total".to_string(),
                    Json::Num(record.progress.cells_total.load(Ordering::Relaxed) as f64),
                ),
                (
                    "started_ms".to_string(),
                    Json::Num(record.progress.started_ms.load(Ordering::Relaxed) as f64),
                ),
            ])
        })
        .unwrap_or(Json::Null);
    let count = |n: u64| Json::Num(n as f64);
    ok_json(vec![
        ("uptime_ms".to_string(), count(uptime_ms)),
        ("cells".to_string(), Json::Num(index.cells() as f64)),
        ("fold_cells".to_string(), Json::Num(index.folds() as f64)),
        (
            "scenarios".to_string(),
            Json::Num(index.scenarios().count() as f64),
        ),
        (
            "connections".to_string(),
            count(inner.connections.load(Ordering::SeqCst)),
        ),
        (
            "requests".to_string(),
            count(inner.requests.load(Ordering::SeqCst)),
        ),
        ("queries".to_string(), count(queries)),
        (
            "query_hits".to_string(),
            count(inner.query_hits.load(Ordering::SeqCst)),
        ),
        (
            "query_misses".to_string(),
            count(inner.query_misses.load(Ordering::SeqCst)),
        ),
        (
            "qps".to_string(),
            Json::Num((qps * 1000.0).round() / 1000.0),
        ),
        (
            "qps_lifetime".to_string(),
            Json::Num((qps_lifetime * 1000.0).round() / 1000.0),
        ),
        ("jobs_failed".to_string(), count(jobs.failed)),
        (
            "submits".to_string(),
            count(inner.submits.load(Ordering::SeqCst)),
        ),
        (
            "jobs".to_string(),
            Json::Obj(vec![
                ("queued".to_string(), Json::Num(jobs.queued.len() as f64)),
                (
                    "running".to_string(),
                    Json::Num(jobs.running.is_some() as u64 as f64),
                ),
                ("done".to_string(), count(jobs.done)),
                ("failed".to_string(), count(jobs.failed)),
                ("cancelled".to_string(), count(jobs.cancelled)),
                ("dropped".to_string(), count(jobs.dropped)),
                ("progress".to_string(), progress),
            ]),
        ),
    ])
}

/// `query`: point lookup by scenario + full axis assignment.
fn query_response(inner: &ServerInner, doc: &Json) -> Json {
    let Some(scenario) = doc.get("scenario").and_then(Json::as_str) else {
        return error_json("query needs a `scenario`");
    };
    let mut params: Vec<(String, String)> = Vec::new();
    match doc.get("params") {
        Some(Json::Obj(members)) => {
            for (axis, value) in members {
                let Some(value) = value_string(value) else {
                    return error_json(&format!("axis `{axis}`: unusable value"));
                };
                params.push((axis.clone(), value));
            }
        }
        None => {}
        Some(_) => return error_json("`params` must be an object"),
    }
    inner.queries.fetch_add(1, Ordering::SeqCst);
    let index = inner.snapshot();
    match index.query_point(scenario, &params) {
        Some(hits) => {
            inner.query_hits.fetch_add(1, Ordering::SeqCst);
            if let Some(obs) = &inner.obs {
                obs.count("serve/query_hit", 1);
            }
            let cells = hits.iter().map(|hit| cell_json(&index, hit)).collect();
            ok_json(vec![
                ("scenario".to_string(), Json::str(scenario)),
                ("cells".to_string(), Json::Arr(cells)),
            ])
        }
        None => {
            inner.query_misses.fetch_add(1, Ordering::SeqCst);
            if let Some(obs) = &inner.obs {
                obs.count("serve/query_miss", 1);
            }
            let axes = match index.axes(scenario) {
                Some(axes) => format!(" (axes: {})", axes.join(", ")),
                None => String::new(),
            };
            ok_json(vec![
                ("scenario".to_string(), Json::str(scenario)),
                ("cells".to_string(), Json::Arr(Vec::new())),
                (
                    "miss".to_string(),
                    Json::str(format!("no cell at that assignment{axes}")),
                ),
            ])
        }
    }
}

/// One indexed cell as a response object. Fold cells (derived
/// distribution metrics over a replicate group) carry a `fold: true`
/// marker; raw cells keep the exact shape they had before replicates
/// existed.
fn cell_json(index: &StoreIndex, hit: &index::IndexHit<'_>) -> Json {
    let mut members = vec![
        (
            "params".to_string(),
            Json::Obj(
                hit.params
                    .iter()
                    .map(|(axis, value)| ((*axis).to_string(), Json::str(*value)))
                    .collect(),
            ),
        ),
        (
            "seed".to_string(),
            Json::str(format!("{:016x}", hit.cell.seed)),
        ),
        ("version".to_string(), Json::Num(hit.cell.version as f64)),
        ("fingerprint".to_string(), Json::str(&hit.cell.fingerprint)),
    ];
    if hit.cell.fold {
        members.push(("fold".to_string(), Json::Bool(true)));
    }
    members.push((
        "metrics".to_string(),
        Json::Obj(
            hit.cell
                .metrics
                .iter()
                .map(|&(name, value)| (index.metric_name(name).to_string(), Json::Num(value)))
                .collect(),
        ),
    ));
    Json::Obj(members)
}

/// `query_range`: axis-filtered scan returning metric columns.
fn query_range_response(inner: &ServerInner, doc: &Json) -> Json {
    let Some(scenario) = doc.get("scenario").and_then(Json::as_str) else {
        return error_json("query_range needs a `scenario`");
    };
    let mut clauses: Vec<(String, Vec<String>)> = Vec::new();
    match doc.get("where") {
        Some(Json::Obj(members)) => {
            for (axis, accepted) in members {
                let values = match accepted {
                    Json::Arr(items) => items.iter().map(value_string).collect::<Option<Vec<_>>>(),
                    single => value_string(single).map(|v| vec![v]),
                };
                let Some(values) = values else {
                    return error_json(&format!("axis `{axis}`: unusable clause value"));
                };
                clauses.push((axis.clone(), values));
            }
        }
        None => {}
        Some(_) => return error_json("`where` must be an object"),
    }
    let index = inner.snapshot();
    let hits = match index.query_range(scenario, &clauses) {
        Ok(hits) => hits,
        Err(message) => return error_json(&message),
    };
    // Columns: the requested metrics, or every metric the scenario has.
    let metrics: Vec<String> = match doc.get("metrics") {
        Some(Json::Arr(items)) => {
            match items
                .iter()
                .map(|m| m.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
            {
                Some(names) => names,
                None => return error_json("`metrics` must be an array of names"),
            }
        }
        None => index
            .metrics(scenario)
            .unwrap_or_default()
            .into_iter()
            .map(str::to_string)
            .collect(),
        Some(_) => return error_json("`metrics` must be an array of names"),
    };
    let mut params_column = Vec::with_capacity(hits.len());
    let mut seed_column = Vec::with_capacity(hits.len());
    let mut metric_columns: Vec<Vec<Json>> = vec![Vec::with_capacity(hits.len()); metrics.len()];
    for hit in &hits {
        params_column.push(Json::str(
            hit.params
                .iter()
                .map(|(axis, value)| format!("{axis}={value}"))
                .collect::<Vec<_>>()
                .join(","),
        ));
        seed_column.push(Json::str(format!("{:016x}", hit.cell.seed)));
        for (column, name) in metric_columns.iter_mut().zip(&metrics) {
            let value = hit
                .cell
                .metrics
                .iter()
                .find(|&&(sym, _)| index.metric_name(sym) == name)
                .map(|&(_, v)| v);
            column.push(value.map_or(Json::Null, Json::Num));
        }
    }
    let mut columns = vec![
        ("params".to_string(), Json::Arr(params_column)),
        ("seed".to_string(), Json::Arr(seed_column)),
    ];
    for (name, column) in metrics.into_iter().zip(metric_columns) {
        columns.push((name, Json::Arr(column)));
    }
    ok_json(vec![
        ("scenario".to_string(), Json::str(scenario)),
        ("count".to_string(), Json::Num(hits.len() as f64)),
        ("columns".to_string(), Json::Obj(columns)),
    ])
}

/// `report`: the batch `campaign report` evidence join, rendered from
/// the index snapshot (never blocking on a running submit).
fn report_response(inner: &ServerInner, doc: &Json) -> Json {
    let scenario = doc.get("scenario").and_then(Json::as_str);
    let index = inner.snapshot();
    if let Some(id) = scenario {
        if index.axes(id).is_none() {
            return error_json(&format!(
                "no indexed cells for scenario `{id}` (known: {})",
                index.scenarios().collect::<Vec<_>>().join(", ")
            ));
        }
    }
    let mut cells = Vec::new();
    for id in index.scenarios() {
        if scenario.is_some_and(|s| s != id) {
            continue;
        }
        let Ok(hits) = index.query_range(id, &[]) else {
            continue;
        };
        for hit in hits {
            cells.push(crate::exec::CampaignCell {
                scenario: id.to_string(),
                params: Params::new(
                    hit.params
                        .iter()
                        .map(|(axis, value)| ((*axis).to_string(), (*value).to_string()))
                        .collect(),
                ),
                seed: hit.cell.seed,
                result: CellResult {
                    metrics: hit
                        .cell
                        .metrics
                        .iter()
                        .map(|&(name, value)| (index.metric_name(name).to_string(), value))
                        .collect(),
                },
                memoized: true,
            });
        }
    }
    let campaign = report::memoized_campaign(cells, 0);
    ok_json(vec![
        ("cells".to_string(), Json::Num(campaign.cells.len() as f64)),
        (
            "report".to_string(),
            Json::str(report::evidence_summary(&campaign, &inner.registry)),
        ),
    ])
}

/// `submit`: validate and enqueue a campaign spec for the scheduler.
fn submit_response(inner: &ServerInner, doc: &Json) -> Json {
    if inner.shutdown.load(Ordering::SeqCst) {
        return error_json("shutting down: submissions are no longer accepted");
    }
    // Unknown keys are rejected, not ignored: a typo like `scenario`
    // for `scenarios` would otherwise silently submit the full matrix.
    const KNOWN: [&str; 7] = [
        "op",
        "scenarios",
        "filters",
        "seed",
        "corpus_size",
        "replicates",
        "keep_replicates",
    ];
    if let Json::Obj(members) = doc {
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return error_json(&format!(
                    "unknown submit field `{key}` (expected one of: {})",
                    KNOWN.join(", ")
                ));
            }
        }
    }
    let mut scenarios = Vec::new();
    match doc.get("scenarios") {
        Some(Json::Arr(items)) => {
            for item in items {
                match item.as_str() {
                    Some(id) => scenarios.push(id.to_string()),
                    None => return error_json("`scenarios` must be an array of ids"),
                }
            }
        }
        None => {}
        Some(_) => return error_json("`scenarios` must be an array of ids"),
    }
    // Eager validation: an id typo or bad filter fails the submit, not
    // the job an hour later.
    for id in &scenarios {
        if inner.registry.get(id).is_none() {
            return error_json(&format!("unknown scenario `{id}`"));
        }
    }
    let mut filters = Vec::new();
    match doc.get("filters") {
        Some(Json::Arr(items)) => {
            for item in items {
                match item.as_str() {
                    Some(clause) => filters.push(clause.to_string()),
                    None => return error_json("`filters` must be an array of axis=value clauses"),
                }
            }
        }
        None => {}
        Some(_) => return error_json("`filters` must be an array of axis=value clauses"),
    }
    if let Err(e) = Filter::parse(&filters) {
        return error_json(&e);
    }
    let seed = match doc.get("seed") {
        Some(Json::Num(x)) if x.fract() == 0.0 && *x >= 0.0 && *x < 9e15 => *x as u64,
        None => 0,
        Some(_) => return error_json("`seed` must be a non-negative integer"),
    };
    let corpus_size = match doc.get("corpus_size") {
        Some(Json::Num(x)) if x.fract() == 0.0 && *x >= 1.0 && *x <= u32::MAX as f64 => {
            Some(*x as u32)
        }
        None => None,
        Some(_) => return error_json("`corpus_size` must be a positive integer"),
    };
    let replicates = match doc.get("replicates") {
        Some(Json::Num(x)) if x.fract() == 0.0 && *x >= 1.0 && *x <= u32::MAX as f64 => {
            Some(*x as u32)
        }
        None => None,
        Some(_) => return error_json("`replicates` must be a positive integer"),
    };
    let keep_replicates = match doc.get("keep_replicates") {
        Some(Json::Bool(b)) => *b,
        None => false,
        Some(_) => return error_json("`keep_replicates` must be a boolean"),
    };
    inner.submits.fetch_add(1, Ordering::SeqCst);
    let mut jobs = unpoison(inner.jobs.lock());
    jobs.next_id += 1;
    let id = jobs.next_id;
    jobs.records.insert(
        id,
        JobRecord {
            spec: JobSpec {
                id,
                scenarios,
                filters,
                seed,
                corpus_size,
                replicates,
                keep_replicates,
            },
            status: JobStatus::Queued,
            error: None,
            progress: Arc::new(JobProgress::default()),
        },
    );
    jobs.queued.push_back(id);
    let queued = jobs.queued.len();
    drop(jobs);
    inner.jobs_signal.notify_all();
    ok_json(vec![
        ("job".to_string(), Json::Num(id as f64)),
        ("queued".to_string(), Json::Num(queued as f64)),
    ])
}

/// The scheduler thread: pop one job at a time, run it on the
/// streaming executor, publish the refreshed index.
fn scheduler_loop(inner: &Arc<ServerInner>) {
    loop {
        let job = {
            let mut jobs = unpoison(inner.jobs.lock());
            loop {
                if let Some(id) = jobs.queued.pop_front() {
                    jobs.running = Some(id);
                    let record = jobs.records.get_mut(&id).expect("queued job has a record");
                    record.status = JobStatus::Running;
                    record
                        .progress
                        .started_ms
                        .store(crate::telemetry::now_ms(), Ordering::Relaxed);
                    break Some((record.spec.clone(), record.progress.clone()));
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = unpoison(inner.jobs_signal.wait(jobs));
            }
        };
        let Some((spec, progress)) = job else { break };
        let outcome = run_job(inner, &spec, &progress);
        let mut jobs = unpoison(inner.jobs.lock());
        jobs.running = None;
        match outcome {
            Ok(true) => {
                jobs.done += 1;
                jobs.finish(spec.id, JobStatus::Done, None);
            }
            Ok(false) => {
                jobs.cancelled += 1;
                jobs.finish(spec.id, JobStatus::Cancelled, None);
            }
            Err(e) => {
                jobs.failed += 1;
                jobs.finish(spec.id, JobStatus::Failed, Some(e.to_string()));
                if !inner.options.quiet {
                    eprintln!("serve: job {} failed: {e}", spec.id);
                }
            }
        }
    }
}

/// Runs one submitted campaign through the same [`Session`] as a batch
/// `campaign run` (executor, journal, checkpoint) — which is why the
/// resulting store is byte-identical to the batch run's. Returns
/// `Ok(false)` when shutdown cancelled the job mid-run (completed
/// cells are persisted either way).
fn run_job(
    inner: &Arc<ServerInner>,
    job: &JobSpec,
    progress: &Arc<JobProgress>,
) -> Result<bool, ScenarioError> {
    let _span = inner
        .obs
        .as_ref()
        .map(|o| o.span("serve/submit_run", "serve"));
    let registry = Registry::builtin_with(&GenOptions {
        corpus_size: job.corpus_size.unwrap_or(DEFAULT_CORPUS_SIZE),
        corpus_seed: job.seed,
    });
    let filter = Filter::parse(&job.filters).map_err(ScenarioError::Store)?;
    let mut store = inner
        .store
        .lock()
        .map_err(|_| ScenarioError::Store("store lock poisoned".to_string()))?;
    // Stream completion (fresh + memoized) into the job's progress
    // cells so `stats`/`jobs`/`top` can watch the run live.
    let progress_sink = |e: CellEvent<'_>| {
        progress
            .cells_done
            .store((e.executed + e.memoized) as u64, Ordering::Relaxed);
        progress
            .cells_total
            .store(e.total as u64, Ordering::Relaxed);
    };
    let session = Session {
        store: Some(&inner.store_path),
        journal_batch: Some(inner.options.checkpoint_every),
        compact_over: inner.options.compact_journal_over,
        telemetry_batch: None,
        obs: inner.obs.as_ref(),
        on_cell: Some(&progress_sink),
        cancel: Some(&inner.cancel),
    };
    let persisted = session.run(&mut store, |store, hooks| {
        run_campaign_with(
            &registry,
            &job.scenarios,
            &filter,
            &ExecConfig {
                threads: inner.options.exec_threads,
                seed: job.seed,
                replicates: job.replicates.unwrap_or(1),
                keep_replicates: job.keep_replicates,
            },
            store,
            CellDomain::All,
            hooks,
        )
    })?;
    // Completed cells are checkpointed whatever the outcome; publish
    // them before surfacing a cell's error.
    inner.publish(&store);
    match persisted.outcome {
        Ok(_) => Ok(true),
        Err(ScenarioError::Cancelled) => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("harness-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct Client {
        reader: std::io::BufReader<TcpStream>,
        stream: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            Client {
                reader: std::io::BufReader::new(stream.try_clone().unwrap()),
                stream,
            }
        }

        fn request(&mut self, line: &str) -> Json {
            writeln!(self.stream, "{line}").unwrap();
            let mut response = String::new();
            self.reader.read_line(&mut response).unwrap();
            Json::parse(response.trim()).unwrap()
        }
    }

    fn assert_ok(doc: &Json) {
        assert_eq!(
            doc.get("ok").cloned(),
            Some(Json::Bool(true)),
            "{}",
            doc.compact()
        );
    }

    #[test]
    fn in_process_lifecycle_serves_queries_and_submits() {
        let dir = scratch("lifecycle");
        let store_path = dir.join("store.json");
        let handle = Server::bind(
            &store_path,
            ServeOptions {
                quiet: true,
                exec_threads: 2,
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(handle.cells(), 0);
        let mut client = Client::connect(handle.addr());

        let pong = client.request("{\"op\":\"ping\"}");
        assert_ok(&pong);
        assert_eq!(pong.get("pong").cloned(), Some(Json::Bool(true)));

        // Junk and unknown ops error without dropping the connection.
        let bad = client.request("not json at all");
        assert_eq!(bad.get("ok").cloned(), Some(Json::Bool(false)));
        let unknown = client.request("{\"op\":\"warp\"}");
        assert_eq!(unknown.get("ok").cloned(), Some(Json::Bool(false)));

        // Submit a tiny campaign and wait for it to land in the index.
        let submitted =
            client.request("{\"op\":\"submit\",\"scenarios\":[\"pipeline-domino\"],\"seed\":42}");
        assert_ok(&submitted);
        let mut done = false;
        for _ in 0..600 {
            let stats = client.request("{\"op\":\"stats\"}");
            assert_ok(&stats);
            let jobs_done = stats
                .get("jobs")
                .and_then(|j| j.get("done"))
                .and_then(Json::as_f64);
            if jobs_done == Some(1.0) {
                done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(done, "the submitted job never completed");

        // A bad submit is rejected eagerly.
        let rejected = client.request("{\"op\":\"submit\",\"scenarios\":[\"not-a-scenario\"]}");
        assert_eq!(rejected.get("ok").cloned(), Some(Json::Bool(false)));

        // So is a field typo: `scenario` for `scenarios` would
        // otherwise silently submit the full matrix.
        let typo =
            client.request("{\"op\":\"submit\",\"scenario\":[\"pipeline-domino\"],\"seed\":42}");
        assert_eq!(typo.get("ok").cloned(), Some(Json::Bool(false)));
        assert!(
            typo.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("scenarios"),
            "the rejection must name the expected field: {typo:?}"
        );

        // Point query: hit, then miss.
        let hit = client.request(
            "{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"16\"}}",
        );
        assert_ok(&hit);
        let cells = hit.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        assert!(cells[0]
            .get("metrics")
            .and_then(|m| m.get("sipr"))
            .and_then(Json::as_f64)
            .is_some());
        let miss = client.request(
            "{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"9999\"}}",
        );
        assert_ok(&miss);
        assert!(miss.get("cells").and_then(Json::as_arr).unwrap().is_empty());

        // Range scan with a clause + metric column selection.
        let range = client.request(
            "{\"op\":\"query_range\",\"scenario\":\"pipeline-domino\",\"where\":{\"n\":[\"16\",\"64\"]},\"metrics\":[\"sipr\"]}",
        );
        assert_ok(&range);
        assert_eq!(range.get("count").and_then(Json::as_f64), Some(2.0));
        let columns = range.get("columns").unwrap();
        assert_eq!(columns.get("sipr").and_then(Json::as_arr).unwrap().len(), 2);
        let err = client.request(
            "{\"op\":\"query_range\",\"scenario\":\"pipeline-domino\",\"where\":{\"bogus\":\"1\"}}",
        );
        assert_eq!(err.get("ok").cloned(), Some(Json::Bool(false)));
        assert!(
            err.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("axes"),
            "{}",
            err.compact()
        );

        // The report join renders over the wire.
        let report = client.request("{\"op\":\"report\",\"scenario\":\"pipeline-domino\"}");
        assert_ok(&report);
        assert!(report
            .get("report")
            .and_then(Json::as_str)
            .unwrap()
            .contains("pipeline-domino"));

        // Graceful shutdown checkpoints and releases the lock.
        let bye = client.request("{\"op\":\"shutdown\"}");
        assert_ok(&bye);
        let summary = handle.wait().unwrap();
        assert_eq!(summary.jobs_done, 1);
        assert_eq!(summary.query_hits, 1);
        assert_eq!(summary.query_misses, 1);
        assert!(summary.cells > 0);
        assert!(!lock::lock_path(&store_path).exists());

        // The daemon's store is byte-identical to a batch run of the
        // same campaign (same executor, same checkpoint writer).
        let mut batch = ResultStore::new();
        let registry = Registry::builtin_with(&GenOptions {
            corpus_size: DEFAULT_CORPUS_SIZE,
            corpus_seed: 42,
        });
        crate::exec::run_campaign(
            &registry,
            &["pipeline-domino".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 42,
                ..ExecConfig::default()
            },
            &mut batch,
        )
        .unwrap();
        let batch_path = dir.join("batch.json");
        batch.checkpoint(&batch_path).unwrap();
        assert_eq!(
            std::fs::read(&store_path).unwrap(),
            std::fs::read(&batch_path).unwrap(),
            "served store must be byte-identical to the batch store"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_jobs_and_slowlog_roundtrip() {
        let dir = scratch("metrics");
        let store_path = dir.join("store.json");
        let handle = Server::bind(
            &store_path,
            ServeOptions {
                quiet: true,
                exec_threads: 2,
                // Every request is "slow" at threshold 0: the ring
                // itself is what's under test.
                slowlog_over_us: 0,
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let mut client = Client::connect(handle.addr());

        // A known request mix: 3 pings, 1 submit, wait via stats.
        for _ in 0..3 {
            assert_ok(&client.request("{\"op\":\"ping\"}"));
        }
        let submitted =
            client.request("{\"op\":\"submit\",\"scenarios\":[\"pipeline-domino\"],\"seed\":7}");
        assert_ok(&submitted);
        let mut stats_sent = 0u64;
        let mut done = false;
        for _ in 0..600 {
            let stats = client.request("{\"op\":\"stats\"}");
            stats_sent += 1;
            assert_ok(&stats);
            if stats
                .get("jobs")
                .and_then(|j| j.get("done"))
                .and_then(Json::as_f64)
                == Some(1.0)
            {
                done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(done, "the submitted job never completed");
        // `stats` carries the windowed qps next to the lifetime rate
        // and the top-level failure counter.
        let stats = client.request("{\"op\":\"stats\"}");
        stats_sent += 1;
        assert!(stats.get("qps").and_then(Json::as_f64).is_some());
        assert!(stats.get("qps_lifetime").and_then(Json::as_f64).is_some());
        assert_eq!(stats.get("jobs_failed").and_then(Json::as_f64), Some(0.0));

        // One query so its histogram is non-empty.
        let hit = client.request(
            "{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"16\"}}",
        );
        assert_ok(&hit);

        // The registry's counters must exactly match the issued mix.
        // (The metrics request itself records only after responding,
        // so it does not count itself.)
        let metrics = client.request("{\"op\":\"metrics\"}");
        assert_ok(&metrics);
        let counters = metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .unwrap();
        let counter = |op: &str| {
            counters
                .get(&format!("harness_serve_requests_total{{op=\"{op}\"}}"))
                .and_then(Json::as_f64)
        };
        assert_eq!(counter("ping"), Some(3.0));
        assert_eq!(counter("submit"), Some(1.0));
        assert_eq!(counter("query"), Some(1.0));
        assert_eq!(counter("stats"), Some(stats_sent as f64));
        assert_eq!(counter("metrics"), Some(0.0));
        let histograms = metrics
            .get("metrics")
            .and_then(|m| m.get("histograms"))
            .unwrap();
        let query_hist = histograms
            .get("harness_serve_request_latency_seconds{op=\"query\"}")
            .unwrap();
        assert_eq!(query_hist.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(query_hist.get("p99_us").and_then(Json::as_f64).unwrap() > 0.0);
        // The exposition text is well-formed and cumulative.
        let text = metrics.get("prometheus").and_then(Json::as_str).unwrap();
        assert!(text.contains("# TYPE harness_serve_request_latency_seconds histogram"));
        assert!(text.contains("harness_serve_requests_total{op=\"ping\"} 3\n"));
        assert!(text.contains(
            "harness_serve_request_latency_seconds_bucket{op=\"query\",le=\"+Inf\"} 1\n"
        ));
        assert!(text.contains("harness_serve_index_cells "));

        // `jobs` reports the finished job with full progress.
        let jobs = client.request("{\"op\":\"jobs\"}");
        assert_ok(&jobs);
        let list = jobs.get("jobs").and_then(Json::as_arr).unwrap();
        assert_eq!(list.len(), 1);
        let job = &list[0];
        assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
        let cells_done = job.get("cells_done").and_then(Json::as_f64).unwrap();
        let cells_total = job.get("cells_total").and_then(Json::as_f64).unwrap();
        assert!(cells_done > 0.0);
        assert_eq!(cells_done, cells_total, "a done job is fully progressed");
        assert!(job.get("started_ms").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(job.get("error").is_none());

        // A failed job: a directory squatting on the journal path makes
        // the journal unopenable, and the error string lands in the
        // record instead of vanishing into stderr.
        let journal_path = crate::store::journal_path(&store_path);
        std::fs::create_dir_all(&journal_path).unwrap();
        let failed =
            client.request("{\"op\":\"submit\",\"scenarios\":[\"pipeline-domino\"],\"seed\":8}");
        assert_ok(&failed);
        let mut saw_failure = false;
        for _ in 0..600 {
            let stats = client.request("{\"op\":\"stats\"}");
            if stats
                .get("jobs_failed")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0)
            {
                saw_failure = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(saw_failure, "the doomed job never failed");
        // Clear the obstruction so later submits could journal again.
        std::fs::remove_dir(&journal_path).unwrap();
        let jobs = client.request("{\"op\":\"jobs\"}");
        let list = jobs.get("jobs").and_then(Json::as_arr).unwrap();
        let failed_job = list
            .iter()
            .find(|j| j.get("status").and_then(Json::as_str) == Some("failed"))
            .expect("the failed job is recorded");
        assert!(
            !failed_job
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .is_empty(),
            "the failure reason is retrievable"
        );

        // The slowlog ring captured the mix (threshold 0), op-tagged
        // with truncated payloads.
        let slowlog = client.request("{\"op\":\"slowlog\"}");
        assert_ok(&slowlog);
        assert_eq!(
            slowlog.get("threshold_us").and_then(Json::as_f64),
            Some(0.0)
        );
        let entries = slowlog.get("entries").and_then(Json::as_arr).unwrap();
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| {
            e.get("op").and_then(Json::as_str).is_some()
                && e.get("duration_us").and_then(Json::as_f64).is_some()
                && e.get("at_ms").and_then(Json::as_f64).unwrap_or(0.0) > 0.0
        }));
        assert!(
            entries
                .iter()
                .any(|e| e.get("op").and_then(Json::as_str) == Some("ping")),
            "the pings crossed the zero threshold"
        );
        // The ring is bounded.
        assert!(entries.len() <= 64);

        // `shutdown` now reports the failure tally too.
        let bye = client.request("{\"op\":\"shutdown\"}");
        assert_ok(&bye);
        assert_eq!(bye.get("jobs_failed").and_then(Json::as_f64), Some(1.0));
        let summary = handle.wait().unwrap();
        assert_eq!(summary.jobs_done, 1);
        assert_eq!(summary.jobs_failed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_lock_refuses_second_daemon_and_gc() {
        let dir = scratch("lock");
        let store_path = dir.join("store.json");
        let handle = Server::bind(
            &store_path,
            ServeOptions {
                quiet: true,
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let err = match Server::bind(&store_path, ServeOptions::default(), None) {
            Ok(_) => panic!("second daemon must refuse a live lock"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("pid"), "{err}");
        assert!(lock::refuse_if_live(&store_path, "gc").is_err());
        handle.shutdown();
        handle.wait().unwrap();
        assert_eq!(lock::refuse_if_live(&store_path, "gc").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_job_lock_keeps_serving() {
        let dir = scratch("poison");
        let store_path = dir.join("store.json");
        let handle = Server::bind(
            &store_path,
            ServeOptions {
                quiet: true,
                ..ServeOptions::default()
            },
            None,
        )
        .unwrap();
        let inner = handle.inner.clone();
        std::thread::spawn(move || {
            let _jobs = inner.jobs.lock().unwrap();
            panic!("handler panics while holding the job history");
        })
        .join()
        .unwrap_err();
        assert!(handle.inner.jobs.is_poisoned());
        let mut client = Client::connect(handle.addr());
        assert_ok(&client.request("{\"op\":\"stats\"}"));
        assert_ok(&client.request("{\"op\":\"jobs\"}"));
        assert_ok(&client.request("{\"op\":\"shutdown\"}"));
        handle.wait().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
