//! # obs — span tracing and engine-level profiling
//!
//! The instrumentation layer around the campaign engine. Where
//! [`crate::telemetry`] measures the cost of the *cells* (the workload),
//! `obs` measures the *engine around them*: planning, cell decoding,
//! memo lookups, journal appends and fsync batches, checkpoint
//! compaction, steal-lease acquisition, and merge.
//!
//! The recorder is an [`Obs`] handle — cheap to clone, safe to share
//! across worker threads — that collects two things at once:
//!
//! * **Spans**: named, monotonic-clock-timed intervals. Every recorded
//!   span folds into an in-memory histogram (count / total / min /
//!   max), and, when a trace file is attached, also streams out as one
//!   Chrome trace-event line (`X`-phase complete events, microsecond
//!   timestamps) loadable in Perfetto or `chrome://tracing`.
//! * **Counters**: named monotonic tallies (memo hits and misses,
//!   cells executed, fsync batches, steal contention).
//!
//! The trace file is written through the append-only log machinery
//! behind [`crate::store::Journal`]: one event per line, flushed per
//! append, fsync'd per batch, sticky errors surfaced at the end — so a
//! crashed run still leaves a loadable trace with at most a torn
//! final line, which both Perfetto and [`trace::load_trace`] tolerate.
//!
//! Everything here is *observational*: attaching an [`Obs`] (with or
//! without a trace file) must never change the bytes of a result
//! store. Time lives in the trace and in span totals, never in the
//! store — the same invariant the telemetry sidecar keeps.
//!
//! All durations come from one process-wide monotonic epoch
//! ([`monotonic_ns`]); the executor's per-cell wall measurements use
//! the same clock, so telemetry durations and trace spans agree and a
//! wall-clock step can never produce a negative duration.
//!
//! Next to the span recorder sits [`metrics`]: a lock-free registry of
//! named counters, gauges, log-bucketed latency histograms, and
//! sliding-window rates. Spans describe *one run* in depth; the metrics
//! registry describes the *steady state* of a long-lived process (the
//! `campaign serve` daemon records every request into it, and the
//! `metrics` protocol op renders it as compact JSON or Prometheus text
//! exposition). Recording through a registered handle is wait-free —
//! a few relaxed atomic adds on fixed-size arrays, no allocation — so
//! it stays on even under benchmark load, and like everything else in
//! `obs` it is purely observational: it never changes store bytes.

pub mod metrics;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::scenario::ScenarioError;
use crate::store::AppendLog;

/// Trace events fsync'd per batch (same order of magnitude as the
/// journal's default; traces are advisory, so batching errs large).
const TRACE_BATCH: usize = 128;

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// wins the epoch). Steps in the wall clock cannot move this, so
/// durations derived from it are never negative. Trace timestamps,
/// executor cell timing, and telemetry durations all use this clock.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small dense thread id for trace `tid` fields: assigned in first-use
/// order per thread, stable for the thread's lifetime. (OS thread ids
/// are u64s that Perfetto renders as meaningless giant numbers.)
fn trace_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Aggregate statistics of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans recorded under this name.
    pub count: u64,
    /// Sum of all durations.
    pub total_ns: u64,
    /// Shortest recorded duration.
    pub min_ns: u64,
    /// Longest recorded duration.
    pub max_ns: u64,
}

impl SpanStat {
    fn fold(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
    }
}

#[derive(Debug, Default)]
struct ObsState {
    trace: Option<AppendLog>,
    trace_path: Option<PathBuf>,
    events: u64,
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
}

/// The shared span/counter recorder. Clones share one underlying
/// state, so a single handle handed to a [`crate::session::Session`]
/// (which threads it through [`crate::exec::ExecHooks`], the journal
/// and the telemetry sidecar) collects from every worker thread at
/// once.
///
/// Invariant: the trace `AppendLog` held *inside* the recorder is
/// never itself observed (no `observe` back-reference) — recording a
/// span holds the state lock while appending the trace line, and a
/// re-entrant recording would deadlock.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Arc<Mutex<ObsState>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Obs")
    }
}

impl Obs {
    /// An in-memory recorder: span stats and counters only, no trace
    /// file.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// A recorder that additionally streams every span as one Chrome
    /// trace-event line to `path`. Any existing file is replaced — a
    /// trace names exactly one run. The file starts with a lone `[`
    /// line; the closing `]` is deliberately never written (the format
    /// tolerates its absence), so a crash mid-run leaves a loadable
    /// trace.
    pub fn with_trace(path: &Path) -> Result<Obs, ScenarioError> {
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(ScenarioError::Store(format!(
                    "rm stale trace {}: {e}",
                    path.display()
                )))
            }
        }
        let mut log = AppendLog::open(path.to_path_buf(), TRACE_BATCH)?;
        log.append_line("[");
        let obs = Obs::new();
        {
            let mut state = obs.inner.lock().unwrap();
            state.trace = Some(log);
            state.trace_path = Some(path.to_path_buf());
        }
        Ok(obs)
    }

    /// Opens a span: the returned guard records `name` on drop, timed
    /// from now on the monotonic clock.
    pub fn span<'a>(&'a self, name: &'static str, cat: &'static str) -> SpanGuard<'a> {
        SpanGuard {
            obs: self,
            name,
            cat,
            start_ns: monotonic_ns(),
        }
    }

    /// Records one pre-measured span (for intervals timed elsewhere,
    /// like the executor's per-cell wall measurement).
    pub fn record_span(&self, name: &str, cat: &str, start_ns: u64, dur_ns: u64) {
        let mut state = self.inner.lock().unwrap();
        state
            .spans
            .entry(name.to_string())
            .or_insert(SpanStat {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            })
            .fold(dur_ns);
        if state.trace.is_some() {
            let line = trace::event_line(name, cat, start_ns, dur_ns, trace_tid());
            state.events += 1;
            state.trace.as_mut().unwrap().append_line(&line);
        }
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &str, n: u64) {
        let mut state = self.inner.lock().unwrap();
        *state.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Aggregate stats of one span name, if any were recorded.
    pub fn span_stat(&self, name: &str) -> Option<SpanStat> {
        self.inner.lock().unwrap().spans.get(name).copied()
    }

    /// Finalizes the trace file, if one is attached: final fsync, then
    /// the first sticky I/O error of the log's lifetime, if any.
    /// Returns the trace path and event count when a trace was written.
    /// Idempotent — a second call is a no-op returning `Ok(None)`.
    pub fn finish_trace(&self) -> Result<Option<(PathBuf, u64)>, ScenarioError> {
        let (log, path, events) = {
            let mut state = self.inner.lock().unwrap();
            match state.trace.take() {
                None => return Ok(None),
                Some(log) => (log, state.trace_path.take(), state.events),
            }
        };
        log.finish()?;
        Ok(path.map(|p| (p, events)))
    }
}

/// RAII guard of an open span: records the interval on drop. Obtained
/// from [`Obs::span`].
#[must_use = "a span guard records its interval when dropped"]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = monotonic_ns().saturating_sub(self.start_ns);
        self.obs
            .record_span(self.name, self.cat, self.start_ns, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_decreases() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn spans_fold_into_stats() {
        let obs = Obs::new();
        obs.record_span("memo", "store", 0, 1_000);
        obs.record_span("memo", "store", 10, 3_000);
        let s = obs.span_stat("memo").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 4_000);
        assert_eq!(s.min_ns, 1_000);
        assert_eq!(s.max_ns, 3_000);
        assert!(obs.span_stat("other").is_none());
    }

    #[test]
    fn counters_accumulate() {
        let obs = Obs::new();
        obs.count("memo/hit", 2);
        obs.count("memo/hit", 3);
        assert_eq!(obs.counter("memo/hit"), 5);
        assert_eq!(obs.counter("memo/miss"), 0);
    }

    #[test]
    fn guard_records_on_drop() {
        let obs = Obs::new();
        {
            let _g = obs.span("plan", "exec");
        }
        assert_eq!(obs.span_stat("plan").unwrap().count, 1);
    }

    #[test]
    fn clones_share_state_across_threads() {
        let obs = Obs::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let o = obs.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        o.count("cells/executed", 1);
                        o.record_span("cell", "exec", 0, 10);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(obs.counter("cells/executed"), 400);
        assert_eq!(obs.span_stat("cell").unwrap().count, 400);
    }
}
