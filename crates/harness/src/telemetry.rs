//! The wall-clock telemetry sidecar of a result store.
//!
//! The store is *byte-deterministic*: equal campaigns write equal
//! bytes, which is what makes golden tests, shard merges and the CI
//! regression gates meaningful. Wall-clock measurements are the
//! opposite — they vary run to run by construction — so they must never
//! enter the store. This module keeps them in an append-only sidecar
//! beside it (`store.json` → `store.json.telemetry`, JSON lines,
//! fsync-batched exactly like the crash-resume journal): every freshly
//! executed cell records its measured duration, and every access —
//! fresh *or* memoized — records a last-hit timestamp.
//!
//! Clocks: measured *durations* come from the process-wide monotonic
//! epoch ([`crate::obs::monotonic_ns`], the clock the executor times
//! cells with), so a wall-clock step can never record a negative
//! duration. The wall clock ([`now_ms`]) is used only for last-access
//! *timestamps*, where calendar time is the point. Old sidecars
//! written before this split may still carry negative or non-finite
//! durations from a clock step; replay clamps those values to zero
//! instead of treating the line as corruption.
//!
//! Three consumers read the sidecar back:
//!
//! * `campaign plan --calibrate` derives per-scenario cost weights from
//!   the *measured* mean cell duration instead of the metric-magnitude
//!   proxy, whenever a sidecar accompanies the baseline store
//!   ([`crate::dist::plan::calibrate_weights_wall`]);
//! * `campaign merge --report` joins per-shard sidecars with the
//!   work-stealing lease files into a realized wall-clock balance
//!   report ([`crate::dist::merge::steal_report`]);
//! * `campaign gc --max-age-days N` evicts cells whose last recorded
//!   hit is too old ([`crate::store::MaxAge`]) — the access log the
//!   byte-deterministic store itself can never carry.
//!
//! Telemetry is advisory everywhere: deleting the sidecar loses
//! calibration and age data, never results, and a campaign run with
//! telemetry enabled writes a store byte-identical to one without.

use crate::json::Json;
use crate::scenario::ScenarioError;
use crate::store::{replay_sidecar_lines, write_atomic, AppendLog};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Bump when the line layout changes; lines of other schemas are
/// skipped on load (telemetry is advisory — old measurements are
/// simply forgotten, never misread).
pub const TELEMETRY_SCHEMA: u32 = 1;

/// Default fsync batch for the telemetry log when the campaign did not
/// choose a journal batch (`--checkpoint-every`) to inherit.
pub const DEFAULT_TELEMETRY_BATCH: usize = 64;

/// The telemetry sidecar of a store: `store.json` →
/// `store.json.telemetry`.
pub fn telemetry_path(store: &Path) -> PathBuf {
    let mut name = store.file_name().unwrap_or_default().to_os_string();
    name.push(".telemetry");
    store.with_file_name(name)
}

/// "Now" in Unix epoch milliseconds — the sidecar's timestamp unit.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// One cell's aggregated telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEntry {
    /// Scenario id (recorded per line so consumers can aggregate by
    /// scenario without joining against the store).
    pub scenario: String,
    /// Fresh executions recorded.
    pub runs: u64,
    /// Total measured wall-clock time of those executions, in
    /// nanoseconds.
    pub wall_ns: f64,
    /// Most recent access (fresh or memoized), Unix epoch milliseconds.
    pub last_hit_ms: u64,
}

/// The aggregated view of a telemetry sidecar: fingerprint → entry.
/// Loading replays the event log and folds repeated events per cell;
/// the in-memory aggregate is also directly constructible
/// ([`Telemetry::record_fresh`] / [`Telemetry::record_hit`]) for tests
/// and tools.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    entries: BTreeMap<String, TelemetryEntry>,
}

impl Telemetry {
    /// An empty aggregate.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Number of cells with any telemetry.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// One cell's aggregate, if any event was recorded for it.
    pub fn get(&self, fp: &str) -> Option<&TelemetryEntry> {
        self.entries.get(fp)
    }

    /// All entries, in fingerprint order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TelemetryEntry)> {
        self.entries.iter().map(|(fp, e)| (fp.as_str(), e))
    }

    /// A cell's most recent access, if recorded.
    pub fn last_hit_ms(&self, fp: &str) -> Option<u64> {
        self.entries.get(fp).map(|e| e.last_hit_ms)
    }

    /// Folds one event into the aggregate.
    fn record(&mut self, fp: &str, scenario: &str, runs: u64, wall_ns: f64, at_ms: u64) {
        let entry = self
            .entries
            .entry(fp.to_string())
            .or_insert_with(|| TelemetryEntry {
                scenario: scenario.to_string(),
                runs: 0,
                wall_ns: 0.0,
                last_hit_ms: 0,
            });
        entry.runs += runs;
        entry.wall_ns += wall_ns;
        entry.last_hit_ms = entry.last_hit_ms.max(at_ms);
    }

    /// Folds in one fresh execution of `wall` at `at_ms`.
    pub fn record_fresh(&mut self, fp: &str, scenario: &str, wall: Duration, at_ms: u64) {
        self.record(fp, scenario, 1, wall.as_nanos() as f64, at_ms);
    }

    /// Folds in one memoized hit at `at_ms` (access timestamp only).
    pub fn record_hit(&mut self, fp: &str, scenario: &str, at_ms: u64) {
        self.record(fp, scenario, 0, 0.0, at_ms);
    }

    /// Drops entries whose fingerprint fails `keep` (the GC pass prunes
    /// the sidecar alongside the store).
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.entries.retain(|fp, _| keep(fp));
    }

    /// Cells with at least one recorded fresh execution.
    pub fn executed_cells(&self) -> usize {
        self.entries.values().filter(|e| e.runs > 0).count()
    }

    /// Total measured wall-clock nanoseconds across every cell.
    pub fn total_wall_ns(&self) -> f64 {
        self.entries.values().map(|e| e.wall_ns).sum()
    }

    /// The mean measured wall-clock nanoseconds per fresh execution of
    /// one scenario's cells; `None` when no execution was recorded.
    pub fn scenario_wall_mean_ns(&self, scenario: &str) -> Option<f64> {
        let (runs, wall_ns) = self
            .entries
            .values()
            .filter(|e| e.scenario == scenario)
            .fold((0u64, 0.0f64), |(r, w), e| (r + e.runs, w + e.wall_ns));
        (runs > 0).then(|| wall_ns / runs as f64)
    }

    /// Loads and aggregates a sidecar; a missing file is an empty
    /// aggregate (telemetry is optional everywhere). A torn final line
    /// — a kill mid-append — is skipped; torn bytes anywhere earlier
    /// are real corruption and error, exactly like the journal.
    pub fn load(path: &Path) -> Result<Telemetry, ScenarioError> {
        let mut telemetry = Telemetry::new();
        if !path.exists() {
            return Ok(telemetry);
        }
        replay_sidecar_lines(path, &mut |doc| {
            if let Some(event) = parse_event(doc)? {
                telemetry.record(
                    &event.fp,
                    &event.scenario,
                    event.runs,
                    event.wall_ns,
                    event.at_ms,
                );
            }
            Ok(())
        })?;
        Ok(telemetry)
    }

    /// Loads the sidecar beside a store, if any.
    pub fn load_for_store(store: &Path) -> Result<Telemetry, ScenarioError> {
        Telemetry::load(&telemetry_path(store))
    }

    /// Rewrites a sidecar as its compacted aggregate: one line per
    /// fingerprint instead of the whole event history. Atomic + durable
    /// like a store save. (The GC pass uses this to prune entries of
    /// evicted cells; the result replays to the identical aggregate.)
    pub fn save_compacted(&self, path: &Path) -> Result<(), ScenarioError> {
        let mut text = String::new();
        for (fp, entry) in &self.entries {
            text.push_str(&event_line(
                fp,
                &entry.scenario,
                entry.runs,
                entry.wall_ns,
                entry.last_hit_ms,
            ));
            text.push('\n');
        }
        write_atomic(path, text.as_bytes())
    }
}

/// One parsed sidecar event.
struct Event {
    fp: String,
    scenario: String,
    runs: u64,
    wall_ns: f64,
    at_ms: u64,
}

/// Renders one event line (compact JSON, no trailing newline).
fn event_line(fp: &str, scenario: &str, runs: u64, wall_ns: f64, at_ms: u64) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Num(TELEMETRY_SCHEMA as f64)),
        ("fp".into(), Json::str(fp)),
        ("scenario".into(), Json::str(scenario)),
        ("runs".into(), Json::Num(runs as f64)),
        ("wall_ns".into(), Json::Num(wall_ns)),
        ("at_ms".into(), Json::Num(at_ms as f64)),
    ])
    .compact()
}

/// Parses one event line. `Ok(None)` means another telemetry schema
/// (skipped — old measurements are forgotten, not misread).
fn parse_event(doc: &Json) -> Result<Option<Event>, String> {
    let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
    if schema != TELEMETRY_SCHEMA {
        return Ok(None);
    }
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("event without {key}"));
    // A missing or non-numeric field is corruption (torn-tail rules
    // apply), but a negative or non-finite *value* is clamped to zero:
    // sidecars written before durations moved to the monotonic clock
    // can carry negative wall times from a wall-clock step, and one
    // stepped-clock line must not poison the whole aggregate.
    let num = |key: &str| {
        let v = field(key)?.as_f64().ok_or_else(|| format!("bad {key}"))?;
        Ok::<f64, String>(if v.is_finite() && v >= 0.0 { v } else { 0.0 })
    };
    Ok(Some(Event {
        fp: field("fp")?.as_str().ok_or("bad fp")?.to_string(),
        scenario: field("scenario")?
            .as_str()
            .ok_or("bad scenario")?
            .to_string(),
        runs: num("runs")? as u64,
        wall_ns: num("wall_ns")?,
        at_ms: num("at_ms")? as u64,
    }))
}

/// The append-only telemetry event log beside a store: one event per
/// JSON line, flushed on every append, fsync'd every `batch` events,
/// torn tail healed on open — the append-log machinery behind
/// [`crate::store::Journal`], pointed at the `.telemetry` sidecar. I/O
/// failures are sticky and surfaced by [`TelemetryLog::finish`], so the
/// executor's per-cell callback (called from worker threads) never has
/// to unwind.
#[derive(Debug)]
pub struct TelemetryLog {
    log: AppendLog,
}

impl TelemetryLog {
    /// Opens (creating if missing) the telemetry log beside
    /// `store_path`, fsyncing every `batch` appended events.
    pub fn open(store_path: &Path, batch: usize) -> Result<TelemetryLog, ScenarioError> {
        Ok(TelemetryLog {
            log: AppendLog::open(telemetry_path(store_path), batch)?,
        })
    }

    /// Attaches a span recorder: appends and fsync batches show up as
    /// `telemetry/append` / `telemetry/fsync` spans.
    pub fn observe(&mut self, obs: &crate::obs::Obs) {
        self.log.observe(obs, "telemetry");
    }

    /// Appends one fresh-execution event.
    pub fn record_fresh(&mut self, fp: &str, scenario: &str, wall: Duration, at_ms: u64) {
        self.log
            .append_line(&event_line(fp, scenario, 1, wall.as_nanos() as f64, at_ms));
    }

    /// Appends one memoized-hit event (access timestamp only).
    pub fn record_hit(&mut self, fp: &str, scenario: &str, at_ms: u64) {
        self.log
            .append_line(&event_line(fp, scenario, 0, 0.0, at_ms));
    }

    /// Final sync; surfaces the first I/O failure of the log's
    /// lifetime, if any.
    pub fn finish(self) -> Result<(), ScenarioError> {
        self.log.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harness-telemetry-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn events_aggregate_per_cell_and_per_scenario() {
        let mut t = Telemetry::new();
        t.record_fresh("aaaa", "s1", Duration::from_nanos(100), 10);
        t.record_hit("aaaa", "s1", 25);
        t.record_fresh("bbbb", "s1", Duration::from_nanos(300), 20);
        t.record_fresh("cccc", "s2", Duration::from_nanos(50), 5);
        t.record_hit("dddd", "s2", 7);
        assert_eq!(t.len(), 4);
        assert_eq!(t.last_hit_ms("aaaa"), Some(25));
        assert_eq!(t.get("aaaa").unwrap().runs, 1);
        assert_eq!(t.executed_cells(), 3);
        assert_eq!(t.total_wall_ns(), 450.0);
        assert_eq!(t.scenario_wall_mean_ns("s1"), Some(200.0));
        assert_eq!(t.scenario_wall_mean_ns("s2"), Some(50.0));
        assert_eq!(t.scenario_wall_mean_ns("absent"), None);
        // A hit-only cell contributes no mean (dddd alone would divide
        // by zero runs).
        let mut hits_only = Telemetry::new();
        hits_only.record_hit("dddd", "s3", 7);
        assert_eq!(hits_only.scenario_wall_mean_ns("s3"), None);
    }

    #[test]
    fn log_round_trips_through_load() {
        let dir = tempdir("roundtrip");
        let store = dir.join("store.json");
        let mut log = TelemetryLog::open(&store, 2).unwrap();
        log.record_fresh("aaaa", "s", Duration::from_micros(3), 100);
        log.record_hit("aaaa", "s", 200);
        log.record_fresh("bbbb", "s", Duration::from_micros(1), 150);
        log.finish().unwrap();
        let t = Telemetry::load_for_store(&store).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("aaaa").unwrap().wall_ns, 3000.0);
        assert_eq!(t.last_hit_ms("aaaa"), Some(200));
        assert_eq!(t.get("bbbb").unwrap().runs, 1);
        // Missing sidecar loads empty.
        assert!(Telemetry::load_for_store(&dir.join("other.json"))
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped_on_load_and_healed_on_open() {
        let dir = tempdir("torn");
        let store = dir.join("store.json");
        let mut log = TelemetryLog::open(&store, 1).unwrap();
        log.record_fresh("aaaa", "s", Duration::from_nanos(10), 1);
        log.finish().unwrap();
        let path = telemetry_path(&store);
        let mut text = std::fs::read_to_string(&path).unwrap();
        let complete = text.clone();
        text.push_str("{\"schema\":1,\"fp\":\"to");
        std::fs::write(&path, &text).unwrap();
        // Load skips the torn tail.
        let t = Telemetry::load(&path).unwrap();
        assert_eq!(t.len(), 1);
        // Re-opening heals it: the torn bytes are truncated away.
        let log = TelemetryLog::open(&store, 1).unwrap();
        log.finish().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), complete);
        // The same garbage mid-file is corruption, not a torn tail.
        let mut torn_middle = String::from("{\"schema\":1,\"fp\":\"to\n");
        torn_middle.push_str(&complete);
        std::fs::write(&path, &torn_middle).unwrap();
        assert!(Telemetry::load(&path).is_err());
        // Lines of another schema are skipped, not misread.
        std::fs::write(&path, "{\"schema\":99,\"fp\":\"aaaa\"}\n").unwrap();
        assert!(Telemetry::load(&path).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_or_nonfinite_durations_clamp_instead_of_poisoning() {
        let dir = tempdir("clamp");
        let path = dir.join("store.json.telemetry");
        // An old sidecar whose first line recorded a negative duration
        // across a wall-clock step, mid-file (so no torn-tail leniency
        // applies), plus NaN/∞ variants.
        std::fs::write(
            &path,
            concat!(
                "{\"schema\":1,\"fp\":\"aaaa\",\"scenario\":\"s\",\"runs\":1,\"wall_ns\":-5000,\"at_ms\":10}\n",
                "{\"schema\":1,\"fp\":\"aaaa\",\"scenario\":\"s\",\"runs\":1,\"wall_ns\":1e999,\"at_ms\":20}\n",
                "{\"schema\":1,\"fp\":\"bbbb\",\"scenario\":\"s\",\"runs\":1,\"wall_ns\":250,\"at_ms\":30}\n",
            ),
        )
        .unwrap();
        let t = Telemetry::load(&path).unwrap();
        assert_eq!(t.len(), 2);
        // Clamped to zero, not dropped: the runs still count, the bad
        // durations contribute nothing.
        assert_eq!(t.get("aaaa").unwrap().runs, 2);
        assert_eq!(t.get("aaaa").unwrap().wall_ns, 0.0);
        assert_eq!(t.last_hit_ms("aaaa"), Some(20));
        assert_eq!(t.get("bbbb").unwrap().wall_ns, 250.0);
        // A missing numeric field is still corruption mid-file.
        std::fs::write(
            &path,
            concat!(
                "{\"schema\":1,\"fp\":\"aaaa\",\"scenario\":\"s\",\"runs\":1,\"at_ms\":10}\n",
                "{\"schema\":1,\"fp\":\"bbbb\",\"scenario\":\"s\",\"runs\":1,\"wall_ns\":250,\"at_ms\":30}\n",
            ),
        )
        .unwrap();
        assert!(Telemetry::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_the_aggregate_and_prunes_retained() {
        let dir = tempdir("compact");
        let store = dir.join("store.json");
        let mut log = TelemetryLog::open(&store, 1).unwrap();
        for at in [10, 20, 30] {
            log.record_fresh("aaaa", "s", Duration::from_nanos(100), at);
        }
        log.record_hit("bbbb", "s", 40);
        log.finish().unwrap();
        let path = telemetry_path(&store);
        let mut t = Telemetry::load(&path).unwrap();
        t.retain(|fp| fp != "bbbb");
        t.save_compacted(&path).unwrap();
        let back = Telemetry::load(&path).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.len(), 1);
        assert_eq!(back.get("aaaa").unwrap().runs, 3);
        assert_eq!(back.get("aaaa").unwrap().wall_ns, 300.0);
        assert_eq!(back.last_hit_ms("aaaa"), Some(30));
        // One line per fingerprint after compaction.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
