//! One campaign session: the persistence policy around one executor run.
//!
//! A cell counts as evidence only once it is persisted, so every runner
//! — `campaign run`/`report`, `shard`, `shard --steal` and a served
//! `submit` — goes through [`Session::run`]. A session with a store
//! follows one rule: the store on disk is its checkpoint plus its
//! journal. It opens a [`CompactingJournal`] beside the store (and a
//! [`TelemetryLog`] when asked), hands the runner
//! `(&mut ResultStore, ExecHooks)` (so one session drives
//! [`crate::exec::run_campaign_with`], [`crate::dist::run_shard_with`]
//! and [`crate::dist::steal::run_shard_stealing`] alike), and then,
//! whatever the runner returned, persists before returning it: it
//! finishes the telemetry log (a failure is a warning, never an error),
//! then finishes the journal and checkpoints. A run killed before that
//! leaves its completed cells in the journal, and the next open
//! ([`ResultStore::open_resumable`]) replays them; a failing cell stays
//! contained, because the executor assembles every completed sibling
//! into the store before reporting the error, so a retry memoizes them.
//!
//! Opening the store stays with the caller, as does what it does with
//! the persisted store afterwards.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{LockResult, Mutex, PoisonError};

use crate::exec::{CellEvent, ExecHooks, ResultSink};
use crate::obs::Obs;
use crate::scenario::ScenarioError;
use crate::store::{CompactingJournal, ResultStore, StoredCell};
use crate::telemetry::{now_ms, TelemetryLog};

/// Lines between fsyncs of the journal and the telemetry sidecar. A
/// SIGKILL loses only a torn final line whatever the batch (every line
/// is written unbuffered); the batch bounds what a power loss or an OS
/// crash can lose.
const JOURNAL_BATCH: usize = 16;

/// How one campaign run persists its store.
#[derive(Default)]
pub struct Session<'a> {
    /// The store's file; `None` keeps the run in memory (no journal,
    /// no sidecar, nothing saved).
    pub store: Option<&'a Path>,
    /// Fold the journal into the checkpoint mid-run once it outgrows
    /// this many lines (see [`CompactingJournal`]).
    pub compact_over: Option<usize>,
    /// Append every successful cell's wall clock to the telemetry
    /// sidecar.
    pub telemetry: bool,
    /// Span recorder for the executor, the journal and the sidecar.
    pub obs: Option<&'a Obs>,
    /// The caller's own per-cell consumer (`--progress`, serve job
    /// progress), called after the telemetry sink.
    pub on_cell: Option<&'a (dyn Fn(CellEvent<'_>) + Sync)>,
    /// Cooperative cancellation, passed through to the executor.
    pub cancel: Option<&'a AtomicBool>,
}

/// What [`Session::run`] persisted, and the runner's own result.
#[derive(Debug)]
pub struct Persisted<T> {
    /// The runner's result. On an error too, the store on disk holds
    /// every cell completed before it.
    pub outcome: Result<T, ScenarioError>,
    /// Mid-run journal compactions.
    pub compactions: usize,
    /// Why the telemetry sidecar is incomplete, if it is.
    pub telemetry_warning: Option<String>,
}

impl Session<'_> {
    /// Runs `runner` against `store` with the session's hooks, then
    /// persists. `store` must be what [`ResultStore::open_resumable`]
    /// returned (the checkpoint plus any replayed journal cells): a
    /// mid-run compaction writes it with the fresh cells. The returned
    /// error is a failure to open or persist; the runner's own result
    /// is [`Persisted::outcome`].
    pub fn run<T>(
        &self,
        store: &mut ResultStore,
        runner: impl FnOnce(&mut ResultStore, ExecHooks<'_>) -> Result<T, ScenarioError>,
    ) -> Result<Persisted<T>, ScenarioError> {
        let journal = match self.store {
            Some(path) => {
                let mut journal =
                    CompactingJournal::open(path, JOURNAL_BATCH, self.compact_over, store)?;
                if let Some(obs) = self.obs {
                    journal.observe(obs);
                }
                Some(Mutex::new(journal))
            }
            None => None,
        };
        let telemetry = match (self.store, self.telemetry) {
            (Some(path), true) => {
                let mut log = TelemetryLog::open(path, JOURNAL_BATCH)?;
                if let Some(obs) = self.obs {
                    log.observe(obs);
                }
                Some(Mutex::new(log))
            }
            _ => None,
        };
        let journal_sink = |fp: &str, cell: &StoredCell| {
            if let Some(journal) = &journal {
                unpoison(journal.lock()).append(fp, cell);
            }
        };
        let cell_sink = |e: CellEvent<'_>| {
            if let (Some(log), false) = (&telemetry, e.failed) {
                let mut log = unpoison(log.lock());
                match e.wall {
                    Some(wall) => log.record_fresh(e.fingerprint, e.scenario, wall, now_ms()),
                    None => log.record_hit(e.fingerprint, e.scenario, now_ms()),
                }
            }
            if let Some(on_cell) = self.on_cell {
                on_cell(e);
            }
        };
        let hooks = ExecHooks {
            on_cell: (telemetry.is_some() || self.on_cell.is_some())
                .then_some(&cell_sink as &(dyn Fn(CellEvent<'_>) + Sync)),
            on_result: journal.is_some().then_some(&journal_sink as ResultSink<'_>),
            obs: self.obs,
            cancel: self.cancel,
        };
        let outcome = runner(store, hooks);

        let telemetry_warning = telemetry.and_then(|log| unpoison(log.into_inner()).finish().err());
        let mut compactions = 0;
        if let (Some(path), Some(journal)) = (self.store, journal) {
            compactions = unpoison(journal.into_inner()).finish()?;
            store.checkpoint_observed(path, self.obs)?;
        }
        Ok(Persisted {
            outcome,
            compactions,
            telemetry_warning: telemetry_warning.map(|e| e.to_string()),
        })
    }
}

/// Takes a lock's guard (or inner value) even when the lock is
/// poisoned. Every critical section on the session's sidecars and on
/// serve's state (appends, counter bumps, queue and ring pushes, record
/// inserts, `Arc` swaps) leaves the state valid at each step, so a
/// thread that panics while holding one leaves it usable.
pub(crate) fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_campaign_with, CellDomain, ExecConfig};
    use crate::matrix::Filter;
    use crate::registry::Registry;
    use crate::scenario::{Axis, CellResult, Params, Scenario, ScenarioSpec};
    use crate::store::journal_path;
    use crate::telemetry::Telemetry;
    use std::path::PathBuf;

    /// Errors on the cell `a=2`; succeeds on `a=1` and `a=3`.
    struct Flaky;

    impl Scenario for Flaky {
        fn spec(&self) -> ScenarioSpec {
            ScenarioSpec {
                id: "flaky",
                version: 1,
                title: "flaky",
                source_crate: "harness",
                property: "p",
                uncertainty: "u",
                quality: "q",
                catalog_id: None,
                content_digest: None,
                axes: vec![Axis::new("a", [1, 2, 3])],
                headline_metric: "value",
                smaller_is_better: true,
            }
        }

        fn run(&self, params: &Params, _seed: u64) -> Result<CellResult, ScenarioError> {
            match params.get_u64("a")? {
                2 => Err(ScenarioError::BadParam {
                    axis: "a".into(),
                    value: "2".into(),
                }),
                a => Ok(CellResult::new(vec![("value", a as f64)])),
            }
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harness-session-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failing_cell_persists_its_siblings() {
        let mut registry = Registry::empty();
        registry.register(Box::new(Flaky));
        let config = ExecConfig {
            threads: 1,
            seed: 5,
            ..ExecConfig::default()
        };
        let dir = tempdir("flaky");
        let path = dir.join("store.json");
        let events = Mutex::new(Vec::new());
        let on_cell = |e: CellEvent<'_>| {
            events.lock().unwrap().push((
                e.fingerprint.to_string(),
                e.failed,
                e.wall.is_some(),
                e.executed + e.memoized,
            ));
        };
        let session = Session {
            store: Some(&path),
            telemetry: true,
            on_cell: Some(&on_cell),
            ..Session::default()
        };
        let run = |journal_lines: &mut Option<Vec<String>>| {
            let opened = ResultStore::open_resumable(&path, "run", None).unwrap();
            let (mut store, _lock) = (opened.store, opened.lock);
            session
                .run(&mut store, |store, hooks| {
                    let outcome = run_campaign_with(
                        &registry,
                        &[],
                        &Filter::all(),
                        &config,
                        store,
                        CellDomain::All,
                        hooks,
                    );
                    // The journal as the run left it, before the
                    // session compacts it into the checkpoint.
                    *journal_lines = std::fs::read_to_string(journal_path(&path))
                        .ok()
                        .map(|text| text.lines().map(str::to_string).collect());
                    outcome
                })
                .unwrap()
                .outcome
        };

        let mut journal_lines = None;
        let err = run(&mut journal_lines).unwrap_err();
        assert!(matches!(err, ScenarioError::BadParam { .. }), "{err}");
        // One event per cell, the failed one flagged and counted.
        let seen = std::mem::take(&mut *events.lock().unwrap());
        assert_eq!(seen.len(), 3);
        assert_eq!(seen.iter().map(|e| e.3).collect::<Vec<_>>(), [1, 2, 3]);
        let failed: Vec<_> = seen.iter().filter(|e| e.1).collect();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].2, "a failed evaluation was still timed");
        let failed_fp = failed[0].0.clone();

        // The successful siblings are on disk; nothing else is.
        let reloaded = ResultStore::load(&path).unwrap();
        let mut values: Vec<f64> = reloaded
            .iter()
            .map(|(_, cell)| cell.result.metric("value").unwrap())
            .collect();
        values.sort_by(f64::total_cmp);
        assert_eq!(values, [1.0, 3.0]);
        assert!(reloaded.get_by_fingerprint(&failed_fp).is_none());
        assert!(!journal_path(&path).exists(), "no journal left behind");
        // The run journaled both siblings, and only them.
        let lines = journal_lines.expect("a stored run journals");
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| !l.contains(&failed_fp)));
        let telemetry = Telemetry::load_for_store(&path).unwrap();
        assert_eq!(telemetry.executed_cells(), 2);
        assert!(telemetry.get(&failed_fp).is_none());

        // A rerun memoizes both siblings and retries the failure.
        let err = run(&mut None).unwrap_err();
        assert!(matches!(err, ScenarioError::BadParam { .. }));
        let seen = events.into_inner().unwrap();
        let hits = seen.iter().filter(|e| !e.2).count();
        assert_eq!(hits, 2, "the persisted siblings are memo hits");
        std::fs::remove_dir_all(&dir).ok();
    }
}
