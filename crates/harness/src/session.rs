//! One campaign session: the persistence policy around one executor run.
//!
//! A cell counts as evidence only once it is persisted, so every runner
//! — `campaign run`/`report`, `shard`, `shard --steal` and a served
//! `submit` — goes through [`Session::run`]. A session with a store
//! follows one rule: the store on disk is its checkpoint plus its
//! journal. It opens a [`Journal`] beside the store, hands
//! the runner `(&mut ResultStore, ExecHooks)` (so one session drives
//! [`crate::exec::run_campaign_with`], [`crate::dist::run_shard_with`]
//! and [`crate::dist::steal::run_shard_stealing`] alike), and then,
//! whatever the runner returned, persists before returning it: it
//! finishes the journal and checkpoints. A run killed before that
//! leaves its completed cells in the journal, and the next open
//! ([`ResultStore::open_resumable`]) replays them; a failing cell (an
//! error or a panic) stays contained, because the executor assembles
//! every completed sibling into the store before reporting the error,
//! so a retry memoizes them. Cell times are not persisted: they live
//! in the `--trace` file, one `cell` span per executed cell.
//!
//! Opening the store stays with the caller, as does what it does with
//! the persisted store afterwards.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{LockResult, Mutex, PoisonError};

use crate::exec::{CellEvent, ExecHooks, ResultSink};
use crate::obs::Obs;
use crate::scenario::ScenarioError;
use crate::store::{Journal, ResultStore, StoredCell};

/// Lines between journal fsyncs. A SIGKILL loses only a torn final
/// line whatever the batch (every line is written unbuffered); the
/// batch bounds what a power loss or an OS crash can lose.
const JOURNAL_BATCH: usize = 16;

/// How one campaign run persists its store.
#[derive(Default)]
pub struct Session<'a> {
    /// The store's file; `None` keeps the run in memory (no journal,
    /// nothing saved).
    pub store: Option<&'a Path>,
    /// Span recorder for the executor and the journal.
    pub obs: Option<&'a Obs>,
    /// The caller's own per-cell consumer (`--progress`, serve job
    /// progress).
    pub on_cell: Option<&'a (dyn Fn(CellEvent) + Sync)>,
    /// Cooperative cancellation, passed through to the executor.
    pub cancel: Option<&'a AtomicBool>,
}

impl Session<'_> {
    /// Runs `runner` against `store` with the session's hooks, then
    /// persists. `store` must be what [`ResultStore::open_resumable`]
    /// returned (the checkpoint plus any replayed journal cells). The
    /// outer error is a failure to open or persist; the inner result is
    /// the runner's own, and on an error too the store on disk holds
    /// every cell completed before it.
    pub fn run<T>(
        &self,
        store: &mut ResultStore,
        runner: impl FnOnce(&mut ResultStore, ExecHooks<'_>) -> Result<T, ScenarioError>,
    ) -> Result<Result<T, ScenarioError>, ScenarioError> {
        let journal = match self.store {
            Some(path) => {
                let mut journal = Journal::open(path, JOURNAL_BATCH)?;
                if let Some(obs) = self.obs {
                    journal.observe(obs);
                }
                Some(Mutex::new(journal))
            }
            None => None,
        };
        let journal_sink = |fp: &str, cell: &StoredCell| {
            if let Some(journal) = &journal {
                unpoison(journal.lock()).append(fp, cell);
            }
        };
        let hooks = ExecHooks {
            on_cell: self.on_cell,
            on_result: journal.is_some().then_some(&journal_sink as ResultSink<'_>),
            obs: self.obs,
            cancel: self.cancel,
        };
        let outcome = runner(store, hooks);

        if let (Some(path), Some(journal)) = (self.store, journal) {
            unpoison(journal.into_inner()).finish()?;
            store.checkpoint_observed(path, self.obs)?;
        }
        Ok(outcome)
    }
}

/// Takes a lock's guard (or inner value) even when the lock is
/// poisoned. Every critical section on the session's journal and on
/// serve's state (appends, counter bumps, queue and ring pushes, record
/// inserts, `Arc` swaps) leaves the state valid at each step, so a
/// thread that panics while holding one leaves it usable.
pub(crate) fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{self, LeaseDir};
    use crate::exec::{run_campaign_with, CellDomain, ExecConfig};
    use crate::matrix::Filter;
    use crate::registry::Registry;
    use crate::scenario::{Axis, CellResult, Params, Scenario, ScenarioSpec};
    use crate::store::journal_path;
    use std::path::PathBuf;

    /// How the `Flaky` cell `a=2` fails.
    #[derive(Clone, Copy)]
    enum Failure {
        Error,
        Panic,
        /// A NaN metric after a finite one.
        NonFinite,
    }

    /// Fails on the cell `a=2`; succeeds on `a=1` and `a=3`.
    struct Flaky {
        failure: Failure,
    }

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
            match (params.get_u64("a")?, self.failure) {
                (2, Failure::Error) => Err(ScenarioError::BadParam {
                    axis: "a".into(),
                    value: "2".into(),
                }),
                (2, Failure::Panic) => panic!("cell a=2 blew up"),
                (2, Failure::NonFinite) => {
                    Ok(CellResult::new(vec![("value", 2.0), ("ratio", f64::NAN)]))
                }
                (a, _) => Ok(CellResult::new(vec![("value", a as f64)])),
            }
        }
    }

    /// What drives the flaky campaign inside the session.
    #[derive(Clone, Copy, Debug)]
    enum Runner {
        /// One executor run over the whole matrix (`campaign run`).
        Campaign,
        /// Shard 0 of 1 claiming chunk by chunk (`shard --steal`), from
        /// a fresh lease directory each run: a failed chunk's lease is
        /// never released, so a retry clears the directory.
        Steal,
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harness-session-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// What one stored session run of the flaky campaign saw.
    struct FlakyRun {
        error: ScenarioError,
        /// `(executed, memoized)` of every cell event.
        events: Vec<(usize, usize)>,
        /// The journal as the run left it, before the session folded
        /// it into the checkpoint.
        journal_lines: Vec<String>,
    }

    fn run_flaky(path: &Path, failure: Failure, threads: usize, runner: Runner) -> FlakyRun {
        let mut registry = Registry::empty();
        registry.register(Box::new(Flaky { failure }));
        let config = ExecConfig {
            threads,
            seed: 5,
            ..ExecConfig::default()
        };
        let events = Mutex::new(Vec::new());
        let on_cell = |e: CellEvent| events.lock().unwrap().push((e.executed, e.memoized));
        let session = Session {
            store: Some(path),
            on_cell: Some(&on_cell),
            ..Session::default()
        };
        let opened = ResultStore::open_resumable(path, "run", None).unwrap();
        let (mut store, _lock) = (opened.store, opened.lock);
        let mut journal_lines = Vec::new();
        let outcome = session
            .run(&mut store, |store, hooks| {
                let outcome = match runner {
                    Runner::Campaign => run_campaign_with(
                        &registry,
                        &[],
                        &Filter::all(),
                        &config,
                        store,
                        CellDomain::All,
                        hooks,
                    )
                    .map(drop),
                    Runner::Steal => {
                        let manifest = dist::plan(&registry, &[], &[], config.seed, 1, 1).unwrap();
                        let lease_dir = path.with_extension("leases");
                        std::fs::remove_dir_all(&lease_dir).ok();
                        let leases = LeaseDir::open(&lease_dir, &manifest).unwrap();
                        dist::run_shard_stealing(
                            &registry, &manifest, 0, threads, store, &leases, hooks,
                        )
                        .map(drop)
                    }
                };
                journal_lines = std::fs::read_to_string(journal_path(path))
                    .expect("a stored run journals")
                    .lines()
                    .map(str::to_string)
                    .collect();
                outcome
            })
            .unwrap();
        FlakyRun {
            error: outcome.expect_err("the a=2 cell fails"),
            events: events.into_inner().unwrap(),
            journal_lines,
        }
    }

    /// Runs the flaky campaign twice into one store, as a plain run
    /// and as a `shard --steal` sweep at 1 and 2 threads each, and
    /// checks that the failing cell never reaches the disk while its
    /// siblings do, then memoize. Returns the error, which every runner
    /// reports alike.
    fn failed_cell_is_contained(tag: &str, failure: Failure) -> ScenarioError {
        let mut errors = Vec::new();
        for runner in [Runner::Campaign, Runner::Steal] {
            for threads in [1, 2] {
                let dir = tempdir(&format!("{tag}-{runner:?}{threads}"));
                let path = dir.join("store.json");
                let first = run_flaky(&path, failure, threads, runner);
                // One event per cell, the failed one counted as executed.
                assert_eq!(first.events.len(), 3);
                assert_eq!(first.events.iter().max(), Some(&(3, 0)));

                // The successful siblings are on disk; nothing else is.
                let reloaded = ResultStore::load(&path).unwrap();
                let mut values: Vec<f64> = reloaded
                    .iter()
                    .map(|(_, cell)| cell.result.metric("value").unwrap())
                    .collect();
                values.sort_by(f64::total_cmp);
                assert_eq!(values, [1.0, 3.0]);
                assert!(!journal_path(&path).exists(), "no journal left behind");
                // The run journaled both siblings, and only them.
                assert_eq!(first.journal_lines.len(), 2);
                assert!(first.journal_lines.iter().all(|l| !l.contains("a=2")));

                // A rerun memoizes both siblings and retries the failed cell.
                let again = run_flaky(&path, failure, threads, runner);
                assert_eq!(again.error, first.error);
                let max_executed = again.events.iter().map(|e| e.0).max();
                let max_memoized = again.events.iter().map(|e| e.1).max();
                assert_eq!((max_executed, max_memoized), (Some(1), Some(2)));
                std::fs::remove_dir_all(&dir).ok();
                errors.push(first.error);
            }
        }
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "{errors:?}");
        errors.pop().unwrap()
    }

    #[test]
    fn failing_cell_persists_its_siblings() {
        let err = failed_cell_is_contained("flaky", Failure::Error);
        assert_eq!(
            err,
            ScenarioError::BadParam {
                axis: "a".into(),
                value: "2".into(),
            }
        );
    }

    #[test]
    fn panicking_cell_persists_its_siblings() {
        let err = failed_cell_is_contained("panicky", Failure::Panic);
        let ScenarioError::Panicked {
            scenario,
            params,
            message,
        } = &err
        else {
            panic!("expected a contained panic, got {err}");
        };
        assert_eq!((scenario.as_str(), params.as_str()), ("flaky", "a=2"));
        assert_eq!(message, "cell a=2 blew up");
        assert!(err.to_string().contains("`flaky` panicked on cell a=2"));
    }

    #[test]
    fn non_finite_metric_cell_persists_its_siblings() {
        let err = failed_cell_is_contained("nonfinite", Failure::NonFinite);
        assert_eq!(
            err,
            ScenarioError::NonFiniteMetric {
                scenario: "flaky".into(),
                params: "a=2".into(),
                metric: "ratio".into(),
            }
        );
        assert_eq!(
            err.to_string(),
            "scenario `flaky` gave non-finite metric `ratio` on cell a=2"
        );
    }
}
