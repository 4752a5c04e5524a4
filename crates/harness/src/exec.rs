//! The streaming parallel campaign executor.
//!
//! A campaign is a deterministic function of `(selected scenarios,
//! filter, campaign seed)` — never of thread count or scheduling. The
//! cell order is fixed up front by the campaign's [`CampaignSpace`]:
//! workers pull raw global indices from a shared cursor and decode each
//! one on the fly — filter check and store lookup included. Every
//! worker accumulates its outcomes in a private slot buffer (no shared
//! mutex on the hot path); the buffers are merged and sorted by global
//! index afterwards, so the assembled campaign is
//! identical whether one thread ran it or sixteen. [`ExecHooks`] expose
//! the stream as it happens: one [`CellEvent`] per completed cell
//! (`--progress` and serve job progress consume it), a result sink that
//! feeds the crash-resume journal, and a `cell` trace span per executed
//! cell — the one place a cell's wall time is recorded. Opening,
//! finishing and checkpointing the journal around a run is
//! [`crate::session`]'s job.
//!
//! A cell that panics is contained like a cell that errors: the panic
//! is caught at the cell and becomes [`ScenarioError::Panicked`], so
//! its siblings still complete and persist. So is a cell with a NaN or
//! infinite metric ([`ScenarioError::NonFiniteMetric`]), which no
//! store could load back.

use crate::matrix::Filter;
use crate::registry::Registry;
use crate::scenario::{CellResult, Params, ScenarioError};
use crate::space::{CampaignSpace, Cell};
use crate::store::{ResultStore, StoredCell};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Campaign-level knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads (1 = run inline on the caller).
    pub threads: usize,
    /// The campaign seed every cell seed derives from.
    pub seed: u64,
    /// Replicates per base cell (`1` = today's behavior, byte for
    /// byte). Above one, every scenario matrix is multiplied by a
    /// fastest-varying `rep` axis; each replicate runs under
    /// [`crate::expect::replicate_seed`] and a full-domain run folds
    /// the outcomes into distribution metrics keyed by the base
    /// fingerprint.
    pub replicates: u32,
    /// Keep the raw per-replicate cells in the store next to the fold
    /// cells (default: the fold replaces them).
    pub keep_replicates: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            seed: 0,
            replicates: 1,
            keep_replicates: false,
        }
    }
}

/// One evaluated cell of a finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Scenario id.
    pub scenario: String,
    /// Cell coordinates.
    pub params: Params,
    /// The derived cell seed.
    pub seed: u64,
    /// Measured metrics.
    pub result: CellResult,
    /// True if the result came from the store without executing.
    pub memoized: bool,
}

/// A finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The campaign seed.
    pub seed: u64,
    /// All cells, in deterministic order. For a replicated full-domain
    /// run these are the *fold* cells (one per base cell, distribution
    /// metrics); `executed`/`memoized` still count raw replicates.
    pub cells: Vec<CampaignCell>,
    /// Cells actually executed this run.
    pub executed: usize,
    /// Cells resolved from the store.
    pub memoized: usize,
    /// Replicates per base cell the campaign ran with (1 = unfolded).
    pub replicates: u32,
}

/// The cell domain one executor invocation sweeps, expressed over the
/// campaign's global index space ([`CampaignSpace`]).
#[derive(Debug, Clone, Copy)]
pub enum CellDomain<'a> {
    /// Every matching cell.
    All,
    /// Explicit index ranges into the global lazy space: a static shard
    /// runs the ranges of its initial-lease chunks in one call, and the
    /// work-stealing lease protocol one claimed chunk range at a time.
    /// Ranges must be in bounds and ascending-disjoint for the
    /// assembled cell order to stay deterministic.
    Ranges(&'a [Range<usize>]),
}

/// The progress counts after one completed cell — freshly executed,
/// failed or memoized — as the executor hands them to
/// [`ExecHooks::on_cell`]. They let a consumer track true completion
/// (`executed + memoized` out of `total`), not just fresh work.
#[derive(Debug, Clone, Copy)]
pub struct CellEvent {
    /// Fresh cells completed so far in this invocation, this one
    /// included when it executed.
    pub executed: usize,
    /// Memo hits seen so far in this invocation, this one included
    /// when it was a hit.
    pub memoized: usize,
    /// Lazy cells in the swept domain (an upper bound on work: filtered
    /// cells are scanned but never executed).
    pub total: usize,
}

/// A per-result sink: `(fingerprint, stored cell)` for every fresh
/// successful cell, as it completes.
pub type ResultSink<'a> = &'a (dyn Fn(&str, &StoredCell) + Sync);

/// Observability hooks into the execution stream. All callbacks are
/// invoked from worker threads as cells complete; all default to
/// no-ops.
#[derive(Clone, Copy, Default)]
pub struct ExecHooks<'a> {
    /// Called once per completed cell — fresh, failed or memoized —
    /// with its [`CellEvent`]. Invocation order across cells is
    /// scheduling-dependent; every consumer (`--progress`, serve job
    /// progress) only shows the counts, so none cares.
    pub on_cell: Option<&'a (dyn Fn(CellEvent) + Sync)>,
    /// Called with every fresh *successful* result as it completes,
    /// before the campaign is assembled — the crash-resume journal
    /// sink. Invocation order across cells is scheduling-dependent; the
    /// journal is a set, so replay does not care.
    pub on_result: Option<ResultSink<'a>>,
    /// Span/counter recorder ([`crate::obs`]): when set, the executor
    /// records `plan`, `worker`, `decode`, `memo` and `cell` spans plus
    /// memo-hit/miss and cells-executed counters. Purely observational
    /// — attaching it never changes campaign results or store bytes.
    pub obs: Option<&'a crate::obs::Obs>,
    /// Cooperative cancellation: when the flag flips to `true`, workers
    /// stop pulling new cells after finishing the one in hand and the
    /// run returns [`ScenarioError::Cancelled`]. Every cell completed
    /// before the cancel is still assembled into the store (and was
    /// already offered to `on_result`), so a cancelled campaign resumes
    /// from its journal with zero recompute — the graceful-shutdown
    /// path of a long-running submit scheduler.
    pub cancel: Option<&'a std::sync::atomic::AtomicBool>,
}

/// Test/CI hook: `CAMPAIGN_CELL_DELAY_MS` sleeps after every freshly
/// executed cell, inside its `cell` span, turning any shard into an
/// artificially slow one (the work-stealing, crash-resume and
/// one-writer suites race against it). Unset or unparseable means no
/// delay.
fn cell_delay() -> std::time::Duration {
    std::time::Duration::from_millis(
        std::env::var("CAMPAIGN_CELL_DELAY_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    )
}

/// Runs the selected scenarios' filtered matrices.
///
/// `select` lists scenario ids (empty = every registered scenario;
/// repeated ids are deduplicated, first occurrence wins the order).
/// Memoized cells are taken from `store`; fresh results are inserted
/// into it. Scenario errors (panics and non-finite metrics included,
/// as [`ScenarioError::Panicked`] and
/// [`ScenarioError::NonFiniteMetric`]) abort the campaign
/// deterministically (the error of the lowest-indexed failing cell
/// wins).
pub fn run_campaign(
    registry: &Registry,
    select: &[String],
    filter: &Filter,
    config: &ExecConfig,
    store: &mut ResultStore,
) -> Result<Campaign, ScenarioError> {
    run_campaign_with(
        registry,
        select,
        filter,
        config,
        store,
        CellDomain::All,
        ExecHooks::default(),
    )
}

/// What one scanned lazy index produced: either a store hit or a fresh
/// evaluation. Each matching cell gets exactly one slot, owned by the
/// worker that scanned it — the lock-free replacement for the old
/// shared `Mutex<Vec<Option<Outcome>>>` funnel.
enum SlotOutcome {
    Memoized,
    Fresh(Result<CellResult, ScenarioError>),
}

struct Slot {
    cell: Cell,
    outcome: SlotOutcome,
}

/// The full-featured executor entry point: [`run_campaign`] over an
/// explicit [`CellDomain`] with [`ExecHooks`]. Everything else is a
/// wrapper around this.
pub fn run_campaign_with(
    registry: &Registry,
    select: &[String],
    filter: &Filter,
    config: &ExecConfig,
    store: &mut ResultStore,
    domain: CellDomain<'_>,
    hooks: ExecHooks<'_>,
) -> Result<Campaign, ScenarioError> {
    let plan_span = hooks.obs.map(|o| o.span("plan", "exec"));
    let space = CampaignSpace::new(registry, select, filter, config.seed, config.replicates)?;
    let total = space.total();
    let whole = 0..total;
    let ranges: &[Range<usize>] = match domain {
        CellDomain::All => std::slice::from_ref(&whole),
        CellDomain::Ranges(r) => r,
    };
    for range in ranges {
        if range.start > range.end || range.end > total {
            return Err(ScenarioError::Dist(format!(
                "cell range {}..{} out of bounds (campaign has {total} lazy cells)",
                range.start, range.end
            )));
        }
    }
    // Ascending-disjoint, as the CellDomain contract promises:
    // overlapping or out-of-order ranges would silently duplicate
    // cells in the assembled campaign (and the journal).
    for pair in ranges.windows(2) {
        if pair[1].start < pair[0].end {
            return Err(ScenarioError::Dist(format!(
                "cell ranges {}..{} and {}..{} must be ascending and disjoint",
                pair[0].start, pair[0].end, pair[1].start, pair[1].end
            )));
        }
    }
    let scan_len: usize = ranges.iter().map(ExactSizeIterator::len).sum();
    drop(plan_span);

    let cursor = AtomicUsize::new(0);
    let executed_cells = AtomicUsize::new(0);
    let memo_cells = AtomicUsize::new(0);
    let workers = config.threads.max(1).min(scan_len.max(1));
    let delay = cell_delay();

    // Phase 1 — parallel streaming scan. The store is a shared
    // read-only view here; fresh results land in per-worker slot
    // buffers and are folded into the store in phase 2.
    let mut slots: Vec<Slot> = {
        let store: &ResultStore = store;
        let space = &space;
        let scan = |out: &mut Vec<Slot>| {
            // One `worker` span per worker thread: its whole pull loop,
            // so the trace shows per-worker occupancy and imbalance.
            let _worker_span = hooks.obs.map(|o| o.span("worker", "exec"));
            loop {
                if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    break;
                }
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= scan_len {
                    break;
                }
                let decode_span = hooks.obs.map(|o| o.span("decode", "exec"));
                // Map the scan position to a global lazy index (ranges are
                // few — a linear walk is cheaper than anything clever).
                let mut rest = k;
                let global = ranges
                    .iter()
                    .find_map(|r| {
                        if rest < r.len() {
                            Some(r.start + rest)
                        } else {
                            rest -= r.len();
                            None
                        }
                    })
                    .expect("scan position within summed range length");
                let Some(cell) = space.decode(global) else {
                    continue;
                };
                drop(decode_span);
                // The executor only produces raw cells: a fold cell
                // stored under this fingerprint (an earlier replicated
                // run's distribution) is a miss, and the fresh raw cell
                // replaces it.
                let memo_span = hooks.obs.map(|o| o.span("memo", "store"));
                let memoized = store
                    .get_by_fingerprint(&cell.fingerprint)
                    .is_some_and(|hit| !hit.fold);
                drop(memo_span);
                if let Some(obs) = hooks.obs {
                    obs.count(if memoized { "memo/hit" } else { "memo/miss" }, 1);
                }
                if memoized {
                    let memo = memo_cells.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(on_cell) = hooks.on_cell {
                        on_cell(CellEvent {
                            executed: executed_cells.load(Ordering::Relaxed),
                            memoized: memo,
                            total: scan_len,
                        });
                    }
                    out.push(Slot {
                        cell,
                        outcome: SlotOutcome::Memoized,
                    });
                    continue;
                }
                // The `cell` span covers the evaluation plus the test
                // delay hook: CAMPAIGN_CELL_DELAY_MS simulates a slow cell,
                // so the trace must see it as one. The clock is the shared
                // obs monotonic epoch: a wall-clock step can never make
                // this duration negative. Unobserved runs read no clock.
                let started_ns = hooks.obs.map(|_| crate::obs::monotonic_ns());
                let outcome = run_contained(space, &cell);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                if let (Some(obs), Some(started_ns)) = (hooks.obs, started_ns) {
                    let wall_ns = crate::obs::monotonic_ns().saturating_sub(started_ns);
                    obs.record_span("cell", "exec", started_ns, wall_ns);
                    obs.count("cells/executed", 1);
                }
                if let (Ok(result), Some(sink)) = (&outcome, hooks.on_result) {
                    sink(&cell.fingerprint, &space.record(&cell, result.clone()));
                }
                let executed = executed_cells.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(on_cell) = hooks.on_cell {
                    on_cell(CellEvent {
                        executed,
                        memoized: memo_cells.load(Ordering::Relaxed),
                        total: scan_len,
                    });
                }
                out.push(Slot {
                    cell,
                    outcome: SlotOutcome::Fresh(outcome),
                });
            }
        };
        if workers <= 1 {
            let mut out = Vec::new();
            scan(&mut out);
            out
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut out = Vec::new();
                            scan(&mut out);
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("scenario worker panicked"))
                    .collect()
            })
        }
    };

    // Phase 2 — deterministic assembly: global-index order erases the
    // scheduling, fresh results move into the store (the campaign cell
    // is written from the stored copy — no hot-path clone of a value
    // the store is about to own), and the lowest-indexed error wins.
    // Every successful result is persisted even when a sibling cell
    // errors — cells are deterministic, so a retry after a partial
    // failure memoizes the work that did complete.
    slots.sort_unstable_by_key(|s| s.cell.global);
    // Only a *complete* campaign (the full domain) folds its
    // replicates: range runs (every shard) leave raw replicate cells
    // for the merge engine to fold once every shard's outcomes are
    // fused — the fold must see all N replicates of a base cell, and a
    // chunk boundary may split a replicate group.
    let folding = space.replicates() > 1 && matches!(domain, CellDomain::All);
    // (global index, fingerprint) of every assembled cell, for the fold.
    let mut raw: Vec<(usize, String)> = Vec::new();
    let mut cells = Vec::with_capacity(slots.len());
    let mut executed = 0;
    let mut memoized = 0;
    let mut first_error: Option<ScenarioError> = None;
    for Slot { cell, outcome } in slots {
        let hit = matches!(outcome, SlotOutcome::Memoized);
        match outcome {
            SlotOutcome::Memoized => memoized += 1,
            SlotOutcome::Fresh(Ok(result)) => {
                executed += 1;
                store.insert_cell(cell.fingerprint.clone(), space.record(&cell, result));
            }
            SlotOutcome::Fresh(Err(e)) => {
                executed += 1;
                if first_error.is_none() {
                    first_error = Some(e);
                }
                continue;
            }
        }
        let stored = store
            .get_by_fingerprint(&cell.fingerprint)
            .expect("assembled cell is in the store");
        cells.push(CampaignCell {
            scenario: space.specs()[cell.scenario].id.to_string(),
            params: cell.params,
            seed: cell.seed,
            result: stored.result.clone(),
            memoized: hit,
        });
        if folding {
            raw.push((cell.global, cell.fingerprint));
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    // Cancellation reports *after* assembly: the completed cells are in
    // the store, so a rerun resumes instead of recomputing. A
    // cancelled replicated run keeps its raw cells unfolded — the
    // resumed run memoizes them and folds at its own completion.
    if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        return Err(ScenarioError::Cancelled);
    }
    if folding {
        cells = fold_campaign(&space, &cells, &raw, config.keep_replicates, store)?;
    }

    Ok(Campaign {
        seed: config.seed,
        cells,
        executed,
        memoized,
        replicates: config.replicates,
    })
}

/// Evaluates one cell with its panic caught: a panicking
/// `Scenario::run` becomes [`ScenarioError::Panicked`] naming the cell,
/// and a NaN or infinite metric (which a store would save as `null`
/// and then fail to load) [`ScenarioError::NonFiniteMetric`]. Either
/// way the cell fails like an erroring cell (never journaled or
/// memoized) and its siblings complete. Asserting unwind safety is
/// sound because a panicked evaluation leaves nothing behind: scenarios
/// are pure functions of `(params, seed)`, and the executor keeps only
/// the error.
fn run_contained(space: &CampaignSpace<'_>, cell: &Cell) -> Result<CellResult, ScenarioError> {
    let scenario = space.scenario(cell.scenario);
    let id = || space.specs()[cell.scenario].id.to_string();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scenario.run(&cell.params, cell.seed)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(ScenarioError::Panicked {
            scenario: id(),
            params: cell.params.key(),
            message,
        })
    })?;
    match result.metrics.iter().find(|(_, v)| !v.is_finite()) {
        None => Ok(result),
        Some((metric, _)) => Err(ScenarioError::NonFiniteMetric {
            scenario: id(),
            params: cell.params.key(),
            metric: metric.clone(),
        }),
    }
}

/// Folds each replicate group of a completed full-domain campaign into
/// one fold cell stored under the *base* fingerprint, removing the raw
/// replicate cells unless `keep_replicates`. Assembly sorted the cells
/// by global index and the replicate axis varies fastest, so each group
/// sits consecutively in replicate order — exactly the order the fold
/// must consume for shard/merge byte equivalence.
fn fold_campaign(
    space: &CampaignSpace<'_>,
    cells: &[CampaignCell],
    raw: &[(usize, String)],
    keep_replicates: bool,
    store: &mut ResultStore,
) -> Result<Vec<CampaignCell>, ScenarioError> {
    let reps = space.replicates();
    let mut folded = Vec::with_capacity(cells.len() / reps);
    for (group, raw) in cells.chunks(reps).zip(raw.chunks(reps)) {
        let results: Vec<&CellResult> = group.iter().map(|c| &c.result).collect();
        let (base, fold) = space.fold(raw[0].0, &results)?;
        if !keep_replicates {
            for (_, fingerprint) in raw {
                store.remove(fingerprint);
            }
        }
        folded.push(CampaignCell {
            scenario: fold.scenario.clone(),
            params: base.params,
            seed: base.seed,
            result: fold.result.clone(),
            memoized: group.iter().all(|c| c.memoized),
        });
        store.insert_cell(base.fingerprint, fold);
    }
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Axis, Scenario, ScenarioSpec};
    use std::sync::Mutex;

    /// A deterministic toy scenario: metric = f(params, seed).
    struct Toy;

    impl Scenario for Toy {
        fn spec(&self) -> ScenarioSpec {
            ScenarioSpec {
                id: "toy",
                version: 1,
                title: "toy",
                source_crate: "harness",
                property: "p",
                uncertainty: "u",
                quality: "q",
                catalog_id: None,
                content_digest: None,
                axes: vec![Axis::new("a", [1, 2, 3]), Axis::new("b", [10, 20])],
                headline_metric: "value",
                smaller_is_better: true,
            }
        }

        fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
            let a = params.get_u64("a")?;
            let b = params.get_u64("b")?;
            Ok(CellResult::new(vec![(
                "value",
                (a * 1000 + b) as f64 + (seed % 97) as f64 / 100.0,
            )]))
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::empty();
        r.register(Box::new(Toy));
        r
    }

    fn run(threads: usize, seed: u64, store: &mut ResultStore) -> Campaign {
        run_campaign(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads,
                seed,
                ..ExecConfig::default()
            },
            store,
        )
        .unwrap()
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let single = run(1, 42, &mut ResultStore::new());
        let parallel = run(4, 42, &mut ResultStore::new());
        assert_eq!(single.cells, parallel.cells);
        assert_eq!(single.executed, 6);
    }

    #[test]
    fn campaign_seed_changes_cell_seeds() {
        let a = run(2, 1, &mut ResultStore::new());
        let b = run(2, 2, &mut ResultStore::new());
        assert_ne!(a.cells, b.cells);
        let seeds: std::collections::HashSet<u64> = a.cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), a.cells.len(), "cell seeds are distinct");
    }

    #[test]
    fn second_run_is_fully_memoized() {
        let mut store = ResultStore::new();
        let first = run(4, 7, &mut store);
        assert_eq!(first.executed, 6);
        assert_eq!(first.memoized, 0);
        let second = run(4, 7, &mut store);
        assert_eq!(second.executed, 0);
        assert_eq!(second.memoized, 6);
        assert_eq!(
            first.cells.iter().map(|c| &c.result).collect::<Vec<_>>(),
            second.cells.iter().map(|c| &c.result).collect::<Vec<_>>()
        );
    }

    #[test]
    fn filters_restrict_the_matrix() {
        let campaign = run_campaign(
            &registry(),
            &[],
            &Filter::all().with("a", "2"),
            &ExecConfig {
                threads: 2,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
        assert_eq!(campaign.cells.len(), 2);
        assert!(campaign
            .cells
            .iter()
            .all(|c| c.params.get("a").unwrap() == "2"));
    }

    #[test]
    fn repeated_selection_is_deduplicated() {
        let campaign = run_campaign(
            &registry(),
            &["toy".to_string(), "toy".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
        assert_eq!(campaign.cells.len(), 6, "matrix must not be duplicated");
        assert_eq!(campaign.executed, 6);
    }

    #[test]
    fn version_bump_invalidates_memoized_cells() {
        /// Same id and behaviour as [`Toy`], different version.
        struct Toy2;
        impl Scenario for Toy2 {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    version: 2,
                    ..Toy.spec()
                }
            }
            fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
                Toy.run(params, seed)
            }
        }
        let mut store = ResultStore::new();
        run(1, 3, &mut store);
        let mut v2 = Registry::empty();
        v2.register(Box::new(Toy2));
        let campaign = run_campaign(
            &v2,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 3,
                ..ExecConfig::default()
            },
            &mut store,
        )
        .unwrap();
        assert_eq!(
            campaign.memoized, 0,
            "old-version results must not be served"
        );
        assert_eq!(campaign.executed, 6);
    }

    #[test]
    fn unknown_selection_errors() {
        let err = run_campaign(
            &registry(),
            &["nope".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownScenario("nope".into()));
    }

    #[test]
    fn typoed_filter_axis_errors() {
        let err = run_campaign(
            &registry(),
            &[],
            &Filter::all().with("polcy", "lru"),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::UnknownFilterAxis("polcy".into()));
    }

    #[test]
    fn partial_failure_persists_completed_cells() {
        /// Errors on the cell `a=2`; succeeds elsewhere.
        struct Flaky;
        impl Scenario for Flaky {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "flaky",
                    axes: vec![Axis::new("a", [1, 2, 3])],
                    ..Toy.spec()
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
        let mut registry = Registry::empty();
        registry.register(Box::new(Flaky));
        let mut store = ResultStore::new();
        let err = run_campaign(
            &registry,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut store,
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::BadParam { .. }));
        assert_eq!(store.len(), 2, "completed cells memoized despite the error");
    }

    #[test]
    fn range_domain_sweeps_exactly_the_requested_slice() {
        let full = run(1, 4, &mut ResultStore::new());
        // The toy matrix has 6 lazy cells; split into two range calls.
        let mut store = ResultStore::new();
        let config = ExecConfig {
            threads: 2,
            seed: 4,
            ..ExecConfig::default()
        };
        let mut pieces = Vec::new();
        // A deliberate slice-of-one-range (a single chunk), not a
        // mistyped range collection.
        #[allow(clippy::single_range_in_vec_init)]
        let splits: [&[Range<usize>]; 2] = [&[0..2], &[2..4, 4..6]];
        for ranges in splits {
            let part = run_campaign_with(
                &registry(),
                &[],
                &Filter::all(),
                &config,
                &mut store,
                CellDomain::Ranges(ranges),
                ExecHooks::default(),
            )
            .unwrap();
            pieces.extend(part.cells);
        }
        assert_eq!(pieces, full.cells, "range union must equal the full sweep");
        assert_eq!(store.len(), 6);

        // Out-of-bounds, overlapping and out-of-order ranges are
        // rejected (overlap would silently duplicate cells).
        #[allow(clippy::single_range_in_vec_init)]
        let rejected: [&[Range<usize>]; 3] = [&[5..9], &[0..4, 2..6], &[4..6, 0..2]];
        for ranges in rejected {
            let err = run_campaign_with(
                &registry(),
                &[],
                &Filter::all(),
                &config,
                &mut ResultStore::new(),
                CellDomain::Ranges(ranges),
                ExecHooks::default(),
            )
            .unwrap_err();
            assert!(matches!(err, ScenarioError::Dist(_)), "{ranges:?}");
        }
    }

    #[test]
    fn hooks_observe_every_fresh_cell() {
        let seen: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let peak: AtomicUsize = AtomicUsize::new(0);
        let on_result = |fp: &str, cell: &StoredCell| {
            assert_eq!(cell.scenario, "toy");
            seen.lock().unwrap().push(fp.to_string());
        };
        let events: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let on_cell = |e: CellEvent| {
            assert_eq!(e.total, 6);
            peak.fetch_max(e.executed, Ordering::Relaxed);
            events.lock().unwrap().push((e.executed, e.memoized));
        };
        let mut store = ResultStore::new();
        let campaign = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 3,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                on_cell: Some(&on_cell),
                on_result: Some(&on_result),
                obs: None,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(campaign.executed, 6);
        assert_eq!(peak.load(Ordering::Relaxed), 6);
        let mut fps = seen.into_inner().unwrap();
        fps.sort();
        let mut stored: Vec<String> = store.iter().map(|(fp, _)| fp.to_string()).collect();
        stored.sort();
        assert_eq!(fps, stored, "the sink must see exactly the fresh cells");
        // One event per fresh cell, each counting one more execution.
        let mut counts = events.into_inner().unwrap();
        counts.sort();
        assert_eq!(
            counts,
            (1..=6).map(|n| (n, 0)).collect::<Vec<_>>(),
            "the per-cell event must fire once per fresh cell"
        );

        // A fully memoized rerun feeds the result sink nothing, and its
        // events count memo hits only.
        let count = AtomicUsize::new(0);
        let counting = |_: &str, _: &StoredCell| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let hit_count = AtomicUsize::new(0);
        let counting_hits = |e: CellEvent| {
            assert_eq!((e.executed, e.total), (0, 6));
            hit_count.fetch_add(1, Ordering::Relaxed);
        };
        run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 3,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                on_cell: Some(&counting_hits),
                on_result: Some(&counting),
                obs: None,
                cancel: None,
            },
        )
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 0);
        assert_eq!(
            hit_count.load(Ordering::Relaxed),
            6,
            "every memoized cell is still an access"
        );
    }

    #[test]
    fn cancellation_persists_completed_cells_and_resumes() {
        use std::sync::atomic::AtomicBool;

        // A flag set before the run cancels before any cell executes.
        let cancel = AtomicBool::new(true);
        let mut store = ResultStore::new();
        let err = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                cancel: Some(&cancel),
                ..ExecHooks::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::Cancelled);
        assert!(store.is_empty());

        // Cancelling from the per-cell event after the first cell: the
        // single worker finishes the cell in hand, stops pulling, and
        // the completed work is still assembled into the store.
        let cancel = AtomicBool::new(false);
        let on_cell = |_: CellEvent| cancel.store(true, Ordering::Relaxed);
        let err = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks {
                on_cell: Some(&on_cell),
                cancel: Some(&cancel),
                ..ExecHooks::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, ScenarioError::Cancelled);
        assert_eq!(store.len(), 1, "the in-hand cell must be persisted");

        // The rerun resumes: the persisted cell is a memo hit.
        let campaign = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut store,
            CellDomain::All,
            ExecHooks::default(),
        )
        .unwrap();
        assert_eq!(campaign.memoized, 1);
        assert_eq!(campaign.executed, 5);
        assert_eq!(store.len(), 6);
    }

    fn run_reps(reps: u32, keep: bool, seed: u64, store: &mut ResultStore) -> Campaign {
        run_campaign(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed,
                replicates: reps,
                keep_replicates: keep,
            },
            store,
        )
        .unwrap()
    }

    #[test]
    fn one_replicate_is_byte_identical_to_no_replicates() {
        let mut plain_store = ResultStore::new();
        let plain = run(2, 42, &mut plain_store);
        let mut rep_store = ResultStore::new();
        let rep = run_reps(1, false, 42, &mut rep_store);
        assert_eq!(plain.cells, rep.cells);
        assert_eq!(
            plain_store.to_json().pretty(),
            rep_store.to_json().pretty(),
            "replicates=1 must not perturb the store"
        );
    }

    #[test]
    fn zero_replicates_are_rejected() {
        let err = run_campaign(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                replicates: 0,
                keep_replicates: false,
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("replicates"), "got: {err}");
    }

    #[test]
    fn replicated_campaign_folds_to_one_distribution_cell_per_base() {
        let mut store = ResultStore::new();
        let campaign = run_reps(8, false, 7, &mut store);
        // 6 base cells, each folded from 8 replicates.
        assert_eq!(campaign.cells.len(), 6);
        assert_eq!(campaign.executed, 48);
        assert_eq!(store.len(), 6, "raw replicates dropped by default");
        for cell in &campaign.cells {
            assert!(cell.params.get("rep").is_err(), "fold keys base params");
            let names: Vec<&str> = cell
                .result
                .metrics
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            let expected: Vec<String> = crate::expect::DERIVED_SUFFIXES
                .iter()
                .map(|s| format!("value.{s}"))
                .collect();
            assert_eq!(names, expected, "derived columns in declaration order");
            assert_eq!(cell.result.metric("value.n"), Some(8.0));
            // Toy's metric depends on the seed, so 8 distinct replicate
            // seeds must spread the distribution.
            let std = cell.result.metric("value.std").unwrap();
            assert!(std > 0.0, "replicate seeds must vary the metric");
            let (mean, p05, p95) = (
                cell.result.metric("value.mean").unwrap(),
                cell.result.metric("value.p05").unwrap(),
                cell.result.metric("value.p95").unwrap(),
            );
            assert!(p05 <= mean && mean <= p95, "{p05} <= {mean} <= {p95}");
        }
    }

    #[test]
    fn keep_replicates_retains_raw_cells_and_memoizes_reruns() {
        let mut store = ResultStore::new();
        let first = run_reps(4, true, 3, &mut store);
        assert_eq!(first.executed, 24);
        assert_eq!(store.len(), 24 + 6, "raws plus one fold per base");
        // Rerun: every raw replicate resolves from the store.
        let second = run_reps(4, true, 3, &mut store);
        assert_eq!(second.executed, 0);
        assert_eq!(second.memoized, 24);
        assert_eq!(
            first
                .cells
                .iter()
                .map(|c| (&c.params, c.seed, &c.result))
                .collect::<Vec<_>>(),
            second
                .cells
                .iter()
                .map(|c| (&c.params, c.seed, &c.result))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fold_cell_is_keyed_by_the_base_fingerprint() {
        let mut plain_store = ResultStore::new();
        run(1, 11, &mut plain_store);
        let mut rep_store = ResultStore::new();
        run_reps(4, false, 11, &mut rep_store);
        let plain_fps: Vec<&str> = plain_store.iter().map(|(fp, _)| fp).collect();
        let rep_fps: Vec<&str> = rep_store.iter().map(|(fp, _)| fp).collect();
        assert_eq!(plain_fps, rep_fps, "fold cells reuse the base identity");
        assert!(rep_store.iter().all(|(_, c)| c.fold));
        assert!(plain_store.iter().all(|(_, c)| !c.fold));
    }

    #[test]
    fn unreplicated_run_over_fold_cells_recomputes_raw_cells() {
        // Fold cells live under the base fingerprints an unreplicated
        // run looks up; they must not be served as raw results.
        let filter = Filter::all().with("a", "1").with("a", "2");
        let run_filtered = |reps, store: &mut ResultStore| {
            run_campaign(
                &registry(),
                &[],
                &filter,
                &ExecConfig {
                    threads: 2,
                    seed: 21,
                    replicates: reps,
                    keep_replicates: false,
                },
                store,
            )
            .unwrap()
        };
        let mut store = ResultStore::new();
        run_filtered(4, &mut store);
        assert!(store.iter().all(|(_, c)| c.fold));
        let over_folds = run_filtered(1, &mut store);
        let fresh = run_filtered(1, &mut ResultStore::new());
        assert_eq!(over_folds, fresh);
        assert_eq!(over_folds.executed, 4);
        assert_eq!(store.len(), 4);
        assert!(
            store.iter().all(|(_, c)| !c.fold),
            "raw cells replace folds"
        );
    }

    #[test]
    fn replicates_reject_scenarios_declaring_the_rep_axis() {
        struct RepAxis;
        impl Scenario for RepAxis {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "rep-axis",
                    version: 1,
                    title: "rep collision",
                    source_crate: "harness",
                    property: "p",
                    uncertainty: "u",
                    quality: "q",
                    catalog_id: None,
                    content_digest: None,
                    axes: vec![Axis::new("rep", [1, 2])],
                    headline_metric: "v",
                    smaller_is_better: true,
                }
            }
            fn run(&self, _: &Params, _: u64) -> Result<CellResult, ScenarioError> {
                Ok(CellResult::new(vec![("v", 0.0)]))
            }
        }
        let mut r = Registry::empty();
        r.register(Box::new(RepAxis));
        let err = run_campaign(
            &r,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                replicates: 2,
                keep_replicates: false,
            },
            &mut ResultStore::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("rep"), "got: {err}");
        // Without replication the axis name is unreserved.
        run_campaign(
            &r,
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
    }

    #[test]
    fn replicated_filters_keep_whole_groups() {
        let mut store = ResultStore::new();
        let campaign = run_campaign(
            &registry(),
            &[],
            &Filter::all().with("a", "2"),
            &ExecConfig {
                threads: 2,
                seed: 5,
                replicates: 4,
                keep_replicates: false,
            },
            &mut store,
        )
        .unwrap();
        assert_eq!(campaign.cells.len(), 2, "two base cells survive the filter");
        assert_eq!(campaign.executed, 8);
        assert!(campaign
            .cells
            .iter()
            .all(|c| c.params.get("a").unwrap() == "2"));
    }
}
