//! The streaming parallel campaign executor.
//!
//! A campaign is a deterministic function of `(selected scenarios,
//! filter, campaign seed)` — never of thread count or scheduling. The
//! cell order is fixed up front by the campaign's [`CampaignSpace`]:
//! workers pull raw global indices from a shared cursor and decode each
//! one on the fly — filter check, shard check and store lookup
//! included. Every worker accumulates its outcomes in a private slot
//! buffer (no shared mutex on the hot path); the buffers are merged and
//! sorted by global index afterwards, so the assembled campaign is
//! identical whether one thread ran it or sixteen. [`ExecHooks`] expose
//! the stream as it happens: one [`CellEvent`] per completed cell (the
//! telemetry sidecar, `--progress` and serve job progress consume it)
//! and a result sink that feeds the crash-resume journal. Opening,
//! finishing and checkpointing those sidecars around a run is
//! [`crate::session`]'s job.

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

/// One slice of a sharded campaign: this process owns every cell whose
/// fingerprint maps to `index` under [`shard_of`] with `count` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this worker claims (`0 <= index < count`).
    pub index: u32,
    /// Total number of shards the campaign was partitioned into.
    pub count: u32,
}

impl Shard {
    /// Validates the pair.
    pub fn new(index: u32, count: u32) -> Result<Shard, ScenarioError> {
        if count == 0 {
            return Err(ScenarioError::Dist("shard count must be >= 1".into()));
        }
        if index >= count {
            return Err(ScenarioError::Dist(format!(
                "shard index {index} out of range (count {count})"
            )));
        }
        Ok(Shard { index, count })
    }

    /// True if this shard owns the fingerprinted cell. Errors on a
    /// malformed fingerprint (a corrupted store or manifest) instead of
    /// panicking the worker.
    pub fn owns(&self, fp: &str) -> Result<bool, ScenarioError> {
        Ok(shard_of(fp, self.count)? == self.index)
    }
}

/// Maps a cell fingerprint to its shard. The assignment depends on
/// nothing but the fingerprint, which is what lets every worker
/// partition independently. Fingerprints are raw FNV-1a values whose
/// residues correlate for near-identical inputs, so the hash is pushed
/// through a SplitMix64 finalizer before the modulus to keep shard
/// loads balanced. A malformed fingerprint (hand-edited or corrupted
/// store/manifest data) is a [`ScenarioError::Dist`], not a panic.
pub fn shard_of(fp: &str, shards: u32) -> Result<u32, ScenarioError> {
    let malformed = || {
        ScenarioError::Dist(format!(
            "malformed fingerprint `{fp}` (expected 16 hex digits)"
        ))
    };
    if fp.len() != 16 || !fp.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(malformed());
    }
    let h = u64::from_str_radix(fp, 16).map_err(|_| malformed())?;
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Ok((z % u64::from(shards.max(1))) as u32)
}

/// The cell domain one executor invocation sweeps, expressed over the
/// campaign's global index space ([`CampaignSpace`]).
#[derive(Debug, Clone, Copy)]
pub enum CellDomain<'a> {
    /// Every matching cell.
    All,
    /// Cells whose fingerprint the shard owns (the static partition).
    Shard(Shard),
    /// Explicit index ranges into the global lazy space (the
    /// work-stealing lease protocol executes one claimed chunk range at
    /// a time). Ranges must be in bounds and ascending-disjoint for the
    /// assembled cell order to stay deterministic.
    Ranges(&'a [Range<usize>]),
}

/// One completed cell — freshly executed, failed or memoized — as the
/// executor hands it to [`ExecHooks::on_cell`]. The counts let a
/// consumer track true completion (`executed + memoized` out of
/// `total`), not just fresh work. Wall-clock time lives only in this
/// side channel, never in the result store, whose bytes must stay a
/// deterministic function of the campaign.
#[derive(Debug, Clone, Copy)]
pub struct CellEvent<'a> {
    /// The cell's store fingerprint.
    pub fingerprint: &'a str,
    /// Scenario id.
    pub scenario: &'a str,
    /// Measured wall-clock duration of the evaluation (failed ones
    /// included); `None` for a memoized hit (an access, not an
    /// execution).
    pub wall: Option<std::time::Duration>,
    /// The scenario returned an error for this cell: it has no result,
    /// so the journal and the telemetry sidecar never see it.
    pub failed: bool,
    /// Fresh cells completed so far in this invocation, this one
    /// included when it executed.
    pub executed: usize,
    /// Memo hits seen so far in this invocation, this one included
    /// when it was a hit.
    pub memoized: usize,
    /// Lazy cells in the swept domain (an upper bound on work: filtered
    /// or unowned cells are scanned but never executed).
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
    /// scheduling-dependent; every consumer (the telemetry sidecar,
    /// `--progress`, serve job progress) aggregates, so none cares.
    pub on_cell: Option<&'a (dyn Fn(CellEvent<'_>) + Sync)>,
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
/// executed cell, turning any shard into an artificially slow one (the
/// work-stealing and crash-resume suites race against it). Unset or
/// unparseable means no delay.
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
/// into it. Scenario errors abort the campaign deterministically (the
/// error of the lowest-indexed failing cell wins).
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
    if let CellDomain::Shard(s) = domain {
        // Re-validate: a Shard built by hand instead of Shard::new must
        // not silently claim nothing (index >= count matches no cell).
        Shard::new(s.index, s.count)?;
    }
    let plan_span = hooks.obs.map(|o| o.span("plan", "exec"));
    let space = CampaignSpace::new(registry, select, filter, config.seed, config.replicates)?;
    let total = space.total();
    let whole = 0..total;
    let (ranges, shard): (&[Range<usize>], Option<Shard>) = match domain {
        CellDomain::All => (std::slice::from_ref(&whole), None),
        CellDomain::Shard(s) => (std::slice::from_ref(&whole), Some(s)),
        CellDomain::Ranges(r) => (r, None),
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
                if let Some(s) = shard {
                    match s.owns(&cell.fingerprint) {
                        Ok(false) => continue,
                        Ok(true) => {}
                        Err(e) => {
                            out.push(Slot {
                                cell,
                                outcome: SlotOutcome::Fresh(Err(e)),
                            });
                            continue;
                        }
                    }
                }
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
                            fingerprint: &cell.fingerprint,
                            scenario: space.specs()[cell.scenario].id,
                            wall: None,
                            failed: false,
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
                // The measured span covers the evaluation plus the test
                // delay hook: CAMPAIGN_CELL_DELAY_MS simulates a slow cell,
                // so telemetry must see it as one. The clock is the shared
                // obs monotonic epoch: a wall-clock step can never make
                // this duration negative, and the same interval feeds the
                // telemetry sidecar and the `cell` trace span.
                let started_ns = crate::obs::monotonic_ns();
                let outcome = space.scenario(cell.scenario).run(&cell.params, cell.seed);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                let wall_ns = crate::obs::monotonic_ns().saturating_sub(started_ns);
                if let Some(obs) = hooks.obs {
                    obs.record_span("cell", "exec", started_ns, wall_ns);
                    obs.count("cells/executed", 1);
                }
                if let (Ok(result), Some(sink)) = (&outcome, hooks.on_result) {
                    sink(&cell.fingerprint, &space.record(&cell, result.clone()));
                }
                let executed = executed_cells.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(on_cell) = hooks.on_cell {
                    on_cell(CellEvent {
                        fingerprint: &cell.fingerprint,
                        scenario: space.specs()[cell.scenario].id,
                        wall: Some(std::time::Duration::from_nanos(wall_ns)),
                        failed: outcome.is_err(),
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
    // replicates: shard and range runs leave raw replicate cells for
    // the merge engine to fold once every shard's outcomes are fused —
    // the fold must see all N replicates of a base cell, and a
    // partition sees only the ones it owns.
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
    fn shards_partition_the_campaign() {
        let full = run(2, 9, &mut ResultStore::new());
        for count in [1u32, 2, 3, 4] {
            let mut sharded: Vec<CampaignCell> = Vec::new();
            for index in 0..count {
                let slice = run_campaign_with(
                    &registry(),
                    &[],
                    &Filter::all(),
                    &ExecConfig {
                        threads: 2,
                        seed: 9,
                        ..ExecConfig::default()
                    },
                    &mut ResultStore::new(),
                    CellDomain::Shard(Shard::new(index, count).unwrap()),
                    ExecHooks::default(),
                )
                .unwrap();
                sharded.extend(slice.cells);
            }
            assert_eq!(sharded.len(), full.cells.len(), "count {count} covers");
            // Same multiset of cells (shard order permutes the list).
            let key = |c: &CampaignCell| (c.scenario.clone(), c.params.key());
            let mut a: Vec<_> = sharded.iter().map(key).collect();
            let mut b: Vec<_> = full.cells.iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "count {count} is a permutation");
        }
    }

    #[test]
    fn invalid_shards_are_rejected() {
        assert!(Shard::new(0, 0).is_err());
        assert!(Shard::new(3, 3).is_err());
        assert!(Shard::new(2, 3).is_ok());
        let err = run_campaign_with(
            &registry(),
            &[],
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 0,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
            CellDomain::Shard(Shard { index: 5, count: 2 }),
            ExecHooks::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(_)));
    }

    #[test]
    fn malformed_fingerprints_error_instead_of_panicking() {
        for bad in ["", "xyz", "123", "zzzzzzzzzzzzzzzz", "0123456789abcde-"] {
            assert!(
                matches!(shard_of(bad, 4), Err(ScenarioError::Dist(_))),
                "`{bad}` must be rejected"
            );
            let shard = Shard::new(0, 4).unwrap();
            assert!(shard.owns(bad).is_err());
        }
        assert!(shard_of("0123456789abcdef", 4).is_ok());
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
        let events: Mutex<Vec<(String, bool)>> = Mutex::new(Vec::new());
        let on_cell = |e: CellEvent<'_>| {
            assert_eq!(e.scenario, "toy");
            assert_eq!(e.total, 6);
            assert!(!e.failed);
            peak.fetch_max(e.executed, Ordering::Relaxed);
            events
                .lock()
                .unwrap()
                .push((e.fingerprint.to_string(), e.wall.is_some()));
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
        // One event per fresh cell, each with a measured duration.
        let mut timed = events.into_inner().unwrap();
        assert!(timed.iter().all(|(_, fresh)| *fresh));
        timed.sort();
        assert_eq!(
            timed.iter().map(|(fp, _)| fp.clone()).collect::<Vec<_>>(),
            stored,
            "the per-cell event must fire for exactly the fresh cells"
        );

        // A fully memoized rerun feeds the result sink nothing — and
        // its events are pure accesses (no wall clock).
        let count = AtomicUsize::new(0);
        let counting = |_: &str, _: &StoredCell| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let hit_count = AtomicUsize::new(0);
        let counting_hits = |e: CellEvent<'_>| {
            assert!(e.wall.is_none(), "memoized hits carry no duration");
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
        let on_cell = |_: CellEvent<'_>| cancel.store(true, Ordering::Relaxed);
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
