//! The merge engine: fuses shard stores into one canonical store.
//!
//! Because the store is keyed by cell fingerprint and serializes sorted
//! by fingerprint, merging is a set union: the fused store of N
//! disjoint shard runs is byte-identical to the store a single-process
//! run of the same campaign would have written. Two safety nets guard
//! that equivalence: a fingerprint appearing in several inputs with
//! *different* results is reported as a determinism violation (some
//! worker broke the `run(params, seed)` purity contract), and
//! [`verify_coverage`] checks a fused store against the manifest's
//! planned cell set, catching lost shards or stray extra cells.

use crate::dist::plan::{check_drift_observing, Manifest};
use crate::dist::steal::{chunk_map, Chunk, LeaseDir};
use crate::registry::Registry;
use crate::scenario::ScenarioError;
use crate::store::{ResultStore, StoredCell};
use crate::telemetry::Telemetry;

/// What a merge did, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Cells in the fused store.
    pub cells: usize,
    /// Inputs' cells that were already present with an identical
    /// result (harmless overlap, e.g. re-run shards).
    pub duplicates: usize,
}

/// Fuses shard stores (in order) into one store. Identical duplicate
/// cells are tolerated and counted; a fingerprint collision with
/// *conflicting* results aborts the merge — that can only happen when
/// a scenario violated determinism, and silently picking a winner
/// would launder the violation into the canonical store.
pub fn merge_stores(stores: &[ResultStore]) -> Result<(ResultStore, MergeStats), ScenarioError> {
    merge_stores_observed(stores, None)
}

/// [`merge_stores`] with an optional [`crate::obs::Obs`] recorder: the
/// whole fuse runs under a `merge` span (the CLI's `merge --trace`
/// path). Purely observational — the fused store is byte-identical
/// with or without the recorder.
pub fn merge_stores_observed(
    stores: &[ResultStore],
    obs: Option<&crate::obs::Obs>,
) -> Result<(ResultStore, MergeStats), ScenarioError> {
    let _merge_span = obs.map(|o| o.span("merge", "dist"));
    fuse(
        stores
            .iter()
            .map(|store| store.clone().into_map())
            .collect(),
    )
}

/// [`merge_stores_observed`] consuming its inputs: the cells are
/// *moved* into the fused store, so fusing N shard stores costs zero
/// clones — the path the CLI merge and the binary-store shard workflow
/// take.
pub fn merge_stores_owned_observed(
    stores: Vec<ResultStore>,
    obs: Option<&crate::obs::Obs>,
) -> Result<(ResultStore, MergeStats), ScenarioError> {
    let _merge_span = obs.map(|o| o.span("merge", "dist"));
    fuse(stores.into_iter().map(ResultStore::into_map).collect())
}

/// The shared fuse. Every input tree is already fingerprint-sorted, so
/// each one is folded in with two linear passes: a borrow-only scan of
/// the two sorted key streams that separates harmless duplicates from
/// determinism violations (advancing whichever side holds the smaller
/// key — no cell is moved or cloned to be checked), then a
/// [`BTreeMap::append`] bulk fuse, which merges the source trees
/// node-wise instead of paying a lookup-and-rebalance per cell. The
/// overwrite-on-collision semantics of `append` are safe precisely
/// because the scan just proved every collision identical.
fn fuse(
    inputs: Vec<std::collections::BTreeMap<String, StoredCell>>,
) -> Result<(ResultStore, MergeStats), ScenarioError> {
    let mut stats = MergeStats::default();
    let mut fused: std::collections::BTreeMap<String, StoredCell> = Default::default();
    for (input, mut incoming) in inputs.into_iter().enumerate() {
        if fused.is_empty() {
            fused = incoming;
            continue;
        }
        let mut kept_stream = fused.iter();
        let mut new_stream = incoming.iter();
        let (mut kept_head, mut new_head) = (kept_stream.next(), new_stream.next());
        while let (Some((kept_fp, kept)), Some((fp, cell))) = (kept_head, new_head) {
            match kept_fp.cmp(fp) {
                std::cmp::Ordering::Less => kept_head = kept_stream.next(),
                std::cmp::Ordering::Greater => new_head = new_stream.next(),
                std::cmp::Ordering::Equal => {
                    if kept == cell {
                        stats.duplicates += 1;
                    } else {
                        return Err(ScenarioError::Dist(format!(
                            "determinism violation merging input {input}: fingerprint {fp} \
                             ({} {}) has conflicting results {:?} vs {:?}",
                            cell.scenario, cell.params_key, kept.result, cell.result
                        )));
                    }
                    kept_head = kept_stream.next();
                    new_head = new_stream.next();
                }
            }
        }
        fused.append(&mut incoming);
    }
    stats.cells = fused.len();
    Ok((ResultStore::from_map(fused), stats))
}

/// Verifies a fused store covers *exactly* the manifest's planned cell
/// set: every planned fingerprint present, no extras. With the
/// determinism contract this makes the fused store byte-identical to a
/// single-process run's store of the same campaign. One streaming pass
/// serves both the drift check and the membership test — no
/// materialized cell list and no double enumeration, whatever the
/// campaign size. Drift errors win over coverage errors: when the
/// registry moved, "missing cell" would misdiagnose the real problem.
pub fn verify_coverage(
    registry: &Registry,
    manifest: &Manifest,
    store: &ResultStore,
) -> Result<(), ScenarioError> {
    let mut planned = 0usize;
    let mut first_missing: Option<String> = None;
    check_drift_observing(registry, manifest, &mut |cell| {
        planned += 1;
        if first_missing.is_none() && !store.contains(&cell.fingerprint) {
            first_missing = Some(format!(
                "merged store is missing planned cell {} ({} {}) — shard {} lost?",
                cell.fingerprint, cell.scenario, cell.params, cell.shard
            ));
        }
    })?;
    if let Some(missing) = first_missing {
        return Err(ScenarioError::Dist(missing));
    }
    if store.len() != planned {
        return Err(ScenarioError::Dist(format!(
            "merged store has {} cells but the manifest plans {planned} — \
             extra cells from an unrelated campaign?",
            store.len(),
        )));
    }
    Ok(())
}

/// Folds a fused replicated store into distribution metrics: each base
/// cell's N raw replicate results collapse into one `expect` fold cell
/// keyed by the base fingerprint, exactly as a single-process
/// full-domain run folds at completion — so after this pass the merged
/// store is byte-identical to the single-process store. Shard runs
/// never fold themselves (a partition sees only the replicates it
/// owns), which is why the fold lives here, after the fuse and after
/// [`verify_coverage`] has proven every raw replicate present. Raw
/// replicate cells are removed unless `keep_replicates`. Returns the
/// number of fold cells produced (0 for an unreplicated manifest).
pub fn fold_replicates(
    registry: &Registry,
    manifest: &Manifest,
    store: &mut ResultStore,
    keep_replicates: bool,
) -> Result<usize, ScenarioError> {
    if manifest.replicates <= 1 {
        return Ok(0);
    }
    let reps = manifest.replicates as usize;
    let space = manifest.space(registry)?;
    // One streaming pass over the planned cells: the replicate axis
    // varies fastest, so each base cell's N replicates arrive
    // consecutively in replicate-index order — the order the fold must
    // consume for byte equivalence with the single-process run. The
    // store is only read during the pass; fold insertions and raw
    // removals are staged and applied afterwards.
    let mut group = Vec::with_capacity(reps);
    let mut folds: Vec<(String, StoredCell)> = Vec::new();
    let mut raw_fps: Vec<String> = Vec::new();
    for cell in space.cells() {
        group.push(cell);
        if group.len() < reps {
            continue;
        }
        let results = group
            .iter()
            .map(|c| {
                store
                    .get_by_fingerprint(&c.fingerprint)
                    .map(|s| &s.result)
                    .ok_or_else(|| {
                        ScenarioError::Store(format!(
                            "replicate fold: merged store is missing replicate cell {} ({} {})",
                            c.fingerprint,
                            space.specs()[c.scenario].id,
                            c.params.key()
                        ))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (base, fold) = space.fold(group[0].global, &results)?;
        folds.push((base.fingerprint, fold));
        if keep_replicates {
            group.clear();
        } else {
            raw_fps.extend(group.drain(..).map(|c| c.fingerprint));
        }
    }
    for fp in &raw_fps {
        store.remove(fp);
    }
    let folded = folds.len();
    for (fp, cell) in folds {
        store.insert_cell(fp, cell);
    }
    Ok(folded)
}

/// One chunk's fate in a work-stealing campaign: the planned unit of
/// work joined with the lease file that records who actually ran it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkLease {
    /// The planned chunk (id, scenario, range, cost, initial shard).
    pub chunk: Chunk,
    /// The shard whose lease file claimed it; `None` = never claimed
    /// (a shard died before reaching it — merge's coverage check will
    /// have reported the missing cells).
    pub holder: Option<u32>,
}

impl ChunkLease {
    /// True when a shard other than the initial lessee won the chunk.
    pub fn stolen(&self) -> bool {
        self.holder
            .is_some_and(|holder| holder != self.chunk.initial_shard)
    }
}

/// One shard's realized balance: what the planner leased to it vs.
/// what it actually won through the lease protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardBalance {
    /// Shard index.
    pub shard: u32,
    /// Chunks of its initial (planned) lease.
    pub leased_chunks: usize,
    /// Lazy cells of that lease.
    pub leased_cells: usize,
    /// Chunks it actually claimed and executed.
    pub won_chunks: usize,
    /// Lazy cells of those chunks.
    pub won_cells: usize,
    /// Of the won chunks, how many were stolen from another shard's
    /// initial lease.
    pub stolen_chunks: usize,
}

/// One merge input's measured cost, from the telemetry sidecar beside
/// its shard store (absent when the shard ran without `--telemetry`).
#[derive(Debug, Clone, PartialEq)]
pub struct InputWall {
    /// The input store, as given to `merge`.
    pub label: String,
    /// Cells with a recorded fresh execution.
    pub executed_cells: usize,
    /// Total measured wall-clock nanoseconds.
    pub wall_ns: Option<f64>,
}

/// The steal-aware merge report: which shard won which chunk (from the
/// lease files) and the realized per-shard wall-clock balance (from the
/// per-shard telemetry sidecars).
#[derive(Debug, Clone, PartialEq)]
pub struct StealReport {
    /// The campaign the lease directory is stamped for.
    pub shards: u32,
    /// Every planned chunk, in chunk-id order, with its lease holder.
    pub chunks: Vec<ChunkLease>,
    /// Per-shard planned-vs-realized balance, indexed by shard.
    pub shards_balance: Vec<ShardBalance>,
    /// Per merge input, the measured cost of what it executed.
    pub inputs: Vec<InputWall>,
}

impl StealReport {
    /// Chunks no shard ever claimed.
    pub fn unclaimed(&self) -> usize {
        self.chunks.iter().filter(|c| c.holder.is_none()).count()
    }

    /// Chunks won by a shard other than their initial lessee.
    pub fn stolen(&self) -> usize {
        self.chunks.iter().filter(|c| c.stolen()).count()
    }
}

/// Builds the steal-aware report of a merged work-stealing campaign:
/// recomputes the deterministic chunk map from the manifest, reads each
/// chunk's lease file for the winning shard, and sums each input
/// store's telemetry sidecar into its realized wall-clock cost.
/// Telemetry is optional per input (`None` = the shard ran without
/// `--telemetry`); the lease directory is not — without leases there is
/// nothing steal-aware to report.
pub fn steal_report(
    registry: &Registry,
    manifest: &Manifest,
    leases: &LeaseDir,
    inputs: &[(String, Option<Telemetry>)],
) -> Result<StealReport, ScenarioError> {
    let chunks = chunk_map(registry, manifest)?;
    let mut leased = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let holder = leases.holder(chunk.id)?;
        leased.push(ChunkLease { chunk, holder });
    }
    let mut balance: Vec<ShardBalance> = (0..manifest.shards)
        .map(|shard| ShardBalance {
            shard,
            ..ShardBalance::default()
        })
        .collect();
    for lease in &leased {
        let planned = &mut balance[lease.chunk.initial_shard as usize];
        planned.leased_chunks += 1;
        planned.leased_cells += lease.chunk.range.len();
        if let Some(holder) = lease.holder {
            let winner = balance.get_mut(holder as usize).ok_or_else(|| {
                ScenarioError::Dist(format!(
                    "lease for chunk {} names shard {holder}, but the manifest plans only {} \
                     shards — stale lease directory?",
                    lease.chunk.id, manifest.shards
                ))
            })?;
            winner.won_chunks += 1;
            winner.won_cells += lease.chunk.range.len();
            if lease.stolen() {
                winner.stolen_chunks += 1;
            }
        }
    }
    let inputs = inputs
        .iter()
        .map(|(label, telemetry)| InputWall {
            label: label.clone(),
            executed_cells: telemetry.as_ref().map_or(0, Telemetry::executed_cells),
            wall_ns: telemetry.as_ref().map(Telemetry::total_wall_ns),
        })
        .collect();
    Ok(StealReport {
        shards: manifest.shards,
        chunks: leased,
        shards_balance: balance,
        inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CellResult, Params};

    fn params(n: u64) -> Params {
        Params::new(vec![("n".into(), n.to_string())])
    }

    fn store_with(cells: &[(u64, f64)]) -> ResultStore {
        let mut s = ResultStore::new();
        for &(n, v) in cells {
            s.insert("s", 1, &params(n), n, CellResult::new(vec![("m", v)]));
        }
        s
    }

    #[test]
    fn disjoint_stores_union() {
        let a = store_with(&[(1, 1.0), (2, 2.0)]);
        let b = store_with(&[(3, 3.0)]);
        let (fused, stats) = merge_stores(&[a, b]).unwrap();
        assert_eq!(fused.len(), 3);
        assert_eq!(
            stats,
            MergeStats {
                cells: 3,
                duplicates: 0
            }
        );
    }

    #[test]
    fn identical_overlap_is_counted_not_fatal() {
        let a = store_with(&[(1, 1.0), (2, 2.0)]);
        let b = store_with(&[(2, 2.0), (3, 3.0)]);
        let (fused, stats) = merge_stores(&[a, b]).unwrap();
        assert_eq!(fused.len(), 3);
        assert_eq!(stats.duplicates, 1);
    }

    #[test]
    fn conflicting_results_abort() {
        let a = store_with(&[(1, 1.0)]);
        let b = store_with(&[(1, 1.5)]);
        let err = merge_stores(&[a, b]).unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(ref m) if m.contains("determinism")));
    }

    #[test]
    fn merge_of_empty_inputs_is_empty() {
        let (fused, stats) = merge_stores(&[]).unwrap();
        assert!(fused.is_empty());
        assert_eq!(stats.cells, 0);
    }

    #[test]
    fn steal_report_joins_leases_and_telemetry() {
        use crate::dist;
        use std::time::Duration;
        let registry = Registry::builtin();
        let manifest = dist::plan(
            &registry,
            &["pipeline-domino".into(), "dram-refresh".into()],
            &[],
            42,
            2,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("harness-stealrep-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let leases = LeaseDir::open(&dir, &manifest).unwrap();
        let chunks = chunk_map(&registry, &manifest).unwrap();
        assert!(chunks.len() >= 3, "need room for a steal and a loss");
        // Shard 1 claims everything except the last chunk (simulating a
        // shard death before it): every non-last chunk initially leased
        // to shard 0 counts as stolen.
        for chunk in &chunks[..chunks.len() - 1] {
            assert!(leases.claim(chunk.id, 1).unwrap());
        }
        let mut telemetry = Telemetry::new();
        telemetry.record_fresh("aaaa", "pipeline-domino", Duration::from_millis(2), 1);
        telemetry.record_fresh("bbbb", "dram-refresh", Duration::from_millis(3), 2);
        let inputs = vec![
            ("shard0.json".to_string(), None),
            ("shard1.json".to_string(), Some(telemetry)),
        ];
        let report = steal_report(&registry, &manifest, &leases, &inputs).unwrap();
        assert_eq!(report.chunks.len(), chunks.len());
        assert_eq!(report.unclaimed(), 1);
        assert_eq!(report.chunks.last().unwrap().holder, None);
        let expected_stolen = chunks[..chunks.len() - 1]
            .iter()
            .filter(|c| c.initial_shard != 1)
            .count();
        assert_eq!(report.stolen(), expected_stolen);
        let s1 = report.shards_balance[1];
        assert_eq!(s1.won_chunks, chunks.len() - 1);
        assert_eq!(s1.stolen_chunks, expected_stolen);
        assert_eq!(report.shards_balance[0].won_chunks, 0);
        let leased_total: usize = report.shards_balance.iter().map(|b| b.leased_chunks).sum();
        assert_eq!(leased_total, chunks.len(), "every chunk is leased once");
        assert_eq!(report.inputs[0].wall_ns, None);
        assert_eq!(report.inputs[1].executed_cells, 2);
        assert_eq!(report.inputs[1].wall_ns, Some(5_000_000.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replicated_shards_fold_to_the_single_process_store() {
        use crate::dist::{self, plan_calibrated_with};
        use crate::exec::{run_campaign, ExecConfig};
        use crate::matrix::Filter;
        use crate::registry::Registry;

        let registry = Registry::builtin();
        let select = vec!["pipeline-domino".to_string(), "dram-refresh".to_string()];
        let (manifest, _, _) =
            plan_calibrated_with(&registry, &select, &[], 13, 2, 8, None, None).unwrap();

        let mut shard_stores = Vec::new();
        for index in 0..manifest.shards {
            let mut store = ResultStore::new();
            dist::run_shard(&registry, &manifest, index, 2, &mut store).unwrap();
            shard_stores.push(store);
        }
        let (mut fused, _) = merge_stores(&shard_stores).unwrap();
        verify_coverage(&registry, &manifest, &fused).unwrap();
        let folded = fold_replicates(&registry, &manifest, &mut fused, false).unwrap();
        assert_eq!(folded, 8, "4 + 4 base cells fold");

        let mut single = ResultStore::new();
        run_campaign(
            &registry,
            &select,
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 13,
                replicates: 8,
                keep_replicates: false,
            },
            &mut single,
        )
        .unwrap();
        assert_eq!(
            fused.to_json().pretty(),
            single.to_json().pretty(),
            "merged fold must be byte-identical to the one-process run"
        );
    }

    #[test]
    fn fold_keep_replicates_retains_raws_and_unreplicated_manifests_noop() {
        use crate::dist::{self, plan_calibrated_with};
        use crate::registry::Registry;

        let registry = Registry::builtin();
        let select = vec!["pipeline-domino".to_string()];
        let (manifest, _, _) =
            plan_calibrated_with(&registry, &select, &[], 3, 1, 4, None, None).unwrap();
        let mut store = ResultStore::new();
        dist::run_shard(&registry, &manifest, 0, 1, &mut store).unwrap();
        assert_eq!(store.len(), 16);
        let folded = fold_replicates(&registry, &manifest, &mut store, true).unwrap();
        assert_eq!(folded, 4);
        assert_eq!(store.len(), 20, "raws retained beside the folds");
        assert_eq!(store.iter().filter(|(_, c)| c.fold).count(), 4);

        // replicates == 1: nothing to fold, the store is untouched.
        let (plain, _, _) =
            plan_calibrated_with(&registry, &select, &[], 3, 1, 1, None, None).unwrap();
        let mut plain_store = ResultStore::new();
        dist::run_shard(&registry, &plain, 0, 1, &mut plain_store).unwrap();
        let before = plain_store.to_json().pretty();
        assert_eq!(
            fold_replicates(&registry, &plain, &mut plain_store, false).unwrap(),
            0
        );
        assert_eq!(plain_store.to_json().pretty(), before);
    }
}
