//! Dynamic work stealing between shard processes.
//!
//! The static fingerprint partition balances cell *counts*, not cell
//! *costs*: one slow scenario can leave N-1 shards idle while the
//! unlucky shard grinds. This module turns the static assignment into
//! an *initial lease* and lets idle shards steal the rest:
//!
//! * The campaign's global lazy index space is cut into [`Chunk`]s —
//!   contiguous cell ranges that never span scenarios, sized so each
//!   chunk carries roughly equal *cost* under the manifest's
//!   per-scenario weights (calibrated at plan time from a committed
//!   baseline store). Every shard derives the identical chunk map from
//!   the manifest alone; there is still no coordinator.
//! * Each chunk has a deterministic `initial_shard` (greedy
//!   least-loaded assignment in chunk order). A shard first claims and
//!   executes its own chunks, then sweeps the remaining chunk list and
//!   steals whatever is still unleased.
//! * Claiming goes through *lease files* in a shared directory beside
//!   the manifest: `O_CREAT|O_EXCL` file creation is the atomic
//!   claim, so every chunk is executed by exactly one live shard, with
//!   no locks and no communication beyond the filesystem.
//!
//! Determinism is untouched: a cell's result is a pure function of
//! `(params, seed)`, so it does not matter *which* shard computes it —
//! `merge` still verifies that overlapping (stolen vs. native) results
//! are byte-identical and that the union covers exactly the planned
//! cell set, and the merged store remains byte-identical to a
//! single-process run.

use crate::dist::plan::{check_drift, Manifest};
use crate::exec::{
    run_campaign_with, Campaign, CellDomain, CellEvent, ExecConfig, ExecHooks, Shard,
};
use crate::registry::Registry;
use crate::scenario::ScenarioError;
use crate::store::ResultStore;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Chunk-map granularity: target chunks per shard. High enough that a
/// slow shard's backlog is stealable in pieces, low enough that lease
/// traffic (one file create per chunk) stays negligible.
pub const CHUNKS_PER_SHARD: usize = 8;

/// One leasable unit of campaign work: a contiguous range of the
/// global lazy index space, never spanning scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Lease id (position in the deterministic chunk map).
    pub id: usize,
    /// Index into the manifest's scenario list.
    pub scenario: usize,
    /// Global lazy index range (includes filtered-out cells; the
    /// executor skips those while scanning).
    pub range: Range<usize>,
    /// Estimated cost: lazy cells × the scenario's manifest weight.
    pub cost: f64,
    /// The shard this chunk is initially leased to.
    pub initial_shard: u32,
}

/// Deterministically cuts the manifest's campaign into cost-balanced
/// chunks and assigns each an initial shard. Every worker holding the
/// manifest computes the identical map — chunk ids are the whole
/// coordination vocabulary.
pub fn chunk_map(registry: &Registry, manifest: &Manifest) -> Result<Vec<Chunk>, ScenarioError> {
    // The space's scenario ranges already carry the replicate
    // multiplier, so chunk sizes (and therefore the initial lease
    // balance) account for the full replicated cell load.
    let space = manifest.space(registry)?;
    let weights: Vec<f64> = space
        .specs()
        .iter()
        .map(|s| manifest.weight_of(s.id))
        .collect();
    let total_cost: f64 = space
        .ranges()
        .zip(&weights)
        .map(|(range, w)| range.len() as f64 * w)
        .sum();
    let target = (manifest.shards as usize * CHUNKS_PER_SHARD).max(1);
    let cost_per_chunk = (total_cost / target as f64).max(f64::MIN_POSITIVE);

    let mut chunks = Vec::new();
    for (scenario, (range, weight)) in space.ranges().zip(&weights).enumerate() {
        let cells_per_chunk = ((cost_per_chunk / weight).round() as usize).max(1);
        for start in range.clone().step_by(cells_per_chunk) {
            let end = (start + cells_per_chunk).min(range.end);
            chunks.push(Chunk {
                id: chunks.len(),
                scenario,
                range: start..end,
                cost: (end - start) as f64 * weight,
                initial_shard: 0,
            });
        }
    }
    // Initial lease: greedy least-loaded in chunk order — deterministic
    // and cost-balanced under the manifest's weights.
    let mut load = vec![0.0f64; manifest.shards as usize];
    for chunk in &mut chunks {
        let shard = load
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .unwrap_or(0);
        chunk.initial_shard = shard as u32;
        load[shard] += chunk.cost;
    }
    Ok(chunks)
}

/// The shared lease directory: one file per claimed chunk, created
/// with `O_CREAT|O_EXCL` so exactly one shard wins each chunk.
///
/// A lease directory belongs to exactly one *campaign attempt*: it is
/// stamped with the manifest's fingerprint digest, and [`LeaseDir::open`]
/// refuses a directory stamped for a different campaign — re-planning
/// to the same manifest path cannot silently starve the new campaign on
/// stale leases. Leases are never reclaimed: if a shard dies after
/// claiming a chunk, its unjournaled cells are simply lost from this
/// attempt (merge's coverage check reports them loudly). Recovery is to
/// remove the lease directory (or pass a fresh `--leases DIR`) and
/// re-run the shards with `--resume`: every journaled cell replays from
/// the store, so only the dead shard's unfinished work recomputes.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    dir: PathBuf,
}

impl LeaseDir {
    /// The default lease directory of a manifest: `manifest.json` →
    /// `manifest.json.leases/` (same directory, so every shard of a
    /// campaign sees the same leases).
    pub fn for_manifest(manifest_path: &Path) -> PathBuf {
        let mut name = manifest_path.file_name().unwrap_or_default().to_os_string();
        name.push(".leases");
        manifest_path.with_file_name(name)
    }

    /// Opens (creating) a lease directory without a campaign identity
    /// check — the low-level constructor for tests and tooling that
    /// inspect leases after the fact. Workers should use
    /// [`LeaseDir::open`].
    pub fn create(dir: &Path) -> Result<LeaseDir, ScenarioError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ScenarioError::Dist(format!("mkdir {}: {e}", dir.display())))?;
        Ok(LeaseDir {
            dir: dir.to_path_buf(),
        })
    }

    /// Opens (creating) a lease directory *for this campaign*: stamps a
    /// fresh directory with the manifest's digest, and rejects a
    /// directory stamped for a different campaign — stale leases from
    /// an earlier plan at the same path fail loudly instead of silently
    /// starving every shard.
    ///
    /// The stamp is published atomically: the digest is written to a
    /// private temp file and `hard_link`ed into place, so exactly one
    /// campaign wins a fresh directory even when shards of *different*
    /// campaigns race to stamp it — the loser reads the winner's
    /// complete stamp and errors (no read-then-write window in which
    /// both could proceed).
    pub fn open(dir: &Path, manifest: &Manifest) -> Result<LeaseDir, ScenarioError> {
        let leases = LeaseDir::create(dir)?;
        let id_path = leases.dir.join("campaign.id");
        let stamp = format!("{}\n", manifest.digest);
        let tmp = leases
            .dir
            .join(format!(".campaign.id.tmp.{}", std::process::id()));
        // The stamp bytes must be durable *before* hard_link publishes
        // the name: the link is metadata, so a crash right after it
        // could otherwise leave an empty or torn stamp at the published
        // path — which would then reject every future manifest against
        // this directory as a digest mismatch.
        std::fs::File::create(&tmp)
            .and_then(|mut f| {
                std::io::Write::write_all(&mut f, stamp.as_bytes())?;
                f.sync_all()
            })
            .map_err(|e| ScenarioError::Dist(format!("write {}: {e}", tmp.display())))?;
        let published = std::fs::hard_link(&tmp, &id_path);
        std::fs::remove_file(&tmp).ok();
        match published {
            Ok(()) => {
                // And the link itself must survive power loss — the
                // stamp is what rejects stale lease directories.
                crate::store::sync_dir(&leases.dir)
                    .map_err(|e| ScenarioError::Dist(e.to_string()))?;
                Ok(leases)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let existing = std::fs::read_to_string(&id_path)
                    .map_err(|e| ScenarioError::Dist(format!("read {}: {e}", id_path.display())))?;
                if existing == stamp {
                    Ok(leases)
                } else if existing.trim().is_empty() {
                    // A pre-fix crash (or a foreign tool) left a torn
                    // stamp: name the real problem and the remedy
                    // instead of reporting a bogus digest mismatch.
                    Err(ScenarioError::Dist(format!(
                        "lease directory {} has an empty campaign stamp (crash while \
                         stamping?) — remove the directory and re-run with --resume",
                        dir.display()
                    )))
                } else {
                    Err(ScenarioError::Dist(format!(
                        "lease directory {} belongs to campaign {} but this manifest digests \
                         to {} — remove the directory or pass a fresh --leases DIR",
                        dir.display(),
                        existing.trim(),
                        manifest.digest
                    )))
                }
            }
            Err(e) => Err(ScenarioError::Dist(format!(
                "stamp {}: {e}",
                id_path.display()
            ))),
        }
    }

    fn lease_path(&self, chunk: usize) -> PathBuf {
        self.dir.join(format!("chunk-{chunk:06}.lease"))
    }

    /// Attempts to claim a chunk for a shard. `Ok(true)` means this
    /// shard now owns the chunk; `Ok(false)` means another shard beat
    /// it there. Atomic via exclusive file creation.
    pub fn claim(&self, chunk: usize, shard: u32) -> Result<bool, ScenarioError> {
        let path = self.lease_path(chunk);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                use std::io::Write as _;
                let body = format!("{{\"chunk\":{chunk},\"shard\":{shard}}}\n");
                file.write_all(body.as_bytes())
                    .and_then(|()| file.sync_data())
                    .map_err(|e| {
                        ScenarioError::Dist(format!("write lease {}: {e}", path.display()))
                    })?;
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(ScenarioError::Dist(format!(
                "claim lease {}: {e}",
                path.display()
            ))),
        }
    }

    /// Which shard holds a chunk's lease, if any (post-campaign
    /// reporting; the claim protocol itself never reads leases).
    pub fn holder(&self, chunk: usize) -> Result<Option<u32>, ScenarioError> {
        let path = self.lease_path(chunk);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(ScenarioError::Dist(format!(
                    "read lease {}: {e}",
                    path.display()
                )))
            }
        };
        let doc = crate::json::Json::parse(&text)
            .map_err(|e| ScenarioError::Dist(format!("lease {}: {e}", path.display())))?;
        Ok(doc
            .get("shard")
            .and_then(crate::json::Json::as_f64)
            .map(|s| s as u32))
    }
}

/// What a stealing shard run did, beyond the campaign itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Chunks this shard claimed and executed.
    pub claimed_chunks: usize,
    /// Of those, chunks stolen from another shard's initial lease.
    pub stolen_chunks: usize,
    /// Lazy cells in this shard's initial lease (what a static
    /// partition would have pinned on it).
    pub lease_cells: usize,
    /// Lazy cells this shard actually executed (claimed chunks). A slow
    /// shard ends below its lease; fast shards end above theirs.
    pub executed_lazy_cells: usize,
}

/// Runs one shard of the manifest's campaign with work stealing: claim
/// and execute the initial lease chunk by chunk, then steal whatever
/// other shards have not claimed. The returned campaign covers exactly
/// the cells of the chunks this shard won, in deterministic global
/// order (which chunks those *are* is scheduling-dependent — that is
/// the point — but every cell's result is not).
///
/// `leases` must be a directory opened for *this* campaign (see
/// [`LeaseDir::open`]); a chunk whose holder dies mid-execution stays
/// leased and is surfaced by merge's coverage check — recover by
/// clearing the lease directory and re-running with `--resume`.
pub fn run_shard_stealing(
    registry: &Registry,
    manifest: &Manifest,
    index: u32,
    threads: usize,
    store: &mut ResultStore,
    leases: &LeaseDir,
    hooks: ExecHooks<'_>,
) -> Result<(Campaign, StealStats), ScenarioError> {
    Shard::new(index, manifest.shards)?;
    check_drift(registry, manifest)?;
    let chunks = chunk_map(registry, manifest)?;
    let filter = manifest.parsed_filter()?;
    // Replicates come from the manifest so every shard expands the same
    // replicated matrix; a range run never folds (the merge engine
    // folds once all shards' raw replicates are fused), so
    // keep_replicates is irrelevant here.
    let config = ExecConfig {
        threads,
        seed: manifest.seed,
        replicates: manifest.replicates,
        keep_replicates: true,
    };

    let mut stats = StealStats::default();
    for chunk in &chunks {
        if chunk.initial_shard == index {
            stats.lease_cells += chunk.range.len();
        }
    }

    // Own chunks first (the initial lease), then the steal sweep.
    // Deliberately one claim per executor invocation, not a bulk claim
    // of the whole lease: a chunk only becomes stealable once it is
    // *unclaimed*, so claiming lazily keeps a slow shard's backlog
    // available to its peers — the entire point of this module. The
    // price is that in-chunk parallelism is capped by the chunk's cell
    // count; chunk sizing (CHUNKS_PER_SHARD) keeps that acceptable.
    let order = chunks
        .iter()
        .filter(|c| c.initial_shard == index)
        .chain(chunks.iter().filter(|c| c.initial_shard != index));
    // The caller's per-cell events carry campaign-level counts: executed
    // accumulates across chunks instead of resetting at every
    // per-chunk executor invocation, and the total is the whole lazy
    // cell space (the shard cannot know up front how much it will end
    // up claiming).
    let campaign_lazy_cells: usize = chunks.iter().map(|c| c.range.len()).sum();
    let mut executed_so_far = 0usize;
    let mut memoized_so_far = 0usize;
    let mut pieces: Vec<(usize, Campaign)> = Vec::new();
    for chunk in order {
        let won = {
            let _claim_span = hooks.obs.map(|o| o.span("lease/claim", "steal"));
            leases.claim(chunk.id, index)?
        };
        if let Some(obs) = hooks.obs {
            // A lost claim is the steal-contention signal: some peer
            // already holds (or stole) the chunk.
            obs.count(
                if won {
                    "steal/claim_won"
                } else {
                    "steal/claim_lost"
                },
                1,
            );
            if won && chunk.initial_shard != index {
                obs.count("steal/stolen", 1);
            }
        }
        if !won {
            continue;
        }
        let range = chunk.range.clone();
        let base = executed_so_far;
        let memo_base = memoized_so_far;
        let rebased = hooks.on_cell.map(|on_cell| {
            move |e: CellEvent<'_>| {
                on_cell(CellEvent {
                    executed: base + e.executed,
                    memoized: memo_base + e.memoized,
                    total: campaign_lazy_cells,
                    ..e
                })
            }
        });
        let chunk_hooks = ExecHooks {
            on_cell: rebased
                .as_ref()
                .map(|r| r as &(dyn Fn(CellEvent<'_>) + Sync)),
            ..hooks
        };
        let piece = run_campaign_with(
            registry,
            &manifest.scenarios,
            &filter,
            &config,
            store,
            CellDomain::Ranges(std::slice::from_ref(&range)),
            chunk_hooks,
        )?;
        executed_so_far += piece.executed;
        memoized_so_far += piece.memoized;
        stats.claimed_chunks += 1;
        stats.executed_lazy_cells += chunk.range.len();
        if chunk.initial_shard != index {
            stats.stolen_chunks += 1;
        }
        pieces.push((chunk.id, piece));
    }

    // Chunk ids ascend with global indices, so sorting by id restores
    // the executor's deterministic cell order for this shard's slice.
    pieces.sort_by_key(|(id, _)| *id);
    let mut campaign = Campaign {
        seed: manifest.seed,
        cells: Vec::new(),
        executed: 0,
        memoized: 0,
        replicates: manifest.replicates,
    };
    for (_, piece) in pieces {
        campaign.executed += piece.executed;
        campaign.memoized += piece.memoized;
        campaign.cells.extend(piece.cells);
    }
    Ok((campaign, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist;
    use crate::exec::run_campaign;
    use crate::matrix::Filter;

    fn select() -> Vec<String> {
        vec!["pipeline-domino".to_string(), "dram-refresh".to_string()]
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("harness-steal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn chunk_map_is_deterministic_disjoint_and_covering() {
        let registry = Registry::builtin();
        let manifest = dist::plan(&registry, &select(), &[], 42, 3).unwrap();
        let chunks = chunk_map(&registry, &manifest).unwrap();
        assert_eq!(chunks, chunk_map(&registry, &manifest).unwrap());
        // Contiguous cover of the lazy space, ids in range order.
        let total: usize = 8; // domino (4) + dram-refresh (4) lazy cells
        let mut next = 0usize;
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.id, i);
            assert_eq!(chunk.range.start, next);
            assert!(chunk.range.end > chunk.range.start);
            assert!(chunk.initial_shard < manifest.shards);
            next = chunk.range.end;
        }
        assert_eq!(next, total, "chunks must cover the lazy space");
        // Chunks never span scenarios: the domino/dram boundary at 4.
        assert!(chunks
            .iter()
            .all(|c| c.range.end <= 4 || c.range.start >= 4));
    }

    #[test]
    fn weights_shift_the_initial_lease_balance() {
        // The full registry (~100 cells) gives the chunker room to
        // react to weights; `select()`'s 8 cells would not.
        let registry = Registry::builtin();
        let mut manifest = dist::plan(&registry, &[], &[], 42, 2).unwrap();
        let even = chunk_map(&registry, &manifest).unwrap();
        // Make the first scenario's cells 50× costlier: its chunks
        // shrink (more stealable pieces) and the greedy lease
        // rebalances.
        manifest.per_scenario[0].weight = 50.0;
        let skewed = chunk_map(&registry, &manifest).unwrap();
        let first_chunks = |chunks: &[Chunk]| chunks.iter().filter(|c| c.scenario == 0).count();
        assert!(
            first_chunks(&skewed) > first_chunks(&even),
            "a costlier scenario must be cut into more chunks"
        );
        let lease_cost = |chunks: &[Chunk], shard: u32| -> f64 {
            chunks
                .iter()
                .filter(|c| c.initial_shard == shard)
                .map(|c| c.cost)
                .sum()
        };
        let (a, b) = (lease_cost(&skewed, 0), lease_cost(&skewed, 1));
        assert!(
            (a - b).abs() / (a + b) < 0.35,
            "greedy lease must stay cost-balanced: {a} vs {b}"
        );
    }

    #[test]
    fn lease_claims_are_exclusive() {
        let dir = tempdir("claims");
        let leases = LeaseDir::create(&dir).unwrap();
        assert!(leases.claim(0, 1).unwrap());
        assert!(!leases.claim(0, 2).unwrap(), "second claim must lose");
        assert_eq!(leases.holder(0).unwrap(), Some(1));
        assert_eq!(leases.holder(9).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_dir_rejects_a_different_campaign() {
        let registry = Registry::builtin();
        let dir = tempdir("identity");
        let manifest = dist::plan(&registry, &select(), &[], 42, 2).unwrap();
        LeaseDir::open(&dir, &manifest).unwrap();
        // Same campaign re-opens fine (concurrent shards do this).
        LeaseDir::open(&dir, &manifest).unwrap();
        // A re-planned campaign (different seed → different digest)
        // must be refused instead of silently starving on stale leases.
        let replanned = dist::plan(&registry, &select(), &[], 43, 2).unwrap();
        let err = LeaseDir::open(&dir, &replanned).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Dist(ref m) if m.contains("remove the directory")),
            "got: {err}"
        );
        // An empty (torn) stamp is corruption with a remediation hint,
        // not a bogus digest mismatch against campaign "".
        std::fs::write(dir.join("campaign.id"), "").unwrap();
        let err = LeaseDir::open(&dir, &manifest).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Dist(ref m)
                if m.contains("empty campaign stamp") && m.contains("remove the directory")),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lone_stealing_shard_sweeps_the_whole_campaign() {
        // With no competitors, shard 0 steals every other lease and the
        // merged (single) store equals the single-process store.
        let registry = Registry::builtin();
        let manifest = dist::plan(&registry, &select(), &[], 42, 3).unwrap();
        let dir = tempdir("lone");
        let leases = LeaseDir::open(&dir, &manifest).unwrap();
        let mut store = ResultStore::new();
        // Per-cell counts must accumulate across chunk invocations (not
        // reset per chunk) against the campaign-wide total.
        let seen = std::sync::Mutex::new(Vec::new());
        let on_cell = |e: CellEvent<'_>| {
            assert_eq!(e.total, 8, "campaign-wide total");
            seen.lock().unwrap().push(e.executed);
        };
        let (campaign, stats) = run_shard_stealing(
            &registry,
            &manifest,
            0,
            2,
            &mut store,
            &leases,
            ExecHooks {
                on_cell: Some(&on_cell),
                on_result: None,
                obs: None,
                cancel: None,
            },
        )
        .unwrap();
        let ticks = seen.into_inner().unwrap();
        assert_eq!(ticks.len(), 8, "one event per executed cell");
        assert_eq!(ticks.iter().max(), Some(&8), "accumulates to the campaign");
        assert!(stats.stolen_chunks > 0, "everything else must be stolen");
        assert_eq!(
            stats.claimed_chunks,
            chunk_map(&registry, &manifest).unwrap().len()
        );
        assert!(stats.executed_lazy_cells > stats.lease_cells);

        let mut single = ResultStore::new();
        let full = run_campaign(
            &registry,
            &select(),
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 42,
                ..ExecConfig::default()
            },
            &mut single,
        )
        .unwrap();
        assert_eq!(
            campaign.cells, full.cells,
            "deterministic order and content"
        );
        assert_eq!(store.to_json().pretty(), single.to_json().pretty());
        dist::merge::verify_coverage(&registry, &manifest, &store).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn competing_shards_partition_by_lease_and_merge_byte_identically() {
        // All three shards run in-process, sequentially; later shards
        // find earlier leases taken, so claims partition the chunk set.
        let registry = Registry::builtin();
        let manifest = dist::plan(&registry, &select(), &[], 9, 3).unwrap();
        let dir = tempdir("competing");
        let leases = LeaseDir::open(&dir, &manifest).unwrap();
        let mut stores = Vec::new();
        let mut claimed = 0usize;
        for index in 0..3 {
            let mut store = ResultStore::new();
            let (_, stats) = run_shard_stealing(
                &registry,
                &manifest,
                index,
                1,
                &mut store,
                &leases,
                ExecHooks::default(),
            )
            .unwrap();
            claimed += stats.claimed_chunks;
            stores.push(store);
        }
        assert_eq!(claimed, chunk_map(&registry, &manifest).unwrap().len());
        let (fused, stats) = dist::merge_stores(&stores).unwrap();
        assert_eq!(stats.duplicates, 0, "leases are exclusive");
        dist::merge::verify_coverage(&registry, &manifest, &fused).unwrap();
        let mut single = ResultStore::new();
        run_campaign(
            &registry,
            &select(),
            &Filter::all(),
            &ExecConfig {
                threads: 1,
                seed: 9,
                ..ExecConfig::default()
            },
            &mut single,
        )
        .unwrap();
        assert_eq!(fused.to_json().pretty(), single.to_json().pretty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_map_scales_with_the_replicate_multiplier() {
        let registry = Registry::builtin();
        let base = dist::plan(&registry, &select(), &[], 42, 3).unwrap();
        let mut replicated = base.clone();
        replicated.replicates = 16;
        replicated.cells = base.cells * 16;
        let base_chunks = chunk_map(&registry, &base).unwrap();
        let rep_chunks = chunk_map(&registry, &replicated).unwrap();
        let covered = |chunks: &[Chunk]| chunks.last().map_or(0, |c| c.range.end);
        assert_eq!(
            covered(&rep_chunks),
            covered(&base_chunks) * 16,
            "chunks must cover the replicated lazy space"
        );
        // Contiguous cover, as in the unreplicated case.
        let mut next = 0usize;
        for chunk in &rep_chunks {
            assert_eq!(chunk.range.start, next);
            next = chunk.range.end;
        }
        // Replicate groups are rep-fastest in the lazy space, so a
        // chunk boundary inside a group is fine for execution — but
        // the per-shard lease totals must stay balanced in *cells*.
        let lease_cells = |chunks: &[Chunk], shard: u32| -> usize {
            chunks
                .iter()
                .filter(|c| c.initial_shard == shard)
                .map(|c| c.range.len())
                .sum()
        };
        let per_shard: Vec<usize> = (0..3).map(|s| lease_cells(&rep_chunks, s)).collect();
        let (min, max) = (
            *per_shard.iter().min().unwrap(),
            *per_shard.iter().max().unwrap(),
        );
        assert!(
            max - min <= covered(&rep_chunks) / 3,
            "replicated lease balance skewed: {per_shard:?}"
        );
    }
}
