//! The chunk map every shard runs from, and dynamic work stealing
//! between shard processes.
//!
//! * The campaign's global lazy index space is cut into [`Chunk`]s —
//!   contiguous cell ranges of roughly equal cell count that never span
//!   scenarios. Every shard derives the identical chunk map from the
//!   manifest alone; there is no coordinator.
//! * Each chunk has a deterministic `initial_shard` (greedy
//!   least-loaded assignment by cell count in chunk order): the shard
//!   partition. A static shard ([`crate::dist::run_shard_with`]) runs
//!   the chunks of its initial lease and stops; it needs no lease
//!   files, because no chunk is contested.
//! * A stealing shard ([`run_shard_stealing`]) claims its own chunks
//!   one at a time, then sweeps the other shards' chunks and steals
//!   whatever is still unleased, so one slow shard no longer sets the
//!   campaign's makespan.
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
use crate::exec::{run_campaign_with, Campaign, CellDomain, CellEvent, ExecHooks};
use crate::registry::Registry;
use crate::scenario::ScenarioError;
use crate::store::ResultStore;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunk-map granularity: target chunks per shard. High enough that a
/// slow shard's backlog is stealable in pieces, low enough that lease
/// traffic (one file create per chunk) stays negligible.
pub const CHUNKS_PER_SHARD: usize = 8;

/// One leasable unit of campaign work: a contiguous range of the
/// global lazy index space, never spanning scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Lease id (position in the deterministic chunk map).
    pub id: usize,
    /// Index into the manifest's scenario list.
    pub scenario: usize,
    /// Global lazy index range (includes filtered-out cells; the
    /// executor skips those while scanning).
    pub range: Range<usize>,
    /// The shard this chunk is initially leased to.
    pub initial_shard: u32,
}

/// Deterministically cuts the manifest's campaign into chunks of about
/// `cells / (shards × CHUNKS_PER_SHARD)` lazy cells (at least one) and
/// assigns each an initial shard. Every worker holding the manifest
/// computes the identical map — chunk ids are the whole coordination
/// vocabulary.
pub fn chunk_map(registry: &Registry, manifest: &Manifest) -> Result<Vec<Chunk>, ScenarioError> {
    // The space's scenario ranges already carry the replicate
    // multiplier, so chunk sizes (and therefore the initial lease
    // balance) account for the full replicated cell load.
    let space = manifest.space(registry)?;
    let total: usize = space.ranges().map(|range| range.len()).sum();
    let target = (manifest.shards as usize * CHUNKS_PER_SHARD).max(1);
    // `total / target`, rounded half up.
    let cells_per_chunk = ((total + target / 2) / target).max(1);

    let mut chunks = Vec::new();
    for (scenario, range) in space.ranges().enumerate() {
        for start in range.clone().step_by(cells_per_chunk) {
            chunks.push(Chunk {
                id: chunks.len(),
                scenario,
                range: start..(start + cells_per_chunk).min(range.end),
                initial_shard: 0,
            });
        }
    }
    // Initial lease: greedy least-loaded by cell count in chunk order.
    // Ties go to the lowest index, so chunk `i` never lands above shard
    // `i`: sizing the loads by the chunk count gives the same assignment
    // without a per-shard allocation.
    let mut load = vec![0usize; (manifest.shards as usize).min(chunks.len())];
    for chunk in &mut chunks {
        let shard = (0..load.len()).min_by_key(|&i| load[i]).unwrap_or(0);
        chunk.initial_shard = shard as u32;
        load[shard] += chunk.range.len();
    }
    Ok(chunks)
}

/// The chunk map a worker of shard `index` runs from: errors when the
/// index is outside the manifest's shard count or the registry drifted
/// since planning.
pub(crate) fn shard_chunks(
    registry: &Registry,
    manifest: &Manifest,
    index: u32,
) -> Result<Vec<Chunk>, ScenarioError> {
    if index >= manifest.shards {
        return Err(ScenarioError::Dist(format!(
            "shard index {index} out of range (count {})",
            manifest.shards
        )));
    }
    check_drift(registry, manifest)?;
    chunk_map(registry, manifest)
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
/// re-run the shards with the same commands: every journaled cell
/// replays into its store, so only the dead shard's unfinished work
/// recomputes.
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
                         stamping?) — remove the directory and re-run the shards",
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
    /// Lazy cells in this shard's initial lease (what a static shard
    /// would have run).
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
/// A failing cell stays contained as in the executor: its chunk's
/// completed cells are in `store`, the sweep goes on through every
/// remaining chunk, and the error of the lowest-id failing chunk is
/// returned at the end (a cancelled run stops at once).
///
/// `leases` must be a directory opened for *this* campaign (see
/// [`LeaseDir::open`]); a chunk whose holder dies mid-execution, or
/// whose cell failed, stays leased and is surfaced by merge's coverage
/// check — recover by clearing the lease directory and re-running the
/// shards.
pub fn run_shard_stealing(
    registry: &Registry,
    manifest: &Manifest,
    index: u32,
    threads: usize,
    store: &mut ResultStore,
    leases: &LeaseDir,
    hooks: ExecHooks<'_>,
) -> Result<(Campaign, StealStats), ScenarioError> {
    let chunks = shard_chunks(registry, manifest, index)?;
    let filter = manifest.parsed_filter()?;
    let config = manifest.exec_config(threads);

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
    // The highest counts reported so far, failed chunks' cells included.
    let (executed_so_far, memoized_so_far) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut pieces: Vec<(usize, Campaign)> = Vec::new();
    let mut failed: Option<(usize, ScenarioError)> = None;
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
        let base = executed_so_far.load(Ordering::Relaxed);
        let memo_base = memoized_so_far.load(Ordering::Relaxed);
        let rebased = hooks.on_cell.map(|on_cell| {
            let (executed_so_far, memoized_so_far) = (&executed_so_far, &memoized_so_far);
            move |e: CellEvent| {
                let e = CellEvent {
                    executed: base + e.executed,
                    memoized: memo_base + e.memoized,
                    total: campaign_lazy_cells,
                };
                executed_so_far.fetch_max(e.executed, Ordering::Relaxed);
                memoized_so_far.fetch_max(e.memoized, Ordering::Relaxed);
                on_cell(e)
            }
        });
        let chunk_hooks = ExecHooks {
            on_cell: rebased.as_ref().map(|r| r as &(dyn Fn(CellEvent) + Sync)),
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
        );
        stats.claimed_chunks += 1;
        stats.executed_lazy_cells += chunk.range.len();
        if chunk.initial_shard != index {
            stats.stolen_chunks += 1;
        }
        match piece {
            Ok(piece) => pieces.push((chunk.id, piece)),
            Err(ScenarioError::Cancelled) => return Err(ScenarioError::Cancelled),
            Err(e) => {
                if failed.as_ref().is_none_or(|(id, _)| chunk.id < *id) {
                    failed = Some((chunk.id, e));
                }
            }
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
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
    use crate::exec::{run_campaign, ExecConfig};
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
        let manifest = dist::plan(&registry, &select(), &[], 42, 3, 1).unwrap();
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
    fn a_huge_shard_count_leases_one_chunk_per_shard() {
        // More shards than chunks: the map equals the map at exactly one
        // shard per chunk (shards above that get an empty lease), and
        // cutting it allocates nothing per shard.
        let registry = Registry::builtin();
        let mut manifest = dist::plan(&registry, &select(), &[], 42, u32::MAX, 1).unwrap();
        let huge = chunk_map(&registry, &manifest).unwrap();
        assert_eq!(huge.len(), 8, "one chunk per lazy cell");
        manifest.shards = huge.len() as u32;
        assert_eq!(huge, chunk_map(&registry, &manifest).unwrap());
        assert!(huge.iter().all(|c| c.initial_shard == c.id as u32));
    }

    #[test]
    fn cell_count_chunking_keeps_the_unit_weight_partition() {
        // `id:scenario:start..end@initial_shard` of every chunk, as the
        // schema-5 planner cut unit-weight manifests: static shards,
        // stealing shards and merged stores of every plan made without
        // calibration stay byte-identical across the schema bump.
        let render = |registry: &Registry, select: &[String], shards: u32| {
            let manifest = dist::plan(registry, select, &[], 42, shards, 1).unwrap();
            let chunks = chunk_map(registry, &manifest).unwrap();
            let rendered: Vec<String> = chunks
                .iter()
                .map(|c| {
                    let (id, s, r) = (c.id, c.scenario, &c.range);
                    format!("{id}:{s}:{}..{}@{}", r.start, r.end, c.initial_shard)
                })
                .collect();
            rendered.join(" ")
        };
        let registry = Registry::builtin();
        assert_eq!(
            render(&registry, &[], 2),
            "0:0:0..6@0 1:0:6..8@1 2:1:8..14@1 3:2:14..18@0 4:3:18..22@1 \
             5:4:22..28@0 6:5:28..34@1 7:5:34..36@0 8:6:36..40@0 9:7:40..46@1 \
             10:8:46..48@0 11:9:48..54@0 12:10:54..60@1 13:10:60..66@0 \
             14:10:66..70@1 15:11:70..76@1 16:11:76..82@0 17:11:82..86@1 \
             18:12:86..92@0 19:12:92..98@1 20:12:98..102@0"
        );
        assert_eq!(
            render(&registry, &[], 3),
            "0:0:0..4@0 1:0:4..8@1 2:1:8..12@2 3:1:12..14@0 4:2:14..18@1 \
             5:3:18..22@2 6:4:22..26@0 7:4:26..28@1 8:5:28..32@2 9:5:32..36@0 \
             10:6:36..40@1 11:7:40..44@2 12:7:44..46@0 13:8:46..48@1 14:9:48..52@0 \
             15:9:52..54@1 16:10:54..58@2 17:10:58..62@1 18:10:62..66@0 \
             19:10:66..70@2 20:11:70..74@1 21:11:74..78@0 22:11:78..82@2 \
             23:11:82..86@1 24:12:86..90@0 25:12:90..94@2 26:12:94..98@1 \
             27:12:98..102@0"
        );
        let corpus_64 = Registry::builtin_with(&crate::gen::GenOptions {
            corpus_size: 64,
            corpus_seed: 42,
        });
        let gen = ["gen/pipeline", "gen/cache", "gen/wcet"].map(String::from);
        assert_eq!(
            render(&corpus_64, &gen, 2),
            "0:0:0..96@0 1:0:96..192@1 2:0:192..288@0 3:0:288..384@1 4:0:384..480@0 \
             5:0:480..512@1 6:1:512..608@1 7:1:608..704@0 8:1:704..800@1 \
             9:1:800..896@0 10:1:896..992@1 11:1:992..1024@0 12:2:1024..1120@0 \
             13:2:1120..1216@1 14:2:1216..1312@0 15:2:1312..1408@1 \
             16:2:1408..1504@0 17:2:1504..1536@1"
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
        let manifest = dist::plan(&registry, &select(), &[], 42, 2, 1).unwrap();
        LeaseDir::open(&dir, &manifest).unwrap();
        // Same campaign re-opens fine (concurrent shards do this).
        LeaseDir::open(&dir, &manifest).unwrap();
        // A re-planned campaign (different seed → different digest)
        // must be refused instead of silently starving on stale leases.
        let replanned = dist::plan(&registry, &select(), &[], 43, 2, 1).unwrap();
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
        let manifest = dist::plan(&registry, &select(), &[], 42, 3, 1).unwrap();
        let dir = tempdir("lone");
        let leases = LeaseDir::open(&dir, &manifest).unwrap();
        let mut store = ResultStore::new();
        // Per-cell counts must accumulate across chunk invocations (not
        // reset per chunk) against the campaign-wide total.
        let seen = std::sync::Mutex::new(Vec::new());
        let on_cell = |e: CellEvent| {
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
        let manifest = dist::plan(&registry, &select(), &[], 9, 3, 1).unwrap();
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
        let (fused, stats) = dist::merge_stores(stores, None).unwrap();
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
        let base = dist::plan(&registry, &select(), &[], 42, 3, 1).unwrap();
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
