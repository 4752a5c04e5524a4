//! # dist — sharded multi-process campaign execution
//!
//! Scales the campaign engine past a single process by turning a
//! campaign into a *shardable, mergeable, diffable* artifact. Every
//! entry point addresses cells through the campaign's
//! [`CampaignSpace`](crate::space::CampaignSpace) (see
//! [`Manifest::space`]), the same index space the executor runs:
//!
//! * [`plan()`] / [`plan_calibrated_with`] — deterministically partition
//!   the campaign into N disjoint shards by cell fingerprint and
//!   capture it in a small [`Manifest`] (cell counts, fingerprint
//!   digests, cost weights, replicates); any worker holding the
//!   manifest computes the identical partition, so there is no
//!   coordinator.
//! * [`run_shard`] / [`run_shard_with`] — the worker mode: checks for
//!   registry drift, then runs exactly shard `i/N` (thread-fanned
//!   inside the process) against its own [`ResultStore`].
//! * [`run_shard_stealing`] — dynamic work stealing: the static
//!   partition becomes an *initial lease* over cost-weighted chunks of
//!   the index space ([`chunk_map`]), and idle shards steal unleased
//!   chunks through atomic lease files ([`LeaseDir`]).
//! * [`merge_stores`] / [`merge_stores_owned_observed`] — fuse shard
//!   stores into one canonical store, aborting on fingerprint
//!   collisions with conflicting results (a determinism violation);
//!   [`merge::verify_coverage`] checks the fused store holds exactly
//!   the planned cells, and [`fold_replicates`] folds a replicated
//!   campaign's raw cells into distribution cells.
//! * [`diff_stores`] — compares two stores cell-by-cell under
//!   per-metric tolerances; the store-backed regression gate ("did a
//!   simulator change move any metric?").
//!
//! The invariant the whole layer rests on, inherited from the
//! executor's per-cell seeding: *shard runs merge to the byte-identical
//! store a single-process run would have written* — replicated
//! campaigns included.
//!
//! ```
//! use harness::dist::{self, diff_stores, Tolerances};
//! use harness::exec::{run_campaign, ExecConfig};
//! use harness::matrix::Filter;
//! use harness::registry::Registry;
//! use harness::store::ResultStore;
//!
//! let registry = Registry::builtin();
//! let select = vec!["pipeline-domino".to_string()];
//!
//! // Plan 2 shards of a 3-replicate campaign, run each shard against
//! // its own store, merge, check coverage, fold the replicates.
//! let (manifest, _, _) =
//!     dist::plan_calibrated_with(&registry, &select, &[], 42, 2, 3, None, None).unwrap();
//! let mut shard_stores = Vec::new();
//! for index in 0..manifest.shards {
//!     let mut store = ResultStore::new();
//!     dist::run_shard(&registry, &manifest, index, 2, &mut store).unwrap();
//!     shard_stores.push(store);
//! }
//! let (mut fused, _stats) = dist::merge_stores_owned_observed(shard_stores, None).unwrap();
//! dist::merge::verify_coverage(&registry, &manifest, &fused).unwrap();
//! assert_eq!(dist::fold_replicates(&registry, &manifest, &mut fused, false).unwrap(), 4);
//!
//! // The fused store is byte-identical to a single-process run's.
//! let mut single = ResultStore::new();
//! run_campaign(
//!     &registry,
//!     &select,
//!     &Filter::all(),
//!     &ExecConfig { threads: 1, seed: 42, replicates: 3, ..ExecConfig::default() },
//!     &mut single,
//! )
//! .unwrap();
//! assert_eq!(fused.to_json().pretty(), single.to_json().pretty());
//! assert!(diff_stores(&single, &fused, &Tolerances::exact()).is_empty());
//! ```

pub mod diff;
pub mod merge;
pub mod plan;
pub mod steal;

pub use diff::{diff_stores, Admitted, DiffReport, NearMiss, Tolerances};
pub use merge::{
    fold_replicates, merge_stores, merge_stores_observed, merge_stores_owned_observed,
    steal_report, MergeStats, StealReport,
};
pub use plan::{
    calibrate_weights, calibrate_weights_wall, plan, plan_calibrated, plan_calibrated_with,
    planned_cells, visit_planned_cells, CorpusPlan, Manifest, PlannedCell, ScenarioPlan,
    WeightSource,
};
pub use steal::{chunk_map, run_shard_stealing, Chunk, LeaseDir, StealStats};

use crate::exec::{run_campaign_with, Campaign, CellDomain, ExecConfig, ExecHooks, Shard};
use crate::gen::GenOptions;
use crate::registry::Registry;
use crate::scenario::ScenarioError;
use crate::store::ResultStore;

/// The built-in registry a worker must use to claim shards of this
/// manifest: when the manifest records a generated-program corpus, the
/// registry is rebuilt over exactly that corpus identity (size + seed);
/// [`plan::check_drift`] then verifies the rematerialized population
/// digests to the planned one, so codegen drift between plan and shard
/// time is caught by name instead of silently mispartitioning.
pub fn registry_for(manifest: &Manifest) -> Registry {
    match &manifest.corpus {
        Some(corpus) => Registry::builtin_with(&GenOptions {
            corpus_size: corpus.size,
            corpus_seed: corpus.seed,
        }),
        None => Registry::builtin(),
    }
}

/// Runs exactly shard `index` of the manifest's campaign: validates the
/// index, re-streams the matrix, errors on registry drift, then
/// executes the owned cells (thread-fanned) against `store`.
pub fn run_shard(
    registry: &Registry,
    manifest: &Manifest,
    index: u32,
    threads: usize,
    store: &mut ResultStore,
) -> Result<Campaign, ScenarioError> {
    run_shard_with(
        registry,
        manifest,
        index,
        threads,
        store,
        ExecHooks::default(),
    )
}

/// [`run_shard`] with execution hooks (per-cell events, crash-resume
/// journal sink).
pub fn run_shard_with(
    registry: &Registry,
    manifest: &Manifest,
    index: u32,
    threads: usize,
    store: &mut ResultStore,
    hooks: ExecHooks<'_>,
) -> Result<Campaign, ScenarioError> {
    let shard = Shard::new(index, manifest.shards)?;
    plan::check_drift(registry, manifest)?;
    run_campaign_with(
        registry,
        &manifest.scenarios,
        &manifest.parsed_filter()?,
        &ExecConfig {
            threads,
            seed: manifest.seed,
            replicates: manifest.replicates,
            // Shard runs never fold (the merge engine folds once all
            // shards' raw replicates are fused), so the raws must stay.
            keep_replicates: true,
        },
        store,
        CellDomain::Shard(shard),
        hooks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_shard_rejects_out_of_range_index() {
        let registry = Registry::builtin();
        let manifest = plan(&registry, &["pipeline-domino".into()], &[], 0, 2).unwrap();
        let err = run_shard(&registry, &manifest, 2, 1, &mut ResultStore::new()).unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(_)));
    }

    #[test]
    fn run_shard_detects_registry_drift() {
        let registry = Registry::builtin();
        let mut manifest = plan(&registry, &["pipeline-domino".into()], &[], 0, 2).unwrap();
        manifest.cells -= 1;
        let err = run_shard(&registry, &manifest, 0, 1, &mut ResultStore::new()).unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(ref m) if m.contains("drift")));
    }
}
