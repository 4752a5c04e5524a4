//! The shard planner and campaign manifest.
//!
//! [`plan`] captures everything a worker needs — scenario ids, filter
//! clauses, campaign seed, replicates, shard count, schema version — in
//! a [`Manifest`]. The manifest is small on purpose: workers re-expand
//! the campaign themselves and cut the same chunk map from it
//! ([`crate::dist::chunk_map`]), whose deterministic initial leases are
//! the shard partition. So shard `i/N` can be claimed by any process
//! that holds the manifest and the same registry, with no coordinator
//! in the loop. The planned cell count *and a digest of every planned
//! fingerprint* are recorded so registry drift (a scenario whose
//! matrix, version or axis values changed since planning) is detected
//! instead of silently producing a partial merge.
//!
//! Planning is *streaming*: cells are decoded one at a time from the
//! campaign's [`CampaignSpace`] and folded into counts and digests — a
//! plan over a multi-million-cell gen sweep never materializes a cell
//! list.

use crate::exec::ExecConfig;
use crate::json::Json;
use crate::matrix::Filter;
use crate::registry::Registry;
use crate::scenario::ScenarioError;
use crate::space::{CampaignSpace, Cell};
use std::path::Path;

/// Bump when the manifest layout or the shard assignment rule changes;
/// workers then refuse stale manifests instead of mispartitioning.
/// Version history: 1 — global cell count + fingerprint digest;
/// 2 — per-scenario counts/digests (drift errors name the drifted
/// scenarios) and the generated-program corpus identity;
/// 3 — per-scenario cost weights (the work-stealing layer's initial
/// lease balance);
/// 4 — the replicate multiplier (`--replicates N` enters the planned
/// index space, so every worker expands the same replicated matrix);
/// 5 — the chunk map is the only shard partition: a static shard runs
/// its initial-lease chunks instead of a fingerprint-hash slice;
/// 6 — no cost weights: chunks are cut and leased by cell count, so a
/// calibrated schema-5 manifest would be cut differently.
pub const MANIFEST_SCHEMA: u32 = 6;

/// One scenario's slice of the plan: enough to attribute drift to a
/// scenario by name instead of reporting bare campaign-level numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// Scenario id.
    pub id: String,
    /// Matched cells of this scenario at plan time.
    pub cells: usize,
    /// Digest of this scenario's planned fingerprints, in plan order.
    pub digest: String,
}

/// The generated-program corpus the campaign was planned over, when any
/// selected scenario sweeps one. Workers rebuild the exact registry
/// from this and verify the digest, so a codegen change between plan
/// and shard time surfaces as *corpus drift* instead of a silently
/// different program population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusPlan {
    /// Kernels per shape.
    pub size: u32,
    /// The corpus seed.
    pub seed: u64,
    /// The corpus population digest at plan time.
    pub digest: String,
}

/// Everything a worker needs to independently claim one shard of a
/// campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The campaign seed every cell seed derives from.
    pub seed: u64,
    /// Number of shards the chunk map leases the campaign to.
    pub shards: u32,
    /// Replicates per base cell (1 = the unreplicated matrix). Above
    /// one, every scenario matrix is multiplied by the fastest-varying
    /// [`crate::matrix::REP_AXIS`] and the planned counts, digests and
    /// chunks all range over the replicate cells.
    pub replicates: u32,
    /// Resolved scenario ids, in campaign (registration) order.
    pub scenarios: Vec<String>,
    /// Raw `axis=value` filter clauses, as given at plan time.
    pub filter: Vec<String>,
    /// Total matched cells at plan time (drift check).
    pub cells: usize,
    /// Digest of every planned cell fingerprint, in plan order. Catches
    /// count-preserving registry drift (a version bump or axis-value
    /// rename leaves the cell count intact but changes every
    /// fingerprint — and therefore the planned cell set).
    pub digest: String,
    /// Per-scenario counts and digests, in campaign order; lets drift
    /// errors name the scenarios that moved.
    pub per_scenario: Vec<ScenarioPlan>,
    /// The generated-program corpus identity, when the planning
    /// registry carried one and a selected scenario sweeps it.
    pub corpus: Option<CorpusPlan>,
}

/// An incremental, order-sensitive digest over planned fingerprints —
/// the streaming replacement for hashing a materialized cell list.
#[derive(Debug, Clone)]
pub struct FingerprintDigest {
    h: u64,
}

impl FingerprintDigest {
    /// An empty digest.
    pub fn new() -> FingerprintDigest {
        FingerprintDigest {
            h: crate::store::FNV_OFFSET,
        }
    }

    /// Folds one fingerprint in.
    pub fn update(&mut self, fp: &str) {
        self.h = crate::store::fnv1a(fp.as_bytes(), self.h);
        self.h = crate::store::fnv1a(&[0xff], self.h);
    }

    /// The digest so far.
    pub fn finish(&self) -> String {
        format!("{:016x}", self.h)
    }
}

impl Default for FingerprintDigest {
    fn default() -> Self {
        FingerprintDigest::new()
    }
}

impl Manifest {
    /// Parses the stored filter clauses.
    pub fn parsed_filter(&self) -> Result<Filter, ScenarioError> {
        Filter::parse(&self.filter).map_err(ScenarioError::Dist)
    }

    /// The executor configuration every shard runs this manifest's cells
    /// under: the manifest's seed and replicates, so every shard expands
    /// the same replicated matrix. Shard runs sweep chunk ranges, which
    /// never fold (the merge engine folds once all shards' raw
    /// replicates are fused), so the raws stay.
    pub fn exec_config(&self, threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            seed: self.seed,
            replicates: self.replicates,
            keep_replicates: true,
        }
    }

    /// The campaign index space this manifest plans, resolved against
    /// `registry`.
    pub fn space<'r>(&self, registry: &'r Registry) -> Result<CampaignSpace<'r>, ScenarioError> {
        CampaignSpace::new(
            registry,
            &self.scenarios,
            &self.parsed_filter()?,
            self.seed,
            self.replicates,
        )
    }

    /// Serializes deterministically (equal manifests are byte-equal).
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema".into(), Json::Num(MANIFEST_SCHEMA as f64)),
            // Decimal string: u64 seeds exceed f64's exact range.
            ("seed".into(), Json::str(self.seed.to_string())),
            ("shards".into(), Json::Num(f64::from(self.shards))),
            ("replicates".into(), Json::Num(f64::from(self.replicates))),
            ("cells".into(), Json::Num(self.cells as f64)),
            ("digest".into(), Json::str(&self.digest)),
            (
                "scenarios".into(),
                Json::Arr(self.scenarios.iter().map(Json::str).collect()),
            ),
            (
                "filter".into(),
                Json::Arr(self.filter.iter().map(Json::str).collect()),
            ),
            (
                "per_scenario".into(),
                Json::Arr(
                    self.per_scenario
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("id".into(), Json::str(&s.id)),
                                ("cells".into(), Json::Num(s.cells as f64)),
                                ("digest".into(), Json::str(&s.digest)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(corpus) = &self.corpus {
            members.push((
                "corpus".into(),
                Json::Obj(vec![
                    ("size".into(), Json::Num(f64::from(corpus.size))),
                    ("seed".into(), Json::str(corpus.seed.to_string())),
                    ("digest".into(), Json::str(&corpus.digest)),
                ]),
            ));
        }
        Json::Obj(members)
    }

    /// Deserializes a manifest; unlike the result store, a schema
    /// mismatch is an error — a worker must never run a partition rule
    /// it does not implement, so an older manifest must be re-planned.
    pub fn from_json(doc: &Json) -> Result<Manifest, ScenarioError> {
        let bad = |what: &str| ScenarioError::Dist(format!("manifest: bad {what}"));
        // Exact non-negative integer within [0, max]: out-of-range or
        // fractional values error instead of saturating — a corrupted
        // "size": 5e9 must exit cleanly, not materialize u32::MAX
        // kernels in the worker.
        let exact = |v: f64, max: f64| (v.fract() == 0.0 && (0.0..=max).contains(&v)).then_some(v);
        let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        if schema != MANIFEST_SCHEMA {
            return Err(ScenarioError::Dist(format!(
                "manifest: schema {schema} != supported {MANIFEST_SCHEMA} — re-plan"
            )));
        }
        let seed = doc
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("seed"))?;
        let shards = doc
            .get("shards")
            .and_then(Json::as_f64)
            .and_then(|s| exact(s, u32::MAX as f64))
            .filter(|s| *s >= 1.0)
            .ok_or_else(|| bad("shards"))? as u32;
        let replicates = doc
            .get("replicates")
            .and_then(Json::as_f64)
            .and_then(|r| exact(r, u32::MAX as f64))
            .filter(|r| *r >= 1.0)
            .ok_or_else(|| bad("replicates"))? as u32;
        let cells = doc
            .get("cells")
            .and_then(Json::as_f64)
            .and_then(|c| exact(c, u32::MAX as f64))
            .ok_or_else(|| bad("cells"))? as usize;
        let strings = |key: &'static str| -> Result<Vec<String>, ScenarioError> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(key))?
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or_else(|| bad(key)))
                .collect()
        };
        let digest = doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("digest"))?
            .to_string();
        let per_scenario = doc
            .get("per_scenario")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("per_scenario"))?
            .iter()
            .map(|entry| {
                Ok(ScenarioPlan {
                    id: entry
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("per_scenario id"))?
                        .to_string(),
                    cells: entry
                        .get("cells")
                        .and_then(Json::as_f64)
                        .and_then(|c| exact(c, u32::MAX as f64))
                        .ok_or_else(|| bad("per_scenario cells"))?
                        as usize,
                    digest: entry
                        .get("digest")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("per_scenario digest"))?
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, ScenarioError>>()?;
        let corpus = match doc.get("corpus") {
            None => None,
            Some(entry) => Some(CorpusPlan {
                size: entry
                    .get("size")
                    .and_then(Json::as_f64)
                    .and_then(|s| exact(s, u32::MAX as f64))
                    .ok_or_else(|| bad("corpus size"))? as u32,
                seed: entry
                    .get("seed")
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("corpus seed"))?,
                digest: entry
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("corpus digest"))?
                    .to_string(),
            }),
        };
        Ok(Manifest {
            seed,
            shards,
            replicates,
            scenarios: strings("scenarios")?,
            filter: strings("filter")?,
            cells,
            digest,
            per_scenario,
            corpus,
        })
    }

    /// Loads a manifest from disk.
    pub fn load(path: &Path) -> Result<Manifest, ScenarioError> {
        let doc =
            Json::parse_file(path).map_err(|e| ScenarioError::Dist(format!("manifest: {e}")))?;
        Manifest::from_json(&doc)
    }

    /// Writes the manifest to disk (atomically, like the store).
    pub fn save(&self, path: &Path) -> Result<(), ScenarioError> {
        crate::store::write_atomic(path, self.to_json().pretty().as_bytes())
    }
}

/// Cell counts and fingerprint digests of a planned campaign, whole and
/// per scenario: what a manifest records and the drift check
/// recomputes.
struct Tally {
    cells: usize,
    digest: FingerprintDigest,
    per_scenario: Vec<(usize, FingerprintDigest)>,
}

/// One streaming pass over the space: tallies every cell and hands it
/// to `observe`.
fn tally(space: &CampaignSpace<'_>, observe: &mut dyn FnMut(Cell)) -> Tally {
    let mut tally = Tally {
        cells: 0,
        digest: FingerprintDigest::new(),
        per_scenario: vec![(0, FingerprintDigest::new()); space.specs().len()],
    };
    for cell in space.cells() {
        tally.cells += 1;
        tally.digest.update(&cell.fingerprint);
        let (count, digest) = &mut tally.per_scenario[cell.scenario];
        *count += 1;
        digest.update(&cell.fingerprint);
        observe(cell);
    }
    tally
}

/// Plans a campaign of `replicates` replicates per base cell for
/// `shards` shards: validates selection, filter and shard count exactly
/// like a run would, then records the resolved scenario ids, matched
/// cell counts and fingerprint digests in a [`Manifest`]. One streaming
/// pass, no materialized cells.
pub fn plan(
    registry: &Registry,
    select: &[String],
    filter_clauses: &[String],
    seed: u64,
    shards: u32,
    replicates: u32,
) -> Result<Manifest, ScenarioError> {
    if shards == 0 {
        return Err(ScenarioError::Dist("shard count must be >= 1".into()));
    }
    let filter = Filter::parse(filter_clauses).map_err(ScenarioError::Dist)?;
    let space = CampaignSpace::new(registry, select, &filter, seed, replicates)?;
    let specs = space.specs();
    // Record the corpus identity when the planning registry carries one
    // and a selected scenario actually sweeps it.
    let corpus = registry.gen_options().and_then(|options| {
        specs
            .iter()
            .find_map(|s| s.content_digest.clone())
            .map(|digest| CorpusPlan {
                size: options.corpus_size,
                seed: options.corpus_seed,
                digest,
            })
    });
    let ids: Vec<String> = specs.iter().map(|s| s.id.to_string()).collect();
    let tally = tally(&space, &mut |_| {});
    Ok(Manifest {
        seed,
        shards,
        replicates,
        scenarios: ids.clone(),
        filter: filter_clauses.to_vec(),
        cells: tally.cells,
        digest: tally.digest.finish(),
        per_scenario: ids
            .into_iter()
            .zip(tally.per_scenario)
            .map(|(id, (count, digest))| ScenarioPlan {
                id,
                cells: count,
                digest: digest.finish(),
            })
            .collect(),
        corpus,
    })
}

/// Re-streams the manifest's campaign and errors if the registry has
/// drifted since plan time: a different cell count (matrix grew or
/// shrank), a different fingerprint digest (version bump, axis-value
/// rename — anything that silently changes the planned cells), or a
/// generated corpus that no longer digests to the planned population.
/// Either way, shard unions would no longer equal the planned campaign,
/// so re-plan. Drift errors *name the drifted scenarios* via the
/// manifest's per-scenario records. Runs in constant memory.
pub fn check_drift(registry: &Registry, manifest: &Manifest) -> Result<(), ScenarioError> {
    check_drift_observing(registry, manifest, &mut |_| {})
}

/// [`check_drift`], additionally handing every streamed cell to
/// `observe` during the same single pass — consumers that need both the
/// drift check and the cell stream (merge's coverage verification)
/// avoid enumerating and fingerprinting the campaign twice. `observe`
/// runs before the drift verdict is known, so it must only *collect*;
/// drift errors take precedence over anything it gathers.
pub fn check_drift_observing(
    registry: &Registry,
    manifest: &Manifest,
    observe: &mut dyn FnMut(Cell),
) -> Result<(), ScenarioError> {
    if let Some(corpus) = &manifest.corpus {
        let current = registry
            .specs()
            .iter()
            .find_map(|s| s.content_digest.clone());
        if current.as_deref() != Some(corpus.digest.as_str()) {
            return Err(ScenarioError::Dist(format!(
                "corpus drift: manifest plans corpus {} (seed {}, {} kernels/shape) but the \
                 registry's corpus digests to {} — codegen or corpus options changed; re-plan",
                corpus.digest,
                corpus.seed,
                corpus.size,
                current.as_deref().unwrap_or("<none>")
            )));
        }
    }
    let tally = tally(&manifest.space(registry)?, observe);
    // Name the scenarios whose slice moved.
    let drifted: Vec<String> = manifest
        .per_scenario
        .iter()
        .zip(&tally.per_scenario)
        .filter(|(planned, (count, digest))| {
            planned.cells != *count || planned.digest != digest.finish()
        })
        .map(|(planned, (count, digest))| {
            format!(
                "{} ({} -> {} cells, digest {} -> {})",
                planned.id,
                planned.cells,
                count,
                planned.digest,
                digest.finish()
            )
        })
        .collect();
    if !drifted.is_empty() {
        return Err(ScenarioError::Dist(format!(
            "registry drift in scenario{} {} — re-plan",
            if drifted.len() == 1 { "" } else { "s" },
            drifted.join(", ")
        )));
    }
    if tally.cells != manifest.cells {
        return Err(ScenarioError::Dist(format!(
            "registry drift: manifest plans {} cells but the registry expands to {} — re-plan",
            manifest.cells, tally.cells
        )));
    }
    let digest = tally.digest.finish();
    if digest != manifest.digest {
        return Err(ScenarioError::Dist(format!(
            "registry drift: manifest digest {} != registry digest {digest} \
             (same cell count, different fingerprints — version bump or axis rename?) — re-plan",
            manifest.digest
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::builtin()
    }

    fn domino_select() -> Vec<String> {
        vec!["pipeline-domino".to_string(), "dram-refresh".to_string()]
    }

    #[test]
    fn plan_counts_cells_and_resolves_ids() {
        let m = plan(&registry(), &domino_select(), &[], 42, 3, 1).unwrap();
        assert_eq!(m.shards, 3);
        assert_eq!(m.scenarios, domino_select());
        assert!(m.cells > 0);
        assert_eq!(m.space(&registry()).unwrap().cells().count(), m.cells);
    }

    #[test]
    fn plan_rejects_bad_inputs() {
        let r = registry();
        assert!(matches!(
            plan(&r, &["nope".into()], &[], 0, 2, 1),
            Err(ScenarioError::UnknownScenario(_))
        ));
        assert!(matches!(
            plan(&r, &domino_select(), &["notanaxis=1".into()], 0, 2, 1),
            Err(ScenarioError::UnknownFilterAxis(_))
        ));
        assert!(matches!(
            plan(&r, &domino_select(), &["garbage".into()], 0, 2, 1),
            Err(ScenarioError::Dist(_))
        ));
        assert!(matches!(
            plan(&r, &domino_select(), &[], 0, 0, 1),
            Err(ScenarioError::Dist(_))
        ));
    }

    #[test]
    fn manifest_json_round_trips_and_rejects_other_schema() {
        let m = plan(&registry(), &domino_select(), &["n=16".into()], 7, 2, 1).unwrap();
        let back = Manifest::from_json(&Json::parse(&m.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back, m);
        let mut doc = m.to_json();
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Num(99.0);
        }
        assert!(matches!(
            Manifest::from_json(&doc),
            Err(ScenarioError::Dist(_))
        ));
    }

    #[test]
    fn schema_5_manifests_must_be_re_planned() {
        // Schema 5 carried per-scenario cost weights that cut the chunk
        // map; a calibrated schema-5 manifest would be cut differently
        // by today's cell-count chunking than by a schema-5 worker.
        let schema_5 = r#"{
          "schema": 5, "seed": "7", "shards": 2, "replicates": 1, "cells": 4,
          "digest": "5399e2d5f543164a", "scenarios": ["pipeline-domino"], "filter": [],
          "per_scenario": [
            {"id": "pipeline-domino", "cells": 4, "digest": "5399e2d5f543164a", "weight": 1}
          ]
        }"#;
        assert_eq!(
            Manifest::from_json(&Json::parse(schema_5).unwrap()),
            Err(ScenarioError::Dist(
                "manifest: schema 5 != supported 6 — re-plan".into()
            ))
        );
    }

    #[test]
    fn drift_check_catches_cell_count_changes() {
        let mut m = plan(&registry(), &domino_select(), &[], 1, 2, 1).unwrap();
        assert!(check_drift(&registry(), &m).is_ok());
        m.cells += 1;
        assert!(matches!(
            check_drift(&registry(), &m),
            Err(ScenarioError::Dist(_))
        ));
    }

    #[test]
    fn drift_check_catches_count_preserving_version_bumps() {
        use crate::scenario::{Axis, CellResult, Params, Scenario, ScenarioSpec};

        /// Fixed 2-cell matrix; only the version varies.
        struct Versioned(u32);
        impl Scenario for Versioned {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "versioned",
                    version: self.0,
                    title: "v",
                    source_crate: "harness",
                    property: "p",
                    uncertainty: "u",
                    quality: "q",
                    catalog_id: None,
                    content_digest: None,
                    axes: vec![Axis::new("a", [1, 2])],
                    headline_metric: "m",
                    smaller_is_better: true,
                }
            }
            fn run(&self, _: &Params, _: u64) -> Result<CellResult, ScenarioError> {
                Ok(CellResult::new(vec![("m", 0.0)]))
            }
        }

        let reg = |version| {
            let mut r = Registry::empty();
            r.register(Box::new(Versioned(version)));
            r
        };
        let m = plan(&reg(1), &["versioned".into()], &[], 0, 2, 1).unwrap();
        assert!(check_drift(&reg(1), &m).is_ok());
        // Same cell count under v2, but every fingerprint changed: the
        // digest must catch what the count cannot.
        let err = check_drift(&reg(2), &m).unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(ref msg) if msg.contains("digest")));
    }

    #[test]
    fn manifest_cells_carry_global_lazy_indices() {
        let m = plan(&registry(), &domino_select(), &[], 3, 2, 1).unwrap();
        let cells: Vec<Cell> = m.space(&registry()).unwrap().cells().collect();
        // No filter: global indices are exactly 0..n in plan order.
        let globals: Vec<usize> = cells.iter().map(|c| c.global).collect();
        assert_eq!(globals, (0..cells.len()).collect::<Vec<_>>());
        // A filter keeps indices anchored to the *unfiltered* space.
        let m = plan(&registry(), &domino_select(), &["n=16".into()], 3, 2, 1).unwrap();
        let filtered: Vec<Cell> = m.space(&registry()).unwrap().cells().collect();
        let full: Vec<usize> = cells
            .iter()
            .filter(|c| filtered.iter().any(|f| f.fingerprint == c.fingerprint))
            .map(|c| c.global)
            .collect();
        assert_eq!(
            filtered.iter().map(|c| c.global).collect::<Vec<_>>(),
            full,
            "filtered cells keep their unfiltered lazy indices"
        );
    }

    fn plan_reps(reps: u32, shards: u32, seed: u64) -> Manifest {
        plan(&registry(), &domino_select(), &[], seed, shards, reps).unwrap()
    }

    #[test]
    fn replicated_manifest_round_trips_and_requires_the_field() {
        let m = plan_reps(16, 3, 9);
        assert_eq!(m.replicates, 16);
        let base = plan(&registry(), &domino_select(), &[], 9, 3, 1).unwrap();
        assert_eq!(m.cells, base.cells * 16, "replicates multiply the matrix");
        let back = Manifest::from_json(&Json::parse(&m.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back, m);
        // A manifest without the field is from another schema era.
        let mut doc = m.to_json();
        if let Json::Obj(members) = &mut doc {
            members.retain(|(k, _)| k != "replicates");
        }
        assert!(matches!(
            Manifest::from_json(&doc),
            Err(ScenarioError::Dist(ref msg)) if msg.contains("replicates")
        ));
    }

    #[test]
    fn replicated_manifest_cells_vary_rep_fastest_with_distinct_seeds() {
        let m = plan_reps(4, 2, 5);
        let cells: Vec<Cell> = m.space(&registry()).unwrap().cells().collect();
        assert_eq!(cells.len(), m.cells);
        // Global indices stay the dense 0..n of the replicated space.
        let globals: Vec<usize> = cells.iter().map(|c| c.global).collect();
        assert_eq!(globals, (0..cells.len()).collect::<Vec<_>>());
        let mut seeds = std::collections::HashSet::new();
        for group in cells.chunks_exact(4) {
            // Same base assignment across the group, rep 0..4 in order.
            let reps: Vec<String> = group
                .iter()
                .map(|c| c.params.get("rep").unwrap().to_string())
                .collect();
            assert_eq!(reps, ["0", "1", "2", "3"]);
            for cell in group {
                assert!(seeds.insert(cell.seed), "replicate seeds are distinct");
            }
        }
    }

    #[test]
    fn replicated_plan_matches_the_executor_decode() {
        use crate::exec::{run_campaign, ExecConfig};
        use crate::store::ResultStore;
        let m = plan_reps(3, 2, 11);
        let planned: Vec<Cell> = m.space(&registry()).unwrap().cells().collect();
        let mut store = ResultStore::new();
        run_campaign(
            &registry(),
            &domino_select(),
            &crate::matrix::Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 11,
                replicates: 3,
                keep_replicates: true,
            },
            &mut store,
        )
        .unwrap();
        // Every planned replicate cell is present in the executed store
        // under the identical fingerprint (plan and exec decode agree).
        for cell in &planned {
            assert!(
                store.contains(&cell.fingerprint),
                "planned cell {} missing from the executed store",
                cell.params.key()
            );
        }
    }
}
