//! The shard planner and campaign manifest.
//!
//! [`plan`] deterministically partitions the scenario matrices into N
//! disjoint shards by cell fingerprint and captures everything a
//! worker needs — scenario ids, filter clauses, campaign seed, shard
//! count, schema version — in a [`Manifest`]. The manifest is small on
//! purpose: workers re-expand the matrix themselves, so shard `i/N` can
//! be claimed by any process that holds the manifest and the same
//! registry, with no coordinator in the loop. The planned cell count
//! *and a digest of every planned fingerprint* are recorded so registry
//! drift (a scenario whose matrix, version or axis values changed since
//! planning) is detected instead of silently producing a partial or
//! mispartitioned merge.
//!
//! Planning is *streaming*: cells are decoded one at a time from the
//! campaign's [`CampaignSpace`] and folded into counts and digests — a
//! plan over a multi-million-cell gen sweep never materializes a cell
//! list. The manifest also carries per-scenario *cost weights*
//! (optionally calibrated from a committed baseline store) which the
//! work-stealing layer uses to size its initial leases; weights are
//! advisory and never affect results.

use crate::exec::shard_of;
use crate::json::Json;
use crate::matrix::Filter;
use crate::registry::Registry;
use crate::scenario::{Params, ScenarioError};
use crate::space::{CampaignSpace, Cell};
use crate::store::ResultStore;
use std::path::Path;

/// Bump when the manifest layout or the shard assignment rule changes;
/// workers then refuse stale manifests instead of mispartitioning.
/// Version history: 1 — global cell count + fingerprint digest;
/// 2 — per-scenario counts/digests (drift errors name the drifted
/// scenarios) and the generated-program corpus identity;
/// 3 — per-scenario cost weights (the work-stealing layer's initial
/// lease balance);
/// 4 — the replicate multiplier (`--replicates N` enters the planned
/// index space, so every worker expands the same replicated matrix).
pub const MANIFEST_SCHEMA: u32 = 4;

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
    /// Relative per-cell cost weight (1.0 = baseline). Advisory: sizes
    /// the work-stealing chunks and initial leases, never results.
    pub weight: f64,
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
    /// Number of shards the cell set is partitioned into.
    pub shards: u32,
    /// Replicates per base cell (1 = the unreplicated matrix). Above
    /// one, every scenario matrix is multiplied by the fastest-varying
    /// [`crate::matrix::REP_AXIS`] and the planned counts, digests and
    /// shard assignments all range over the replicate cells.
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
    /// fingerprint — and therefore the partition).
    pub digest: String,
    /// Per-scenario counts, digests and cost weights, in campaign
    /// order; lets drift errors name the scenarios that moved.
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

/// One cell of the planned partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedCell {
    /// Scenario id.
    pub scenario: String,
    /// Cell coordinates.
    pub params: Params,
    /// The derived cell seed.
    pub seed: u64,
    /// The cell's store fingerprint.
    pub fingerprint: String,
    /// The shard that owns the cell (static partition).
    pub shard: u32,
    /// Position in the campaign's global lazy index space (scenarios
    /// in campaign order, matrices row-major) — the coordinate the
    /// work-stealing chunks lease by.
    pub global: usize,
}

impl Manifest {
    /// Parses the stored filter clauses.
    pub fn parsed_filter(&self) -> Result<Filter, ScenarioError> {
        Filter::parse(&self.filter).map_err(ScenarioError::Dist)
    }

    /// This scenario's per-cell cost weight (1.0 when the manifest does
    /// not name it).
    pub fn weight_of(&self, scenario_id: &str) -> f64 {
        self.per_scenario
            .iter()
            .find(|s| s.id == scenario_id)
            .map_or(1.0, |s| s.weight)
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
                                ("weight".into(), Json::Num(s.weight)),
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
    /// it does not implement.
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
                "manifest schema {schema} != supported {MANIFEST_SCHEMA}"
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
                    weight: entry
                        .get("weight")
                        .and_then(Json::as_f64)
                        .filter(|w| w.is_finite() && *w > 0.0)
                        .ok_or_else(|| bad("per_scenario weight"))?,
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

/// The planner's view of a space cell: its scenario id and the shard
/// that owns it under the static partition.
fn planned(
    space: &CampaignSpace<'_>,
    cell: Cell,
    shards: u32,
) -> Result<PlannedCell, ScenarioError> {
    Ok(PlannedCell {
        scenario: space.specs()[cell.scenario].id.to_string(),
        shard: shard_of(&cell.fingerprint, shards)?,
        params: cell.params,
        seed: cell.seed,
        fingerprint: cell.fingerprint,
        global: cell.global,
    })
}

/// Streams the manifest's planned cells in the executor's
/// deterministic order, invoking `visit` per matching cell; no caller
/// ever holds a materialized cell list.
pub fn visit_planned_cells(
    registry: &Registry,
    manifest: &Manifest,
    visit: &mut dyn FnMut(PlannedCell) -> Result<(), ScenarioError>,
) -> Result<(), ScenarioError> {
    let space = manifest.space(registry)?;
    for cell in space.cells() {
        visit(planned(&space, cell, manifest.shards)?)?;
    }
    Ok(())
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
fn tally(
    space: &CampaignSpace<'_>,
    shards: u32,
    observe: &mut dyn FnMut(&PlannedCell),
) -> Result<Tally, ScenarioError> {
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
        observe(&planned(space, cell, shards)?);
    }
    Ok(tally)
}

/// Materializes the manifest's planned cells (a collecting wrapper over
/// [`visit_planned_cells`] for callers that genuinely need the list —
/// tests, mostly; production paths stream).
pub fn planned_cells(
    registry: &Registry,
    manifest: &Manifest,
) -> Result<Vec<PlannedCell>, ScenarioError> {
    let mut cells = Vec::new();
    visit_planned_cells(registry, manifest, &mut |cell| {
        cells.push(cell);
        Ok(())
    })?;
    Ok(cells)
}

/// Derives a scenario's per-cell cost weight from a prior store: the
/// mean magnitude of its cells' metrics, a crude but dependency-free
/// work proxy (bigger simulated quantities — cycles, task times, bound
/// widths — correlate with longer cell evaluations). Returns `None`
/// when the store holds no cells of the scenario. Weights are advisory:
/// they shape work-stealing chunk sizes and the initial lease balance,
/// and can never affect campaign results.
pub fn scenario_cost_proxy(baseline: &ResultStore, scenario_id: &str) -> Option<f64> {
    let mut cells = 0usize;
    let mut magnitude = 0.0f64;
    for (_, cell) in baseline.iter() {
        if cell.scenario == scenario_id {
            cells += 1;
            magnitude += cell
                .result
                .metrics
                .iter()
                .map(|(_, v)| v.abs())
                .sum::<f64>();
        }
    }
    (cells > 0).then(|| magnitude / cells as f64)
}

/// Where a plan's per-scenario cost weights came from — reported by the
/// CLI so an operator can tell a wall-clock-calibrated plan from the
/// proxy fallback at a glance. The manifest itself is agnostic: weights
/// are plain numbers whatever their source (schema unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSource {
    /// No baseline: every scenario weighs 1.0.
    Unit,
    /// Mean metric magnitude per cell — the dependency-free proxy.
    MetricProxy,
    /// Measured mean wall-clock duration per cell, from the baseline
    /// store's telemetry sidecar.
    WallClock,
}

/// Per-scenario cost weights from *measured* wall-clock telemetry: each
/// covered scenario's weight is its mean recorded cell duration,
/// normalized so the cheapest covered scenario weighs 1.0; scenarios
/// the sidecar never timed weigh 1.0. Returns `None` when the telemetry
/// covers none of the selection — the caller then falls back to the
/// metric-magnitude proxy ([`calibrate_weights`]).
pub fn calibrate_weights_wall(
    telemetry: &crate::telemetry::Telemetry,
    scenario_ids: &[String],
) -> Option<Vec<f64>> {
    let means: Vec<Option<f64>> = scenario_ids
        .iter()
        .map(|id| telemetry.scenario_wall_mean_ns(id).filter(|m| *m > 0.0))
        .collect();
    let floor = means
        .iter()
        .flatten()
        .copied()
        .fold(f64::INFINITY, f64::min);
    floor.is_finite().then(|| {
        means
            .into_iter()
            .map(|m| m.map_or(1.0, |m| m / floor))
            .collect()
    })
}

/// Per-scenario cost weights for a selection, calibrated from a
/// baseline store and normalized so the cheapest calibrated scenario
/// weighs 1.0; scenarios absent from the baseline weigh 1.0.
pub fn calibrate_weights(baseline: &ResultStore, scenario_ids: &[String]) -> Vec<f64> {
    let proxies: Vec<Option<f64>> = scenario_ids
        .iter()
        .map(|id| scenario_cost_proxy(baseline, id).filter(|m| *m > 0.0))
        .collect();
    let floor = proxies
        .iter()
        .flatten()
        .copied()
        .fold(f64::INFINITY, f64::min);
    proxies
        .into_iter()
        .map(|p| match p {
            Some(m) if floor.is_finite() => m / floor,
            _ => 1.0,
        })
        .collect()
}

/// Plans a campaign into `shards` disjoint shards: validates selection,
/// filter and shard count exactly like a run would, then records the
/// resolved scenario ids, matched cell count and fingerprint digest in
/// a [`Manifest`]. Unit cost weights; see [`plan_calibrated`].
pub fn plan(
    registry: &Registry,
    select: &[String],
    filter_clauses: &[String],
    seed: u64,
    shards: u32,
) -> Result<Manifest, ScenarioError> {
    plan_calibrated(registry, select, filter_clauses, seed, shards, None).map(|(m, _)| m)
}

/// [`plan`] with optional cost calibration from a baseline store, also
/// returning the per-shard planned cell counts (the partition balance)
/// — everything computed in one streaming pass, no materialized cells.
pub fn plan_calibrated(
    registry: &Registry,
    select: &[String],
    filter_clauses: &[String],
    seed: u64,
    shards: u32,
    baseline: Option<&ResultStore>,
) -> Result<(Manifest, Vec<usize>), ScenarioError> {
    plan_calibrated_with(
        registry,
        select,
        filter_clauses,
        seed,
        shards,
        1,
        baseline,
        None,
    )
    .map(|(m, counts, _)| (m, counts))
}

/// [`plan_calibrated`] with the measured-duration upgrade: when the
/// baseline store's telemetry sidecar times at least one selected
/// scenario, the weights come from *wall-clock means* instead of the
/// metric-magnitude proxy; otherwise the proxy (or unit weights with no
/// baseline at all). Also reports which source won.
#[allow(clippy::too_many_arguments)]
pub fn plan_calibrated_with(
    registry: &Registry,
    select: &[String],
    filter_clauses: &[String],
    seed: u64,
    shards: u32,
    replicates: u32,
    baseline: Option<&ResultStore>,
    telemetry: Option<&crate::telemetry::Telemetry>,
) -> Result<(Manifest, Vec<usize>, WeightSource), ScenarioError> {
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
    let (weights, source) = match baseline {
        Some(store) => match telemetry.and_then(|t| calibrate_weights_wall(t, &ids)) {
            Some(w) => (w, WeightSource::WallClock),
            None => (calibrate_weights(store, &ids), WeightSource::MetricProxy),
        },
        None => (vec![1.0; ids.len()], WeightSource::Unit),
    };

    let mut shard_counts = vec![0usize; shards as usize];
    let tally = tally(&space, shards, &mut |cell| {
        shard_counts[cell.shard as usize] += 1;
    })?;
    let manifest = Manifest {
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
            .zip(weights)
            .map(|((id, (count, digest)), weight)| ScenarioPlan {
                id,
                cells: count,
                digest: digest.finish(),
                weight,
            })
            .collect(),
        corpus,
    };
    Ok((manifest, shard_counts, source))
}

/// Re-streams the manifest's campaign and errors if the registry has
/// drifted since plan time: a different cell count (matrix grew or
/// shrank), a different fingerprint digest (version bump, axis-value
/// rename — anything that silently changes the partition), or a
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
    observe: &mut dyn FnMut(&PlannedCell),
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
    let tally = tally(&manifest.space(registry)?, manifest.shards, observe)?;
    // Name the scenarios whose slice moved (weights are advisory and
    // deliberately not part of the drift comparison).
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
        let m = plan(&registry(), &domino_select(), &[], 42, 3).unwrap();
        assert_eq!(m.shards, 3);
        assert_eq!(m.scenarios, domino_select());
        assert!(m.cells > 0);
        assert_eq!(planned_cells(&registry(), &m).unwrap().len(), m.cells);
        assert!(m.per_scenario.iter().all(|s| s.weight == 1.0));
    }

    #[test]
    fn plan_rejects_bad_inputs() {
        let r = registry();
        assert!(matches!(
            plan(&r, &["nope".into()], &[], 0, 2),
            Err(ScenarioError::UnknownScenario(_))
        ));
        assert!(matches!(
            plan(&r, &domino_select(), &["notanaxis=1".into()], 0, 2),
            Err(ScenarioError::UnknownFilterAxis(_))
        ));
        assert!(matches!(
            plan(&r, &domino_select(), &["garbage".into()], 0, 2),
            Err(ScenarioError::Dist(_))
        ));
        assert!(matches!(
            plan(&r, &domino_select(), &[], 0, 0),
            Err(ScenarioError::Dist(_))
        ));
    }

    #[test]
    fn manifest_json_round_trips_and_rejects_other_schema() {
        let m = plan(&registry(), &domino_select(), &["n=16".into()], 7, 2).unwrap();
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
    fn drift_check_catches_cell_count_changes() {
        let mut m = plan(&registry(), &domino_select(), &[], 1, 2).unwrap();
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
        let m = plan(&reg(1), &["versioned".into()], &[], 0, 2).unwrap();
        assert!(check_drift(&reg(1), &m).is_ok());
        // Same cell count under v2, but every fingerprint changed: the
        // digest must catch what the count cannot.
        let err = check_drift(&reg(2), &m).unwrap_err();
        assert!(matches!(err, ScenarioError::Dist(ref msg) if msg.contains("digest")));
    }

    #[test]
    fn planned_cells_carry_global_lazy_indices() {
        let m = plan(&registry(), &domino_select(), &[], 3, 2).unwrap();
        let cells = planned_cells(&registry(), &m).unwrap();
        // No filter: global indices are exactly 0..n in plan order.
        let globals: Vec<usize> = cells.iter().map(|c| c.global).collect();
        assert_eq!(globals, (0..cells.len()).collect::<Vec<_>>());
        // A filter keeps indices anchored to the *unfiltered* space.
        let m = plan(&registry(), &domino_select(), &["n=16".into()], 3, 2).unwrap();
        let filtered = planned_cells(&registry(), &m).unwrap();
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

    #[test]
    fn calibration_normalizes_to_the_cheapest_scenario() {
        use crate::scenario::{CellResult, Params};
        let mut store = ResultStore::new();
        let p = |n: u64| Params::new(vec![("n".into(), n.to_string())]);
        store.insert("cheap", 1, &p(1), 1, CellResult::new(vec![("m", 2.0)]));
        store.insert("costly", 1, &p(1), 1, CellResult::new(vec![("m", 6.0)]));
        store.insert("costly", 1, &p(2), 2, CellResult::new(vec![("m", 10.0)]));
        let ids = vec![
            "cheap".to_string(),
            "costly".to_string(),
            "absent".to_string(),
        ];
        let w = calibrate_weights(&store, &ids);
        assert_eq!(w, vec![1.0, 4.0, 1.0]);
        // Calibration feeds the manifest through plan_calibrated.
        let registry = Registry::builtin();
        let (m, counts) = plan_calibrated(
            &registry,
            &domino_select(),
            &[],
            42,
            3,
            Some(&ResultStore::new()),
        )
        .unwrap();
        assert_eq!(counts.iter().sum::<usize>(), m.cells);
        assert!(m.per_scenario.iter().all(|s| s.weight == 1.0));
    }

    #[test]
    fn wall_clock_telemetry_outranks_the_metric_proxy() {
        use crate::telemetry::Telemetry;
        use std::time::Duration;
        let ids = vec![
            "slow".to_string(),
            "fast".to_string(),
            "untimed".to_string(),
        ];
        let mut telemetry = Telemetry::new();
        telemetry.record_fresh("aaaa", "slow", Duration::from_millis(40), 1);
        telemetry.record_fresh("bbbb", "fast", Duration::from_millis(10), 2);
        telemetry.record_hit("cccc", "untimed", 3);
        let w = calibrate_weights_wall(&telemetry, &ids).unwrap();
        assert_eq!(w, vec![4.0, 1.0, 1.0], "means normalize to the cheapest");
        // Telemetry covering nothing selected defers to the proxy.
        assert_eq!(
            calibrate_weights_wall(&telemetry, &["other".to_string()]),
            None
        );
        assert_eq!(calibrate_weights_wall(&Telemetry::new(), &ids), None);

        // Through the planner: with a sidecar, wall-clock wins over the
        // metric proxy; without one, the proxy still applies.
        use crate::scenario::{CellResult, Params};
        let registry = Registry::builtin();
        let ids = domino_select();
        let mut baseline = ResultStore::new();
        let p = |n: u64| Params::new(vec![("n".into(), n.to_string())]);
        // Proxy says scenario 0 is costlier (bigger magnitudes)...
        baseline.insert(&ids[0], 1, &p(1), 1, CellResult::new(vec![("m", 100.0)]));
        baseline.insert(&ids[1], 1, &p(1), 1, CellResult::new(vec![("m", 1.0)]));
        // ...but measured time says scenario 1 is.
        let mut telemetry = Telemetry::new();
        telemetry.record_fresh("aaaa", &ids[0], Duration::from_millis(1), 1);
        telemetry.record_fresh("bbbb", &ids[1], Duration::from_millis(9), 2);
        let (proxy, _, source) =
            plan_calibrated_with(&registry, &ids, &[], 42, 2, 1, Some(&baseline), None).unwrap();
        assert_eq!(source, WeightSource::MetricProxy);
        assert_eq!(proxy.per_scenario[0].weight, 100.0);
        let (timed, _, source) = plan_calibrated_with(
            &registry,
            &ids,
            &[],
            42,
            2,
            1,
            Some(&baseline),
            Some(&telemetry),
        )
        .unwrap();
        assert_eq!(source, WeightSource::WallClock);
        assert_eq!(timed.per_scenario[0].weight, 1.0);
        assert_eq!(timed.per_scenario[1].weight, 9.0);
        // The opposing weights reorder the work-stealing chunk map: the
        // proxy cuts scenario 0 finer (it thinks it costlier), the
        // timed plan cuts scenario 1 finer — measured time, not metric
        // magnitude, now shapes what is stealable.
        let chunks_of = |m: &Manifest, scenario: usize| {
            crate::dist::chunk_map(&registry, m)
                .unwrap()
                .iter()
                .filter(|c| c.scenario == scenario)
                .count()
        };
        assert!(
            chunks_of(&proxy, 0) > chunks_of(&timed, 0),
            "the proxy plan must cut the magnitude-heavy scenario finer"
        );
        assert!(
            chunks_of(&timed, 1) > chunks_of(&proxy, 1),
            "the timed plan must cut the measured-slow scenario finer"
        );
        let (_, _, source) =
            plan_calibrated_with(&registry, &ids, &[], 42, 2, 1, None, Some(&telemetry)).unwrap();
        assert_eq!(source, WeightSource::Unit, "telemetry alone is no baseline");
    }

    fn plan_reps(reps: u32, shards: u32, seed: u64) -> Manifest {
        plan_calibrated_with(
            &registry(),
            &domino_select(),
            &[],
            seed,
            shards,
            reps,
            None,
            None,
        )
        .unwrap()
        .0
    }

    #[test]
    fn replicated_manifest_round_trips_and_requires_the_field() {
        let m = plan_reps(16, 3, 9);
        assert_eq!(m.replicates, 16);
        let base = plan(&registry(), &domino_select(), &[], 9, 3).unwrap();
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
    fn replicated_planned_cells_vary_rep_fastest_with_distinct_seeds() {
        let m = plan_reps(4, 2, 5);
        let cells = planned_cells(&registry(), &m).unwrap();
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
        let m = plan_reps(3, 2, 11);
        let planned = planned_cells(&registry(), &m).unwrap();
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
