//! The campaign index space: the one place that decides what a cell is.
//!
//! A campaign is a deterministic function of `(selected scenarios,
//! filter, campaign seed, replicates)`. [`CampaignSpace`] resolves that
//! tuple once and owns the layout every layer addresses cells by: the
//! selected scenarios in selection order, each scenario's matrix in
//! row-major order ([`CellIter`]), every base cell repeated `replicates`
//! times along a fastest-varying [`REP_AXIS`]. A global index decodes
//! to a [`Cell`] — params, seed and store fingerprint — in constant
//! memory, so the executor, the shard planner, the work-stealing chunk
//! map and both replicate folds (at the end of a full-domain run and
//! after a sharded merge) agree on every cell by construction. The
//! space is never materialized.

use crate::expect::{fold_results, replicate_seed};
use crate::matrix::{with_rep, CellIter, Filter, REP_AXIS};
use crate::registry::Registry;
use crate::scenario::{CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
use crate::store::{fingerprint_with_content, StoredCell};
use std::ops::Range;

/// Derives the deterministic seed of one base cell.
pub fn cell_seed(campaign_seed: u64, scenario_id: &str, params: &Params) -> u64 {
    let mut h = crate::store::FNV_OFFSET ^ campaign_seed.rotate_left(17);
    for bytes in [
        scenario_id.as_bytes(),
        b"\xff" as &[u8],
        params.key().as_bytes(),
    ] {
        h = crate::store::fnv1a(bytes, h);
    }
    // SplitMix64 finalizer: spreads FNV's low-entropy high bits.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One decoded cell of the space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Position in the global index space (the deterministic sort key
    /// that makes assembly scheduling-independent).
    pub global: usize,
    /// Index into the selected scenarios ([`CampaignSpace::specs`]).
    pub scenario: usize,
    /// Cell coordinates; replicate cells carry a trailing [`REP_AXIS`].
    pub params: Params,
    /// The derived cell seed.
    pub seed: u64,
    /// The cell's store fingerprint.
    pub fingerprint: String,
}

/// A resolved campaign: its scenarios, filter, seed and replicate
/// multiplier, laid out as one global index space.
pub struct CampaignSpace<'a> {
    scenarios: Vec<&'a dyn Scenario>,
    specs: Vec<ScenarioSpec>,
    filter: Filter,
    seed: u64,
    reps: usize,
    /// `prefix[i]` is the first global index of scenario `i`, the last
    /// entry the total.
    prefix: Vec<usize>,
}

impl<'a> CampaignSpace<'a> {
    /// Resolves a campaign. `select` lists scenario ids (empty = every
    /// registered scenario; repeated ids are deduplicated, first
    /// occurrence wins the order). Errors on an unknown scenario, a
    /// filter axis no selected scenario declares (a typo that would
    /// silently run the unfiltered campaign), zero replicates, and —
    /// when replicating — a scenario declaring the reserved
    /// [`REP_AXIS`], which would make base and replicate coordinates
    /// ambiguous.
    pub fn new(
        registry: &'a Registry,
        select: &[String],
        filter: &Filter,
        seed: u64,
        replicates: u32,
    ) -> Result<CampaignSpace<'a>, ScenarioError> {
        if replicates == 0 {
            return Err(ScenarioError::Dist("replicates must be >= 1".into()));
        }
        let scenarios: Vec<&dyn Scenario> = if select.is_empty() {
            registry.scenarios().collect()
        } else {
            let mut seen = std::collections::BTreeSet::new();
            select
                .iter()
                .filter(|id| seen.insert(id.as_str()))
                .map(|id| {
                    registry
                        .get(id)
                        .ok_or_else(|| ScenarioError::UnknownScenario(id.clone()))
                })
                .collect::<Result<_, _>>()?
        };
        let specs: Vec<ScenarioSpec> = scenarios.iter().map(|s| s.spec()).collect();
        let declared = |axis: &str| specs.iter().any(|s| s.axes.iter().any(|a| a.name == axis));
        if let Some(axis) = filter.constrained_axes().find(|axis| !declared(axis)) {
            return Err(ScenarioError::UnknownFilterAxis(axis.to_string()));
        }
        let reps = replicates as usize;
        if reps > 1 {
            if let Some(spec) = specs
                .iter()
                .find(|s| s.axes.iter().any(|a| a.name == REP_AXIS))
            {
                return Err(ScenarioError::Dist(format!(
                    "scenario `{}` declares an axis named `{REP_AXIS}`, which is \
                     reserved for --replicates",
                    spec.id
                )));
            }
        }
        let mut prefix = vec![0];
        for spec in &specs {
            prefix.push(prefix[prefix.len() - 1] + spec.matrix_size() * reps);
        }
        Ok(CampaignSpace {
            scenarios,
            specs,
            filter: filter.clone(),
            seed,
            reps,
            prefix,
        })
    }

    /// Global indices in the space, filtered-out cells included.
    pub fn total(&self) -> usize {
        self.prefix[self.prefix.len() - 1]
    }

    /// Replicates per base cell.
    pub fn replicates(&self) -> usize {
        self.reps
    }

    /// The selected scenarios' specs, in campaign order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// The `i`-th selected scenario.
    pub fn scenario(&self, i: usize) -> &'a dyn Scenario {
        self.scenarios[i]
    }

    /// Each selected scenario's global index range, in campaign order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.prefix.windows(2).map(|w| w[0]..w[1])
    }

    /// The scenario, local index and base params `global` falls in.
    fn locate(&self, global: usize) -> Option<(usize, usize, Params)> {
        if global >= self.total() {
            return None;
        }
        let scenario = self.prefix.partition_point(|&p| p <= global) - 1;
        let local = global - self.prefix[scenario];
        let base = CellIter::new(&self.specs[scenario].axes).cell_at(local / self.reps)?;
        Some((scenario, local, base))
    }

    fn cell(&self, global: usize, scenario: usize, params: Params, seed: u64) -> Cell {
        let spec = &self.specs[scenario];
        let fingerprint = fingerprint_with_content(
            spec.id,
            spec.version,
            spec.content_digest.as_deref(),
            &params,
            seed,
        );
        Cell {
            global,
            scenario,
            params,
            seed,
            fingerprint,
        }
    }

    /// Decodes one global index; `None` past the end and for cells the
    /// filter drops. The filter sees *base* coordinates, so it keeps or
    /// drops whole replicate groups.
    pub fn decode(&self, global: usize) -> Option<Cell> {
        let (scenario, local, base) = self.locate(global)?;
        if !self.filter.matches(&base) {
            return None;
        }
        let base_seed = cell_seed(self.seed, self.specs[scenario].id, &base);
        let (params, seed) = if self.reps > 1 {
            let rep = (local % self.reps) as u32;
            (with_rep(&base, rep), replicate_seed(base_seed, rep))
        } else {
            (base, base_seed)
        };
        Some(self.cell(global, scenario, params, seed))
    }

    /// Every cell the filter keeps, in global index order.
    pub fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.total()).filter_map(|global| self.decode(global))
    }

    /// The store record of a raw (unfolded) cell's result.
    pub fn record(&self, cell: &Cell, result: CellResult) -> StoredCell {
        let spec = &self.specs[cell.scenario];
        StoredCell {
            scenario: spec.id.to_string(),
            version: spec.version,
            params_key: cell.params.key(),
            seed: cell.seed,
            fold: false,
            result,
        }
    }

    /// Folds the results of one replicate group — the group starting at
    /// `first`, in replicate order — into its base cell (base params,
    /// seed and fingerprint) and the `fold: true` record stored under
    /// that fingerprint.
    pub fn fold(
        &self,
        first: usize,
        results: &[&CellResult],
    ) -> Result<(Cell, StoredCell), ScenarioError> {
        let bad = |why: String| ScenarioError::Store(format!("replicate fold: {why}"));
        let (scenario, local, base) = self
            .locate(first)
            .ok_or_else(|| bad(format!("index {first} is outside the campaign")))?;
        if local % self.reps != 0 || results.len() != self.reps {
            return Err(bad(format!(
                "{} results at index {first} do not form one group of {} replicates",
                results.len(),
                self.reps
            )));
        }
        let seed = cell_seed(self.seed, self.specs[scenario].id, &base);
        let base = self.cell(first, scenario, base, seed);
        let mut stored = self.record(&base, fold_results(results)?);
        stored.fold = true;
        Ok((base, stored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_campaign_with, CellDomain, ExecConfig, ExecHooks};
    use crate::scenario::Axis;
    use crate::store::ResultStore;
    use std::sync::Mutex;

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
            Ok(CellResult::new(vec![("value", (a + seed % 7) as f64)]))
        }
    }

    fn registry() -> Registry {
        let mut r = Registry::empty();
        r.register(Box::new(Toy));
        r
    }

    #[test]
    fn decode_visit_and_executor_agree_on_every_index() {
        let registry = registry();
        let filter = Filter::all().with("a", "1").with("a", "3");
        for reps in [1u32, 3] {
            let space = CampaignSpace::new(&registry, &[], &filter, 9, reps).unwrap();
            let visited: Vec<Cell> = space.cells().collect();
            assert_eq!(visited.len(), 4 * reps as usize, "a=2 drops a third");
            let mut next = visited.iter();
            for global in 0..space.total() {
                let decoded = space.decode(global);
                match &decoded {
                    Some(cell) => assert_eq!(Some(cell), next.next(), "index {global}"),
                    None => {
                        let base = space.locate(global).unwrap().2;
                        assert_eq!(base.get("a").unwrap(), "2", "only a=2 is filtered");
                    }
                }
            }
            assert_eq!(space.decode(space.total()), None);
            for group in visited.chunks(reps as usize) {
                let start = group[0].global;
                assert_eq!(start % reps as usize, 0);
                for (rep, cell) in group.iter().enumerate() {
                    assert_eq!(cell.global, start + rep, "replicates are consecutive");
                }
            }

            // One worker pulls indices in order, so the result sink sees
            // the executor's fingerprints sorted by global index.
            let seen = Mutex::new(Vec::new());
            let sink = |fp: &str, _: &StoredCell| seen.lock().unwrap().push(fp.to_string());
            run_campaign_with(
                &registry,
                &[],
                &filter,
                &ExecConfig {
                    threads: 1,
                    seed: 9,
                    replicates: reps,
                    keep_replicates: false,
                },
                &mut ResultStore::new(),
                CellDomain::All,
                ExecHooks {
                    on_result: Some(&sink),
                    ..ExecHooks::default()
                },
            )
            .unwrap();
            let visited: Vec<String> = visited.into_iter().map(|c| c.fingerprint).collect();
            assert_eq!(seen.into_inner().unwrap(), visited);
        }
    }

    #[test]
    fn fold_keys_the_base_cell_and_rejects_partial_groups() {
        let registry = registry();
        let space = CampaignSpace::new(&registry, &[], &Filter::all(), 4, 3).unwrap();
        let plain = CampaignSpace::new(&registry, &[], &Filter::all(), 4, 1).unwrap();
        let result = CellResult::new(vec![("value", 1.0)]);
        let (base, stored) = space.fold(3, &[&result, &result, &result]).unwrap();
        let plain_cell = plain.decode(1).unwrap();
        assert_eq!(
            (base.params, base.seed, base.fingerprint),
            (plain_cell.params, plain_cell.seed, plain_cell.fingerprint),
            "the fold reuses the unreplicated cell's identity"
        );
        assert!(stored.fold);
        assert_eq!(stored.result.metric("value.n"), Some(3.0));
        assert!(space.fold(4, &[&result, &result, &result]).is_err());
        assert!(space.fold(3, &[&result, &result]).is_err());
        assert!(space.fold(space.total(), &[&result; 3]).is_err());
    }

    #[test]
    fn construction_validates_the_campaign() {
        let registry = registry();
        let new = |select: &[String], filter: &Filter, reps| {
            CampaignSpace::new(&registry, select, filter, 0, reps).map(|s| s.total())
        };
        assert_eq!(new(&[], &Filter::all(), 2), Ok(12));
        assert_eq!(new(&["toy".into(), "toy".into()], &Filter::all(), 1), Ok(6));
        assert_eq!(
            new(&["nope".into()], &Filter::all(), 1),
            Err(ScenarioError::UnknownScenario("nope".into()))
        );
        assert_eq!(
            new(&[], &Filter::all().with("c", "1"), 1),
            Err(ScenarioError::UnknownFilterAxis("c".into()))
        );
        assert!(new(&[], &Filter::all(), 0).is_err());
    }

    #[test]
    fn cell_seed_is_stable_and_input_sensitive() {
        let p = Params::new(vec![("a".into(), "1".into())]);
        let s = cell_seed(5, "toy", &p);
        assert_eq!(s, cell_seed(5, "toy", &p));
        assert_ne!(s, cell_seed(6, "toy", &p));
        assert_ne!(s, cell_seed(5, "other", &p));
    }
}
