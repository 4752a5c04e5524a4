//! The scenario abstraction: what a registered workload must declare
//! and how one matrix cell is evaluated.
//!
//! A [`Scenario`] is one instantiation of the paper's template over a
//! real simulator: its [`ScenarioSpec`] names the system under test and
//! the template's three slots (property, uncertainty, quality measure),
//! and declares a parameter matrix as named [`Axis`] value lists. The
//! executor evaluates the cartesian product of the axes; each cell gets
//! a deterministic seed, and [`Scenario::run`] must be a pure function
//! of `(params, seed)` — that is the contract that makes memoization
//! and thread-count-independent results sound.

use std::fmt;

/// One matrix axis: a parameter name and the values it sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Parameter name (stable; part of the cell fingerprint).
    pub name: &'static str,
    /// Values, in sweep order.
    pub values: Vec<String>,
}

impl Axis {
    /// An axis from anything displayable.
    pub fn new<T: fmt::Display>(name: &'static str, values: impl IntoIterator<Item = T>) -> Axis {
        Axis {
            name,
            values: values.into_iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// The declarative description of a scenario: identity, template slots
/// and the parameter matrix.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Stable id (lower-kebab-case; part of every cell fingerprint).
    pub id: &'static str,
    /// Implementation version; part of every cell fingerprint. Bump it
    /// whenever the scenario's semantics change (workload shape,
    /// constants, metric definitions), so persisted stores recompute
    /// instead of silently serving results of the old implementation.
    pub version: u32,
    /// Human-readable title.
    pub title: &'static str,
    /// The workspace crate providing the system under test.
    pub source_crate: &'static str,
    /// Template slot: the property to be predicted.
    pub property: &'static str,
    /// Template slot: the sources of uncertainty.
    pub uncertainty: &'static str,
    /// Template slot: the quality measure.
    pub quality: &'static str,
    /// The `predictability_core::catalog` row this scenario evidences,
    /// if it corresponds to one of the paper's Table 1/2 rows.
    pub catalog_id: Option<&'static str>,
    /// Digest of external *content* the scenario's results depend on
    /// beyond its id, version and axes — e.g. the generated-program
    /// corpus a `gen/*` scenario sweeps. The digest is part of every
    /// cell fingerprint, so content drift (a codegen change that emits
    /// different programs for the same seeds) invalidates memoized
    /// results and trips shard-manifest drift detection exactly like a
    /// version bump. `None` for scenarios whose workload is fully
    /// described by their axes.
    pub content_digest: Option<String>,
    /// The parameter matrix.
    pub axes: Vec<Axis>,
    /// The metric the evidence summary leads with.
    pub headline_metric: &'static str,
    /// Whether smaller headline values mean more predictable.
    pub smaller_is_better: bool,
}

impl ScenarioSpec {
    /// Number of cells in the full (unfiltered) matrix.
    pub fn matrix_size(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }
}

/// The coordinates of one cell: `(axis, value)` pairs in axis order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Params(Vec<(String, String)>);

impl Params {
    /// Builds from `(axis, value)` pairs (kept in the given order).
    pub fn new(pairs: Vec<(String, String)>) -> Params {
        Params(pairs)
    }

    /// The `(axis, value)` pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Looks up one axis value.
    pub fn get(&self, axis: &str) -> Result<&str, ScenarioError> {
        self.0
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| ScenarioError::MissingParam(axis.to_string()))
    }

    /// Looks up and parses an integer axis value.
    pub fn get_u64(&self, axis: &str) -> Result<u64, ScenarioError> {
        let raw = self.get(axis)?;
        raw.parse().map_err(|_| ScenarioError::BadParam {
            axis: axis.to_string(),
            value: raw.to_string(),
        })
    }

    /// Looks up and parses a float axis value.
    pub fn get_f64(&self, axis: &str) -> Result<f64, ScenarioError> {
        let raw = self.get(axis)?;
        raw.parse().map_err(|_| ScenarioError::BadParam {
            axis: axis.to_string(),
            value: raw.to_string(),
        })
    }

    /// The canonical `axis=value,axis=value` key — stable across runs,
    /// used in fingerprints, filters and reports.
    pub fn key(&self) -> String {
        self.0
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// The measured outcome of one cell: named metrics in declaration
/// order. Metrics that do not exist for a cell (e.g. `fill` for MRU,
/// which provably never fills) are simply omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

impl CellResult {
    /// Builds from `(metric, value)` pairs.
    pub fn new(metrics: Vec<(&str, f64)>) -> CellResult {
        CellResult {
            metrics: metrics
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Looks up one metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Errors surfaced by scenario evaluation or campaign plumbing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A cell was asked for an axis its matrix does not declare.
    MissingParam(String),
    /// An axis value failed to parse as the expected type.
    BadParam {
        /// Axis name.
        axis: String,
        /// Offending value.
        value: String,
    },
    /// No registered scenario has the requested id.
    UnknownScenario(String),
    /// A filter clause names an axis no selected scenario declares
    /// (almost always a typo; a vacuous clause would otherwise silently
    /// run the full unfiltered campaign).
    UnknownFilterAxis(String),
    /// Reading or writing the result store failed.
    Store(String),
    /// Distributed-campaign plumbing failed: a bad shard spec, a
    /// manifest that no longer matches the registry, or shard stores
    /// that disagree on a fingerprint (a determinism violation).
    Dist(String),
    /// A campaign run was cooperatively cancelled (see
    /// `exec::ExecHooks::cancel`): every cell completed before the
    /// cancel was persisted, the remainder never ran. Rerunning the
    /// same campaign resumes from the persisted cells.
    Cancelled,
    /// A cell's `Scenario::run` panicked. The executor catches the
    /// panic at the cell, so the campaign fails like on any erroring
    /// cell: the completed siblings persist, the panicked cell is never
    /// journaled or memoized, and a rerun retries it.
    Panicked {
        /// Scenario id.
        scenario: String,
        /// The cell's canonical parameter key (`a=1,b=2`).
        params: String,
        /// The panic message.
        message: String,
    },
    /// A cell's `Scenario::run` returned a NaN or infinite metric, which
    /// JSON cannot hold: the executor fails the cell like a panicking
    /// one, so it is never journaled or memoized.
    NonFiniteMetric {
        /// Scenario id.
        scenario: String,
        /// The cell's canonical parameter key (`a=1,b=2`).
        params: String,
        /// The first non-finite metric's name.
        metric: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::MissingParam(axis) => write!(f, "missing matrix axis `{axis}`"),
            ScenarioError::BadParam { axis, value } => {
                write!(f, "axis `{axis}` value `{value}` failed to parse")
            }
            ScenarioError::UnknownScenario(id) => write!(f, "unknown scenario `{id}`"),
            ScenarioError::UnknownFilterAxis(axis) => {
                write!(
                    f,
                    "filter axis `{axis}` not declared by any selected scenario"
                )
            }
            ScenarioError::Store(msg) => write!(f, "result store error: {msg}"),
            ScenarioError::Dist(msg) => write!(f, "distributed campaign error: {msg}"),
            ScenarioError::Cancelled => write!(f, "campaign cancelled before completion"),
            ScenarioError::Panicked {
                scenario,
                params,
                message,
            } => write!(
                f,
                "scenario `{scenario}` panicked on cell {params}: {message}"
            ),
            ScenarioError::NonFiniteMetric {
                scenario,
                params,
                metric,
            } => write!(
                f,
                "scenario `{scenario}` gave non-finite metric `{metric}` on cell {params}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A registered workload.
///
/// Implementations must be deterministic: `run(params, seed)` must
/// return the same [`CellResult`] for the same arguments, regardless of
/// thread interleaving or prior calls. Anything stochastic must draw
/// from an RNG seeded with `seed` only.
pub trait Scenario: Send + Sync {
    /// The scenario's declarative description.
    fn spec(&self) -> ScenarioSpec;

    /// Evaluates one matrix cell.
    fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_key_is_canonical() {
        let p = Params::new(vec![
            ("policy".into(), "lru".into()),
            ("assoc".into(), "4".into()),
        ]);
        assert_eq!(p.key(), "policy=lru,assoc=4");
        assert_eq!(p.get("policy").unwrap(), "lru");
        assert_eq!(p.get_u64("assoc").unwrap(), 4);
        assert!(matches!(
            p.get("missing"),
            Err(ScenarioError::MissingParam(_))
        ));
        assert!(matches!(
            p.get_u64("policy"),
            Err(ScenarioError::BadParam { .. })
        ));
    }

    #[test]
    fn matrix_size_is_product_of_axes() {
        let spec = ScenarioSpec {
            id: "t",
            version: 1,
            title: "t",
            source_crate: "t",
            property: "t",
            uncertainty: "t",
            quality: "t",
            catalog_id: None,
            content_digest: None,
            axes: vec![Axis::new("a", [1, 2, 3]), Axis::new("b", ["x", "y"])],
            headline_metric: "m",
            smaller_is_better: true,
        };
        assert_eq!(spec.matrix_size(), 6);
    }

    #[test]
    fn cell_result_lookup() {
        let r = CellResult::new(vec![("evict", 4.0), ("fill", 8.0)]);
        assert_eq!(r.metric("fill"), Some(8.0));
        assert_eq!(r.metric("nope"), None);
    }
}
