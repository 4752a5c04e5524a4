//! Per-kernel predictability-template metrics.
//!
//! Each gen-backed scenario is a fresh instantiation of the paper's
//! template, declared as a first-class
//! [`predictability_core::template::TemplateInstance`]
//! — the same type the `core::catalog` uses for the paper's Tables 1
//! and 2 — and its cell metrics are *computed through* that instance:
//! the quality slot is dispatched to the matching
//! [`predictability_core::quality`] measure, so the numbers a campaign
//! reports are, by construction, the template's quality measure
//! evaluated on the observed behaviour rather than an ad-hoc statistic.

use predictability_core::quality::{MinMaxRatio, QualityMeasure, RelativeVariability, Variability};
use predictability_core::template::{Property, Quality, TemplateInstance, Uncertainty};

/// Which backend a gen scenario drives the generated kernels through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenBackend {
    /// The compositional in-order pipeline over warmup-state × input
    /// uncertainty.
    Pipeline,
    /// The in-order pipeline behind an LRU cache, over initial
    /// cache-state × input uncertainty.
    Cache,
    /// Static WCET bounds against observed executions.
    Wcet,
}

/// The template instance a gen backend evidences. These are *new*
/// instantiations of the template over the generated-program space, not
/// re-statements of catalog rows — the corpus exists precisely to cover
/// program-space the hand-written kernels cannot.
pub fn instance(backend: GenBackend) -> TemplateInstance {
    match backend {
        GenBackend::Pipeline => TemplateInstance {
            id: "gen-pipeline",
            approach: "Generated-program sweep: in-order pipeline",
            hardware_unit: "Pipeline",
            property: Property::ExecutionTime {
                of: "generated programs",
            },
            uncertainty: vec![
                Uncertainty::InitialHardwareState {
                    component: "pipeline",
                },
                Uncertainty::ProgramInput,
            ],
            quality: Quality::Variability {
                of: "execution times",
            },
            reinterpreted: false,
            citations: &[],
        },
        GenBackend::Cache => TemplateInstance {
            id: "gen-cache",
            approach: "Generated-program sweep: LRU-cached memory",
            hardware_unit: "Cache",
            property: Property::ExecutionTime {
                of: "generated programs",
            },
            uncertainty: vec![
                Uncertainty::InitialHardwareState { component: "cache" },
                Uncertainty::DataAddresses,
                Uncertainty::ProgramInput,
            ],
            quality: Quality::Variability {
                of: "execution times",
            },
            reinterpreted: false,
            citations: &[],
        },
        GenBackend::Wcet => TemplateInstance {
            id: "gen-wcet",
            approach: "Generated-program sweep: WCET bound tightness",
            hardware_unit: "Pipeline",
            property: Property::ExecutionTime {
                of: "generated programs",
            },
            uncertainty: vec![
                Uncertainty::ProgramInput,
                Uncertainty::InitialHardwareState {
                    component: "pipeline",
                },
            ],
            quality: Quality::StaticBound {
                of: "execution time",
            },
            reinterpreted: false,
            citations: &[],
        },
    }
}

/// The quality measure computing a template instance's quality slot.
/// Every slot a gen scenario declares maps to a `core::quality`
/// measure; the variability-style slots measure `max - min`.
pub fn quality_measure(quality: &Quality) -> &'static dyn QualityMeasure {
    match quality {
        Quality::Variability { .. } => &Variability,
        // A static bound's headline is still how far observations
        // spread under it; tightness against the bound itself is
        // reported separately by the scenario.
        _ => &Variability,
    }
}

/// The metrics every gen cell reports, computed through the template:
///
/// * `ratio` — worst/best predictability ratio over the *full*
///   uncertainty sweep (state × input), the paper's canonical BCET/WCET
///   quotient ([`MinMaxRatio`]; 1.0 = perfectly predictable);
/// * `sensitivity` — input-variation sensitivity: relative variability
///   of execution time across program inputs with the hardware state
///   held fixed ([`RelativeVariability`]; 0.0 = input-insensitive);
/// * `quality` — the declared quality slot's own measure over the full
///   sweep (variability in cycles for the gen instances);
/// * `t_best` / `t_worst` — the sweep extremes in cycles.
pub fn template_metrics(
    instance: &TemplateInstance,
    sweep_obs: &[f64],
    input_obs: &[f64],
) -> Vec<(&'static str, f64)> {
    let ratio = MinMaxRatio
        .measure(sweep_obs)
        .finite()
        .expect("min/max ratio is total");
    let sensitivity = RelativeVariability
        .measure(input_obs)
        .finite()
        .expect("relative variability is total");
    let quality = quality_measure(&instance.quality)
        .measure(sweep_obs)
        .finite()
        .expect("gen quality slots are total");
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &o in sweep_obs {
        min = min.min(o);
        max = max.max(o);
    }
    vec![
        ("ratio", ratio),
        ("sensitivity", sensitivity),
        ("quality", quality),
        ("t_best", min),
        ("t_worst", max),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_fill_all_three_slots() {
        for backend in [GenBackend::Pipeline, GenBackend::Cache, GenBackend::Wcet] {
            let inst = instance(backend);
            assert!(!inst.uncertainty.is_empty());
            let row = inst.to_row();
            assert!(row.contains("generated programs"), "{row}");
        }
    }

    #[test]
    fn metrics_come_from_the_template_quality_slot() {
        let inst = instance(GenBackend::Pipeline);
        let sweep = [10.0, 12.0, 20.0];
        let inputs = [10.0, 12.0];
        let metrics = template_metrics(&inst, &sweep, &inputs);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("ratio"), 0.5, "min/max over the full sweep");
        assert!((get("sensitivity") - 2.0 / 12.0).abs() < 1e-12);
        // The declared slot is variability: max - min.
        assert_eq!(get("quality"), 10.0);
        assert_eq!((get("t_best"), get("t_worst")), (10.0, 20.0));
        // The `quality` metric must agree with evaluating the slot's
        // measure directly — the "computed through the template" claim.
        let direct = quality_measure(&inst.quality).measure(&sweep).finite();
        assert_eq!(direct, Some(get("quality")));
    }
}
