//! # gen — generated-program sweep campaigns
//!
//! The subsystem that turns `tinyisa::codegen` into a first-class
//! workload class. The paper's template defines predictability over a
//! *space* of programs and hardware states; every other scenario in the
//! registry evaluates a fixed hand-written kernel, which is exactly the
//! "correct but incomplete" coverage gap of evidence drawn from a
//! curated workload set. This module closes it with a deterministic
//! program *corpus*:
//!
//! * [`corpus`] — the corpus identity ([`Corpus`]): kernels derived on
//!   demand from `(corpus seed, shape, program index)`, with a
//!   population digest that shard manifests carry so workers detect
//!   *corpus drift* exactly like registry drift.
//! * [`sweep`] — the gen-backed scenarios (`gen/pipeline`, `gen/cache`,
//!   `gen/wcet`): every kernel of the corpus driven through an existing
//!   timing backend under seeded input variation, with the corpus shape
//!   (`depth`, `stmts`, `loop_iters`, `program_index`) exposed as
//!   matrix axes — growing the corpus multiplies the total matrix.
//! * [`metrics`] — per-kernel predictability metrics computed *through*
//!   the template: each backend declares a
//!   `predictability_core::template::TemplateInstance` and its quality
//!   slot is evaluated by the matching `core::quality` measure.
//!
//! The corpus seed defaults to the campaign seed in the CLI flow, so a
//! campaign's program population varies with `--seed` like every other
//! source of controlled randomness, while `--corpus-size` scales how
//! many programs each shape contributes.

pub mod corpus;
pub mod metrics;
pub mod sweep;

pub use corpus::{Corpus, Shape};
pub use metrics::GenBackend;
pub use sweep::GenScenario;

use crate::scenario::Scenario;

/// Kernels per shape when no `--corpus-size` is given. Small enough
/// that the default campaign stays quick; the sweep-specific CI job
/// runs a bigger corpus.
pub const DEFAULT_CORPUS_SIZE: u32 = 2;

/// How a registry's gen scenarios derive their corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOptions {
    /// Kernels per shape (`program_index` axis length).
    pub corpus_size: u32,
    /// The corpus seed (the campaign seed, in the CLI flow).
    pub corpus_seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            corpus_size: DEFAULT_CORPUS_SIZE,
            corpus_seed: 0,
        }
    }
}

impl GenOptions {
    /// The corpus these options denote.
    pub fn corpus(&self) -> Corpus {
        Corpus {
            seed: self.corpus_seed,
            size: self.corpus_size,
        }
    }
}

/// The gen-backed scenarios over the options' corpus, in registration
/// order. The corpus digest is computed once here, eagerly, and shared
/// by all three scenarios' specs. It materializes the whole population
/// ([`Corpus::digest`] gives the cost), which makes it most of a
/// gen-sweep registry's build time.
pub fn scenarios(options: &GenOptions) -> Vec<Box<dyn Scenario>> {
    let corpus = options.corpus();
    let digest = corpus.digest();
    [GenBackend::Pipeline, GenBackend::Cache, GenBackend::Wcet]
        .into_iter()
        .map(|backend| {
            Box::new(GenScenario::new(backend, corpus, digest.clone())) as Box<dyn Scenario>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_share_one_corpus_digest() {
        let built = scenarios(&GenOptions::default());
        assert_eq!(built.len(), 3);
        let digests: Vec<Option<String>> = built.iter().map(|s| s.spec().content_digest).collect();
        assert!(digests[0].is_some());
        assert!(digests.iter().all(|d| *d == digests[0]));
        let ids: Vec<&str> = built.iter().map(|s| s.spec().id).collect();
        assert_eq!(ids, ["gen/pipeline", "gen/cache", "gen/wcet"]);
    }

    #[test]
    fn corpus_seed_changes_the_digest_and_axes_scale() {
        let a = scenarios(&GenOptions {
            corpus_seed: 1,
            corpus_size: 2,
        });
        let b = scenarios(&GenOptions {
            corpus_seed: 2,
            corpus_size: 2,
        });
        assert_ne!(a[0].spec().content_digest, b[0].spec().content_digest);
        let big = scenarios(&GenOptions {
            corpus_seed: 1,
            corpus_size: 8,
        });
        assert_eq!(
            big[0].spec().matrix_size(),
            4 * a[0].spec().matrix_size(),
            "corpus size multiplies the matrix"
        );
    }
}
