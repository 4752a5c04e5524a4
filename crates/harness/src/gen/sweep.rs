//! The gen-backed scenarios: every kernel of the corpus, driven through
//! an existing timing backend under a seeded input-variation sweep.
//!
//! One [`GenScenario`] exists per [`GenBackend`]; all three share the
//! corpus, so their matrices are the corpus axes and their cells line
//! up kernel-for-kernel. Each cell materializes its kernel from the
//! corpus identity, derives a set of program inputs from the cell seed,
//! replays the resulting traces through the backend's uncertainty set
//! (pipeline warmups, cold vs. warmed cache, static bounds), and
//! reports the template metrics of [`super::metrics`].

use super::corpus::Corpus;
use super::metrics::{instance, template_metrics, GenBackend};
use crate::scenario::{CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
use mem_hierarchy::cache::{lru_cache, CacheConfig};
use pipeline_sim::inorder::{InOrderPipeline, InOrderState};
use pipeline_sim::latency::{CachedMem, PerfectMem};
use predictability_core::quality::QualityMeasure as _;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinyisa::exec::{Machine, TraceOp};
use tinyisa::kernels::Kernel;
use tinyisa::reg::Reg;
use wcet_analysis::{bounds, WcetConfig};

/// Program inputs drawn per cell (the input-variation set).
const INPUTS: usize = 4;
/// Pipeline warmup states swept (the state-uncertainty set).
const WARMUP_MAX: u64 = 3;
const HIT: u64 = 1;
const MISS: u64 = 10;

/// One gen-backed scenario: the corpus swept through one backend.
pub struct GenScenario {
    backend: GenBackend,
    corpus: Corpus,
    /// The corpus digest, computed once at registration (it generates
    /// the whole population; see [`Corpus::digest`] for the cost) and
    /// served from every `spec()` call.
    digest: String,
}

impl GenScenario {
    /// Builds the scenario for one backend over the given corpus.
    pub fn new(backend: GenBackend, corpus: Corpus, digest: String) -> GenScenario {
        GenScenario {
            backend,
            corpus,
            digest,
        }
    }

    /// Seed-derived program inputs, executed to traces. Pure in
    /// `(kernel, seed)`: the RNG is seeded with the cell seed only.
    fn traces(&self, kernel: &Kernel, seed: u64) -> Vec<Vec<TraceOp>> {
        let machine = Machine::default();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..INPUTS)
            .map(|_| {
                let regs: Vec<(Reg, i64)> = kernel
                    .input_regs
                    .iter()
                    .map(|&r| (r, rng.random_range(0..4096)))
                    .collect();
                let mem: Vec<(u32, i64)> = kernel
                    .input_mem
                    .map(|(base, len)| {
                        (0..len)
                            .map(|i| (base + i, rng.random_range(-64..=64)))
                            .collect()
                    })
                    .unwrap_or_default();
                machine
                    .run_traced_with(&kernel.program, &regs, &mem)
                    .expect("generated kernels terminate within default fuel")
                    .trace
            })
            .collect()
    }
}

impl Scenario for GenScenario {
    fn spec(&self) -> ScenarioSpec {
        let (id, title, property, uncertainty, quality, catalog_id) = match self.backend {
            GenBackend::Pipeline => (
                "gen/pipeline",
                "Generated-program sweep: in-order pipeline timing",
                "execution time of generated programs",
                "initial pipeline state and program input",
                "variability in execution times (and min/max ratio)",
                None,
            ),
            GenBackend::Cache => (
                "gen/cache",
                "Generated-program sweep: LRU-cached memory timing",
                "execution time of generated programs",
                "initial cache contents, data addresses and program input",
                "variability in execution times (and min/max ratio)",
                None,
            ),
            GenBackend::Wcet => (
                "gen/wcet",
                "Generated-program sweep: WCET bound tightness",
                "execution time of generated programs",
                "program input and pipeline warmup state",
                "statically computed bound (tightness and soundness)",
                None,
            ),
        };
        ScenarioSpec {
            id,
            version: 1,
            title,
            source_crate: "tinyisa",
            property,
            uncertainty,
            quality,
            catalog_id,
            content_digest: Some(self.digest.clone()),
            axes: self.corpus.axes(),
            headline_metric: "ratio",
            smaller_is_better: false,
        }
    }

    fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
        let (shape, index) = self.corpus.locate(params)?;
        let kernel = self.corpus.kernel(shape, index);
        let traces = self.traces(&kernel, seed);
        let pipeline = InOrderPipeline::default();
        let inst = instance(self.backend);

        // The full uncertainty sweep and the input-only slice (hardware
        // state held at its reference value) feeding the template
        // metrics.
        let mut sweep: Vec<f64> = Vec::new();
        let mut input_obs: Vec<f64> = Vec::new();
        let mut extra: Vec<(String, f64)> = Vec::new();

        match self.backend {
            GenBackend::Pipeline => {
                for trace in &traces {
                    for warmup in 0..=WARMUP_MAX {
                        let mut mem = PerfectMem { latency: HIT };
                        let t = pipeline.run(trace, InOrderState { warmup }, &mut mem, None) as f64;
                        if warmup == 0 {
                            input_obs.push(t);
                        }
                        sweep.push(t);
                    }
                }
            }
            GenBackend::Cache => {
                for trace in &traces {
                    // Cold cache, then the same cache warmed by the
                    // first pass: the two extremes of initial-contents
                    // uncertainty reachable without state enumeration.
                    let mut mem = CachedMem {
                        cache: lru_cache(CacheConfig::new(4, 2, 8)),
                        hit_latency: HIT,
                        miss_latency: MISS,
                    };
                    let state = InOrderState { warmup: 0 };
                    let cold = pipeline.run(trace, state, &mut mem, None) as f64;
                    let warm = pipeline.run(trace, state, &mut mem, None) as f64;
                    input_obs.push(cold);
                    sweep.push(cold);
                    sweep.push(warm);
                }
            }
            GenBackend::Wcet => {
                let config = WcetConfig {
                    mem_worst: HIT,
                    mem_best: HIT,
                    ..WcetConfig::default()
                };
                let b = bounds(&kernel.program, &config);
                let mut sound = true;
                for trace in &traces {
                    for warmup in 0..=WARMUP_MAX {
                        let mut mem = PerfectMem { latency: HIT };
                        let t = pipeline.run(trace, InOrderState { warmup }, &mut mem, None) as f64;
                        // The warmup is state uncertainty, not program
                        // work: enclosure is `ub + warmup`.
                        sound &= b.lb as f64 <= t && t <= (b.ub + warmup) as f64;
                        if warmup == 0 {
                            input_obs.push(t);
                        }
                        sweep.push(t);
                    }
                }
                // Tightness is the bound against the observations it
                // claims to enclose — the warmup-0 runs; warmed-up
                // states add cycles the *program's* bound does not owe.
                let tightness = predictability_core::quality::BoundTightness {
                    bound: Some(b.ub as f64),
                }
                .measure(&input_obs)
                .finite()
                .expect("finite bound");
                extra.push(("lb".to_string(), b.lb as f64));
                extra.push(("ub".to_string(), b.ub as f64));
                extra.push(("tightness".to_string(), tightness));
                extra.push(("sound".to_string(), f64::from(u8::from(sound))));
            }
        }

        let mut metrics: Vec<(String, f64)> = template_metrics(&inst, &sweep, &input_obs)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        metrics.push(("instrs".to_string(), kernel.program.instrs.len() as f64));
        metrics.extend(extra);
        Ok(CellResult { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(backend: GenBackend) -> GenScenario {
        let corpus = Corpus { seed: 0, size: 2 };
        let digest = corpus.digest();
        GenScenario::new(backend, corpus, digest)
    }

    fn cell(d: u32, s: u32, l: u32, i: u32) -> Params {
        Params::new(vec![
            ("depth".into(), d.to_string()),
            ("stmts".into(), s.to_string()),
            ("loop_iters".into(), l.to_string()),
            ("program_index".into(), i.to_string()),
        ])
    }

    #[test]
    fn every_backend_reports_template_metrics() {
        for backend in [GenBackend::Pipeline, GenBackend::Cache, GenBackend::Wcet] {
            let r = scenario(backend).run(&cell(2, 3, 4, 0), 11).unwrap();
            let ratio = r.metric("ratio").unwrap();
            assert!(ratio > 0.0 && ratio <= 1.0, "{backend:?}: ratio {ratio}");
            assert!(r.metric("sensitivity").unwrap() >= 0.0);
            assert!(r.metric("t_best").unwrap() <= r.metric("t_worst").unwrap());
            assert!(r.metric("instrs").unwrap() > 0.0);
        }
    }

    #[test]
    fn wcet_backend_bounds_are_sound_across_the_corpus() {
        let s = scenario(GenBackend::Wcet);
        for shape in Corpus::shapes().into_iter().take(4) {
            let p = cell(shape.depth, shape.stmts, shape.loop_iters, 1);
            let r = s.run(&p, 5).unwrap();
            assert_eq!(r.metric("sound"), Some(1.0), "{shape:?}");
            assert!(r.metric("tightness").unwrap() <= 1.0 + 1e-12);
            assert!(r.metric("lb").unwrap() <= r.metric("t_best").unwrap());
        }
    }

    #[test]
    fn runs_are_pure_in_params_and_seed() {
        let s = scenario(GenBackend::Pipeline);
        let p = cell(3, 6, 8, 1);
        assert_eq!(s.run(&p, 9).unwrap(), s.run(&p, 9).unwrap());
        // Individual kernels may be input-insensitive (constant-time
        // straight-line code), but across the corpus the cell seed must
        // move some observation.
        let seed_sensitive = Corpus::shapes().into_iter().any(|shape| {
            (0..2).any(|index| {
                let p = cell(shape.depth, shape.stmts, shape.loop_iters, index);
                s.run(&p, 9).unwrap() != s.run(&p, 10).unwrap()
            })
        });
        assert!(
            seed_sensitive,
            "input variation must derive from the cell seed"
        );
    }

    #[test]
    fn out_of_corpus_coordinates_error() {
        let s = scenario(GenBackend::Cache);
        assert!(matches!(
            s.run(&cell(2, 3, 4, 7), 0),
            Err(ScenarioError::BadParam { .. })
        ));
    }
}
