//! The deterministic generated-program corpus.
//!
//! A [`Corpus`] is the identity of a *population* of `tinyisa` programs:
//! a corpus seed, a per-shape kernel count, and the swept generator
//! shapes ([`Shape`]: loop/conditional nesting depth, statements per
//! block, loop iteration bound). Every kernel in the population is
//! derived on demand from `(corpus seed, shape, program index)` through
//! [`tinyisa::codegen::generate`], so two processes holding the same
//! corpus identity materialize byte-identical programs — the property
//! that lets sharded sweep campaigns run generated workloads without
//! shipping any program text.
//!
//! The corpus [digest](Corpus::digest) hashes every kernel's canonical
//! disassembly in sweep order. It is the corpus analogue of the shard
//! manifest's fingerprint digest: recorded at plan time, recomputed by
//! workers, and any mismatch (a codegen change that emits different
//! programs for the same seeds) is reported as *corpus drift* instead
//! of being silently merged into a mispartitioned campaign.

use crate::scenario::{Axis, Params, ScenarioError};
use crate::store::{fnv1a, FNV_OFFSET};
use tinyisa::codegen::{generate, kernel_digest, GenConfig};
use tinyisa::kernels::Kernel;

/// Nesting depths the corpus sweeps (`max_depth` of [`GenConfig`]).
pub const DEPTHS: [u32; 2] = [2, 3];
/// Statements-per-block bounds the corpus sweeps (`max_stmts`).
pub const STMTS: [u32; 2] = [3, 6];
/// Loop iteration bounds the corpus sweeps (`max_loop_iters`).
pub const LOOP_ITERS: [u32; 2] = [4, 8];

/// One generator shape: the structural knobs of [`GenConfig`] that the
/// sweep exposes as matrix axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Maximum nesting depth of loops and conditionals.
    pub depth: u32,
    /// Maximum number of statements per block.
    pub stmts: u32,
    /// Maximum iteration count of generated loops.
    pub loop_iters: u32,
}

impl Shape {
    /// The [`GenConfig`] this shape denotes (memory layout and input
    /// registers stay at the generator defaults so every kernel shares
    /// one scratch region and input convention).
    pub fn config(&self) -> GenConfig {
        GenConfig {
            max_depth: self.depth,
            max_stmts: self.stmts,
            max_loop_iters: self.loop_iters,
            ..GenConfig::default()
        }
    }
}

/// A generated-program corpus identity: everything needed to
/// rematerialize the same kernel population anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corpus {
    /// The corpus seed every kernel seed derives from (the campaign
    /// seed, in the CLI flow).
    pub seed: u64,
    /// Kernels per shape (the `program_index` axis runs `0..size`).
    pub size: u32,
}

impl Corpus {
    /// Every swept shape, in deterministic row-major order
    /// (depth slowest, loop_iters fastest) — the same order the matrix
    /// axes expand in.
    pub fn shapes() -> Vec<Shape> {
        let mut shapes = Vec::new();
        for depth in DEPTHS {
            for stmts in STMTS {
                for loop_iters in LOOP_ITERS {
                    shapes.push(Shape {
                        depth,
                        stmts,
                        loop_iters,
                    });
                }
            }
        }
        shapes
    }

    /// The generator seed of one kernel: a hash of the corpus seed, the
    /// shape and the program index (SplitMix64-finalized so adjacent
    /// indices do not generate correlated programs).
    pub fn kernel_seed(&self, shape: Shape, index: u32) -> u64 {
        let mut h = FNV_OFFSET ^ self.seed.rotate_left(29);
        for word in [shape.depth, shape.stmts, shape.loop_iters, index] {
            h = fnv1a(&word.to_le_bytes(), h);
        }
        let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Materializes one kernel of the corpus.
    pub fn kernel(&self, shape: Shape, index: u32) -> Kernel {
        generate(self.kernel_seed(shape, index), &shape.config())
    }

    /// Digest of the whole population: FNV-1a over every kernel's
    /// [digest](tinyisa::codegen::kernel_digest) in sweep order.
    /// Sensitive to the corpus seed, the size, the shape set and any
    /// change to the generator's emitted code.
    ///
    /// Cost: it generates and disassembles every kernel, 8 × `size`
    /// of them. Both steps build no intermediate text, so a 64-per-shape
    /// corpus (512 kernels) digests in about 3 ms in a release build on
    /// a 2-core Xeon.
    pub fn digest(&self) -> String {
        self.fold_digest(
            Self::shapes()
                .into_iter()
                .flat_map(|shape| (0..self.size).map(move |index| (shape, index)))
                .map(|(shape, index)| kernel_digest(&self.kernel(shape, index))),
        )
    }

    /// Folds per-kernel digests (which must be in sweep order and cover
    /// the whole population) into the population digest — shared by
    /// [`Corpus::digest`] and callers that already materialized every
    /// kernel (the `campaign gen` listing) so the population is not
    /// generated twice.
    pub fn fold_digest(&self, kernel_digests: impl Iterator<Item = String>) -> String {
        let mut h = FNV_OFFSET;
        h = fnv1a(&self.size.to_le_bytes(), h);
        for digest in kernel_digests {
            h = fnv1a(digest.as_bytes(), h);
            h = fnv1a(&[0xff], h);
        }
        format!("{h:016x}")
    }

    /// The matrix axes a gen-backed scenario declares: the three shape
    /// knobs plus the `program_index` axis selecting a kernel within
    /// each shape. Their cartesian product *is* the corpus, so growing
    /// `size` multiplies every gen scenario's matrix.
    pub fn axes(&self) -> Vec<Axis> {
        vec![
            Axis::new("depth", DEPTHS),
            Axis::new("stmts", STMTS),
            Axis::new("loop_iters", LOOP_ITERS),
            Axis::new("program_index", 0..self.size),
        ]
    }

    /// Resolves a cell's `(shape, program_index)` coordinates.
    pub fn locate(&self, params: &Params) -> Result<(Shape, u32), ScenarioError> {
        let axis_u32 = |axis: &str, allowed: Option<&[u32]>| -> Result<u32, ScenarioError> {
            let raw = params.get_u64(axis)?;
            // Range-check before narrowing: `as u32` would wrap
            // out-of-range values onto valid coordinates and silently
            // select the wrong kernel.
            let v = u32::try_from(raw).map_err(|_| ScenarioError::BadParam {
                axis: axis.to_string(),
                value: raw.to_string(),
            })?;
            match allowed {
                Some(values) if !values.contains(&v) => Err(ScenarioError::BadParam {
                    axis: axis.to_string(),
                    value: v.to_string(),
                }),
                _ => Ok(v),
            }
        };
        let shape = Shape {
            depth: axis_u32("depth", Some(&DEPTHS))?,
            stmts: axis_u32("stmts", Some(&STMTS))?,
            loop_iters: axis_u32("loop_iters", Some(&LOOP_ITERS))?,
        };
        let index = axis_u32("program_index", None)?;
        if index >= self.size {
            return Err(ScenarioError::BadParam {
                axis: "program_index".to_string(),
                value: index.to_string(),
            });
        }
        Ok((shape, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::codegen::canonical_source;

    #[test]
    fn corpus_is_deterministic_and_seed_sensitive() {
        let a = Corpus { seed: 42, size: 4 };
        let b = Corpus { seed: 42, size: 4 };
        assert_eq!(a.digest(), b.digest());
        let shape = Corpus::shapes()[0];
        assert_eq!(
            canonical_source(&a.kernel(shape, 1)),
            canonical_source(&b.kernel(shape, 1)),
            "same identity must materialize byte-identical programs"
        );
        assert_ne!(Corpus { seed: 43, size: 4 }.digest(), a.digest());
        assert_ne!(Corpus { seed: 42, size: 5 }.digest(), a.digest());
    }

    #[test]
    fn corpus_digests_are_pinned() {
        // Recorded manifests and stores carry these: a change is corpus
        // drift for every campaign that ran on them.
        for (seed, size, digest) in [
            (0, 2, "a6564ab0f5a94213"),
            (7, 2, "4823488333393dec"),
            (42, 2, "d5a88de0f0b184f3"),
            (42, 64, "6d727813d741a876"),
        ] {
            assert_eq!(
                Corpus { seed, size }.digest(),
                digest,
                "seed {seed} size {size}"
            );
        }
    }

    #[test]
    fn kernel_seeds_are_distinct_across_the_population() {
        let corpus = Corpus { seed: 7, size: 4 };
        let mut seeds = std::collections::BTreeSet::new();
        for shape in Corpus::shapes() {
            for index in 0..corpus.size {
                assert!(seeds.insert(corpus.kernel_seed(shape, index)));
            }
        }
        assert_eq!(seeds.len(), Corpus::shapes().len() * 4);
    }

    #[test]
    fn axes_span_the_population() {
        let corpus = Corpus { seed: 0, size: 3 };
        let axes = corpus.axes();
        let cells: usize = axes.iter().map(|a| a.values.len()).product();
        assert_eq!(cells, Corpus::shapes().len() * 3);
        let names: Vec<&str> = axes.iter().map(|a| a.name).collect();
        assert_eq!(names, ["depth", "stmts", "loop_iters", "program_index"]);
    }

    #[test]
    fn locate_validates_coordinates() {
        let corpus = Corpus { seed: 0, size: 2 };
        let p = |d: u32, s: u32, l: u32, i: u32| {
            Params::new(vec![
                ("depth".into(), d.to_string()),
                ("stmts".into(), s.to_string()),
                ("loop_iters".into(), l.to_string()),
                ("program_index".into(), i.to_string()),
            ])
        };
        // Out-of-range u64s must error, not wrap onto valid coordinates.
        let wrapped = Params::new(vec![
            ("depth".into(), (u64::from(u32::MAX) + 3).to_string()),
            ("stmts".into(), "3".into()),
            ("loop_iters".into(), "4".into()),
            ("program_index".into(), "0".into()),
        ]);
        assert!(
            corpus.locate(&wrapped).is_err(),
            "2^32+2 must not truncate to depth 2"
        );
        let (shape, index) = corpus.locate(&p(2, 3, 4, 1)).unwrap();
        assert_eq!(
            (shape.depth, shape.stmts, shape.loop_iters, index),
            (2, 3, 4, 1)
        );
        assert!(corpus.locate(&p(9, 3, 4, 0)).is_err(), "unknown depth");
        assert!(
            corpus.locate(&p(2, 3, 4, 2)).is_err(),
            "index out of corpus"
        );
    }
}
