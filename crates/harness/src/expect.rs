//! The statistical expectation layer: replicate-seed derivation and
//! the streaming fold that turns N per-replicate outcomes into
//! distribution-valued metrics (`<metric>.mean/.std/.ci95/.p05/.p50/
//! .p95/.n`).
//!
//! The shape is the midynet exemplar's (`Expectation.func(seed)`
//! fanned over `num_samples` seeds, folded through `Statistics`):
//! every scenario cell can be multiplied by a replicate axis, each
//! replicate runs under its own deterministically derived seed, and
//! the outcomes fold into one *fold cell* keyed by the base cell's
//! fingerprint. The fold is streaming — Welford moments plus P²
//! quantile markers — so memory stays constant at any replicate
//! count.
//!
//! Determinism contract: the fold consumes outcomes in *replicate
//! index* order (never arrival order), so an N-shard campaign merged
//! and folded through [`CampaignSpace::fold`](crate::space::CampaignSpace::fold)
//! produces byte-identical fold cells to a single-process run.

use crate::scenario::{CellResult, ScenarioError};

/// The derived-column suffixes a fold appends to each base metric, in
/// emission order.
pub const DERIVED_SUFFIXES: [&str; 7] = ["mean", "std", "ci95", "p05", "p50", "p95", "n"];

fn splitmix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed replicate `rep` runs under from the base cell's
/// seed: one SplitMix64 stream step per replicate index. Replicate
/// seeds are decorrelated from each other and from the base seed, and
/// depend on nothing but `(base_seed, rep)` — any shard, any process,
/// any thread derives the same one.
pub fn replicate_seed(base_seed: u64, rep: u32) -> u64 {
    splitmix(base_seed.wrapping_add((rep as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Streaming first/second moments (Welford) plus the observed range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Moments::new()
    }
}

impl Moments {
    pub fn new() -> Moments {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Welford's update: numerically stable at any count.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Chan's parallel combination: merging two accumulators is
    /// (numerically) equivalent to one pass over the concatenation.
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample variance (`M2 / (n-1)`); `0.0` below two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`std / sqrt(n)`).
    pub fn sem(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std() / (self.count as f64).sqrt()
        }
    }

    /// Normal-approximation 95% confidence half-width (`1.96 · sem`).
    pub fn ci95(&self) -> f64 {
        1.96 * self.sem()
    }
}

/// A P² streaming quantile estimator (Jain & Chlamtac 1985): five
/// markers track the `p`-quantile in constant memory. Below five
/// observations the estimate is the *exact* linear-interpolated
/// quantile of the sorted buffer — so typical small replicate counts
/// near the buffer boundary stay honest.
#[derive(Debug, Clone, PartialEq)]
pub struct P2 {
    p: f64,
    count: usize,
    q: [f64; 5],
    pos: [f64; 5],
    desired: [f64; 5],
    incr: [f64; 5],
}

impl P2 {
    pub fn new(p: f64) -> P2 {
        P2 {
            p,
            count: 0,
            q: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            incr: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        }
    }

    pub fn push(&mut self, x: f64) {
        if self.count < 5 {
            // Sorted-insert into the warmup buffer.
            let mut i = self.count;
            self.q[i] = x;
            while i > 0 && self.q[i - 1] > self.q[i] {
                self.q.swap(i - 1, i);
                i -= 1;
            }
            self.count += 1;
            return;
        }
        // Find the marker cell the observation lands in, extending the
        // extremes when it falls outside them.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && self.q[k + 1] <= x {
                k += 1;
            }
            k
        };
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.incr[i];
        }
        // Nudge the three interior markers toward their desired
        // positions: parabolic (P²) where the result stays ordered,
        // linear otherwise.
        for i in 1..4 {
            let d = self.desired[i] - self.pos[i];
            if (d >= 1.0 && self.pos[i + 1] - self.pos[i] > 1.0)
                || (d <= -1.0 && self.pos[i - 1] - self.pos[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.pos[i + 1] - self.pos[i - 1])
                        * ((self.pos[i] - self.pos[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.pos[i + 1] - self.pos[i])
                            + (self.pos[i + 1] - self.pos[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.pos[i] - self.pos[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else if d > 0.0 {
                    self.q[i] + (self.q[i + 1] - self.q[i]) / (self.pos[i + 1] - self.pos[i])
                } else {
                    self.q[i] - (self.q[i - 1] - self.q[i]) / (self.pos[i - 1] - self.pos[i])
                };
                self.pos[i] += d;
            }
        }
        self.count += 1;
    }

    /// The current quantile estimate (exact below five observations).
    pub fn value(&self) -> f64 {
        match self.count {
            0 => f64::NAN,
            n if n < 5 => {
                let h = self.p * (n - 1) as f64;
                let lo = h.floor() as usize;
                let frac = h - lo as f64;
                if lo + 1 < n {
                    self.q[lo] + frac * (self.q[lo + 1] - self.q[lo])
                } else {
                    self.q[lo]
                }
            }
            _ => self.q[2],
        }
    }
}

/// The full per-metric streaming fold: moments plus the three
/// committed quantile markers.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    moments: Moments,
    q05: P2,
    q50: P2,
    q95: P2,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator::new()
    }
}

impl Accumulator {
    pub fn new() -> Accumulator {
        Accumulator {
            moments: Moments::new(),
            q05: P2::new(0.05),
            q50: P2::new(0.50),
            q95: P2::new(0.95),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.moments.push(x);
        self.q05.push(x);
        self.q50.push(x);
        self.q95.push(x);
    }

    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// The derived metric values in [`DERIVED_SUFFIXES`] order.
    pub fn derived(&self) -> [f64; 7] {
        [
            self.moments.mean(),
            self.moments.std(),
            self.moments.ci95(),
            self.q05.value(),
            self.q50.value(),
            self.q95.value(),
            self.moments.count() as f64,
        ]
    }
}

/// Folds the per-replicate outcomes of one base cell (in replicate
/// index order) into the derived distribution metrics. Every
/// replicate must report the same metric-name sequence — divergent
/// metric sets mean the scenario is nondeterministic in *shape*, which
/// the fold refuses rather than papering over.
pub fn fold_results(results: &[&CellResult]) -> Result<CellResult, ScenarioError> {
    let first = results.first().ok_or_else(|| {
        ScenarioError::Store("expect: fold over zero replicate outcomes".to_string())
    })?;
    let names: Vec<&str> = first.metrics.iter().map(|(k, _)| k.as_str()).collect();
    for (rep, result) in results.iter().enumerate() {
        let theirs: Vec<&str> = result.metrics.iter().map(|(k, _)| k.as_str()).collect();
        if theirs != names {
            return Err(ScenarioError::Store(format!(
                "expect: replicate {rep} reports metrics [{}] but replicate 0 reported [{}]",
                theirs.join(", "),
                names.join(", ")
            )));
        }
    }
    let mut metrics = Vec::with_capacity(names.len() * DERIVED_SUFFIXES.len());
    for (column, name) in names.iter().enumerate() {
        let mut acc = Accumulator::new();
        for result in results {
            acc.push(result.metrics[column].1);
        }
        for (suffix, value) in DERIVED_SUFFIXES.iter().zip(acc.derived()) {
            metrics.push((format!("{name}.{suffix}"), value));
        }
    }
    Ok(CellResult { metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn moments_match_closed_form_two_point_distribution() {
        // k ones among n observations: mean k/n, sample variance
        // k(n-k)/(n(n-1)) — the closed-form Bernoulli check.
        for (n, k) in [(2u64, 1u64), (10, 3), (16, 8), (100, 99)] {
            let mut m = Moments::new();
            for i in 0..n {
                m.push(if i < k { 1.0 } else { 0.0 });
            }
            let mean = k as f64 / n as f64;
            let var = (k * (n - k)) as f64 / (n as f64 * (n - 1) as f64);
            assert!(close(m.mean(), mean, 1e-12), "mean n={n} k={k}");
            assert!(close(m.variance(), var, 1e-12), "var n={n} k={k}");
            assert_eq!(m.count(), n);
            assert_eq!((m.min(), m.max()), (0.0, 1.0));
        }
    }

    #[test]
    fn degenerate_counts_are_defined() {
        let mut m = Moments::new();
        assert_eq!(m.std(), 0.0);
        m.push(3.5);
        assert_eq!((m.mean(), m.std(), m.ci95()), (3.5, 0.0, 0.0));
        let mut q = P2::new(0.5);
        q.push(3.5);
        assert_eq!(q.value(), 3.5);
    }

    #[test]
    fn small_n_quantiles_are_exact() {
        let mut q = P2::new(0.5);
        for x in [4.0, 1.0, 3.0, 2.0] {
            q.push(x);
        }
        assert_eq!(q.value(), 2.5); // median of 1,2,3,4
        let mut q = P2::new(0.95);
        for x in [1.0, 2.0, 3.0] {
            q.push(x);
        }
        assert!(close(q.value(), 2.9, 1e-12));
    }

    #[test]
    fn p2_median_converges_on_uniform_stream() {
        // Deterministic splitmix stream — no RNG dependency.
        let mut q = P2::new(0.5);
        let mut m = Moments::new();
        for i in 0..10_000u64 {
            let x = (super::splitmix(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1_000_000) as f64
                / 1_000_000.0;
            q.push(x);
            m.push(x);
        }
        assert!((q.value() - 0.5).abs() < 0.02, "median {}", q.value());
        assert!((m.mean() - 0.5).abs() < 0.02);
    }

    #[test]
    fn replicate_seeds_are_distinct_and_stable() {
        let base = 0xdead_beef_0042_0007;
        let seeds: Vec<u64> = (0..64).map(|r| replicate_seed(base, r)).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "replicate seeds collide");
        assert!(!seeds.contains(&base), "replicate seed equals base seed");
        assert_eq!(replicate_seed(base, 5), seeds[5], "derivation is pure");
    }

    #[test]
    fn fold_emits_derived_columns_in_declaration_order() {
        let a = CellResult::new(vec![("wcet", 10.0), ("ratio", 1.5)]);
        let b = CellResult::new(vec![("wcet", 14.0), ("ratio", 2.5)]);
        let folded = fold_results(&[&a, &b]).unwrap();
        let names: Vec<&str> = folded.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "wcet.mean",
                "wcet.std",
                "wcet.ci95",
                "wcet.p05",
                "wcet.p50",
                "wcet.p95",
                "wcet.n",
                "ratio.mean",
                "ratio.std",
                "ratio.ci95",
                "ratio.p05",
                "ratio.p50",
                "ratio.p95",
                "ratio.n"
            ]
        );
        assert_eq!(folded.metric("wcet.mean"), Some(12.0));
        assert_eq!(folded.metric("wcet.n"), Some(2.0));
        assert!(close(
            folded.metric("wcet.std").unwrap(),
            8.0_f64.sqrt(),
            1e-12
        ));
        assert_eq!(folded.metric("ratio.p50"), Some(2.0));
    }

    #[test]
    fn fold_refuses_divergent_metric_shapes() {
        let a = CellResult::new(vec![("m", 1.0)]);
        let b = CellResult::new(vec![("other", 1.0)]);
        assert!(fold_results(&[&a, &b]).is_err());
        assert!(fold_results(&[]).is_err());
    }

    proptest! {
        #[test]
        fn merge_of_two_accumulators_matches_one_pass(
            xs in proptest::collection::vec(-1.0e3_f64..1.0e3, 1..200),
            split in 0usize..200,
        ) {
            let split = split.min(xs.len());
            let mut one = Moments::new();
            for &x in &xs { one.push(x); }
            let mut left = Moments::new();
            let mut right = Moments::new();
            for &x in &xs[..split] { left.push(x); }
            for &x in &xs[split..] { right.push(x); }
            left.merge(&right);
            prop_assert_eq!(left.count(), one.count());
            prop_assert!(close(left.mean(), one.mean(), 1e-9));
            prop_assert!(close(left.variance(), one.variance(), 1e-6));
            prop_assert_eq!(left.min(), one.min());
            prop_assert_eq!(left.max(), one.max());
        }

        #[test]
        fn moments_are_permutation_invariant(
            xs in proptest::collection::vec(-1.0e3_f64..1.0e3, 1..64),
        ) {
            let mut xs = xs;
            let mut fwd = Moments::new();
            for &x in &xs { fwd.push(x); }
            xs.reverse();
            let mut rev = Moments::new();
            for &x in &xs { rev.push(x); }
            prop_assert!(close(fwd.mean(), rev.mean(), 1e-9));
            prop_assert!(close(fwd.variance(), rev.variance(), 1e-6));
            prop_assert_eq!((fwd.min(), fwd.max()), (rev.min(), rev.max()));
        }

        #[test]
        fn warmup_quantiles_are_permutation_invariant(
            xs in proptest::collection::vec(-1.0e3_f64..1.0e3, 1..5),
        ) {
            let mut xs = xs;
            let mut fwd = P2::new(0.5);
            for &x in &xs { fwd.push(x); }
            xs.reverse();
            let mut rev = P2::new(0.5);
            for &x in &xs { rev.push(x); }
            // Below five observations the sorted warmup buffer makes
            // the estimate exactly order-independent.
            prop_assert_eq!(fwd.value(), rev.value());
        }

        #[test]
        fn p2_estimate_stays_inside_observed_range(
            xs in proptest::collection::vec(-1.0e3_f64..1.0e3, 1..128),
            p in 0.01_f64..0.99,
        ) {
            let mut q = P2::new(p);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &x in &xs {
                q.push(x);
                lo = lo.min(x);
                hi = hi.max(x);
            }
            prop_assert!(q.value() >= lo - 1e-9 && q.value() <= hi + 1e-9,
                "estimate {} outside [{lo}, {hi}]", q.value());
        }
    }
}
