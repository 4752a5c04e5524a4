//! Metric records, the percentile rule the report follows, and the
//! one-line JSON result every run ends with.

use std::fmt::Write as _;
use std::time::Instant;

use harness::json::Json;

/// A percentile as an exact fraction, so rank arithmetic stays in
/// integers (`0.99 * 1000.0` is not exactly 990 in floating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    num: usize,
    den: usize,
}

impl Percentile {
    /// The smallest sample (nearest rank 1).
    pub const MIN: Percentile = Percentile { num: 0, den: 1 };
    pub const P50: Percentile = Percentile { num: 1, den: 2 };
    pub const P90: Percentile = Percentile { num: 9, den: 10 };
    pub const P99: Percentile = Percentile { num: 99, den: 100 };
    const P999: Percentile = Percentile {
        num: 999,
        den: 1_000,
    };
    const P9999: Percentile = Percentile {
        num: 9_999,
        den: 10_000,
    };

    /// The 1-based nearest rank of this percentile among `n` samples.
    pub fn rank(self, n: usize) -> usize {
        (n * self.num).div_ceil(self.den).max(1)
    }

    fn label(self) -> String {
        format!("p{}", self.num as f64 * 100.0 / self.den as f64)
    }
}

/// The tail reported beside a median: the highest of p90, p99, p99.9
/// and p99.99 that leaves at least ten of `n` samples beyond it, so a
/// tail figure never rests on a handful of outliers.
pub fn tail_percentile(n: usize) -> Option<Percentile> {
    [
        Percentile::P9999,
        Percentile::P999,
        Percentile::P99,
        Percentile::P90,
    ]
    .into_iter()
    .find(|p| n >= p.rank(n) + 10)
}

/// Runs `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// A median, a fixed percentile, or a single reading.
    pub value: f64,
    /// Samples behind `value`.
    pub samples: usize,
    /// The tail [`tail_percentile`] allows for those samples.
    pub tail: Option<(Percentile, f64)>,
}

impl Metric {
    /// The median of `samples`, which must not be empty.
    pub fn median(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::percentile(name, unit, samples, Percentile::P50)
    }

    /// Percentile `p` of `samples`, which must not be empty.
    pub fn percentile(
        name: impl Into<String>,
        unit: &'static str,
        samples: &[f64],
        p: Percentile,
    ) -> Metric {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: Percentile| sorted[p.rank(sorted.len()) - 1];
        Metric {
            name: name.into(),
            unit,
            value: at(p),
            samples: sorted.len(),
            tail: tail_percentile(sorted.len()).map(|t| (t, at(t))),
        }
    }

    /// One reading: a count, a ratio, or a figure derived from others.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            tail: None,
        }
    }
}

/// Every metric a run measured, plus free-form notes.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The notes, then one line per metric: name, value, unit, sample
    /// count and tail.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for m in &self.metrics {
            let tail = m
                .tail
                .map_or(String::new(), |(p, v)| format!(", {} {v:.3}", p.label()));
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<6} (n={}{tail})",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the last holding `names` with their values and units.
    /// Errors on a name the run did not measure, or measured in another
    /// unit.
    pub fn result_line(
        &self,
        names: &[(String, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let metric = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if metric.unit != *unit {
                return Err(format!(
                    "metric `{name}` is in {}, expected {unit}",
                    metric.unit
                ));
            }
            metrics.push((
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(metric.value)),
                    ("unit".into(), Json::str(*unit)),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(Percentile::P90));
        assert_eq!(tail_percentile(999), Some(Percentile::P90));
        assert_eq!(tail_percentile(1_000), Some(Percentile::P99));
        assert_eq!(tail_percentile(10_000), Some(Percentile::P999));
        assert_eq!(tail_percentile(100_000), Some(Percentile::P9999));
        let ladder = [
            Percentile::P90,
            Percentile::P99,
            Percentile::P999,
            Percentile::P9999,
        ];
        for n in 1..25_000 {
            let best = ladder.into_iter().rev().find(|p| n >= p.rank(n) + 10);
            assert_eq!(tail_percentile(n), best, "n={n}");
            if let Some(p) = best {
                assert!(n - p.rank(n) >= 10, "n={n}: fewer than ten beyond");
            }
        }
    }

    #[test]
    fn median_and_tail_of_a_ramp() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let m = Metric::median("x", "ms", &samples);
        assert_eq!(m.value, 500.0);
        assert_eq!(m.samples, 1_000);
        assert_eq!(m.tail, Some((Percentile::P99, 990.0)));
        let few = Metric::median("y", "s", &[3.0, 1.0, 2.0]);
        assert_eq!((few.value, few.samples, few.tail), (2.0, 3, None));
    }

    #[test]
    fn result_line_holds_exactly_the_named_metrics() {
        let mut report = Report::default();
        report.push(Metric::single("a", "ms", 1.5));
        report.push(Metric::single("b", "s", 2.0));
        report.push(Metric::single("extra", "s", 9.0));
        let names = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let line = report.result_line(&names, true, 3, 0).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":1.5,"unit":"ms"},"b":{"value":2,"unit":"s"}}}"#
        );
        let missing = vec![("c".to_string(), "s")];
        assert!(report.result_line(&missing, true, 3, 0).is_err());
        let wrong_unit = vec![("a".to_string(), "s")];
        assert!(report.result_line(&wrong_unit, true, 3, 0).is_err());
    }
}
