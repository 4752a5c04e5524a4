//! Section 4's cache predictability metrics (Reineke et al.): evict and
//! fill per policy, computed by uncertainty-set exploration.

use mem_hierarchy::metrics::{compute_metrics, PredictabilityMetrics};

/// One row: a policy at one associativity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRow {
    /// Policy name.
    pub policy: &'static str,
    /// Associativity.
    pub assoc: usize,
    /// Computed metrics.
    pub metrics: PredictabilityMetrics,
}

/// Computes the table for associativities 2 and 4, with `3k+2`
/// accesses (16 for MRU).
pub fn rows() -> Vec<MetricsRow> {
    let mut out = Vec::new();
    for assoc in [2usize, 4] {
        let budget = 3 * assoc as u32 + 2;
        for (policy, budget) in [
            ("LRU", budget),
            ("FIFO", budget),
            ("PLRU", budget),
            ("MRU", budget.max(16)),
        ] {
            out.push(MetricsRow {
                policy,
                assoc,
                metrics: compute_metrics(policy, assoc, budget).expect("known policy"),
            });
        }
    }
    out
}

/// Renders the table.
pub fn render(rows: &[MetricsRow]) -> String {
    let mut out = String::new();
    out.push_str("Cache-policy predictability metrics (Reineke et al., cited in §4)\n");
    out.push_str(&format!(
        "{:<8} {:>6} {:>8} {:>8} {:>16}\n",
        "policy", "assoc", "evict", "fill", "states explored"
    ));
    for r in rows {
        let fmt = |v: Option<u32>| v.map_or("inf".to_string(), |x| x.to_string());
        out.push_str(&format!(
            "{:<8} {:>6} {:>8} {:>8} {:>16}\n",
            r.policy,
            r.assoc,
            fmt(r.metrics.evict),
            fmt(r.metrics.fill),
            r.metrics.initial_states
        ));
    }
    out.push_str("\nclosed forms: LRU evict=fill=k; FIFO evict=2k-1, fill=3k-1; MRU fill=inf\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_closed_forms() {
        for r in rows() {
            let k = r.assoc as u32;
            match r.policy {
                "LRU" => {
                    assert_eq!(r.metrics.evict, Some(k));
                    assert_eq!(r.metrics.fill, Some(k));
                }
                "FIFO" => {
                    assert_eq!(r.metrics.evict, Some(2 * k - 1));
                    assert_eq!(r.metrics.fill, Some(3 * k - 1));
                }
                "MRU" => {
                    assert_eq!(r.metrics.evict, Some(2 * k - 2));
                    assert_eq!(r.metrics.fill, None);
                }
                "PLRU" => {
                    // (k/2)·log2 k + 1 and (k/2)·log2 k + k - 1: PLRU(2)
                    // equals LRU(2), PLRU(4) is worse than LRU(4).
                    let tree = k / 2 * k.ilog2();
                    assert_eq!(r.metrics.evict, Some(tree + 1));
                    assert_eq!(r.metrics.fill, Some(tree + k - 1));
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn mru3_evict_matches_closed_form() {
        let m = compute_metrics("MRU", 3, 16).unwrap();
        assert_eq!(m.evict, Some(4));
        assert_eq!(m.fill, None);
    }
}
