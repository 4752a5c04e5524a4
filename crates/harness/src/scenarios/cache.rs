//! Cache replacement-policy predictability (`mem-hierarchy`).

use crate::scenario::{Axis, CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
use mem_hierarchy::metrics::compute_metrics;

/// Reineke et al.'s evict/fill metrics across replacement policies and
/// associativities — the paper's Section 4 exemplar of an *inherent*
/// predictability metric, and the formal basis of its Table 1
/// recommendation to prefer LRU.
pub struct CacheEvictFill;

impl Scenario for CacheEvictFill {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            id: "cache-evict-fill",
            version: 1,
            title: "Cache replacement policies: evict/fill metrics",
            source_crate: "mem-hierarchy",
            property: "cache contents knowable by any analysis",
            uncertainty: "initial cache state (contents and metadata)",
            quality: "evict/fill: accesses until may/must information is complete",
            catalog_id: Some("future-arch"),
            content_digest: None,
            axes: vec![
                Axis::new("policy", ["lru", "fifo", "plru", "mru"]),
                Axis::new("assoc", [2u32, 4]),
            ],
            headline_metric: "evict",
            smaller_is_better: true,
        }
    }

    fn run(&self, params: &Params, _seed: u64) -> Result<CellResult, ScenarioError> {
        let policy = params.get("policy")?;
        let assoc = params.get_u64("assoc")? as usize;
        // 3k+2 accesses cover every known closed form (FIFO fills at
        // 3k-1); what is still unreached by then is reported as absent
        // (MRU's fill provably never exists).
        let metrics = compute_metrics(policy, assoc, 3 * assoc as u32 + 2).ok_or_else(|| {
            ScenarioError::BadParam {
                axis: "policy".to_string(),
                value: policy.to_string(),
            }
        })?;
        let mut out = Vec::new();
        if let Some(e) = metrics.evict {
            out.push(("evict".to_string(), e as f64));
        }
        if let Some(f) = metrics.fill {
            out.push(("fill".to_string(), f as f64));
        }
        out.push(("initial_states".to_string(), metrics.initial_states as f64));
        Ok(CellResult { metrics: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(policy: &str, assoc: u32) -> Params {
        Params::new(vec![
            ("policy".into(), policy.into()),
            ("assoc".into(), assoc.to_string()),
        ])
    }

    #[test]
    fn lru_matches_closed_form() {
        let r = CacheEvictFill.run(&cell("lru", 2), 0).unwrap();
        assert_eq!(r.metric("evict"), Some(2.0));
        assert_eq!(r.metric("fill"), Some(2.0));
    }

    #[test]
    fn fifo_matches_closed_form() {
        let r = CacheEvictFill.run(&cell("fifo", 2), 0).unwrap();
        assert_eq!(r.metric("evict"), Some(3.0));
        assert_eq!(r.metric("fill"), Some(5.0));
    }

    #[test]
    fn mru_fill_is_absent() {
        let r = CacheEvictFill.run(&cell("mru", 2), 0).unwrap();
        assert!(r.metric("evict").is_some());
        assert_eq!(r.metric("fill"), None);
    }

    #[test]
    fn unknown_policy_is_a_param_error() {
        assert!(matches!(
            CacheEvictFill.run(&cell("belady", 2), 0),
            Err(ScenarioError::BadParam { .. })
        ));
    }
}
