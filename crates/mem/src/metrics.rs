//! The evict/fill predictability metrics of Reineke, Grund, Berg and
//! Wilhelm ("Timing predictability of cache replacement policies",
//! Real-Time Systems 37(2), 2007), cited in Section 4 of the paper as
//! the exemplar of *inherent* predictability metrics: they bound what
//! **any** cache analysis can achieve, independent of a concrete
//! analysis.
//!
//! * `evict(k)` — the minimal number of accesses to pairwise-distinct
//!   blocks after which, from **any** unknown initial state, the cache
//!   provably contains only blocks from the accessed sequence (nothing
//!   stale can survive — the basis of sound *may* information).
//! * `fill(k)` — the minimal number after which the **entire** cache
//!   state (contents *and* replacement metadata) is uniquely
//!   determined (the basis of complete *must* information).
//!
//! This module computes both by brute-force *uncertainty-set
//! exploration*: start from the set of all possible initial states
//! (including states that already contain blocks the sequence is about
//! to access — that is what makes FIFO need `2k-1`, not `k`), apply the
//! access sequence to every member, and watch when the conditions
//! trigger. On the small associativities of interest this is exactly
//! the "optimal analysis" of the paper's Proposition 1.
//!
//! Known closed forms (checked in tests): LRU: evict = fill = `k`.
//! FIFO: evict = `2k-1`, fill = `3k-1`. MRU: fill does not exist
//! (reported as `None`). PLRU (k=4): evict = 5, fill = 9 — both worse
//! than LRU's 4, which is the formal core of the recommendation in the
//! paper's Table 1 row on future architectures \[29\] to prefer LRU.

use crate::policy::{BlockId, Policy};
use std::collections::BTreeSet;

/// The two metrics; `None` means "not reached within the exploration
/// budget", which for MRU's `fill` is a genuine "does not exist".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictabilityMetrics {
    /// Accesses needed to provably evict all unknown initial content.
    pub evict: Option<u32>,
    /// Accesses needed to reach a completely known state.
    pub fill: Option<u32>,
    /// Number of initial states explored.
    pub initial_states: usize,
}

/// Block ids used for the unknown initial contents; chosen far away
/// from the accessed sequence `1..=max_accesses`.
fn unknown_block(i: usize) -> BlockId {
    1_000_000 + i as BlockId
}

fn combinations(pool: &[BlockId], k: usize) -> Vec<Vec<BlockId>> {
    fn rec(
        pool: &[BlockId],
        k: usize,
        start: usize,
        cur: &mut Vec<BlockId>,
        out: &mut Vec<Vec<BlockId>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..pool.len() {
            cur.push(pool[i]);
            rec(pool, k, i + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(pool, k, 0, &mut Vec::new(), &mut out);
    out
}

/// Computes evict/fill for `policy` at associativity `assoc`, exploring
/// access sequences up to `max_accesses` distinct blocks.
///
/// The initial uncertainty set contains, for every choice of `assoc`
/// distinct blocks from the universe (future accesses `1..=max_accesses`
/// plus `assoc` unknowns), every policy state with those contents.
///
/// # Panics
///
/// Panics if `assoc` is 0 or `max_accesses` is 0.
pub fn compute_metrics<P: Policy>(
    policy: &P,
    assoc: usize,
    max_accesses: u32,
) -> PredictabilityMetrics {
    assert!(assoc > 0 && max_accesses > 0);
    // Universe: the blocks we will access (1..=m) plus `assoc` unknowns.
    let mut universe: Vec<BlockId> = (1..=max_accesses as BlockId).collect();
    for i in 0..assoc {
        universe.push(unknown_block(i));
    }

    // All full initial states (worst case: a full cache of unknown
    // content; partially filled caches are strictly easier for the
    // analysis because invalid lines are filled before any eviction).
    // States are stored modulo behavioural equivalence (the policy's
    // fingerprint); representatives are themselves valid states, so they
    // can be stepped directly.
    let mut states: BTreeSet<P::State> = BTreeSet::new();
    for contents in combinations(&universe, assoc) {
        for st in policy.states_with_contents(assoc, &contents) {
            states.insert(policy.fingerprint(&st));
        }
    }
    let initial_states = states.len();

    let mut evict = None;
    let mut fill = None;
    for m in 1..=max_accesses {
        let block = m as BlockId;
        let mut next: BTreeSet<P::State> = BTreeSet::new();
        for s in &states {
            next.insert(policy.fingerprint(&policy.access(s, block).next));
        }
        states = next;

        if evict.is_none() {
            // Every surviving block must be one of the m blocks accessed
            // so far; anything else is stale initial content (including
            // blocks the sequence only accesses later).
            let all_known = states
                .iter()
                .all(|s| policy.contents(s).iter().all(|&b| b <= block));
            if all_known {
                evict = Some(m);
            }
        }
        if fill.is_none() && states.len() == 1 {
            fill = Some(m);
        }
        if evict.is_some() && fill.is_some() {
            break;
        }
    }

    PredictabilityMetrics {
        evict,
        fill,
        initial_states,
    }
}

/// Computes evict/fill for a policy named at runtime (`"lru"`,
/// `"fifo"`, `"plru"`, `"mru"`, case-insensitive), dispatching to the
/// matching policy automaton. Returns `None` for unknown names. This is
/// the entry point used by registry-driven callers (the scenario
/// harness, CLIs) that carry the policy as data rather than as a type.
///
/// # Panics
///
/// Panics under the same conditions as [`compute_metrics`], and if
/// `"plru"` is requested at a non-power-of-two associativity.
pub fn compute_metrics_by_name(
    policy: &str,
    assoc: usize,
    max_accesses: u32,
) -> Option<PredictabilityMetrics> {
    use crate::policy::{Bounded, Fifo, Lru, Mru, Plru};
    match policy.to_ascii_lowercase().as_str() {
        "lru" => Some(compute_metrics(
            &Bounded { inner: Lru, assoc },
            assoc,
            max_accesses,
        )),
        "fifo" => Some(compute_metrics(
            &Bounded { inner: Fifo, assoc },
            assoc,
            max_accesses,
        )),
        "plru" => Some(compute_metrics(&Plru, assoc, max_accesses)),
        "mru" => Some(compute_metrics(&Mru, assoc, max_accesses)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Bounded, Fifo, Lru, Mru, Plru};

    fn lru(assoc: usize) -> Bounded<Lru> {
        Bounded { inner: Lru, assoc }
    }

    fn fifo(assoc: usize) -> Bounded<Fifo> {
        Bounded { inner: Fifo, assoc }
    }

    #[test]
    fn lru_metrics_match_closed_form() {
        for k in [2usize, 3, 4] {
            let m = compute_metrics(&lru(k), k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(k as u32), "evict(LRU, {k})");
            assert_eq!(m.fill, Some(k as u32), "fill(LRU, {k})");
        }
    }

    #[test]
    fn fifo_metrics_match_closed_form() {
        for k in [2usize, 3, 4] {
            let m = compute_metrics(&fifo(k), k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(2 * k as u32 - 1), "evict(FIFO, {k})");
            assert_eq!(m.fill, Some(3 * k as u32 - 1), "fill(FIFO, {k})");
        }
    }

    #[test]
    fn plru_is_less_predictable_than_lru() {
        // k = 4: evict(PLRU) = 5 > 4 = evict(LRU); fill(PLRU) > fill(LRU).
        let m = compute_metrics(&Plru, 4, 12);
        let l = compute_metrics(&lru(4), 4, 12);
        assert!(m.evict.unwrap() > l.evict.unwrap());
        assert!(m.fill.unwrap() > l.fill.unwrap());
    }

    #[test]
    fn plru2_equals_lru2() {
        // A 2-way PLRU tree is exactly LRU.
        let p = compute_metrics(&Plru, 2, 8);
        let l = compute_metrics(&lru(2), 2, 8);
        assert_eq!(p.evict, l.evict);
        assert_eq!(p.fill, l.fill);
    }

    #[test]
    fn mru_fill_does_not_exist() {
        let m = compute_metrics(&Mru, 4, 16);
        assert!(m.evict.is_some());
        assert_eq!(m.fill, None, "MRU state never becomes fully known");
    }

    #[test]
    fn evict_never_exceeds_fill() {
        // A fully known state implies all unknown content is gone.
        for k in [2usize, 4] {
            for metrics in [
                compute_metrics(&lru(k), k, 3 * k as u32 + 2),
                compute_metrics(&fifo(k), k, 3 * k as u32 + 2),
            ] {
                if let (Some(e), Some(f)) = (metrics.evict, metrics.fill) {
                    assert!(e <= f);
                }
            }
        }
    }

    #[test]
    fn initial_state_counts_are_factorial_like() {
        let m = compute_metrics(&lru(2), 2, 4);
        // Universe: 4 accesses + 2 unknowns = 6 blocks; C(6,2)*2! = 30.
        assert_eq!(m.initial_states, 30);
    }

    #[test]
    fn combinations_helper() {
        assert_eq!(combinations(&[1, 2, 3], 2).len(), 3);
        assert_eq!(combinations(&[1, 2, 3, 4], 0).len(), 1);
        assert_eq!(combinations(&[], 0).len(), 1);
    }
}
