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
//! # Uncertainty-set exploration
//!
//! Both are decided on the *uncertainty set*. It starts as every full
//! state whose `k` blocks are drawn from the future accesses `1..=m`
//! and `k` unknown blocks `m+1..=m+k`, taken modulo the policy's
//! behavioural [`fingerprint`](crate::policy::Policy::fingerprint).
//! States that already hold blocks the sequence is about to access are
//! included; that is what makes FIFO need `2k-1`, not `k`. The sequence
//! `1, 2, …, m` is applied to every member. `evict` is the first step
//! `j` after which no member holds anything but blocks `≤ j`; `fill` is
//! the first step after which the set is a single state. On the small
//! associativities of interest this is exactly the "optimal analysis"
//! of the paper's Proposition 1.
//!
//! # Orbit reduction
//!
//! The set is too large to hold as it is (1,101,600 states for MRU at
//! `k = 4`, `m = 14`), but it is symmetric. A relabelling of the `k`
//! unknown blocks commutes with accessing any block `1..=m` and with
//! the fingerprint, and it maps the initial set onto itself. So every
//! set along the way is a union of orbits under these relabellings, and
//! stepping any member of an orbit lands in the same orbit. The
//! exploration keeps one representative per orbit: the member whose
//! unknown blocks read `m+1, m+2, …` in way order. Future blocks are
//! never relabelled; each is already told apart by the step at which it
//! is accessed.
//!
//! Both tests are exact on representatives:
//!
//! * *evict* asks whether a state holds an unknown block or a block
//!   `> j`. Relabelling unknowns does not change that, so it holds for
//!   every member iff it holds for every representative.
//! * *fill* asks whether the set has exactly one member. A
//!   representative holding `u` unknown blocks stands for the
//!   `k!/(k-u)!` injective relabellings of them, so the set is a single
//!   state iff there is one representative and it holds no unknown
//!   block.
//!
//! Each representative is packed into a `u64` key: one block code per
//! way, the replacement metadata above them. A step maps the flat key
//! vector through the policy automaton, then sorts and deduplicates it.
//! The initial set is never stored: one member per initial orbit is
//! streamed straight through the first access. For MRU at `k = 4`,
//! `m = 14` that is 529,560 members, and 62,272 representatives remain
//! after the first step.
//!
//! Known closed forms (pinned in tests): LRU: evict = fill = `k`.
//! FIFO: evict = `2k-1`, fill = `3k-1`. PLRU (`k ∈ {2, 4}`): evict =
//! `(k/2)·log2 k + 1`, fill = `(k/2)·log2 k + k - 1`, i.e. 5 and 7 at
//! `k = 4` — both worse than LRU's 4, which is the formal core of the
//! recommendation in the paper's Table 1 row on future architectures
//! \[29\] to prefer LRU. MRU (`k ∈ {2, 3, 4}`): evict = `2k-2`, and fill
//! does not exist (reported as `None`).

use crate::policy::{BlockId, Bounded, Fifo, Lru, Mru, MruState, Plru, PlruState, Policy};
use std::collections::BTreeSet;

/// The two metrics; `None` means "not reached within the exploration
/// budget", which for MRU's `fill` is a genuine "does not exist".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictabilityMetrics {
    /// Accesses needed to provably evict all unknown initial content.
    pub evict: Option<u32>,
    /// Accesses needed to reach a completely known state.
    pub fill: Option<u32>,
    /// Size of the unreduced initial uncertainty set: the behavioural
    /// classes (distinct fingerprints) of full initial states, not the
    /// orbit representatives actually stepped.
    pub initial_states: usize,
}

/// A full set state as the two halves of a packed key: the block in
/// each way, and the replacement metadata as bits.
trait PackedState: Sized {
    /// The block in each way, in way order.
    fn ways(&self) -> impl Iterator<Item = BlockId> + '_;
    /// The replacement metadata; at most `assoc` bits.
    fn meta(&self) -> u64;
    /// Rebuilds the state from its `assoc` ways and metadata bits.
    fn unpack(ways: impl Iterator<Item = BlockId>, assoc: usize, meta: u64) -> Self;
}

/// LRU and FIFO: the list order is all the metadata there is.
impl PackedState for Vec<BlockId> {
    fn ways(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.iter().copied()
    }
    fn meta(&self) -> u64 {
        0
    }
    fn unpack(ways: impl Iterator<Item = BlockId>, _assoc: usize, _meta: u64) -> Self {
        ways.collect()
    }
}

fn full_ways(ways: &[Option<BlockId>]) -> impl Iterator<Item = BlockId> + '_ {
    ways.iter().map(|w| w.expect("explored states are full"))
}

fn bits_to_u64(bits: &[bool]) -> u64 {
    bits.iter().rev().fold(0, |acc, &b| acc << 1 | u64::from(b))
}

fn u64_to_bits(meta: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| meta >> i & 1 == 1).collect()
}

impl PackedState for PlruState {
    fn ways(&self) -> impl Iterator<Item = BlockId> + '_ {
        full_ways(&self.ways)
    }
    fn meta(&self) -> u64 {
        bits_to_u64(&self.bits)
    }
    fn unpack(ways: impl Iterator<Item = BlockId>, assoc: usize, meta: u64) -> Self {
        PlruState {
            ways: ways.map(Some).collect(),
            bits: u64_to_bits(meta, assoc - 1),
        }
    }
}

impl PackedState for MruState {
    fn ways(&self) -> impl Iterator<Item = BlockId> + '_ {
        full_ways(&self.ways)
    }
    fn meta(&self) -> u64 {
        bits_to_u64(&self.bits)
    }
    fn unpack(ways: impl Iterator<Item = BlockId>, assoc: usize, meta: u64) -> Self {
        MruState {
            ways: ways.map(Some).collect(),
            bits: u64_to_bits(meta, assoc),
        }
    }
}

/// The packed key of an orbit representative: `assoc` block codes of
/// `width` bits each (way 0 lowest), the metadata bits above them.
/// Codes `1..=m` are the future accesses; codes above `m` are unknown
/// initial blocks.
struct Layout {
    assoc: usize,
    m: BlockId,
    width: u32,
}

impl Layout {
    fn new(assoc: usize, m: BlockId) -> Self {
        let width = BlockId::BITS - (m + assoc as BlockId).leading_zeros();
        assert!(
            assoc as u32 * (width + 1) <= u64::BITS,
            "{assoc} ways of {width}-bit block codes plus metadata exceed a 64-bit key"
        );
        Layout { assoc, m, width }
    }

    /// The block code in `way` of `key`.
    fn code(&self, key: u64, way: usize) -> BlockId {
        key >> (way as u32 * self.width) & ((1 << self.width) - 1)
    }

    /// Number of unknown blocks in `key`.
    fn unknowns(&self, key: u64) -> usize {
        (0..self.assoc)
            .filter(|&way| self.code(key, way) > self.m)
            .count()
    }

    /// Packs the orbit representative of `state`: its unknown blocks
    /// are renamed `m+1, m+2, …` in way order.
    fn pack<S: PackedState>(&self, state: &S) -> u64 {
        let mut key = state.meta() << (self.assoc as u32 * self.width);
        let mut unknown = self.m;
        for (way, block) in state.ways().enumerate() {
            let code = if block > self.m {
                unknown += 1;
                unknown
            } else {
                block
            };
            key |= code << (way as u32 * self.width);
        }
        key
    }

    fn unpack<S: PackedState>(&self, key: u64) -> S {
        let ways = (0..self.assoc).map(|way| self.code(key, way));
        S::unpack(ways, self.assoc, key >> (self.assoc as u32 * self.width))
    }
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

/// The orbit-reduced exploration described in the module doc, for one
/// policy automaton.
fn explore<P: Policy>(policy: &P, assoc: usize, max_accesses: u32) -> PredictabilityMetrics
where
    P::State: PackedState,
{
    assert!(assoc > 0 && max_accesses > 0);
    let m = BlockId::from(max_accesses);
    let layout = Layout::new(assoc, m);
    let step = |state: &P::State, block| {
        layout.pack(&policy.fingerprint(&policy.access(state, block).next))
    };

    // The behavioural classes with contents `1..=k`. Renaming blocks
    // commutes with the automaton and its fingerprint, so each of the
    // C(m+k, k) content sets has these classes with its own blocks in
    // place of `1..=k`.
    let placeholders: Vec<BlockId> = (1..=assoc as BlockId).collect();
    let classes: BTreeSet<P::State> = policy
        .states_with_contents(assoc, &placeholders)
        .iter()
        .map(|s| policy.fingerprint(s))
        .collect();
    let universe = m as usize + assoc;
    let initial_states = (0..assoc).fold(classes.len(), |n, i| n * (universe - i) / (i + 1));

    let mut states: Vec<u64> = Vec::new();
    let mut evict = None;
    let mut fill = None;
    for j in 1..=max_accesses {
        let block = BlockId::from(j);
        states = if j == 1 {
            // Every initial orbit has a member whose `u` unknown blocks
            // are `m+1..=m+u`: stream those through the first access.
            let future: Vec<BlockId> = (1..=m).collect();
            let mut first = Vec::new();
            for u in 0..=assoc {
                for mut contents in combinations(&future, assoc - u) {
                    contents.extend(m + 1..=m + u as BlockId);
                    for class in &classes {
                        let ways = class.ways().map(|b| contents[b as usize - 1]);
                        first.push(step(&P::State::unpack(ways, assoc, class.meta()), block));
                    }
                }
            }
            first
        } else {
            states
                .iter()
                .map(|&key| step(&layout.unpack(key), block))
                .collect()
        };
        states.sort_unstable();
        states.dedup();

        if evict.is_none()
            && states
                .iter()
                .all(|&key| (0..assoc).all(|way| layout.code(key, way) <= block))
        {
            evict = Some(j);
        }
        // The orbit of a representative holding `u` unknown blocks has
        // `k!/(k-u)!` members: one state only when `u = 0`.
        if fill.is_none() && states.len() == 1 && layout.unknowns(states[0]) == 0 {
            fill = Some(j);
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

/// Computes evict/fill for the policy named `policy` (`"lru"`,
/// `"fifo"`, `"plru"`, `"mru"`, case-insensitive) at associativity
/// `assoc`, over the access sequence `1..=max_accesses`. Returns `None`
/// for unknown names.
///
/// The result is that of the full uncertainty-set exploration: the
/// initial set holds, for every choice of `assoc` distinct blocks from
/// the universe (the future accesses plus `assoc` unknowns), every
/// policy state with those contents. It is computed on one
/// representative per relabelling of the unknown blocks, which decides
/// evict and fill exactly (see the [module docs](self)).
/// `initial_states` still counts the behavioural classes of the
/// unreduced initial set: `C(max_accesses + assoc, assoc) · assoc! · M`,
/// with `M = 1` for LRU, FIFO and (fingerprint-reduced) PLRU and
/// `M = 2^assoc - 1` for MRU.
///
/// # Panics
///
/// Panics if `assoc` or `max_accesses` is 0, if `"plru"` is requested
/// at an associativity that is not a power of two, or if a state does
/// not fit the 64-bit packed key: `assoc · (w + 1) > 64`, where `w` is
/// the bit width of `max_accesses + assoc`.
pub fn compute_metrics(
    policy: &str,
    assoc: usize,
    max_accesses: u32,
) -> Option<PredictabilityMetrics> {
    match policy.to_ascii_lowercase().as_str() {
        "lru" => Some(explore(&Bounded { inner: Lru, assoc }, assoc, max_accesses)),
        "fifo" => Some(explore(
            &Bounded { inner: Fifo, assoc },
            assoc,
            max_accesses,
        )),
        "plru" => {
            assert!(assoc.is_power_of_two(), "PLRU needs power-of-two ways");
            Some(explore(&Plru, assoc, max_accesses))
        }
        "mru" => Some(explore(&Mru, assoc, max_accesses)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::OnceLock;

    fn metrics(policy: &str, k: usize, budget: u32) -> PredictabilityMetrics {
        // MRU at k = 4 takes seconds in a debug build: compute each of
        // its two budgets once for every test that asserts on it.
        static MRU4: [OnceLock<PredictabilityMetrics>; 2] = [OnceLock::new(), OnceLock::new()];
        let run = || compute_metrics(policy, k, budget).unwrap();
        match (policy, k, budget) {
            ("mru", 4, 14) => *MRU4[0].get_or_init(run),
            ("mru", 4, 16) => *MRU4[1].get_or_init(run),
            _ => run(),
        }
    }

    /// The unreduced exploration: every initial state of every content
    /// set, stepped one by one into a `HashSet`.
    fn brute_force<P: Policy>(
        policy: &P,
        assoc: usize,
        max_accesses: u32,
    ) -> PredictabilityMetrics {
        let mut universe: Vec<BlockId> = (1..=BlockId::from(max_accesses)).collect();
        universe.extend((1..=assoc as BlockId).map(|i| 1_000_000 + i));
        let step = |s: &P::State, block| policy.fingerprint(&policy.access(s, block).next);

        // States with different contents never share a fingerprint, so
        // each content set is deduplicated on its own and stepped at once.
        let mut initial_states = 0;
        let mut states: HashSet<P::State> = HashSet::new();
        for contents in combinations(&universe, assoc) {
            let initial: HashSet<P::State> = policy
                .states_with_contents(assoc, &contents)
                .iter()
                .map(|s| policy.fingerprint(s))
                .collect();
            initial_states += initial.len();
            for s in &initial {
                states.insert(step(s, 1));
            }
        }

        let mut evict = None;
        let mut fill = None;
        for m in 1..=max_accesses {
            let block = BlockId::from(m);
            if m > 1 {
                let mut next: HashSet<P::State> = HashSet::new();
                for s in &states {
                    next.insert(step(s, block));
                }
                states = next;
            }
            if evict.is_none()
                && states
                    .iter()
                    .all(|s| policy.contents(s).iter().all(|&b| b <= block))
            {
                evict = Some(m);
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

    /// Budgets `1..=k+1` reach steps where one orbit still holds
    /// unknown blocks; `3k+2` is the scenario's budget and 16 the one
    /// `cache_metrics` and the example pass for MRU.
    fn budgets(k: usize) -> Vec<u32> {
        let k = k as u32;
        (1..=k + 1).chain([3 * k + 2, 16]).collect()
    }

    fn assert_matches_brute_force<P: Policy>(
        name: &str,
        policy: impl Fn(usize) -> P,
        ks: &[usize],
    ) {
        for &k in ks {
            for budget in budgets(k) {
                assert_eq!(
                    metrics(name, k, budget),
                    brute_force(&policy(k), k, budget),
                    "{name} assoc={k} budget={budget}"
                );
            }
        }
    }

    fn lru(assoc: usize) -> Bounded<Lru> {
        Bounded { inner: Lru, assoc }
    }

    fn fifo(assoc: usize) -> Bounded<Fifo> {
        Bounded { inner: Fifo, assoc }
    }

    #[test]
    fn lru_and_fifo_match_brute_force() {
        assert_matches_brute_force("lru", lru, &[2, 3, 4]);
        assert_matches_brute_force("fifo", fifo, &[2, 3, 4]);
    }

    #[test]
    fn plru_matches_brute_force() {
        assert_matches_brute_force("plru", |_| Plru, &[2, 4]);
    }

    #[test]
    fn small_mru_matches_brute_force() {
        assert_matches_brute_force("mru", |_| Mru, &[2, 3]);
    }

    #[test]
    fn mru4_matches_brute_force_at_scenario_budget() {
        assert_eq!(metrics("mru", 4, 14), brute_force(&Mru, 4, 14));
    }

    #[test]
    fn mru4_matches_brute_force_at_budget_16() {
        assert_eq!(metrics("mru", 4, 16), brute_force(&Mru, 4, 16));
    }

    #[test]
    fn one_orbit_with_unknowns_is_not_filled() {
        // After accessing block 1, a 2-way LRU set is [1, u] for either
        // unknown u: one representative, but two states.
        let m = metrics("lru", 2, 1);
        assert_eq!(m.evict, None);
        assert_eq!(m.fill, None);
    }

    #[test]
    fn initial_states_match_closed_form() {
        let binomial = |n: usize, r: usize| (0..r).fold(1, |c, i| c * (n - i) / (i + 1));
        for (policy, ks) in [
            ("lru", &[2usize, 3, 4][..]),
            ("fifo", &[2, 3, 4]),
            ("plru", &[2, 4]),
            ("mru", &[2, 3, 4]),
        ] {
            for &k in ks {
                let factorial: usize = (1..=k).product();
                let per_order = if policy == "mru" { (1 << k) - 1 } else { 1 };
                for budget in budgets(k) {
                    assert_eq!(
                        metrics(policy, k, budget).initial_states,
                        binomial(budget as usize + k, k) * factorial * per_order,
                        "{policy} assoc={k} budget={budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn lru_metrics_match_closed_form() {
        for k in [2usize, 3, 4] {
            let m = metrics("lru", k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(k as u32), "evict(LRU, {k})");
            assert_eq!(m.fill, Some(k as u32), "fill(LRU, {k})");
        }
    }

    #[test]
    fn fifo_metrics_match_closed_form() {
        for k in [2usize, 3, 4] {
            let m = metrics("fifo", k, 3 * k as u32 + 2);
            assert_eq!(m.evict, Some(2 * k as u32 - 1), "evict(FIFO, {k})");
            assert_eq!(m.fill, Some(3 * k as u32 - 1), "fill(FIFO, {k})");
        }
    }

    #[test]
    fn plru_metrics_match_closed_form() {
        for k in [2u32, 4] {
            let m = metrics("plru", k as usize, 3 * k + 2);
            let tree = k / 2 * k.ilog2();
            assert_eq!(m.evict, Some(tree + 1), "evict(PLRU, {k})");
            assert_eq!(m.fill, Some(tree + k - 1), "fill(PLRU, {k})");
        }
    }

    #[test]
    fn plru_is_less_predictable_than_lru() {
        // k = 4: evict(PLRU) = 5 > 4 = evict(LRU); fill(PLRU) > fill(LRU).
        let m = metrics("plru", 4, 12);
        let l = metrics("lru", 4, 12);
        assert!(m.evict.unwrap() > l.evict.unwrap());
        assert!(m.fill.unwrap() > l.fill.unwrap());
    }

    #[test]
    fn plru2_equals_lru2() {
        // A 2-way PLRU tree is exactly LRU.
        let p = metrics("plru", 2, 8);
        let l = metrics("lru", 2, 8);
        assert_eq!(p.evict, l.evict);
        assert_eq!(p.fill, l.fill);
    }

    #[test]
    fn mru_fill_does_not_exist() {
        for k in [2u32, 3, 4] {
            let m = metrics("mru", k as usize, 16);
            assert_eq!(m.evict, Some(2 * k - 2), "evict(MRU, {k})");
            assert_eq!(m.fill, None, "MRU state never becomes fully known");
        }
    }

    #[test]
    fn evict_never_exceeds_fill() {
        // A fully known state implies all unknown content is gone.
        for k in [2usize, 4] {
            for policy in ["lru", "fifo", "plru"] {
                let m = metrics(policy, k, 3 * k as u32 + 2);
                assert!(m.evict.unwrap() <= m.fill.unwrap(), "{policy} assoc={k}");
            }
        }
    }

    #[test]
    fn initial_state_counts_are_factorial_like() {
        let m = metrics("lru", 2, 4);
        // Universe: 4 accesses + 2 unknowns = 6 blocks; C(6,2)*2! = 30.
        assert_eq!(m.initial_states, 30);
    }

    #[test]
    fn policy_names_are_case_insensitive() {
        assert_eq!(compute_metrics("LRU", 2, 4), compute_metrics("lru", 2, 4));
        assert_eq!(compute_metrics("belady", 2, 4), None);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_needs_power_of_two_ways() {
        compute_metrics("plru", 3, 4);
    }

    #[test]
    #[should_panic(expected = "64-bit key")]
    fn oversized_keys_are_rejected() {
        compute_metrics("lru", 16, 100);
    }

    #[test]
    fn packing_round_trips() {
        let layout = Layout::new(4, 14);
        let s = MruState {
            ways: vec![Some(3), Some(15), Some(1), Some(18)],
            bits: vec![true, false, true, false],
        };
        let key = layout.pack(&s);
        assert_eq!(layout.unknowns(key), 2);
        // Unknowns 15 and 18 become 15 and 16 in way order.
        let back: MruState = layout.unpack(key);
        assert_eq!(back.ways, vec![Some(3), Some(15), Some(1), Some(16)]);
        assert_eq!(back.bits, s.bits);
    }

    #[test]
    fn combinations_helper() {
        assert_eq!(combinations(&[1, 2, 3], 2).len(), 3);
        assert_eq!(combinations(&[1, 2, 3, 4], 0).len(), 1);
        assert_eq!(combinations(&[], 0).len(), 1);
        assert!(combinations(&[1], 2).is_empty());
    }
}
