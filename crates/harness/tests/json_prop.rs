//! Property tests for the JSON decoder on damaged input: truncating,
//! bit-flipping or splicing random bytes into a real result store must
//! make [`Json::parse`] return `Ok` or `Err` — never panic, never
//! overflow the stack. Stores, manifests, traces and serve request
//! lines all go through this parser.

use harness::json::{Json, MAX_DEPTH};
use proptest::prelude::*;

const BASELINE: &str = include_str!("../../../baselines/campaign-seed42.json");

/// Bytes a splice draws from: mostly JSON structure, so damage lands
/// on the parser's interesting paths (nesting, strings, escapes,
/// numbers, literals) rather than only on inert string content.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\u0123456789.eE+-tfn \n\xc3\xa9\xf0\x9f\x98\x80\xff";

/// Decodes damaged bytes the way a reader of disk or wire input does.
fn parse_bytes(bytes: &[u8]) -> Result<Json, String> {
    Json::parse(&String::from_utf8_lossy(bytes))
}

/// A position in the baseline, as a fraction so strategies need not
/// know its length.
fn at(fraction: f64) -> usize {
    ((BASELINE.len() as f64) * fraction) as usize
}

/// Array/object nesting depth of a parsed value.
fn depth(value: &Json) -> usize {
    match value {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(members) => 1 + members.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncated_store_never_panics(cut in 0.0f64..1.0) {
        let _ = parse_bytes(&BASELINE.as_bytes()[..at(cut)]);
    }

    #[test]
    fn bit_flipped_store_never_panics(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8),
    ) {
        let mut bytes = BASELINE.as_bytes().to_vec();
        for (where_, bit) in flips {
            bytes[at(where_)] ^= 1 << bit;
        }
        let _ = parse_bytes(&bytes);
    }

    #[test]
    fn spliced_store_never_panics(
        splices in prop::collection::vec(
            (0.0f64..1.0, prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=300)),
            1..=4,
        ),
    ) {
        let mut bytes = BASELINE.as_bytes().to_vec();
        for (where_, picks) in splices {
            let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
            let pos = at(where_).min(bytes.len());
            bytes.splice(pos..pos, insert);
        }
        let _ = parse_bytes(&bytes);
    }

    #[test]
    fn nesting_past_the_limit_is_rejected(wrap in 0usize..=2 * MAX_DEPTH) {
        let wrapped = format!("{}{BASELINE}{}", "[".repeat(wrap), "]".repeat(wrap));
        let within = wrap + depth(&Json::parse(BASELINE).unwrap()) <= MAX_DEPTH;
        prop_assert_eq!(Json::parse(&wrapped).is_ok(), within);
    }
}
