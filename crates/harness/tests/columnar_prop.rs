//! Property tests for the binary columnar decoder on damaged payloads.
//!
//! The header's FNV-1a-64 digest rejects almost any damage before the
//! payload walk begins, so mutating the bytes alone would only ever
//! test the digest check. Every mutant here gets a recomputed digest,
//! which sends it through the symbol table, group, param-key, cell
//! record and metric-block decoders. Each truncation, bit flip and
//! splice of the payload of a real seed-42 store must make
//! [`columnar::decode`] return `Ok` or an error naming the "binary
//! columnar store" — never panic.

use harness::json::Json;
use harness::store::columnar::{self, HEADER_LEN};
use harness::store::ResultStore;
use proptest::prelude::*;
use std::sync::OnceLock;

const BASELINE: &str = include_str!("../../../baselines/campaign-seed42.json");

/// Bytes a splice draws from: the small integers that counts, symbol
/// ids, indices and tags take, and bytes that make them huge.
const SPLICE_POOL: &[u8] = &[0, 0, 0, 1, 2, 3, 4, 29, 0x7f, 0x80, 0xfe, 0xff, b'=', b','];

/// The encoded baseline store.
fn encoded() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let doc = Json::parse(BASELINE).unwrap();
        columnar::encode(&ResultStore::from_json(&doc).unwrap())
    })
}

/// FNV-1a-64, the digest the header carries over the payload.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Re-stamps the digest of a mutated image, then decodes it: the
/// decode must succeed or fail naming the format.
fn decode_restamped(mut bytes: Vec<u8>) -> Result<(), String> {
    let digest = fnv1a(&bytes[HEADER_LEN..]);
    bytes[16..HEADER_LEN].copy_from_slice(&digest.to_le_bytes());
    match columnar::decode(&bytes) {
        Ok(_) => Ok(()),
        Err(e) if e.to_string().contains("binary columnar store") => Ok(()),
        Err(e) => Err(format!("error does not name the format: {e}")),
    }
}

/// A payload position, as a fraction so strategies need not know the
/// payload's length.
fn at(bytes: &[u8], fraction: f64) -> usize {
    HEADER_LEN + ((bytes.len() - HEADER_LEN) as f64 * fraction) as usize
}

#[test]
fn the_restamped_image_round_trips() {
    let bytes = encoded().to_vec();
    assert_eq!(decode_restamped(bytes.clone()), Ok(()));
    let decoded = columnar::decode(&bytes).unwrap();
    assert_eq!(decoded.store.to_json().pretty(), BASELINE);
}

#[test]
fn every_payload_truncation_decodes_or_errors() {
    let full = encoded();
    for cut in HEADER_LEN..full.len() {
        let outcome = decode_restamped(full[..cut].to_vec());
        assert_eq!(outcome, Ok(()), "cut at byte {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flipped_payload_never_panics(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8),
    ) {
        let mut bytes = encoded().to_vec();
        for (where_, bit) in flips {
            let i = at(&bytes, where_).min(bytes.len() - 1);
            bytes[i] ^= 1 << bit;
        }
        prop_assert_eq!(decode_restamped(bytes), Ok(()));
    }

    #[test]
    fn spliced_payload_never_panics(
        splices in prop::collection::vec(
            (0.0f64..1.0, prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=16)),
            1..=4,
        ),
    ) {
        let mut bytes = encoded().to_vec();
        for (where_, picks) in splices {
            let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
            let pos = at(&bytes, where_);
            bytes.splice(pos..pos, insert);
        }
        prop_assert_eq!(decode_restamped(bytes), Ok(()));
    }

    #[test]
    fn overwritten_payload_words_never_panic(
        writes in prop::collection::vec((0.0f64..1.0, 0u32..=u32::MAX), 1..=4),
    ) {
        let mut bytes = encoded().to_vec();
        for (where_, word) in writes {
            let i = at(&bytes, where_).min(bytes.len() - 4);
            bytes[i..i + 4].copy_from_slice(&word.to_le_bytes());
        }
        prop_assert_eq!(decode_restamped(bytes), Ok(()));
    }
}
