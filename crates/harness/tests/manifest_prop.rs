//! Property tests for the manifest decoder on damaged input: truncating,
//! bit-flipping or splicing bytes into a real `plan` manifest must make
//! [`Manifest::load`] and [`Manifest::from_json`] return `Ok` or an
//! error naming the manifest — never panic.

use harness::dist::{self, Manifest};
use harness::json::Json;
use harness::registry::Registry;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Bytes a splice draws from: JSON structure plus the digits, signs and
/// literals the manifest's numeric and string fields are made of.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\0123456789.eE+-tfnul \n\xff";

/// A 3-shard plan of the default campaign, with a filter and replicates
/// so every manifest field is present.
fn manifest_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let (manifest, _, _) = dist::plan_calibrated_with(
            &Registry::builtin(),
            &[],
            &["assoc=2".to_string()],
            42,
            3,
            2,
            None,
            None,
        )
        .unwrap();
        manifest.to_json().pretty()
    })
}

fn at(fraction: f64) -> usize {
    ((manifest_text().len() as f64) * fraction) as usize
}

fn names_the_manifest(result: Result<Manifest, harness::ScenarioError>) -> Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(e) if e.to_string().contains("manifest") => Ok(()),
        Err(e) => Err(format!("error does not name the manifest: {e}")),
    }
}

/// Decodes damaged bytes both ways a worker can: from a file on disk,
/// and from an already parsed document.
fn decode(bytes: &[u8]) -> Result<(), String> {
    // The file name leaves "manifest" out, so only the error text can
    // name it.
    let path: PathBuf = std::env::temp_dir().join(format!(
        "harness-damaged-plan-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let loaded = Manifest::load(&path);
    std::fs::remove_file(&path).ok();
    names_the_manifest(loaded)?;
    match Json::parse(&String::from_utf8_lossy(bytes)) {
        Ok(doc) => names_the_manifest(Manifest::from_json(&doc)),
        Err(_) => Ok(()),
    }
}

#[test]
fn the_undamaged_manifest_round_trips() {
    let path =
        std::env::temp_dir().join(format!("harness-manifest-ok-{}.json", std::process::id()));
    std::fs::write(&path, manifest_text()).unwrap();
    let loaded = Manifest::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.to_json().pretty(), manifest_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncated_manifest_never_panics(cut in 0.0f64..1.0) {
        let outcome = decode(&manifest_text().as_bytes()[..at(cut)]);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }

    #[test]
    fn bit_flipped_manifest_never_panics(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8),
    ) {
        let mut bytes = manifest_text().as_bytes().to_vec();
        for (where_, bit) in flips {
            bytes[at(where_)] ^= 1 << bit;
        }
        let outcome = decode(&bytes);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }

    #[test]
    fn spliced_manifest_never_panics(
        splices in prop::collection::vec(
            (0.0f64..1.0, prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=40)),
            1..=4,
        ),
    ) {
        let mut bytes = manifest_text().as_bytes().to_vec();
        for (where_, picks) in splices {
            let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
            let pos = at(where_).min(bytes.len());
            bytes.splice(pos..pos, insert);
        }
        let outcome = decode(&bytes);
        prop_assert!(outcome.is_ok(), "{:?}", outcome);
    }
}
