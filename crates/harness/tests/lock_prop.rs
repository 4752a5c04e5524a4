//! Property tests for the store-lock decoder on damaged input: a real
//! lock file, written by a writer open, truncated at every byte, with
//! every single bit flipped, and with bytes spliced in. Each mutant is
//! classified through the public opens — the reader
//! ([`ResultStore::load_required`]) and then the writer
//! ([`ResultStore::open_resumable`]) — and must never panic:
//!
//! * a file that does not parse to a numeric `pid` is stale with pid 0,
//!   which the reader reports and the next writer breaks;
//! * a lock naming this test's own (live) pid refuses both;
//! * any other pid either refuses both, naming that pid, or is stale
//!   with that pid and is broken.

use harness::json::Json;
use harness::store::{lock_path, ResultStore};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Bytes a splice draws from: JSON structure, digits, signs, literals
/// and bytes that are not UTF-8.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\0123456789.eE+-tfnulpidcm \n\xff\xc3";

/// The lock file a writer open writes, read back while it is held.
fn lock_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let store = scratch_store("real");
        let opened = ResultStore::open_resumable(&store, "run", None).unwrap();
        let bytes = std::fs::read(lock_path(&store)).unwrap();
        drop(opened);
        assert!(!lock_path(&store).exists(), "drop releases the lock");
        std::fs::remove_dir_all(store.parent().unwrap()).unwrap();
        bytes
    })
}

/// An empty checkpoint in a directory of its own per thread, so
/// parallel cases never share a lock.
fn scratch_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harness-lock-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.json");
    ResultStore::new().save(&store).unwrap();
    store
}

/// What the mutant's text says its owner is, decoded independently of
/// the store: `None` when it carries no numeric pid.
fn claimed_pid(bytes: &[u8]) -> Option<u32> {
    let doc = Json::parse(String::from_utf8_lossy(bytes).trim()).ok()?;
    Some(doc.get("pid").and_then(Json::as_f64)? as u32)
}

/// Installs `bytes` as the lock beside a store, then classifies it with
/// the reader and the writer.
fn classify(bytes: &[u8]) -> Result<(), String> {
    let store = scratch_store("case");
    std::fs::write(lock_path(&store), bytes).unwrap();
    let read = ResultStore::load_required(&store).map(|opened| opened.stale_lock);
    let write = ResultStore::open_resumable(&store, "gc", None).map(|opened| opened.stale_lock);
    let claimed = claimed_pid(bytes);
    let outcome = match (read, write) {
        (Ok(Some(ignored)), Ok(Some(broken))) => {
            if ignored != broken || broken.pid != claimed.unwrap_or(0) {
                Err(format!("stale lock misread: {ignored:?} / {broken:?}"))
            } else if claimed == Some(std::process::id()) {
                Err("a lock naming a live pid was broken".to_string())
            } else if claimed.is_none() && broken.cmd != "?" {
                Err(format!("a torn lock kept a command: {broken:?}"))
            } else {
                Ok(())
            }
        }
        (Err(refused_read), Err(refused_write)) => {
            let (read, write) = (refused_read.to_string(), refused_write.to_string());
            match claimed {
                Some(pid) if read == write && write.contains(&format!("(pid {pid})")) => Ok(()),
                _ => Err(format!("refused a lock naming no live pid: {write}")),
            }
        }
        (read, write) => Err(format!("reader and writer disagree: {read:?} / {write:?}")),
    };
    // The writer's lock went with its open; a refused one is the
    // mutant's own, and goes with the directory.
    std::fs::remove_dir_all(store.parent().unwrap()).ok();
    outcome
}

#[test]
fn the_real_lock_names_a_live_writer() {
    let bytes = lock_bytes();
    assert_eq!(claimed_pid(bytes), Some(std::process::id()));
    assert!(String::from_utf8_lossy(bytes).contains("\"cmd\":\"run\""));
    classify(bytes).unwrap();
    let store = scratch_store("live");
    std::fs::write(lock_path(&store), bytes).unwrap();
    let err = ResultStore::open_resumable(&store, "gc", None).unwrap_err();
    assert!(err.to_string().contains("`campaign run`"), "{err}");
    assert_eq!(std::fs::read(lock_path(&store)).unwrap(), bytes);
    std::fs::remove_dir_all(store.parent().unwrap()).unwrap();
}

#[test]
fn every_truncation_classifies() {
    let bytes = lock_bytes();
    for cut in 0..=bytes.len() {
        if let Err(e) = classify(&bytes[..cut]) {
            panic!("cut at {cut}: {e}");
        }
    }
    // Every prefix short of the closing brace is torn: stale, pid 0.
    let close = bytes.iter().rposition(|&b| b == b'}').unwrap();
    for cut in 0..=close {
        assert_eq!(claimed_pid(&bytes[..cut]), None, "cut at {cut}");
    }
}

#[test]
fn every_bit_flip_classifies() {
    let bytes = lock_bytes();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            if let Err(e) = classify(&flipped) {
                panic!("bit {bit} of byte {at}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn spliced_and_flipped_locks_classify(
        splices in prop::collection::vec(
            (0.0f64..1.0, prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=12)),
            0..=3,
        ),
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 0..=4),
    ) {
        let mut bytes = lock_bytes().to_vec();
        for (where_, picks) in splices {
            let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
            let pos = ((bytes.len() as f64) * where_) as usize;
            bytes.splice(pos..pos, insert);
        }
        for (where_, bit) in flips {
            let at = ((bytes.len() as f64) * where_) as usize;
            bytes[at] ^= 1 << bit;
        }
        let outcome = classify(&bytes);
        prop_assert!(outcome.is_ok(), "{:?}: {:?}", String::from_utf8_lossy(&bytes), outcome);
    }
}
