//! Property tests for the sidecar decoders on damaged input: the
//! crash-resume journal and the telemetry log of a real
//! `pipeline-domino` + `dram-refresh` run.
//!
//! * A journal truncated at any byte replays exactly its complete
//!   lines (one more when the cut removed only a record's final `\n`);
//!   bit flips and splices make [`ResultStore::open_resumable`] return
//!   `Ok` or an error naming the journal — never panic.
//! * A truncated telemetry log always loads; a bit-flipped one never
//!   panics [`Telemetry::load`].

use harness::exec::{run_campaign_with, CellDomain, ExecConfig};
use harness::matrix::Filter;
use harness::registry::Registry;
use harness::session::Session;
use harness::store::{journal_path, ResultStore};
use harness::telemetry::{telemetry_path, Telemetry};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Bytes a splice draws from: JSON structure, the digits and literals
/// of cell records, and line breaks that split or merge records.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\0123456789.eE+-tfnul \n\n\xff";

/// The journal and telemetry bytes of one journaled, telemetry'd run.
struct Sidecars {
    journal: Vec<u8>,
    telemetry: Vec<u8>,
}

fn sidecars() -> &'static Sidecars {
    static SIDECARS: OnceLock<Sidecars> = OnceLock::new();
    SIDECARS.get_or_init(|| {
        let dir = scratch_dir("source");
        let path = dir.join("store.json");
        let session = Session {
            store: Some(&path),
            journal_batch: Some(8),
            telemetry_batch: Some(8),
            ..Session::default()
        };
        let mut journal = Vec::new();
        let select = ["pipeline-domino".to_string(), "dram-refresh".to_string()];
        session
            .run(&mut ResultStore::new(), |store, hooks| {
                let config = ExecConfig {
                    threads: 2,
                    seed: 42,
                    ..ExecConfig::default()
                };
                let filter = Filter::all();
                let campaign = run_campaign_with(
                    &Registry::builtin(),
                    &select,
                    &filter,
                    &config,
                    store,
                    CellDomain::All,
                    hooks,
                );
                // The journal as the run left it, before the session
                // compacts it into the checkpoint.
                journal = std::fs::read(journal_path(&path)).unwrap();
                campaign
            })
            .unwrap()
            .outcome
            .unwrap();
        let telemetry = std::fs::read(telemetry_path(&path)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        Sidecars { journal, telemetry }
    })
}

/// A directory private to this process and test thread.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harness-sidecar-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens a store whose only content is the given journal bytes.
/// Returns the replay count, or the error text if the journal path is
/// in it.
fn resume(dir: &std::path::Path, journal: &[u8]) -> Result<usize, String> {
    let store = dir.join("store.json");
    let path = journal_path(&store);
    std::fs::write(&path, journal).unwrap();
    match ResultStore::open_resumable(&store) {
        Ok((_, replayed)) => Ok(replayed),
        Err(e) if e.to_string().contains(&path.display().to_string()) => Err(e.to_string()),
        Err(e) => panic!("journal error does not name the journal: {e}"),
    }
}

fn at(bytes: &[u8], fraction: f64) -> usize {
    ((bytes.len() as f64) * fraction) as usize
}

#[test]
fn every_journal_truncation_replays_its_complete_lines() {
    let full = &sidecars().journal;
    let records = full.iter().filter(|&&b| b == b'\n').count();
    assert!(records >= 2, "the source run journaled {records} cells");
    let dir = scratch_dir("journal-cut");
    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        let complete = prefix.iter().filter(|&&b| b == b'\n').count();
        // Cutting exactly a record's `\n` leaves that record whole.
        let whole_tail = cut > 0 && full.get(cut) == Some(&b'\n') && full[cut - 1] != b'\n';
        let expected = complete + usize::from(whole_tail);
        assert_eq!(resume(&dir, prefix), Ok(expected), "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_telemetry_truncation_loads() {
    let full = &sidecars().telemetry;
    assert!(!full.is_empty());
    let dir = scratch_dir("telemetry-cut");
    let path = dir.join("store.json.telemetry");
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        if let Err(e) = Telemetry::load(&path) {
            panic!("cut at byte {cut}: {e}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bit_flipped_journal_never_panics(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8),
    ) {
        let mut bytes = sidecars().journal.clone();
        for (where_, bit) in flips {
            let i = at(&bytes, where_);
            bytes[i] ^= 1 << bit;
        }
        let dir = scratch_dir("journal-flip");
        let _ = resume(&dir, &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spliced_journal_never_panics(
        splices in prop::collection::vec(
            (0.0f64..1.0, prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=40)),
            1..=4,
        ),
    ) {
        let mut bytes = sidecars().journal.clone();
        for (where_, picks) in splices {
            let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
            let pos = at(&bytes, where_);
            bytes.splice(pos..pos, insert);
        }
        let dir = scratch_dir("journal-splice");
        let _ = resume(&dir, &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_telemetry_never_panics(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8),
    ) {
        let mut bytes = sidecars().telemetry.clone();
        for (where_, bit) in flips {
            let i = at(&bytes, where_);
            bytes[i] ^= 1 << bit;
        }
        let dir = scratch_dir("telemetry-flip");
        let path = dir.join("store.json.telemetry");
        std::fs::write(&path, &bytes).unwrap();
        let _ = Telemetry::load(&path);
        std::fs::remove_dir_all(&dir).ok();
    }
}
