//! Property tests for the trace decoder on damaged input: the Chrome
//! trace-event file [`Obs::with_trace`] writes during a real
//! `pipeline-domino` + `dram-refresh` run.
//!
//! * A trace truncated at any byte loads with exactly its whole event
//!   lines, flagging a partial last line as a torn tail; only the
//!   empty file is an error.
//! * Bit flips and splices make [`load_trace`] return `Ok` or an error
//!   naming the trace — never panic.

use harness::exec::{run_campaign_with, CellDomain, ExecConfig};
use harness::matrix::Filter;
use harness::obs::trace::load_trace;
use harness::obs::Obs;
use harness::registry::Registry;
use harness::session::Session;
use harness::store::ResultStore;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Bytes a splice draws from: JSON structure, the digits and literals
/// of event fields, the `X` phase, and line breaks that split or merge
/// events.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\0123456789.eE+-tfnulX \n\n\xff";

/// The trace of one in-memory run.
fn trace() -> &'static [u8] {
    static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let dir = scratch_dir("source");
        let path = dir.join("t.json");
        let obs = Obs::with_trace(&path).unwrap();
        let session = Session {
            obs: Some(&obs),
            ..Session::default()
        };
        let select = ["pipeline-domino".to_string(), "dram-refresh".to_string()];
        session
            .run(&mut ResultStore::new(), |store, hooks| {
                let config = ExecConfig {
                    threads: 2,
                    seed: 42,
                    ..ExecConfig::default()
                };
                run_campaign_with(
                    &Registry::builtin(),
                    &select,
                    &Filter::all(),
                    &config,
                    store,
                    CellDomain::All,
                    hooks,
                )
            })
            .unwrap()
            .unwrap();
        obs.finish_trace().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

/// A directory private to this process and test thread.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harness-trace-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Loads `bytes` as a trace. Returns `(events, torn_tail)`, or the
/// error text if it names the trace file.
fn load(path: &Path, bytes: &[u8]) -> Result<(usize, bool), String> {
    std::fs::write(path, bytes).unwrap();
    match load_trace(path) {
        Ok(stats) => Ok((stats.events, stats.torn_tail)),
        Err(e) if e.to_string().contains(&path.display().to_string()) => Err(e.to_string()),
        Err(e) => panic!("trace error does not name the trace: {e}"),
    }
}

fn at(bytes: &[u8], fraction: f64) -> usize {
    ((bytes.len() as f64) * fraction) as usize
}

#[test]
fn every_trace_truncation_loads_its_whole_events() {
    let full = trace();
    assert!(full.starts_with(b"[\n"), "the trace opens its array");
    let events = full.iter().filter(|&&b| b == b'\n').count() - 1;
    assert!(events >= 4, "the source run traced {events} events");
    let dir = scratch_dir("cut");
    let path = dir.join("t.json");
    assert!(load(&path, b"").unwrap_err().contains("empty trace"));
    for cut in 1..=full.len() {
        let prefix = &full[..cut];
        let lines = prefix.iter().filter(|&&b| b == b'\n').count();
        let start = prefix
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let tail = &prefix[start..];
        // An event line is `{…},`: a cut that keeps its `}` keeps it whole.
        let whole_tail = tail.ends_with(b"}") || tail.ends_with(b"},");
        let expected = if lines == 0 {
            (0, false) // the lone `[` line, cut or not
        } else {
            (
                lines - 1 + usize::from(whole_tail),
                !tail.is_empty() && !whole_tail,
            )
        };
        assert_eq!(load(&path, prefix), Ok(expected), "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bit_flipped_trace_never_panics(
        flips in prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8),
    ) {
        let mut bytes = trace().to_vec();
        for (where_, bit) in flips {
            let i = at(&bytes, where_);
            bytes[i] ^= 1 << bit;
        }
        let dir = scratch_dir("flip");
        let _ = load(&dir.join("t.json"), &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spliced_trace_never_panics(
        splices in prop::collection::vec(
            (0.0f64..1.0, prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=40)),
            1..=4,
        ),
    ) {
        let mut bytes = trace().to_vec();
        for (where_, picks) in splices {
            let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
            let pos = at(&bytes, where_);
            bytes.splice(pos..pos, insert);
        }
        let dir = scratch_dir("splice");
        let _ = load(&dir.join("t.json"), &bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}
