//! Fuzzing the serve request decoder over a live connection: valid
//! `ping`/`stats`/`query`/`query_range`/`report`/`metrics`/`jobs`/
//! `slowlog` lines, truncated, bit-flipped and spliced, are written to
//! one connection of a running daemon. The seed corpus holds no
//! `submit` or `shutdown` line, and splices add no letters, so no
//! mutant can start a campaign or stop the daemon.
//!
//! Required: exactly one JSON response per non-empty line sent, each
//! with a boolean `ok`; no panic and no hang (a missing response times
//! out); and `ping` still answers afterwards. The default test sends a
//! few hundred mutants; the `#[ignore]`d soak sends many thousands
//! (`cargo test --release -p harness --test serve_prop -- --ignored`).

use harness::exec::{run_campaign, ExecConfig};
use harness::json::Json;
use harness::matrix::Filter;
use harness::registry::Registry;
use harness::store::ResultStore;
use harness::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const SEEDS: [&str; 8] = [
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"query","scenario":"pipeline-domino","params":{"n":"16"}}"#,
    r#"{"op":"query_range","scenario":"pipeline-domino","where":{"n":["16","64"]},"metrics":["sipr"]}"#,
    r#"{"op":"report","scenario":"dram-refresh"}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"jobs"}"#,
    r#"{"op":"slowlog"}"#,
];

/// Bytes a splice may insert besides fragments of other seeds: JSON
/// structure, digits, whitespace, line breaks and bytes that are not
/// UTF-8.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\0123456789.eE+- \t\r\n\n\x00\xff\xc3";

/// splitmix64: a deterministic stream, so a failing case replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One damaged request: a seed truncated, bit-flipped or spliced
/// (sometimes all three).
fn mutant(rng: &mut Rng) -> Vec<u8> {
    let mut bytes = SEEDS[rng.below(SEEDS.len())].as_bytes().to_vec();
    let kinds = 1 + rng.below(7);
    if kinds & 1 != 0 {
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    if kinds & 2 != 0 && !bytes.is_empty() {
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
    }
    if kinds & 4 != 0 {
        for _ in 0..1 + rng.below(4) {
            let insert: Vec<u8> = if rng.below(2) == 0 {
                (0..1 + rng.below(12))
                    .map(|_| SPLICE_POOL[rng.below(SPLICE_POOL.len())])
                    .collect()
            } else {
                let donor = SEEDS[rng.below(SEEDS.len())].as_bytes();
                let start = rng.below(donor.len());
                donor[start..start + rng.below(donor.len() - start + 1)].to_vec()
            };
            let pos = rng.below(bytes.len() + 1);
            bytes.splice(pos..pos, insert);
        }
    }
    bytes
}

/// The requests the daemon sees in `bytes`: its lines that are not
/// blank, decoded as the daemon decodes them.
fn requests_in(bytes: &[u8]) -> usize {
    bytes
        .split(|&b| b == b'\n')
        .filter(|line| !String::from_utf8_lossy(line).trim().is_empty())
        .count()
}

/// Reads one response line; `None` on timeout or a closed connection.
fn response(reader: &mut BufReader<TcpStream>) -> Option<Json> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Json::parse(line.trim()).ok(),
        _ => None,
    }
}

/// Serves the 8-cell seed-42 store of two scenarios, sends `cases`
/// mutants over one connection, and checks every response.
fn fuzz(cases: usize, seed: u64) {
    let dir =
        std::env::temp_dir().join(format!("harness-serve-prop-{seed}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store_path = dir.join("store.json");
    let mut store = ResultStore::new();
    let select = ["pipeline-domino".to_string(), "dram-refresh".to_string()];
    let config = ExecConfig {
        threads: 2,
        seed: 42,
        ..ExecConfig::default()
    };
    run_campaign(
        &Registry::builtin(),
        &select,
        &Filter::all(),
        &config,
        &mut store,
    )
    .unwrap();
    store.save(&store_path).unwrap();
    let options = ServeOptions {
        quiet: true,
        ..ServeOptions::default()
    };
    let daemon = Server::bind(&store_path, options, None).unwrap();

    let connect = || {
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    };
    let (mut reader, mut stream) = connect();
    let mut rng = Rng(seed);
    for case in 0..cases {
        let mut bytes = mutant(&mut rng);
        bytes.push(b'\n');
        stream.write_all(&bytes).unwrap();
        for _ in 0..requests_in(&bytes) {
            let Some(answer) = response(&mut reader) else {
                panic!(
                    "case {case}: no JSON response to {:?}",
                    String::from_utf8_lossy(&bytes)
                );
            };
            assert!(
                matches!(answer.get("ok"), Some(Json::Bool(_))),
                "case {case}: no boolean `ok` for {:?}: {}",
                String::from_utf8_lossy(&bytes),
                answer.compact()
            );
        }
    }
    // The daemon still serves, on the fuzzed connection (so nothing
    // extra was answered there) and on a fresh one.
    for (mut reader, mut stream) in [(reader, stream), connect()] {
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let pong = response(&mut reader).expect("ping must answer");
        assert_eq!(
            pong.get("pong"),
            Some(&Json::Bool(true)),
            "{}",
            pong.compact()
        );
    }
    daemon.shutdown();
    let summary = daemon.wait().unwrap();
    assert_eq!(summary.submits, 0, "a mutant submitted a campaign");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_request_lines_each_get_one_response() {
    fuzz(400, 42);
}

#[test]
#[ignore = "soak: many thousands of mutants; run with --ignored"]
fn mutated_request_lines_soak() {
    fuzz(40_000, 7);
}
