//! The serve daemon's contract through the real `campaign` binary:
//! a spawned `campaign serve` process, real TCP clients, and the
//! on-disk artifacts it leaves behind.
//!
//! The invariants pinned here:
//!
//! * **Protocol** — every endpoint (ping, stats, query, query_range,
//!   report, submit, shutdown) answers over a real socket; junk, torn
//!   and deeply nested requests never take the daemon down.
//! * **Byte identity** — the store a daemon checkpoints after serving
//!   a submitted campaign is byte-identical to the store a batch
//!   `campaign run` of the same campaign writes.
//! * **The lock protocol** — a live daemon's store is refused by `gc`,
//!   `merge` and stored `run`/`report`/`shard` campaigns (exit 2,
//!   remediation named, store untouched); a dead daemon's stale lock is
//!   reported and broken, never a permanent wedge.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SELECT: [&str; 2] = ["pipeline-domino", "dram-refresh"];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("harness-servecli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn campaign(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign must spawn")
}

fn run_ok(args: &[&str]) -> String {
    let out = campaign(args);
    assert!(
        out.status.success(),
        "{args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A spawned `campaign serve` process, killed on drop so a failing
/// assertion never leaks a daemon (and its lock) into later tests.
struct Daemon {
    child: Option<Child>,
    addr: String,
}

impl Daemon {
    /// Spawns `campaign serve --store <store>` and waits for the port
    /// file to announce the bound address.
    fn spawn(dir: &TempDir, store: &std::path::Path) -> Daemon {
        let port_file = dir.path("port");
        std::fs::remove_file(&port_file).ok();
        let child = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["serve", "--store"])
            .arg(store)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("campaign serve must spawn");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote the port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon {
            child: Some(child),
            addr,
        }
    }

    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("daemon must accept");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    /// Sends the shutdown op and waits for the process to exit cleanly.
    fn shutdown(mut self) -> std::process::Output {
        let response = self.connect().request("{\"op\":\"shutdown\"}");
        assert!(
            response.contains("\"shutting_down\":true"),
            "shutdown response: {response}"
        );
        let mut child = self.child.take().expect("daemon already shut down");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "daemon never exited after shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child
            .wait_with_output()
            .expect("daemon output must collect");
        assert!(
            out.status.success(),
            "daemon exited nonzero\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        out
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    /// One request/response round trip; returns the raw response line.
    fn request(&mut self, line: &str) -> String {
        writeln!(self.stream, "{line}").unwrap();
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .expect("daemon must respond");
        response.trim().to_string()
    }

    /// Polls `stats` until `probe` appears in the response (compact
    /// JSON, no spaces) or the deadline passes.
    fn await_stats(&mut self, probe: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = self.request("{\"op\":\"stats\"}");
            if stats.contains(probe) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "stats never matched `{probe}`: {stats}"
            );
            std::thread::sleep(Duration::from_millis(30));
        }
    }
}

/// The reference batch store: the same 2-scenario seed-42 campaign the
/// serve tests submit over the wire.
fn batch_reference(store: &std::path::Path) {
    run_ok(&[
        "run",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--quiet",
        "--store",
        store.to_str().unwrap(),
    ]);
}

#[test]
fn endpoints_roundtrip_and_submitted_store_matches_batch_bytes() {
    let dir = TempDir::new("endpoints");
    let served = dir.path("served.json");
    let daemon = Daemon::spawn(&dir, &served);
    let mut client = daemon.connect();

    let pong = client.request("{\"op\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "{pong}");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    // Junk does not kill the connection or the daemon.
    let bad = client.request("this is not json");
    assert!(bad.contains("\"ok\":false"), "{bad}");
    let unknown = client.request("{\"op\":\"frobnicate\"}");
    assert!(unknown.contains("unknown op"), "{unknown}");

    // Submit the reference campaign and wait for it to finish.
    let submit = client.request(&format!(
        "{{\"op\":\"submit\",\"scenarios\":[\"{}\",\"{}\"],\"seed\":42}}",
        SELECT[0], SELECT[1]
    ));
    assert!(submit.contains("\"ok\":true"), "{submit}");
    assert!(submit.contains("\"job\":1"), "{submit}");
    client.await_stats("\"done\":1");

    // Point query: a hit with metrics, then a clean miss.
    let hit = client
        .request("{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"16\"}}");
    assert!(hit.contains("\"ok\":true"), "{hit}");
    assert!(hit.contains("\"sipr\":"), "{hit}");
    let miss = client
        .request("{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"9999\"}}");
    assert!(miss.contains("\"cells\":[]"), "{miss}");

    // Range scan with metric columns.
    let range = client.request(
        "{\"op\":\"query_range\",\"scenario\":\"pipeline-domino\",\"where\":{\"n\":[\"16\",\"64\"]},\"metrics\":[\"sipr\"]}",
    );
    assert!(range.contains("\"count\":2"), "{range}");
    assert!(range.contains("\"sipr\":["), "{range}");
    let bad_axis = client.request(
        "{\"op\":\"query_range\",\"scenario\":\"pipeline-domino\",\"where\":{\"bogus\":\"1\"}}",
    );
    assert!(bad_axis.contains("\"ok\":false"), "{bad_axis}");

    // The report join over the wire names the scenario and its catalog
    // slots, and several clients can hold connections at once.
    let mut second = daemon.connect();
    let report = second.request("{\"op\":\"report\",\"scenario\":\"pipeline-domino\"}");
    assert!(report.contains("\"ok\":true"), "{report}");
    assert!(report.contains("pipeline-domino"), "{report}");

    let stats = client.request("{\"op\":\"stats\"}");
    assert!(stats.contains("\"cells\":8"), "{stats}");
    assert!(stats.contains("\"submits\":1"), "{stats}");

    let out = daemon.shutdown();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("listening on"), "{stdout}");
    assert!(stdout.contains("8 cells checkpointed"), "{stdout}");

    // The daemon's final store is byte-identical to the batch run's —
    // same executor, same journal, same checkpoint writer.
    let batch = dir.path("batch.json");
    batch_reference(&batch);
    assert_eq!(
        std::fs::read(&served).unwrap(),
        std::fs::read(&batch).unwrap(),
        "served store must be byte-identical to the batch store"
    );
    // Clean shutdown leaves no lock and no journal behind.
    assert!(!dir.path("served.json.lock").exists());
    assert!(!dir.path("served.json.journal").exists());
}

#[test]
fn torn_requests_and_eof_never_take_the_daemon_down() {
    let dir = TempDir::new("torn");
    let store = dir.path("store.json");
    batch_reference(&store);
    let daemon = Daemon::spawn(&dir, &store);

    // A half-written request followed by a hard disconnect.
    {
        let mut stream = TcpStream::connect(&daemon.addr).unwrap();
        stream
            .write_all(b"{\"op\":\"query\",\"scenario\":\"pipeli")
            .unwrap();
        // Dropped here: EOF mid-line, no newline ever sent.
    }
    // An empty connection (connect + immediate EOF).
    drop(TcpStream::connect(&daemon.addr).unwrap());

    // The daemon still answers a well-formed client afterwards.
    let mut client = daemon.connect();
    let pong = client.request("{\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let hit = client
        .request("{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"16\"}}");
    assert!(hit.contains("\"ok\":true"), "{hit}");
    daemon.shutdown();
}

#[test]
fn deeply_nested_request_is_refused_and_the_daemon_keeps_serving() {
    let dir = TempDir::new("nested");
    let store = dir.path("store.json");
    let daemon = Daemon::spawn(&dir, &store);
    // Parsed on a connection thread's default-sized stack, where an
    // unbounded recursive descent used to abort the whole process.
    let nested = daemon.connect().request(&"[".repeat(100_000));
    assert!(nested.contains("\"ok\":false"), "{nested}");
    assert!(nested.contains("nesting deeper than"), "{nested}");
    let pong = daemon.connect().request("{\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    daemon.shutdown();
}

#[test]
fn gc_and_merge_refuse_a_live_daemons_store() {
    let dir = TempDir::new("refuse");
    let store = dir.path("store.json");
    batch_reference(&store);
    let other = dir.path("other.json");
    batch_reference(&other);
    let daemon = Daemon::spawn(&dir, &store);

    let gc = campaign(&["gc", "--store", store.to_str().unwrap()]);
    assert_eq!(gc.status.code(), Some(2), "gc must refuse a live store");
    let gc_err = String::from_utf8_lossy(&gc.stderr);
    assert!(gc_err.contains("live"), "{gc_err}");
    assert!(gc_err.contains("shutdown"), "{gc_err}");

    let merged = dir.path("merged.json");
    let merge = campaign(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        other.to_str().unwrap(),
        store.to_str().unwrap(),
    ]);
    assert_eq!(
        merge.status.code(),
        Some(2),
        "merge must refuse a live input store"
    );
    assert!(
        String::from_utf8_lossy(&merge.stderr).contains("live"),
        "{}",
        String::from_utf8_lossy(&merge.stderr)
    );

    // A second daemon on the same store refuses too.
    let second = campaign(&["serve", "--store", store.to_str().unwrap()]);
    assert_eq!(second.status.code(), Some(2));

    daemon.shutdown();
    // After shutdown the lock is gone and gc proceeds.
    let gc = campaign(&["gc", "--store", store.to_str().unwrap(), "--dry-run"]);
    assert!(
        gc.status.success(),
        "gc after shutdown: {}",
        String::from_utf8_lossy(&gc.stderr)
    );
}

#[test]
fn stored_runs_refuse_a_live_daemons_store() {
    let dir = TempDir::new("refuse-run");
    let store = dir.path("store.json");
    batch_reference(&store);
    let manifest = dir.path("manifest.json");
    run_ok(&[
        "plan",
        "--scenario",
        SELECT[0],
        "--seed",
        "42",
        "--shards",
        "1",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    let daemon = Daemon::spawn(&dir, &store);
    let before = std::fs::read(&store).unwrap();

    // Every stored campaign journals into and checkpoints its store: on
    // a live daemon's store its final checkpoint would delete the
    // daemon's journal mid-submit, so it must not start at all.
    let path = store.to_str().unwrap();
    let shard_args = [
        "shard",
        "--manifest",
        manifest.to_str().unwrap(),
        "--index",
        "0",
        "--store",
        path,
    ];
    for args in [
        &[
            "run",
            "--scenario",
            SELECT[0],
            "--seed",
            "7",
            "--store",
            path,
        ] as &[&str],
        &[
            "report",
            "--scenario",
            SELECT[0],
            "--seed",
            "7",
            "--store",
            path,
        ],
        &shard_args,
    ] {
        let out = campaign(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must refuse a live store"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("live"), "{args:?}: {stderr}");
        assert!(stderr.contains("shutdown"), "{args:?}: {stderr}");
        assert_eq!(
            std::fs::read(&store).unwrap(),
            before,
            "{args:?} touched the store"
        );
        assert!(!dir.path("store.json.journal").exists(), "{args:?}");
    }
    daemon.shutdown();
    assert_eq!(std::fs::read(&store).unwrap(), before);
}

#[test]
fn stale_locks_are_reported_and_broken_never_a_wedge() {
    let dir = TempDir::new("stale");
    let store = dir.path("store.json");
    batch_reference(&store);
    // A lock left behind by a dead process: /proc/<pid> cannot exist
    // for a pid this large.
    std::fs::write(
        dir.path("store.json.lock"),
        "{\"pid\":4000000000,\"cmd\":\"serve\"}\n",
    )
    .unwrap();

    // gc ignores the stale lock but says so.
    let gc = campaign(&["gc", "--store", store.to_str().unwrap(), "--dry-run"]);
    assert!(
        gc.status.success(),
        "stale lock must not block gc: {}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let note = String::from_utf8_lossy(&gc.stderr);
    assert!(note.contains("stale"), "{note}");
    assert!(note.contains("4000000000"), "{note}");

    // A new daemon breaks the stale lock, reports it, and serves.
    let daemon = Daemon::spawn(&dir, &store);
    let mut client = daemon.connect();
    let pong = client.request("{\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let out = daemon.shutdown();
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("stale"),
        "breaking the stale lock must be reported: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.path("store.json.lock").exists());
}

#[test]
fn metrics_scrape_counts_requests_exactly() {
    let dir = TempDir::new("metrics");
    let store = dir.path("store.json");
    batch_reference(&store);
    let daemon = Daemon::spawn(&dir, &store);
    let mut client = daemon.connect();

    // A deliberate mix: 3 pings, 4 queries, 1 range, 1 report, 2 stats.
    // Requests are recorded after the response is written, so a
    // single-connection sequence sees exact counts on the next scrape.
    for _ in 0..3 {
        client.request("{\"op\":\"ping\"}");
    }
    for n in ["16", "64", "9999", "16"] {
        client.request(&format!(
            "{{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{{\"n\":\"{n}\"}}}}"
        ));
    }
    client.request(
        "{\"op\":\"query_range\",\"scenario\":\"pipeline-domino\",\"where\":{\"n\":[\"16\",\"64\"]}}",
    );
    client.request("{\"op\":\"report\",\"scenario\":\"pipeline-domino\"}");
    client.request("{\"op\":\"stats\"}");
    client.request("{\"op\":\"stats\"}");

    // First scrape: every endpoint count equals what was issued, and the
    // metrics op has not yet counted itself (recorded after its write).
    let scrape = client.request("{\"op\":\"metrics\"}");
    assert!(scrape.contains("\"ok\":true"), "{scrape}");
    for (op, n) in [
        ("ping", 3),
        ("query", 4),
        ("query_range", 1),
        ("report", 1),
        ("stats", 2),
        ("metrics", 0),
        ("submit", 0),
    ] {
        let line = format!("harness_serve_requests_total{{op=\\\"{op}\\\"}} {n}");
        assert!(scrape.contains(&line), "missing `{line}` in {scrape}");
    }
    // Histogram totals line up with the counters, inside both the
    // Prometheus text and the JSON summary.
    assert!(
        scrape.contains(
            "harness_serve_request_latency_seconds_bucket{op=\\\"query\\\",le=\\\"+Inf\\\"} 4"
        ),
        "{scrape}"
    );
    assert!(
        scrape.contains("harness_serve_request_latency_seconds_count{op=\\\"query\\\"} 4"),
        "{scrape}"
    );
    assert!(
        scrape.contains("# TYPE harness_serve_request_latency_seconds histogram"),
        "{scrape}"
    );
    assert!(
        scrape.contains("\"harness_serve_request_latency_seconds{op=\\\"query\\\"}\":{\"count\":4"),
        "{scrape}"
    );

    // The second scrape counts the first.
    let second = client.request("{\"op\":\"metrics\"}");
    assert!(
        second.contains("harness_serve_requests_total{op=\\\"metrics\\\"} 1"),
        "{second}"
    );
    daemon.shutdown();
}

#[test]
fn top_once_renders_requests_and_job_progress() {
    let dir = TempDir::new("top");
    let served = dir.path("served.json");
    let daemon = Daemon::spawn(&dir, &served);
    let mut client = daemon.connect();
    let submit = client.request(&format!(
        "{{\"op\":\"submit\",\"scenarios\":[\"{}\",\"{}\"],\"seed\":42}}",
        SELECT[0], SELECT[1]
    ));
    assert!(submit.contains("\"ok\":true"), "{submit}");
    client.await_stats("\"done\":1");
    client.request("{\"op\":\"query\",\"scenario\":\"pipeline-domino\",\"params\":{\"n\":\"16\"}}");

    // jobs over the wire: the finished job carries its progress cells.
    let jobs = client.request("{\"op\":\"jobs\"}");
    assert!(jobs.contains("\"status\":\"done\""), "{jobs}");
    assert!(jobs.contains("\"cells_total\":8"), "{jobs}");
    let slowlog = client.request("{\"op\":\"slowlog\"}");
    assert!(slowlog.contains("\"ok\":true"), "{slowlog}");

    // One-shot top renders the header, latency rows and the job bar.
    let screen = run_ok(&["top", "--once", "--addr", &daemon.addr]);
    assert!(
        screen.contains(&format!("campaign serve — {}", daemon.addr)),
        "{screen}"
    );
    assert!(screen.contains("op"), "{screen}");
    assert!(screen.contains("query"), "{screen}");
    assert!(screen.contains("submit"), "{screen}");
    assert!(screen.contains("done"), "{screen}");
    assert!(screen.contains("100%  8/8 cells"), "{screen}");

    // Flag validation: --addr and --port-file are mutually exclusive.
    let both = campaign(&["top", "--once", "--addr", "x", "--port-file", "y"]);
    assert_eq!(both.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&both.stderr).contains("not both"),
        "{}",
        String::from_utf8_lossy(&both.stderr)
    );
    daemon.shutdown();
}
