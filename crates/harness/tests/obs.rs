//! The observability contract through the `campaign` binary.
//!
//! The invariants pinned here:
//!
//! * **Determinism** — a campaign run with `--trace` writes a
//!   `store.json` byte-identical to a run without it, compacting its
//!   journal mid-run or not (spans and counters are purely
//!   observational).
//! * **Trace validity** — every event in a `--trace` file is an
//!   X-phase complete event with a duration, the expected lifecycle
//!   spans are present, and `campaign trace` accepts the file.
//! * **Crash tolerance** — a torn final line (the crash shape of the
//!   shared append log) is tolerated by the validator; corruption
//!   anywhere else is an error naming the line.
//! * **Progress** — `--progress` heartbeats go to stderr, never
//!   stdout.

use harness::obs::trace::load_trace;
use std::path::PathBuf;
use std::process::Command;

const SELECT: [&str; 2] = ["pipeline-domino", "dram-refresh"];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("harness-obscli-{tag}-{}", std::process::id()));
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

/// Runs the reference 2-scenario campaign into `store`, with optional
/// `--trace` flags.
fn run_reference(store: &std::path::Path, extra: &[&str]) {
    let store = store.to_str().unwrap();
    let mut args = vec![
        "run",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--quiet",
        "--store",
        store,
    ];
    args.extend_from_slice(extra);
    run_ok(&args);
}

#[test]
fn traced_store_is_byte_identical_to_untraced() {
    let dir = TempDir::new("identity");
    let plain = dir.path("plain.json");
    let traced = dir.path("traced.json");
    let trace = dir.path("t.json");
    run_reference(&plain, &[]);
    run_reference(&traced, &["--trace", trace.to_str().unwrap()]);
    let a = std::fs::read(&plain).unwrap();
    let b = std::fs::read(&traced).unwrap();
    assert_eq!(a, b, "tracing must never change store bytes");
    assert!(trace.exists(), "the trace file itself must be written");
}

#[test]
fn trace_covers_the_campaign_lifecycle() {
    let dir = TempDir::new("lifecycle");
    let store = dir.path("store.json");
    let trace = dir.path("t.json");
    run_reference(&store, &["--trace", trace.to_str().unwrap()]);
    let stats = load_trace(&trace).expect("the written trace must validate");
    assert!(!stats.torn_tail, "a clean run leaves no torn tail");
    assert!(stats.events > 0);
    for span in [
        "plan",
        "worker",
        "decode",
        "memo",
        "cell",
        "journal/append",
        "journal/fsync",
        "checkpoint",
        "store/save",
    ] {
        let stat = stats.spans.get(span);
        assert!(
            stat.is_some(),
            "span `{span}` missing from {:?}",
            stats.spans
        );
        assert!(stat.unwrap().count > 0, "span `{span}` has no events");
    }
    // 8 cells in the reference campaign: one cell/decode/memo each.
    assert_eq!(stats.spans["cell"].count, 8);
    assert_eq!(stats.spans["decode"].count, 8);
    // The `campaign trace` subcommand agrees.
    let report = run_ok(&["trace", trace.to_str().unwrap()]);
    assert!(report.contains("events"), "{report}");
    assert!(report.contains("cell"), "{report}");
}

#[test]
fn torn_trace_tail_is_tolerated_but_mid_file_corruption_is_not() {
    let dir = TempDir::new("torn");
    let store = dir.path("store.json");
    let trace = dir.path("t.json");
    run_reference(&store, &["--trace", trace.to_str().unwrap()]);
    // A crash mid-append leaves a half-written final line.
    let mut text = std::fs::read_to_string(&trace).unwrap();
    text.push_str("{\"name\":\"torn");
    std::fs::write(&trace, &text).unwrap();
    let stats = load_trace(&trace).expect("torn tail must be tolerated");
    assert!(stats.torn_tail);
    // The same garbage mid-file is corruption, not a crash shape.
    let lines: Vec<&str> = text.lines().collect();
    let mut corrupted: Vec<&str> = lines.clone();
    corrupted.insert(2, "{\"name\":\"torn");
    std::fs::write(&trace, corrupted.join("\n")).unwrap();
    let err = load_trace(&trace).expect_err("mid-file corruption must error");
    assert!(err.to_string().contains("line"), "{err}");
}

#[test]
fn merge_emits_a_trace_and_identical_bytes() {
    let dir = TempDir::new("merge");
    let a = dir.path("a.json");
    let b = dir.path("b.json");
    run_ok(&[
        "run",
        "--scenario",
        SELECT[0],
        "--seed",
        "42",
        "--quiet",
        "--store",
        a.to_str().unwrap(),
    ]);
    run_ok(&[
        "run",
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--quiet",
        "--store",
        b.to_str().unwrap(),
    ]);
    let plain = dir.path("plain.json");
    let traced = dir.path("traced.json");
    let trace = dir.path("t.json");
    run_ok(&[
        "merge",
        "--out",
        plain.to_str().unwrap(),
        "--quiet",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    run_ok(&[
        "merge",
        "--out",
        traced.to_str().unwrap(),
        "--quiet",
        "--trace",
        trace.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&traced).unwrap(),
        "tracing must never change merged store bytes"
    );
    let stats = load_trace(&trace).unwrap();
    assert!(stats.spans.contains_key("merge"), "{:?}", stats.spans);
    assert!(stats.spans.contains_key("store/save"), "{:?}", stats.spans);
}

#[test]
fn progress_heartbeats_go_to_stderr_not_stdout() {
    let dir = TempDir::new("progress");
    let store = dir.path("store.json");
    let out = campaign(&[
        "run",
        "--scenario",
        SELECT[0],
        "--seed",
        "42",
        "--quiet",
        "--progress",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stdout.contains('\r'),
        "heartbeats leaked to stdout: {stdout}"
    );
    assert!(stderr.contains("cells executed"), "{stderr}");
}
