//! Work-stealing contract through the `campaign` binary: three shard
//! processes run the same campaign with `--steal`, one of them
//! artificially slowed. The fast shards must steal the slow shard's
//! unleased chunks — the slow shard ends below its static lease — and
//! the merged store must still be byte-identical to a single-process
//! run (stolen and native results agree to the byte, verified by
//! `merge` + `diff` + `cmp`). `merge --report` names every planned
//! chunk exactly once, and the shards' `--trace` files hold one `cell`
//! span per executed cell.

use harness::dist::{self, LeaseDir};
use harness::obs::trace::load_trace;
use harness::store::ResultStore;
use std::path::PathBuf;
use std::process::Command;

const SELECT: [&str; 2] = ["pipeline-domino", "dram-refresh"];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("harness-stealcli-{tag}-{}", std::process::id()));
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

#[test]
fn slow_shard_is_stolen_from_and_the_merge_stays_byte_identical() {
    let dir = TempDir::new("slow");
    let manifest_path = dir.path("manifest.json");
    let m = manifest_path.to_str().unwrap();
    let single = dir.path("single.json");
    let merged = dir.path("merged.json");

    // Single-process reference and the 3-shard plan.
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
        single.to_str().unwrap(),
    ]);
    run_ok(&[
        "plan",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--shards",
        "3",
        "--manifest",
        m,
    ]);

    // The slow shard's static lease, computed from the same manifest
    // the workers read (lazy cells == matched cells: no filter).
    let manifest = dist::Manifest::load(&manifest_path).unwrap();
    let registry = dist::registry_for(&manifest);
    let chunks = dist::chunk_map(&registry, &manifest).unwrap();
    let lease_cells: usize = chunks
        .iter()
        .filter(|c| c.initial_shard == 0)
        .map(|c| c.range.len())
        .sum();
    assert!(lease_cells >= 2, "shard 0 needs a stealable lease");

    // Three concurrent shard processes; shard 0 sleeps 300 ms per cell.
    let mut workers = Vec::new();
    let mut stores = Vec::new();
    for index in 0..3u32 {
        let store = dir.path(&format!("shard{index}.json"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
        cmd.args([
            "shard",
            "--manifest",
            m,
            "--index",
            &index.to_string(),
            "--steal",
            "--quiet",
            "--store",
            store.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped());
        if index == 0 {
            cmd.env("CAMPAIGN_CELL_DELAY_MS", "300");
        }
        workers.push(cmd.spawn().expect("shard worker must spawn"));
        stores.push(store);
    }
    let mut outputs = Vec::new();
    for worker in workers {
        let out = worker.wait_with_output().expect("shard worker must finish");
        assert!(out.status.success(), "shard worker failed");
        outputs.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }

    // Stealing happened: the slow shard executed fewer cells than its
    // static lease, and its summary says so.
    let slow = ResultStore::load(&stores[0]).unwrap();
    assert!(
        slow.len() < lease_cells,
        "slow shard must lose work to stealing (executed {} of a {lease_cells}-cell lease)",
        slow.len()
    );
    assert!(
        outputs[0].contains("steal:")
            && outputs[0].contains(&format!("lease {lease_cells} lazy cells")),
        "shard 0 summary must report its lease: {}",
        outputs[0]
    );
    // Someone stole: across shards, stolen chunk counts sum > 0.
    assert!(
        outputs.iter().any(|o| !o.contains("(0 stolen)")),
        "at least one shard must report stolen chunks: {outputs:?}"
    );

    // Every chunk ended leased (claims partition the chunk set).
    let leases = LeaseDir::create(&LeaseDir::for_manifest(&manifest_path)).unwrap();
    for chunk in &chunks {
        assert!(
            leases.holder(chunk.id).unwrap().is_some(),
            "chunk {} ended unleased",
            chunk.id
        );
    }

    // Merge with coverage verification; byte-identity with the
    // single-process store is the stolen-equals-native proof.
    run_ok(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        "--manifest",
        m,
        stores[0].to_str().unwrap(),
        stores[1].to_str().unwrap(),
        stores[2].to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&single).unwrap(),
        std::fs::read_to_string(&merged).unwrap(),
        "stolen + native results must merge byte-identically to the single-process store"
    );
    run_ok(&["diff", single.to_str().unwrap(), merged.to_str().unwrap()]);
}

#[test]
fn merge_report_names_every_chunk_exactly_once() {
    let dir = TempDir::new("report");
    let manifest_path = dir.path("manifest.json");
    let m = manifest_path.to_str().unwrap();
    run_ok(&[
        "plan",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--shards",
        "2",
        "--manifest",
        m,
    ]);
    // Two stealing shards, sequentially: shard 0 claims (and steals)
    // every chunk, shard 1 finds nothing left — the degenerate but
    // fully deterministic steal pattern. Each records its cell times
    // in its own trace.
    let stores: Vec<PathBuf> = (0..2)
        .map(|i| {
            let store = dir.path(&format!("shard{i}.json"));
            let trace = dir.path(&format!("shard{i}.trace"));
            run_ok(&[
                "shard",
                "--manifest",
                m,
                "--index",
                &i.to_string(),
                "--steal",
                "--quiet",
                "--trace",
                trace.to_str().unwrap(),
                "--store",
                store.to_str().unwrap(),
            ]);
            store
        })
        .collect();
    let merged = dir.path("merged.json");
    let stdout = run_ok(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        "--manifest",
        m,
        "--report",
        stores[0].to_str().unwrap(),
        stores[1].to_str().unwrap(),
    ]);

    // The report's contract: every planned chunk exactly once, each
    // with a winning shard.
    let manifest = dist::Manifest::load(&manifest_path).unwrap();
    let registry = dist::registry_for(&manifest);
    let chunks = dist::chunk_map(&registry, &manifest).unwrap();
    let chunk_lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with("chunk ")).collect();
    assert_eq!(chunk_lines.len(), chunks.len(), "got:\n{stdout}");
    for chunk in &chunks {
        assert_eq!(
            chunk_lines
                .iter()
                .filter(|l| l.starts_with(&format!("chunk {:03} ", chunk.id)))
                .count(),
            1,
            "chunk {} must appear exactly once:\n{stdout}",
            chunk.id
        );
    }
    assert!(!stdout.contains("UNCLAIMED"), "got:\n{stdout}");
    assert!(stdout.contains("0 unclaimed"), "got:\n{stdout}");
    // Shard 0 won everything; every chunk not initially its own was a
    // steal, and the summary's totals agree with the chunk map.
    let stolen = chunks.iter().filter(|c| c.initial_shard != 0).count();
    assert!(
        stdout.contains(&format!("({stolen} stolen, 0 unclaimed)")),
        "got:\n{stdout}"
    );
    assert!(stdout.contains("shard 1:"), "both shards are accounted for");
    // The shards' wall time is in their traces: one `cell` span per
    // executed cell, so the two traces together cover the campaign.
    let cell_spans: usize = (0..2)
        .map(|i| {
            let stats = load_trace(&dir.path(&format!("shard{i}.trace"))).unwrap();
            stats.spans.get("cell").map_or(0, |span| span.count)
        })
        .sum();
    let cells: usize = chunks.iter().map(|c| c.range.len()).sum();
    assert_eq!(cell_spans, cells, "one cell span per executed cell");

    // --quiet mutes the merge summary line but never the explicitly
    // requested report.
    let quiet = run_ok(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        "--manifest",
        m,
        "--report",
        "--quiet",
        stores[0].to_str().unwrap(),
        stores[1].to_str().unwrap(),
    ]);
    assert!(!quiet.contains("merged "), "got:\n{quiet}");
    assert!(quiet.contains("steal report:"), "got:\n{quiet}");

    // The merged store is still byte-identical to a single-process run.
    let single = dir.path("single.json");
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
        single.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&single).unwrap(),
        std::fs::read_to_string(&merged).unwrap()
    );

    // --report without a lease directory fails loudly (exit 2), and
    // --leases without --report is rejected as a usage error.
    std::fs::remove_dir_all(dist::LeaseDir::for_manifest(&manifest_path)).unwrap();
    let out = campaign(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        "--manifest",
        m,
        "--report",
        stores[0].to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no lease directory"),
        "got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = campaign(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        "--leases",
        "x",
        stores[0].to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}
