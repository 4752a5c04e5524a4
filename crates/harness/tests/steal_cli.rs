//! Work-stealing contract through the `campaign` binary: three shard
//! processes run the same campaign with `--steal`, one of them
//! artificially slowed. The fast shards must steal the slow shard's
//! unleased chunks — the slow shard ends below its static lease — and
//! the merged store must still be byte-identical to a single-process
//! run (stolen and native results agree to the byte, verified by
//! `merge` + `diff` + `cmp`).

use harness::dist::{self, LeaseDir};
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

fn run_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign must spawn");
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
