//! Contract of the `dist` subsystem: shard-planning invariants, the
//! shard-equivalence guarantee (N disjoint shard runs merge to the
//! byte-identical store of a single-process run), and the campaign
//! differ's regression-gate behaviour — exercised both through the
//! library API and through the `campaign` binary as genuinely separate
//! OS processes (the way CI runs shards).

use harness::dist::{self, diff_stores, merge_stores, Tolerances};
use harness::exec::{run_campaign, ExecConfig};
use harness::matrix::Filter;
use harness::registry::Registry;
use harness::scenario::{Axis, CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
use harness::store::ResultStore;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const SELECT: [&str; 2] = ["pipeline-domino", "dram-refresh"];

fn select() -> Vec<String> {
    SELECT.iter().map(|s| s.to_string()).collect()
}

fn single_process_store(seed: u64) -> ResultStore {
    let mut store = ResultStore::new();
    run_campaign(
        &Registry::builtin(),
        &select(),
        &Filter::all(),
        &ExecConfig {
            threads: 2,
            seed,
            ..ExecConfig::default()
        },
        &mut store,
    )
    .expect("single-process campaign must succeed");
    store
}

/// A toy scenario with a configurable matrix, for planning invariants.
struct Toy(&'static str, Vec<Axis>);

impl Scenario for Toy {
    fn spec(&self) -> ScenarioSpec {
        ScenarioSpec {
            id: self.0,
            version: 1,
            title: "toy",
            source_crate: "harness",
            property: "p",
            uncertainty: "u",
            quality: "q",
            catalog_id: None,
            content_digest: None,
            axes: self.1.clone(),
            headline_metric: "value",
            smaller_is_better: true,
        }
    }

    fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
        let a = params.get_u64("a")?;
        Ok(CellResult::new(vec![("value", (a + seed % 13) as f64)]))
    }
}

fn toy_registry() -> Registry {
    let mut r = Registry::empty();
    r.register(Box::new(Toy("t1", vec![Axis::new("a", 1..=7)])));
    r.register(Box::new(Toy(
        "t2",
        vec![Axis::new("a", 1..=3), Axis::new("b", ["x", "y", "z"])],
    )));
    r.register(Box::new(Toy("t3", vec![Axis::new("a", [10, 20])])));
    r
}

#[test]
fn shards_are_disjoint_covering_and_stable() {
    let registry = toy_registry();
    let matrices: [&[&str]; 3] = [&["t1"], &["t2", "t3"], &[]];
    for select in matrices {
        let select: Vec<String> = select.iter().map(|s| s.to_string()).collect();
        for shards in [1u32, 2, 3, 5, 16] {
            let manifest = dist::plan(&registry, &select, &[], 9, shards, 1).unwrap();
            let planned: BTreeSet<String> = manifest
                .space(&registry)
                .unwrap()
                .cells()
                .map(|cell| cell.fingerprint)
                .collect();
            assert_eq!(planned.len(), manifest.cells);

            // Disjoint + covering: run every shard for real; each
            // planned cell lands in exactly one shard's store.
            let mut seen = BTreeSet::new();
            for index in 0..shards {
                let mut store = ResultStore::new();
                let campaign = dist::run_shard(&registry, &manifest, index, 2, &mut store).unwrap();
                assert_eq!(campaign.cells.len(), store.len());
                if shards == 16 && select == ["t1"] && index >= 7 {
                    // t1 has 7 cells, so 7 chunks: shards 7..16 hold an
                    // empty lease and run nothing.
                    assert!(campaign.cells.is_empty(), "shard {index} must be empty");
                }
                for (fingerprint, _) in store.iter() {
                    assert!(
                        seen.insert(fingerprint.to_string()),
                        "fingerprint {fingerprint} ran in two shards"
                    );
                }
            }
            assert_eq!(seen, planned, "shards must cover every planned cell");

            // Stable: re-planning yields the identical manifest bytes,
            // and so the identical chunk map.
            let again = dist::plan(&registry, &select, &[], 9, shards, 1).unwrap();
            assert_eq!(
                again.to_json().pretty(),
                manifest.to_json().pretty(),
                "manifests must be byte-stable"
            );
        }
    }
}

#[test]
fn golden_shard_equivalence() {
    // The acceptance check: for two scenarios and N in {2, 3},
    // shards executed in isolation merge into a store byte-identical
    // to the single-process store, and the differ agrees (no deltas).
    let registry = Registry::builtin();
    let single = single_process_store(42);
    for shards in [2u32, 3] {
        let manifest = dist::plan(&registry, &select(), &[], 42, shards, 1).unwrap();
        let mut shard_stores = Vec::new();
        for index in 0..shards {
            let mut store = ResultStore::new();
            let campaign = dist::run_shard(&registry, &manifest, index, 2, &mut store).unwrap();
            assert_eq!(campaign.cells.len(), store.len());
            shard_stores.push(store);
        }
        let (fused, stats) = merge_stores(shard_stores, None).unwrap();
        assert_eq!(stats.duplicates, 0, "shards must not overlap");
        dist::merge::verify_coverage(&registry, &manifest, &fused).unwrap();
        assert_eq!(
            fused.to_json().pretty(),
            single.to_json().pretty(),
            "{shards}-shard merge must be byte-identical to the single-process store"
        );
        let report = diff_stores(&single, &fused, &Tolerances::exact());
        assert!(report.is_empty(), "differ must report zero changes");
        assert_eq!(report.unchanged, single.len());
    }
}

#[test]
fn differ_flags_injected_perturbation() {
    let baseline = single_process_store(42);
    // Rebuild the store with one pipeline-domino metric nudged.
    let mut perturbed = ResultStore::new();
    let mut nudged = false;
    for (_, cell) in baseline.iter() {
        let mut result = cell.result.clone();
        if !nudged && cell.scenario == "pipeline-domino" {
            result.metrics[0].1 += 1e-6;
            nudged = true;
        }
        let params = Params::new(
            cell.params_key
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap();
                    (k.to_string(), v.to_string())
                })
                .collect(),
        );
        perturbed.insert(&cell.scenario, cell.version, &params, cell.seed, result);
    }
    assert!(nudged);
    let report = diff_stores(&baseline, &perturbed, &Tolerances::exact());
    assert_eq!(report.changed(), 1, "exactly the nudged cell differs");
    assert_eq!(report.added() + report.removed(), 0);
    // A tolerance above the perturbation absorbs it.
    let lax = Tolerances::exact().with_default(1e-3);
    assert!(diff_stores(&baseline, &perturbed, &lax).is_empty());
}

// ---- CLI: the same workflow as separate OS processes ----

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("harness-dist-{tag}-{}", std::process::id()));
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
        .expect("campaign binary must spawn")
}

fn assert_code(output: &std::process::Output, code: i32, what: &str) {
    assert_eq!(
        output.status.code(),
        Some(code),
        "{what}: expected exit {code}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn cli_plan_shard_merge_diff_round_trip() {
    let dir = TempDir::new("cli");
    let manifest = dir.path("manifest.json");
    let single = dir.path("single.json");
    let merged = dir.path("merged.json");
    let m = manifest.to_str().unwrap();

    // Single-process baseline.
    let out = campaign(&[
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
    assert_code(&out, 0, "single-process run");

    // Plan 3 shards; run each as its own OS process.
    let out = campaign(&[
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
    assert_code(&out, 0, "plan");

    let mut shard_paths = Vec::new();
    let mut workers = Vec::new();
    for index in 0..3 {
        let store = dir.path(&format!("shard{index}.json"));
        workers.push(
            Command::new(env!("CARGO_BIN_EXE_campaign"))
                .args([
                    "shard",
                    "--manifest",
                    m,
                    "--index",
                    &index.to_string(),
                    "--quiet",
                    "--store",
                    store.to_str().unwrap(),
                ])
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("shard worker must spawn"),
        );
        shard_paths.push(store);
    }
    for mut worker in workers {
        assert!(worker.wait().unwrap().success(), "shard worker failed");
    }

    // Merge with coverage verification against the manifest.
    let mut merge_args = vec!["merge", "--out", merged.to_str().unwrap(), "--manifest", m];
    let shard_strs: Vec<&str> = shard_paths.iter().map(|p| p.to_str().unwrap()).collect();
    merge_args.extend(&shard_strs);
    let out = campaign(&merge_args);
    assert_code(&out, 0, "merge");

    // The merged store is byte-identical to the single-process store…
    assert_eq!(
        std::fs::read_to_string(&single).unwrap(),
        std::fs::read_to_string(&merged).unwrap(),
        "merged store must be byte-identical to the single-process store"
    );
    // …and `campaign diff` agrees with exit 0.
    let out = campaign(&["diff", single.to_str().unwrap(), merged.to_str().unwrap()]);
    assert_code(&out, 0, "diff of equal stores");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 changed"));

    // Inject a metric perturbation: diff must exit 1 and name the cell.
    let text = std::fs::read_to_string(&merged).unwrap();
    let perturbed_text = text.replacen("\"sipr\": ", "\"sipr\": 9", 1);
    assert_ne!(text, perturbed_text, "perturbation must hit a sipr metric");
    let perturbed = dir.path("perturbed.json");
    std::fs::write(&perturbed, perturbed_text).unwrap();
    let out = campaign(&[
        "diff",
        single.to_str().unwrap(),
        perturbed.to_str().unwrap(),
    ]);
    assert_code(&out, 1, "diff of perturbed store");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 changed"));

    // A tolerance big enough to absorb the perturbation restores exit 0.
    let out = campaign(&[
        "diff",
        single.to_str().unwrap(),
        perturbed.to_str().unwrap(),
        "--tol-default",
        "1e12",
    ]);
    assert_code(&out, 0, "diff under a lax tolerance");
}

#[test]
fn cli_errors_exit_2_with_diagnostics() {
    let dir = TempDir::new("errors");
    let cases: &[(&[&str], &str)] = &[
        (
            &["run", "--scenario", "no-such-scenario"],
            "unknown scenario",
        ),
        (&["run", "--filter", "nonsense"], "bad filter"),
        (&["run", "--filter", "notanaxis=3"], "filter axis"),
        (
            &["diff", "/nonexistent/a.json", "/nonexistent/b.json"],
            "no such store",
        ),
        (&["merge", "--out", "/tmp/x.json"], "at least one input"),
        (
            &["shard", "--manifest", "/nonexistent/m.json", "--index", "0"],
            "read",
        ),
        (&["frobnicate"], "unknown command"),
        (&["run", "--threads"], "needs a value"),
        (&["diff", "a.json", "b.json", "--tol", "m"], "bad tolerance"),
        // Flags a subcommand does not read are rejected, not ignored.
        (&["run", "--shards", "2"], "does not apply"),
        (
            &[
                "shard",
                "--manifest",
                "m.json",
                "--index",
                "0",
                "--seed",
                "7",
            ],
            "does not apply",
        ),
        (
            &["diff", "a.json", "b.json", "--threads", "2"],
            "does not apply",
        ),
        // u32 flags must reject out-of-range values, not truncate.
        (
            &["plan", "--shards", "4294967298", "--manifest", "m.json"],
            "small integer",
        ),
        (
            &["shard", "--manifest", "m.json", "--index", "4294967296"],
            "small integer",
        ),
    ];
    for (args, needle) in cases {
        let out = campaign(args);
        assert_code(&out, 2, &format!("{args:?}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr must mention `{needle}`, got: {stderr}"
        );
    }

    // Shard index out of range against a real manifest.
    let manifest = dir.path("manifest.json");
    let out = campaign(&[
        "plan",
        "--scenario",
        SELECT[0],
        "--shards",
        "2",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert_code(&out, 0, "plan for range check");
    let out = campaign(&[
        "shard",
        "--manifest",
        manifest.to_str().unwrap(),
        "--index",
        "7",
    ]);
    assert_code(&out, 2, "out-of-range shard index");
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let out = campaign(&[
        "shard",
        "--manifest",
        manifest.to_str().unwrap(),
        "--index",
        "7",
        "--steal",
        "--leases",
        dir.path("leases").to_str().unwrap(),
    ]);
    assert_code(&out, 2, "out-of-range stealing shard index");
    assert!(String::from_utf8_lossy(&out.stderr).contains("shard index 7 out of range (count 2)"));

    // An unreadable (corrupt) store path diagnoses instead of panicking.
    let corrupt = dir.path("corrupt.json");
    std::fs::write(&corrupt, "{not json").unwrap();
    let out = campaign(&["diff", corrupt.to_str().unwrap(), corrupt.to_str().unwrap()]);
    assert_code(&out, 2, "corrupt store");
}

#[test]
fn a_closed_stderr_pipe_keeps_the_exit_code() {
    let cases: &[(&[&str], i32)] = &[
        (&["run", "--bogus"], 2),
        (
            &[
                "run",
                "--scenario",
                "pipeline-domino",
                "--quiet",
                "--progress",
            ],
            0,
        ),
    ];
    for &(args, code) in cases {
        // The read end is gone before the spawn, so every stderr write
        // meets a broken pipe: no race with a reader closing.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(writer)
            .status()
            .expect("campaign binary must spawn");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
}

#[test]
fn cli_plan_over_more_shards_than_chunks_lists_only_leased_shards() {
    // Nothing in planning may allocate per shard.
    let dir = TempDir::new("huge");
    let out = campaign(&[
        "plan",
        "--scenario",
        SELECT[0],
        "--shards",
        "4294967295",
        "--manifest",
        dir.path("manifest.json").to_str().unwrap(),
    ]);
    assert_code(&out, 0, "plan over u32::MAX shards");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("  shard ")).count(),
        4
    );
    assert!(
        stdout.contains("4294967291 shards with an empty lease"),
        "{stdout}"
    );
}

#[test]
fn cli_merge_rejects_conflicting_shards() {
    let dir = TempDir::new("conflict");
    let registry = Registry::builtin();
    let manifest = dist::plan(&registry, &select(), &[], 42, 2, 1).unwrap();
    let mut a = ResultStore::new();
    dist::run_shard(&registry, &manifest, 0, 2, &mut a).unwrap();
    // Same fingerprints, one conflicting result: rebuild the store
    // with the first cell's first metric nudged.
    let mut b = ResultStore::new();
    for (i, (_, cell)) in a.iter().enumerate() {
        let mut result = cell.result.clone();
        if i == 0 {
            result.metrics[0].1 += 1.0;
        }
        let params = Params::new(
            cell.params_key
                .split(',')
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap();
                    (k.to_string(), v.to_string())
                })
                .collect(),
        );
        b.insert(&cell.scenario, cell.version, &params, cell.seed, result);
    }
    let pa = dir.path("a.json");
    let pb = dir.path("b.json");
    a.save(&pa).unwrap();
    b.save(&pb).unwrap();
    let out = campaign(&[
        "merge",
        "--out",
        dir.path("out.json").to_str().unwrap(),
        pa.to_str().unwrap(),
        pb.to_str().unwrap(),
    ]);
    assert_code(&out, 2, "conflicting merge");
    assert!(String::from_utf8_lossy(&out.stderr).contains("determinism violation"));
}

#[test]
fn cli_replicated_steal_campaign_merges_byte_identical() {
    // The replicate acceptance check as real OS processes: a
    // 3-shard stealing campaign over `--replicates 16` merges (with
    // the merge-side fold) to the byte-identical store of a
    // single-process `run --replicates 16`.
    let dir = TempDir::new("replicated-steal");
    let manifest = dir.path("manifest.json");
    let single = dir.path("single.json");
    let merged = dir.path("merged.json");
    let m = manifest.to_str().unwrap();

    let out = campaign(&[
        "run",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--replicates",
        "16",
        "--quiet",
        "--store",
        single.to_str().unwrap(),
    ]);
    assert_code(&out, 0, "single-process replicated run");

    let out = campaign(&[
        "plan",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--replicates",
        "16",
        "--shards",
        "3",
        "--manifest",
        m,
    ]);
    assert_code(&out, 0, "replicated plan");

    let mut shard_paths = Vec::new();
    let mut workers = Vec::new();
    for index in 0..3 {
        let store = dir.path(&format!("shard{index}.json"));
        workers.push(
            Command::new(env!("CARGO_BIN_EXE_campaign"))
                .args([
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
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("shard worker must spawn"),
        );
        shard_paths.push(store);
    }
    for mut worker in workers {
        assert!(worker.wait().unwrap().success(), "shard worker failed");
    }

    let mut merge_args = vec!["merge", "--out", merged.to_str().unwrap(), "--manifest", m];
    let shard_strs: Vec<&str> = shard_paths.iter().map(|p| p.to_str().unwrap()).collect();
    merge_args.extend(&shard_strs);
    let out = campaign(&merge_args);
    assert_code(&out, 0, "replicated merge");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("replicate groups folded"),
        "merge summary must report the fold"
    );

    assert_eq!(
        std::fs::read_to_string(&single).unwrap(),
        std::fs::read_to_string(&merged).unwrap(),
        "stolen replicated merge must be byte-identical to one process"
    );

    // The folded store gates under --sigmas: identical stores diff
    // empty, and a generous sigma band admits nothing extra.
    let out = campaign(&[
        "diff",
        single.to_str().unwrap(),
        merged.to_str().unwrap(),
        "--sigmas",
        "3",
    ]);
    assert_code(&out, 0, "sigma diff of equal stores");
}
