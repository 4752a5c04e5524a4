//! Contract of the `gen` subsystem: corpus determinism (the same
//! identity materializes byte-identical programs in any process),
//! golden shard equivalence on a gen-backed scenario, corpus-drift
//! detection from manifests, named registry-drift reporting, and the
//! `gen` / `gc` subcommands of the campaign CLI.

use harness::dist::{self, merge_stores, Tolerances};
use harness::exec::{run_campaign, ExecConfig};
use harness::gen::{Corpus, GenOptions};
use harness::matrix::Filter;
use harness::registry::Registry;
use harness::scenario::{CellResult, Params};
use harness::store::ResultStore;
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 42;

fn gen_registry() -> Registry {
    Registry::builtin_with(&GenOptions {
        corpus_size: 2,
        corpus_seed: SEED,
    })
}

fn gen_select() -> Vec<String> {
    vec!["gen/pipeline".to_string()]
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("harness-gen-{tag}-{}", std::process::id()));
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
fn corpus_is_byte_identical_for_equal_identity() {
    // The satellite acceptance: same seed + config ⇒ byte-identical
    // kernel disassembly and digest, across independently built
    // corpora (as two shard processes would build them).
    let a = Corpus { seed: 7, size: 3 };
    let b = Corpus { seed: 7, size: 3 };
    assert_eq!(a.digest(), b.digest());
    for shape in Corpus::shapes() {
        for index in 0..3 {
            let (ka, kb) = (a.kernel(shape, index), b.kernel(shape, index));
            assert_eq!(
                tinyisa::codegen::canonical_source(&ka),
                tinyisa::codegen::canonical_source(&kb),
                "{shape:?}/{index}"
            );
            assert_eq!(
                tinyisa::codegen::kernel_digest(&ka),
                tinyisa::codegen::kernel_digest(&kb)
            );
        }
    }
    assert_ne!(Corpus { seed: 8, size: 3 }.digest(), a.digest());
}

#[test]
fn gen_shard_equivalence_is_byte_identical() {
    // The tentpole acceptance: a gen-backed campaign merged from 2
    // shards is byte-identical to the 1-process store.
    let registry = gen_registry();
    let mut single = ResultStore::new();
    run_campaign(
        &registry,
        &gen_select(),
        &Filter::all(),
        &ExecConfig {
            threads: 2,
            seed: SEED,
            ..ExecConfig::default()
        },
        &mut single,
    )
    .unwrap();

    let manifest = dist::plan(&registry, &gen_select(), &[], SEED, 2, 1).unwrap();
    assert!(
        manifest.corpus.is_some(),
        "gen campaigns must record the corpus identity"
    );
    let mut shard_stores = Vec::new();
    for index in 0..2 {
        // Workers rebuild the registry from the manifest, exactly like
        // the CLI worker does.
        let worker_registry = dist::registry_for(&manifest);
        let mut store = ResultStore::new();
        dist::run_shard(&worker_registry, &manifest, index, 2, &mut store).unwrap();
        shard_stores.push(store);
    }
    let (fused, stats) = merge_stores(shard_stores, None).unwrap();
    assert_eq!(stats.duplicates, 0);
    dist::merge::verify_coverage(&registry, &manifest, &fused).unwrap();
    assert_eq!(
        fused.to_json().pretty(),
        single.to_json().pretty(),
        "2-shard gen merge must be byte-identical to the single-process store"
    );
    assert!(dist::diff_stores(&single, &fused, &Tolerances::exact()).is_empty());
}

#[test]
fn gen_cells_report_template_ratio() {
    // Acceptance: every gen cell's metrics include the worst/best
    // predictability ratio computed through core::template's quality
    // machinery.
    let registry = gen_registry();
    let campaign = run_campaign(
        &registry,
        &gen_select(),
        &Filter::all().with("program_index", "0"),
        &ExecConfig {
            threads: 2,
            seed: SEED,
            ..ExecConfig::default()
        },
        &mut ResultStore::new(),
    )
    .unwrap();
    assert!(!campaign.cells.is_empty());
    for cell in &campaign.cells {
        let ratio = cell
            .result
            .metric("ratio")
            .expect("every gen cell reports `ratio`");
        assert!(ratio > 0.0 && ratio <= 1.0, "{}: {ratio}", cell.params);
        assert!(cell.result.metric("sensitivity").is_some());
        assert!(cell.result.metric("quality").is_some());
    }
}

#[test]
fn corpus_drift_is_detected_and_named() {
    let registry = gen_registry();
    let mut manifest = dist::plan(&registry, &gen_select(), &[], SEED, 2, 1).unwrap();
    manifest.corpus.as_mut().unwrap().digest = "0000000000000000".to_string();
    let err = dist::run_shard(
        &dist::registry_for(&manifest),
        &manifest,
        0,
        1,
        &mut ResultStore::new(),
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("corpus drift"), "{message}");
}

#[test]
fn registry_drift_names_the_drifted_scenario() {
    let registry = gen_registry();
    let select = vec!["pipeline-domino".to_string(), "dram-refresh".to_string()];
    let mut manifest = dist::plan(&registry, &select, &[], SEED, 2, 1).unwrap();
    let entry = manifest
        .per_scenario
        .iter_mut()
        .find(|s| s.id == "dram-refresh")
        .unwrap();
    entry.digest = "ffffffffffffffff".to_string();
    let err = dist::run_shard(&registry, &manifest, 0, 1, &mut ResultStore::new()).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("dram-refresh") && !message.contains("pipeline-domino"),
        "drift must name exactly the drifted scenario: {message}"
    );
}

// ---- CLI ----

#[test]
fn cli_gen_lists_and_disassembles_the_corpus() {
    let out = campaign(&["gen", "--seed", "42", "--corpus-size", "2"]);
    assert_code(&out, 0, "gen listing");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("corpus seed 42"), "{text}");
    assert!(text.contains("program_index=1"));
    // Two invocations render byte-identically (corpus determinism at
    // the process level).
    let again = campaign(&["gen", "--seed", "42", "--corpus-size", "2"]);
    assert_eq!(out.stdout, again.stdout);
    // A different seed is a different population.
    let other = campaign(&["gen", "--seed", "43", "--corpus-size", "2"]);
    assert_ne!(out.stdout, other.stdout);

    let dis = campaign(&[
        "gen",
        "--seed",
        "42",
        "--filter",
        "depth=2",
        "--filter",
        "stmts=3",
        "--filter",
        "loop_iters=4",
        "--filter",
        "program_index=0",
        "--disasm",
    ]);
    assert_code(&dis, 0, "gen --disasm");
    let text = String::from_utf8_lossy(&dis.stdout).to_string();
    assert!(text.contains(".func generated"), "{text}");
    assert!(text.contains("halt"), "{text}");

    // A typo'd filter axis is rejected, not vacuously matched.
    let out = campaign(&["gen", "--filter", "dept=2"]);
    assert_code(&out, 2, "gen with unknown filter axis");
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a corpus axis"));
}

#[test]
fn cli_gen_backed_scenarios_are_listed() {
    let out = campaign(&["list"]);
    assert_code(&out, 0, "list");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for id in ["gen/pipeline", "gen/cache", "gen/wcet"] {
        assert!(text.contains(id), "listing must show {id}");
    }
    assert!(text.contains("program_index="));
}

#[test]
fn cli_gc_drops_stale_cells_and_respects_dry_run() {
    let dir = TempDir::new("gc");
    let store_path = dir.path("store.json");

    // A store holding one current cell and two stale ones.
    let registry = Registry::builtin();
    let current_version = registry.get("pipeline-domino").unwrap().spec().version;
    let mut store = ResultStore::new();
    let p = Params::new(vec![("n".into(), "1".into())]);
    store.insert(
        "pipeline-domino",
        current_version,
        &p,
        1,
        CellResult::new(vec![("sipr", 0.5)]),
    );
    store.insert(
        "pipeline-domino",
        current_version + 1,
        &p,
        1,
        CellResult::new(vec![("sipr", 0.5)]),
    );
    store.insert(
        "retired-scenario",
        1,
        &p,
        1,
        CellResult::new(vec![("m", 1.0)]),
    );
    store.save(&store_path).unwrap();

    // Dry run: reports 2 drops, leaves the file untouched.
    let before = std::fs::read_to_string(&store_path).unwrap();
    let out = campaign(&["gc", "--store", store_path.to_str().unwrap(), "--dry-run"]);
    assert_code(&out, 0, "gc --dry-run");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("1 kept, 2 dropped"), "{text}");
    assert!(text.contains("retired-scenario"));
    assert!(text.contains("dry run"));
    assert_eq!(std::fs::read_to_string(&store_path).unwrap(), before);

    // Real pass: rewrites the store down to the current cell.
    let out = campaign(&["gc", "--store", store_path.to_str().unwrap()]);
    assert_code(&out, 0, "gc");
    let after = ResultStore::load(&store_path).unwrap();
    assert_eq!(after.len(), 1);
    assert!(String::from_utf8_lossy(&out.stdout).contains("store rewritten"));

    // A second pass is a no-op.
    let out = campaign(&["gc", "--store", store_path.to_str().unwrap()]);
    assert_code(&out, 0, "idempotent gc");
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 kept, 0 dropped"));

    // Missing store errors.
    let out = campaign(&["gc", "--store", "/nonexistent/store.json"]);
    assert_code(&out, 2, "gc on missing store");
}

#[test]
fn cli_gen_sweep_shard_round_trip() {
    // The CI job's shape, in-process: a gen campaign planned into 2
    // shards, run as separate OS processes, merged, and diffed against
    // the single-process run.
    let dir = TempDir::new("sweep");
    let manifest = dir.path("manifest.json");
    let single = dir.path("single.json");
    let merged = dir.path("merged.json");
    let m = manifest.to_str().unwrap();
    let base = [
        "--scenario",
        "gen/pipeline",
        "--filter",
        "depth=2",
        "--seed",
        "42",
        "--corpus-size",
        "2",
    ];

    let mut args = vec!["run", "--quiet", "--store", single.to_str().unwrap()];
    args.extend(base);
    assert_code(&campaign(&args), 0, "single-process gen run");

    let mut args = vec!["plan", "--shards", "2", "--manifest", m, "--quiet"];
    args.extend(base);
    assert_code(&campaign(&args), 0, "gen plan");

    let mut shard_paths = Vec::new();
    for index in 0..2 {
        let store = dir.path(&format!("shard{index}.json"));
        let out = campaign(&[
            "shard",
            "--manifest",
            m,
            "--index",
            &index.to_string(),
            "--quiet",
            "--store",
            store.to_str().unwrap(),
        ]);
        assert_code(&out, 0, &format!("gen shard {index}"));
        shard_paths.push(store);
    }
    let out = campaign(&[
        "merge",
        "--out",
        merged.to_str().unwrap(),
        "--manifest",
        m,
        shard_paths[0].to_str().unwrap(),
        shard_paths[1].to_str().unwrap(),
    ]);
    assert_code(&out, 0, "gen merge");
    assert_eq!(
        std::fs::read_to_string(&single).unwrap(),
        std::fs::read_to_string(&merged).unwrap(),
        "gen merge must be byte-identical to the single-process store"
    );
    let out = campaign(&["diff", single.to_str().unwrap(), merged.to_str().unwrap()]);
    assert_code(&out, 0, "gen diff");
}
