//! Golden-file and determinism contract of the campaign engine.
//!
//! Runs a small two-scenario matrix (the domino machine and DRAM
//! refresh — both fully deterministic) and pins down the engine's three
//! core guarantees: byte-identical JSON under a fixed seed (against a
//! committed golden file), zero re-executed cells on a memoized second
//! run, and thread-count independence.

use harness::exec::{run_campaign, Campaign, ExecConfig};
use harness::matrix::Filter;
use harness::registry::Registry;
use harness::report::campaign_json;
use harness::store::ResultStore;
use std::path::PathBuf;

const SEED: u64 = 42;

fn select() -> Vec<String> {
    vec!["pipeline-domino".to_string(), "dram-refresh".to_string()]
}

fn run(threads: usize, store: &mut ResultStore) -> Campaign {
    run_campaign(
        &Registry::builtin(),
        &select(),
        &Filter::all(),
        &ExecConfig {
            threads,
            seed: SEED,
            ..ExecConfig::default()
        },
        store,
    )
    .expect("campaign must succeed")
}

#[test]
fn json_is_byte_identical_across_runs_and_matches_golden() {
    let first = campaign_json(&run(2, &mut ResultStore::new()));
    let second = campaign_json(&run(2, &mut ResultStore::new()));
    assert_eq!(first, second, "equal campaigns must render to equal bytes");

    let golden_path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "campaign.json",
    ]
    .iter()
    .collect();
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    assert_eq!(
        first, golden,
        "campaign JSON drifted from the committed golden file; if the \
         change is intentional, regenerate tests/golden/campaign.json"
    );
}

#[test]
fn memoized_second_run_executes_zero_cells() {
    let mut store = ResultStore::new();
    let first = run(4, &mut store);
    assert_eq!(first.memoized, 0);
    assert!(first.executed >= 2, "two scenarios expand to several cells");

    // Round-trip the store through disk, as the CLI's --store does.
    let path = std::env::temp_dir().join(format!("harness-golden-{}.json", std::process::id()));
    store.save(&path).expect("store must save");
    let mut reloaded = ResultStore::load(&path).expect("store must load");
    std::fs::remove_file(&path).ok();

    let second = run(4, &mut reloaded);
    assert_eq!(second.executed, 0, "every cell must be memoized");
    assert_eq!(second.memoized, first.cells.len());
    let normalize = |c: &Campaign| {
        c.cells
            .iter()
            .map(|cell| {
                (
                    cell.scenario.clone(),
                    cell.params.key(),
                    cell.seed,
                    cell.result.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        normalize(&first),
        normalize(&second),
        "memoized results must equal computed results"
    );
}

#[test]
fn four_threads_match_single_thread() {
    let single = run(1, &mut ResultStore::new());
    let parallel = run(4, &mut ResultStore::new());
    assert_eq!(single.cells, parallel.cells);
    assert_eq!(campaign_json(&single), campaign_json(&parallel));
}

#[test]
fn merged_shard_stores_reproduce_the_golden_campaign() {
    // Run the golden campaign as 3 isolated shards, merge the stores,
    // then replay the campaign against the merged store: every cell
    // must be memoized and the JSON must still match the golden file.
    let registry = Registry::builtin();
    let manifest = harness::dist::plan(&registry, &select(), &[], SEED, 3, 1).unwrap();
    let mut shard_stores = Vec::new();
    for index in 0..3 {
        let mut store = ResultStore::new();
        harness::dist::run_shard(&registry, &manifest, index, 2, &mut store).unwrap();
        shard_stores.push(store);
    }
    let (mut merged, _) = harness::dist::merge_stores(shard_stores, None).unwrap();

    let replay = run(2, &mut merged);
    assert_eq!(replay.executed, 0, "merged store must memoize every cell");
    let normalize = |c: &Campaign| {
        c.cells
            .iter()
            .map(|cell| {
                (
                    cell.scenario.clone(),
                    cell.params.key(),
                    cell.seed,
                    cell.result.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        normalize(&replay),
        normalize(&run(2, &mut ResultStore::new())),
        "memoized-from-merge cells must equal a fresh run's"
    );
}

#[test]
fn seeded_scenarios_are_thread_independent_too() {
    // A second matrix over scenarios that *do* consume their cell seed
    // (seeded workloads), filtered small to stay fast.
    let select = vec!["dram-controller".to_string(), "bus-arbitration".to_string()];
    let mut campaigns = Vec::new();
    for threads in [1usize, 4] {
        campaigns.push(
            run_campaign(
                &Registry::builtin(),
                &select,
                &Filter::all().with("clients", "2").with("co_masters", "3"),
                &ExecConfig {
                    threads,
                    seed: 7,
                    ..ExecConfig::default()
                },
                &mut ResultStore::new(),
            )
            .expect("campaign must succeed"),
        );
    }
    assert_eq!(campaigns[0].cells, campaigns[1].cells);
    assert!(!campaigns[0].cells.is_empty());
}
