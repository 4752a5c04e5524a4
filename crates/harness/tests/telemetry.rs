//! The telemetry-sidecar contract through the `campaign` binary.
//!
//! The invariants pinned here:
//!
//! * **Determinism** — a campaign run with `--telemetry` writes a
//!   `store.json` byte-identical to a run without it (wall clock lives
//!   only in the sidecar, never in the store).
//! * **Lifecycle** — `gc --max-age-days` evicts from the sidecar's
//!   access log (no entry = oldest), and gc folds a journal sidecar
//!   into the store before collecting (a dry run writes nothing).
//! * **Reporting** — `merge --report` names every planned chunk exactly
//!   once with its winning shard, and joins each input's sidecar into
//!   the realized wall-clock balance.

use harness::store::{journal_path, Journal, ResultStore};
use harness::telemetry::{telemetry_path, Telemetry};
use std::path::PathBuf;
use std::process::Command;

const SELECT: [&str; 2] = ["pipeline-domino", "dram-refresh"];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("harness-telemcli-{tag}-{}", std::process::id()));
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

fn campaign(args: &[&str], delay_ms: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(args);
    match delay_ms {
        Some(ms) => cmd.env("CAMPAIGN_CELL_DELAY_MS", ms),
        None => cmd.env_remove("CAMPAIGN_CELL_DELAY_MS"),
    };
    cmd.output().expect("campaign must spawn")
}

fn run_ok(args: &[&str]) -> String {
    let out = campaign(args, None);
    assert!(
        out.status.success(),
        "{args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs the reference 2-scenario campaign into `store`.
fn run_reference(store: &std::path::Path, telemetry: bool) {
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
    ];
    let store = store.to_str().unwrap().to_string();
    args.push(&store);
    if telemetry {
        args.push("--telemetry");
    }
    run_ok(&args);
}

#[test]
fn telemetry_sidecar_leaves_the_store_byte_identical() {
    let dir = TempDir::new("golden");
    let plain = dir.path("plain.json");
    let timed = dir.path("timed.json");
    run_reference(&plain, false);
    run_reference(&timed, true);
    assert!(
        !telemetry_path(&plain).exists(),
        "no sidecar without --telemetry"
    );
    assert_eq!(
        std::fs::read_to_string(&plain).unwrap(),
        std::fs::read_to_string(&timed).unwrap(),
        "telemetry must not change a single store byte"
    );

    // The sidecar recorded a fresh execution (with a duration) for
    // every cell of the campaign.
    let store = ResultStore::load(&timed).unwrap();
    let sidecar = Telemetry::load_for_store(&timed).unwrap();
    assert_eq!(sidecar.executed_cells(), store.len());
    assert!(sidecar.total_wall_ns() > 0.0);
    for (fp, _) in store.iter() {
        let entry = sidecar.get(fp).expect("every cell has telemetry");
        assert_eq!(entry.runs, 1);
        assert!(entry.last_hit_ms > 0);
    }

    // A fully memoized re-run appends hit events (runs stay 1, the
    // access log grows) and still leaves the store bytes alone.
    run_reference(&timed, true);
    assert_eq!(
        std::fs::read_to_string(&plain).unwrap(),
        std::fs::read_to_string(&timed).unwrap()
    );
    let again = Telemetry::load_for_store(&timed).unwrap();
    assert_eq!(again.len(), sidecar.len());
    for (fp, entry) in again.iter() {
        assert_eq!(entry.runs, 1, "memoized hits are accesses, not runs");
        assert!(entry.last_hit_ms >= sidecar.get(fp).unwrap().last_hit_ms);
    }
}

#[test]
fn gc_max_age_days_evicts_from_the_access_log() {
    let dir = TempDir::new("age");
    // A store with a telemetry sidecar: everything was hit just now, so
    // a 1-day horizon keeps every cell.
    let tracked = dir.path("tracked.json");
    run_reference(&tracked, true);
    let cells = ResultStore::load(&tracked).unwrap().len();
    let stdout = run_ok(&[
        "gc",
        "--store",
        tracked.to_str().unwrap(),
        "--max-age-days",
        "1",
    ]);
    assert!(
        stdout.contains(&format!("gc: {cells} kept, 0 dropped")),
        "got: {stdout}"
    );
    assert_eq!(ResultStore::load(&tracked).unwrap().len(), cells);

    // A store with *no* sidecar: every cell counts as oldest, so the
    // same horizon evicts them all — and --dry-run only reports it.
    let untracked = dir.path("untracked.json");
    run_reference(&untracked, false);
    let stdout = run_ok(&[
        "gc",
        "--store",
        untracked.to_str().unwrap(),
        "--max-age-days",
        "1",
        "--dry-run",
    ]);
    assert!(
        stdout.contains("no telemetry access record"),
        "got: {stdout}"
    );
    assert!(
        stdout.contains(&format!("gc (dry run): 0 kept, {cells} dropped")),
        "got: {stdout}"
    );
    assert_eq!(ResultStore::load(&untracked).unwrap().len(), cells);
    run_ok(&[
        "gc",
        "--store",
        untracked.to_str().unwrap(),
        "--max-age-days",
        "1",
        "--quiet",
    ]);
    assert_eq!(ResultStore::load(&untracked).unwrap().len(), 0);
}

#[test]
fn gc_folds_the_journal_before_collecting() {
    let dir = TempDir::new("journaled");
    let store_path = dir.path("store.json");
    run_reference(&store_path, false);
    // Fabricate what a SIGKILL'd stored run leaves behind: one cell
    // lives only in the journal.
    let mut store = ResultStore::load(&store_path).unwrap();
    let cells = store.len();
    let (victim_fp, victim) = {
        let (fp, cell) = store.iter().next().unwrap();
        (fp.to_string(), cell.clone())
    };
    store.remove(&victim_fp).unwrap();
    store.save(&store_path).unwrap();
    let mut journal = Journal::open(&store_path, 1).unwrap();
    journal.append(&victim_fp, &victim);
    journal.finish().unwrap();
    let journal_bytes = std::fs::read(journal_path(&store_path)).unwrap();

    // A dry run reports over the store + journal union but writes
    // nothing: store bytes and journal both survive.
    let store_bytes = std::fs::read(&store_path).unwrap();
    let stdout = run_ok(&["gc", "--store", store_path.to_str().unwrap(), "--dry-run"]);
    assert!(stdout.contains("1 journal cells replayed"), "got: {stdout}");
    assert!(
        stdout.contains(&format!("gc (dry run): {cells} kept")),
        "the dry-run report must cover the journal cell too: {stdout}"
    );
    assert_eq!(
        std::fs::read(journal_path(&store_path)).unwrap(),
        journal_bytes,
        "a dry run must not fold the journal"
    );
    assert_eq!(std::fs::read(&store_path).unwrap(), store_bytes);

    // A real run folds the pair and collects over the union: the
    // journaled cell survives in the rewritten store, and the journal
    // is gone, so no later open can replay an evicted cell back.
    let stdout = run_ok(&["gc", "--store", store_path.to_str().unwrap()]);
    assert!(stdout.contains("1 journal cells replayed"), "got: {stdout}");
    assert!(!journal_path(&store_path).exists());
    let after = ResultStore::load(&store_path).unwrap();
    assert_eq!(after.len(), cells);
    assert_eq!(after.get_by_fingerprint(&victim_fp), Some(&victim));

    // A run killed before its first checkpoint leaves only a journal;
    // gc folds it into a fresh checkpoint.
    let journal_only = dir.path("journal-only.json");
    let mut journal = Journal::open(&journal_only, 1).unwrap();
    journal.append(&victim_fp, &victim);
    journal.finish().unwrap();
    run_ok(&["gc", "--store", journal_only.to_str().unwrap(), "--quiet"]);
    assert!(!journal_path(&journal_only).exists());
    let folded = ResultStore::load(&journal_only).unwrap();
    assert_eq!(folded.get_by_fingerprint(&victim_fp), Some(&victim));

    // An old-schema checkpoint with a journal must refuse the fold:
    // open_resumable would load it empty, and checkpointing that would
    // destroy the cells before gc could report them as schema drops.
    let old = dir.path("old.json");
    std::fs::write(
        &old,
        "{\n  \"schema\": 1,\n  \"cells\": {\n    \"00aa00aa00aa00aa\": {\"scenario\": \"s\", \
         \"version\": 1, \"params\": \"n=1\", \"seed\": \"0000000000000001\", \"metrics\": \
         {\"m\": 1}}\n  }\n}\n",
    )
    .unwrap();
    std::fs::write(journal_path(&old), "").unwrap();
    let out = campaign(&["gc", "--store", old.to_str().unwrap()], None);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema 1") && stderr.contains("remove the journal"),
        "got: {stderr}"
    );
    // Nothing was destroyed: the old store still holds its cell.
    assert!(std::fs::read_to_string(&old)
        .unwrap()
        .contains("00aa00aa00aa00aa"));
}

#[test]
fn gc_prunes_the_telemetry_sidecar_with_the_store() {
    let dir = TempDir::new("prune");
    let store_path = dir.path("store.json");
    run_reference(&store_path, true);
    let cells = ResultStore::load(&store_path).unwrap().len();
    // Plant a telemetry entry for a fingerprint the store never had:
    // eviction must drop the store's orphans *and* the sidecar's.
    let sidecar = telemetry_path(&store_path);
    let mut telemetry = Telemetry::load(&sidecar).unwrap();
    assert_eq!(telemetry.len(), cells);
    // Evict down to 1 cell; the sidecar shrinks with the store.
    run_ok(&[
        "gc",
        "--store",
        store_path.to_str().unwrap(),
        "--max-cells",
        "1",
        "--quiet",
    ]);
    let kept = ResultStore::load(&store_path).unwrap();
    assert_eq!(kept.len(), 1);
    telemetry = Telemetry::load(&sidecar).unwrap();
    assert_eq!(telemetry.len(), 1);
    let survivor = kept.iter().next().unwrap().0;
    assert!(telemetry.get(survivor).is_some());
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
    // fully deterministic steal pattern.
    let stores: Vec<PathBuf> = (0..2)
        .map(|i| {
            let store = dir.path(&format!("shard{i}.json"));
            run_ok(&[
                "shard",
                "--manifest",
                m,
                "--index",
                &i.to_string(),
                "--steal",
                "--quiet",
                "--telemetry",
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
    // with a winning shard; the wall-clock balance covers every input.
    let manifest = harness::dist::Manifest::load(&manifest_path).unwrap();
    let registry = harness::dist::registry_for(&manifest);
    let chunks = harness::dist::chunk_map(&registry, &manifest).unwrap();
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
    // Both inputs ran with --telemetry, so both report measured wall.
    assert_eq!(stdout.matches(", wall ").count(), 2, "got:\n{stdout}");

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
    run_reference(&single, false);
    assert_eq!(
        std::fs::read_to_string(&single).unwrap(),
        std::fs::read_to_string(&merged).unwrap()
    );

    // --report without a lease directory fails loudly (exit 2), and
    // --leases without --report is rejected as a usage error.
    std::fs::remove_dir_all(harness::dist::LeaseDir::for_manifest(&manifest_path)).unwrap();
    let out = campaign(
        &[
            "merge",
            "--out",
            merged.to_str().unwrap(),
            "--manifest",
            m,
            "--report",
            stores[0].to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no lease directory"),
        "got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = campaign(
        &[
            "merge",
            "--out",
            merged.to_str().unwrap(),
            "--leases",
            "x",
            stores[0].to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(2));
}
