//! Crash-resume contract of a stored campaign, exercised through the
//! `campaign` binary as a real OS process: a plain `campaign run
//! --store S` child is SIGKILLed mid-campaign and the identical command
//! is run again. The rerun must replay the interrupted work from the
//! journal instead of recomputing it, and leave a store byte-identical
//! to an uninterrupted run's. A store has one writer at a time: a
//! second stored run on a store a live run holds exits 2 and touches
//! nothing, and `merge --out` checkpoints its output, so no journal of
//! the output's former self survives to be replayed. `gc` folds a
//! journal into the store before collecting (a dry run writes
//! nothing).

use harness::store::{journal_path, lock_path, ResultStore};
use harness::Journal;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

const SELECT: [&str; 2] = ["pipeline-domino", "dram-refresh"];
/// Matched cells of the two selected scenarios (4 + 4).
const TOTAL_CELLS: usize = 8;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("harness-resume-{tag}-{}", std::process::id()));
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

fn campaign_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(args);
    cmd
}

/// Complete (newline-terminated) lines of the journal beside `store`.
fn journal_lines(store: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(journal_path(store)).unwrap_or_default();
    let complete = text.rfind('\n').map_or("", |end| &text[..end]);
    complete.lines().map(str::to_string).collect()
}

fn run_ok(args: &[&str]) -> String {
    let out = campaign_cmd(args).output().expect("campaign must spawn");
    assert!(
        out.status.success(),
        "{args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sigkilled_campaign_resumes_from_the_journal_byte_identically() {
    let dir = TempDir::new("kill");
    let store = dir.path("store.json");
    let store_arg = store.to_str().unwrap();
    let journal = journal_path(&store);

    // One command, with no persistence flags, for the killed run and
    // the rerun alike.
    let args = [
        "run",
        "--scenario",
        SELECT[0],
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--quiet",
        "--threads",
        "1",
        "--store",
        store_arg,
    ];
    // One slow worker thread (150 ms per cell via the executor's test
    // hook), so the journal grows cell by cell while we watch.
    let mut child = campaign_cmd(&args)
        .env("CAMPAIGN_CELL_DELAY_MS", "150")
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("campaign child must spawn");

    // Wait until at least two cells hit the journal, then SIGKILL.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        // Count only newline-terminated (complete) journal lines.
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.matches('\n').count())
            .unwrap_or(0);
        if lines >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "journal never reached 2 cells (child status: {:?})",
            child.try_wait()
        );
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "campaign finished before it could be killed — raise the cell delay"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap the killed child");

    // The kill raced the journal writer: no checkpoint exists yet, and
    // the journal holds the completed prefix (a torn tail is fine —
    // replay ignores it).
    assert!(!store.exists(), "no checkpoint must exist before resume");
    let partial = ResultStore::load_required(&store).unwrap();
    let replayed = partial.replayed;
    assert_eq!(partial.store.len(), replayed, "journal is the only state");
    assert!(
        (2..TOTAL_CELLS).contains(&replayed),
        "the kill must land mid-campaign (replayed {replayed})"
    );

    // `convert` folds the journal into its output, so the journaled
    // cells survive a format change; the source is left as it was.
    let converted = dir.path("partial.bin");
    run_ok(&[
        "convert",
        "--store",
        store_arg,
        "--to",
        "bin",
        "--out",
        converted.to_str().unwrap(),
    ]);
    assert_eq!(ResultStore::load(&converted).unwrap().len(), replayed);
    // `merge` reads an input store the same way, writing only --out.
    let merged = dir.path("partial-merged.json");
    run_ok(&["merge", "--out", merged.to_str().unwrap(), store_arg]);
    assert_eq!(ResultStore::load(&merged).unwrap().len(), replayed);
    assert!(
        !store.exists() && journal.exists(),
        "convert and merge left the source alone"
    );

    // The same command again: only the remaining cells may execute;
    // the journaled ones come back memoized.
    let stdout = run_ok(&args);
    let note = format!("{replayed} journal cells replayed");
    assert!(stdout.contains(&note), "want: {note}\ngot: {stdout}");
    let summary = format!(
        "{TOTAL_CELLS} cells: {} executed, {replayed} memoized (seed 42)",
        TOTAL_CELLS - replayed
    );
    assert!(
        stdout.contains(&summary),
        "executed + journal-replayed must equal the full matrix;\nwant: {summary}\ngot: {stdout}"
    );
    assert!(
        !journal.exists(),
        "the final checkpoint must compact the journal away"
    );

    // Byte-identity with an uninterrupted run of the same campaign.
    let reference = dir.path("reference.json");
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
        reference.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&store).unwrap(),
        std::fs::read(&reference).unwrap(),
        "resumed store must be byte-identical to an uninterrupted run's"
    );
}

#[test]
fn resume_without_prior_state_runs_the_full_campaign() {
    let dir = TempDir::new("fresh");
    let store = dir.path("store.json");
    let stdout = run_ok(&[
        "run",
        "--scenario",
        SELECT[0],
        "--seed",
        "7",
        "--quiet",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(
        stdout.contains("4 cells: 4 executed, 0 memoized (seed 7)"),
        "got: {stdout}"
    );
    assert!(!stdout.contains("replayed"), "nothing to replay: {stdout}");
    assert!(store.exists());
    assert!(!journal_path(&store).exists());
}

#[test]
fn retired_persistence_flags_are_unknown() {
    for args in [
        &["run", "--resume"] as &[&str],
        &["run", "--checkpoint-every", "4"],
        &["shard", "--resume"],
        &["serve", "--checkpoint-every", "4"],
        &["gc", "--compact-journal"],
        &["plan", "--calibrate", "s.json"],
        &["run", "--telemetry"],
        &["shard", "--telemetry"],
        &["gc", "--max-age-days", "30"],
        &["run", "--compact-journal-over", "2"],
        &["shard", "--compact-journal-over", "2"],
        &["serve", "--compact-journal-over", "2"],
        &["gc", "--max-cells", "5"],
    ] {
        let out = campaign_cmd(args).output().expect("campaign must spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{}`", args[1])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_second_writer_is_refused_while_the_first_keeps_its_cells() {
    let dir = TempDir::new("writers");
    let store = dir.path("store.json");
    let store_arg = store.to_str().unwrap();
    let first_args = [
        "run",
        "--scenario",
        SELECT[0],
        "--seed",
        "42",
        "--quiet",
        "--threads",
        "1",
        "--store",
        store_arg,
    ];
    let mut first = campaign_cmd(&first_args)
        .env("CAMPAIGN_CELL_DELAY_MS", "300")
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("campaign child must spawn");
    let deadline = Instant::now() + Duration::from_secs(60);
    while journal_lines(&store).is_empty() {
        assert!(
            Instant::now() < deadline,
            "the first run never journaled a cell"
        );
        assert!(
            first.try_wait().expect("try_wait").is_none(),
            "the first run finished before the second could start — raise the cell delay"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A second stored run on the same store, over other cells.
    let before = journal_lines(&store);
    let second = campaign_cmd(&[
        "run",
        "--scenario",
        SELECT[1],
        "--seed",
        "42",
        "--quiet",
        "--store",
        store_arg,
    ])
    .output()
    .expect("campaign must spawn");
    assert!(
        first.try_wait().expect("try_wait").is_none(),
        "the first run finished before the second was refused — raise the cell delay"
    );
    assert_eq!(
        second.status.code(),
        Some(2),
        "the second writer must refuse"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(stderr.contains("`campaign run`"), "{stderr}");
    assert!(stderr.contains(&format!("pid {}", first.id())), "{stderr}");
    assert!(stderr.contains("shutdown"), "{stderr}");
    // Untouched: no checkpoint yet, and the journal holds only the
    // first run's own cells, of which the refused run dropped none.
    assert!(!store.exists(), "the refused run wrote a checkpoint");
    let after = journal_lines(&store);
    assert_eq!(after[..before.len()], before[..]);
    assert!(
        after.iter().all(|line| line.contains(SELECT[0])),
        "a foreign cell reached the journal: {after:?}"
    );

    let status = first.wait().expect("wait for the first run");
    assert!(status.success(), "the first run failed: {status}");
    assert!(!lock_path(&store).exists() && !journal_path(&store).exists());
    assert_eq!(ResultStore::load(&store).unwrap().len(), 4);
    let rerun = run_ok(&first_args);
    assert!(
        rerun.contains("4 cells: 0 executed, 4 memoized"),
        "the first run's cells must all be stored: {rerun}"
    );
}

#[test]
fn merge_out_checkpoints_its_output_and_may_read_it_as_an_input() {
    let dir = TempDir::new("merge-out");
    let path = |name: &str| dir.path(name).to_str().unwrap().to_string();
    let run = |scenario: &str, store: &str| {
        run_ok(&[
            "run",
            "--scenario",
            scenario,
            "--seed",
            "42",
            "--quiet",
            "--store",
            store,
        ])
    };
    run(SELECT[0], &path("a.json"));
    run(SELECT[1], &path("b.json"));

    // A killed earlier run left a journal of two `b` cells beside the
    // output, which the merge replaces.
    let out = dir.path("s.json");
    let mut journal = Journal::open(&out, 1).unwrap();
    for (fp, cell) in ResultStore::load(&dir.path("b.json"))
        .unwrap()
        .iter()
        .take(2)
    {
        journal.append(fp, cell);
    }
    journal.finish().unwrap();
    run_ok(&["merge", "--out", &path("s.json"), &path("a.json")]);
    assert!(
        !journal_path(&out).exists(),
        "merge --out left its output's former journal behind"
    );
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(dir.path("a.json")).unwrap()
    );
    let rerun = run(SELECT[0], &path("s.json"));
    assert!(!rerun.contains("replayed"), "{rerun}");
    assert!(rerun.contains("4 cells: 0 executed, 4 memoized"), "{rerun}");
    assert_eq!(ResultStore::load(&out).unwrap().len(), 4);

    // The output may be one of the inputs: the union lands in it.
    run_ok(&[
        "merge",
        "--out",
        &path("a.json"),
        &path("a.json"),
        &path("b.json"),
    ]);
    let mut both = vec!["run", "--seed", "42", "--quiet", "--store"];
    let reference = path("both.json");
    both.push(&reference);
    for scenario in SELECT {
        both.extend(["--scenario", scenario]);
    }
    run_ok(&both);
    assert_eq!(
        std::fs::read(dir.path("a.json")).unwrap(),
        std::fs::read(dir.path("both.json")).unwrap()
    );
    assert!(!lock_path(&dir.path("a.json")).exists());
}

/// Runs the reference 2-scenario campaign into `store`.
fn run_reference(store: &std::path::Path) {
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
fn gc_folds_the_journal_before_collecting() {
    let dir = TempDir::new("journaled");
    let store_path = dir.path("store.json");
    run_reference(&store_path);
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
    let out = campaign_cmd(&["gc", "--store", old.to_str().unwrap()])
        .output()
        .expect("campaign must spawn");
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
