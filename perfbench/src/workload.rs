//! The workloads: what one run executes, times and verifies.
//!
//! Both workloads walk the path a user takes — a cold campaign into an
//! empty store, the fully memoized rerun, the daemon set up over the
//! result, and open-loop query traffic with submitted jobs running
//! beside the reads — over different inputs, so each stresses other
//! layers:
//!
//! * `campaign-cold`: the registry `campaign run --seed S` uses (ten
//!   scenarios plus `gen/*` at corpus size 2, 102 cells). Nearly all
//!   cell time is the evict/fill kernel and one cell sets the makespan,
//!   so the kernel and the executor's schedule decide `campaign_s`; its
//!   ~100-cell store is what real stores hold today.
//! * `gen-sweep`: `gen/{pipeline,cache,wcet}` at corpus size 64 (1536
//!   short cells), journaled cell by cell and checkpointed in the binary
//!   format, then reopened, rerun memoized and saved as JSON. Evict/fill
//!   never runs; the per-cell engine cost and the store's writes and
//!   reads become a real share, and its store is the larger working set
//!   served.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use harness::exec::ResultSink;
use harness::gen::GenOptions;
use harness::json::Json;
use harness::obs::monotonic_ns;
use harness::serve::index::StoreIndex;
use harness::store::{journal_path, StoredCell};
use harness::{
    run_campaign, run_campaign_with, Campaign, CampaignCell, CellDomain, CellResult, ExecConfig,
    ExecHooks, Filter, Journal, Obs, Registry, ResultStore, ServeOptions, Server, StoreFormat,
};

use crate::layers::{self, Recorder, TracedRun};
use crate::loadgen::{self, Conn, Phase, Ramp, Traffic};
use crate::report::{timed, Metric, Percentile, Report};

/// Shares of `--seconds` each phase measures for: the rounds of cold
/// campaign, memoized reruns and set-ups, then the serve phase's `lo`
/// and `hi` steps, then each step of the ramp (a search of about eight
/// steps takes the remaining 15%).
const ROUNDS_SHARE: f64 = 0.7;
const LO_SHARE: f64 = 0.075;
const HI_SHARE: f64 = 0.075;
const RAMP_STEP_SHARE: f64 = 0.02;

/// Within a round, the memoized reruns and the set-ups each repeat for
/// this share of the round's cold wall (at least once).
const SIDE_SHARE: f64 = 0.1;

/// Seeds whose cold `campaign-cold` store is committed as
/// `baselines/campaign-seed{S}.json`: the measured seed and the held-out
/// one.
pub const BASELINE_SEEDS: [u64; 2] = [42, 7];

/// Rounds run whatever the budget (enough for a median), and a cap for
/// campaigns that take milliseconds.
const MIN_REPEATS: usize = 3;
const MAX_REPEATS: usize = 1_000;

/// Repeats of the traced run's index-build timing.
const INDEX_REPEATS: usize = 5;

/// Journal fsync batch of the gen-sweep cold run (the CLI's
/// `--checkpoint-every`, at the daemon's default).
const JOURNAL_BATCH: usize = 16;

/// The scenario the serve phase submits during `hi`, once per second of
/// the phase (seeds S+1, S+2, ...): one job is a single noisy reading.
const SUBMIT_SCENARIO: &str = "gen/pipeline";

/// The end-to-end metrics every run reports, with their units: the
/// ones steady enough from run to run to carry a regression bound. The
/// serve figures swing with contention from outside the process and are
/// reported with the per-layer metrics instead.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("campaign_s", "s"),
        ("resume_s", "s"),
        ("peak_rss_mb", "MiB"),
    ]
    .into_iter()
    .map(|(name, unit)| (name.to_string(), unit))
    .collect()
}

/// What one workload runs. The real workloads come from
/// [`Plan::named`]; the tests shrink them.
#[derive(Debug, Clone)]
pub struct Plan {
    pub name: &'static str,
    /// Scenario ids to run; empty runs the whole registry, like
    /// `campaign run`.
    pub select: Vec<String>,
    /// Generated programs per shape (`--corpus-size`).
    pub corpus_size: u32,
    /// Journal every fresh cell and checkpoint in the binary format.
    pub journal: bool,
    /// Where `campaign-seed{S}.json` baselines are committed, if the cold
    /// store is to be checked against them.
    pub baseline_dir: Option<PathBuf>,
    /// Offered load of the serve phase's `lo` and `hi` steps, req/s.
    pub rates: [f64; 2],
    /// Corpus size of the job submitted during `hi`.
    pub submit_corpus: u32,
    /// Executor threads and client connections: one per core.
    pub threads: usize,
}

impl Plan {
    pub fn named(name: &str) -> Option<Plan> {
        let cold = Plan {
            name: "campaign-cold",
            select: Vec::new(),
            corpus_size: 2,
            journal: false,
            // Found from the package, not from the working directory, so
            // a run started elsewhere still checks the baselines.
            baseline_dir: Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("../baselines")),
            rates: [2_000.0, 20_000.0],
            submit_corpus: 16,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
        };
        match name {
            "campaign-cold" => Some(cold),
            "gen-sweep" => Some(Plan {
                name: "gen-sweep",
                select: ["gen/pipeline", "gen/cache", "gen/wcet"]
                    .map(String::from)
                    .to_vec(),
                corpus_size: 64,
                journal: true,
                baseline_dir: None,
                ..cold
            }),
            _ => None,
        }
    }

    fn config(&self, seed: u64) -> ExecConfig {
        ExecConfig {
            threads: self.threads,
            seed,
            ..ExecConfig::default()
        }
    }

    fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            exec_threads: self.threads,
            quiet: true,
            ..ServeOptions::default()
        }
    }
}

/// What a run measured, and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    pub report: Report,
    /// Cells run or resolved, and requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Verification failures: any entry makes the run incorrect.
    pub mismatches: Vec<String>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs one workload for about `seconds`, in scratch directory `dir`.
/// With `traced`, the traced cold campaign's Chrome trace goes to
/// `trace` and the per-layer metrics are measured too.
pub fn run(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
    trace: &Path,
) -> Result<Outcome, String> {
    let share = |fraction: f64| Duration::from_secs_f64(seconds * fraction);
    let mut out = Outcome::default();
    let options = GenOptions {
        corpus_size: plan.corpus_size,
        corpus_seed: seed,
    };
    let registry = Registry::builtin_with(&options);
    let cold_path = dir.join(if plan.journal {
        "cold.bin"
    } else {
        "cold.json"
    });
    let resumed_path = dir.join("resumed.json");
    let serve_path = dir.join(if plan.journal {
        "serve.bin"
    } else {
        "serve.json"
    });
    let copy = || {
        std::fs::copy(&cold_path, &serve_path)
            .map(drop)
            .map_err(|e| format!("copy {}: {e}", cold_path.display()))
    };

    // Rounds of one cold campaign into an empty store, then memoized
    // reruns and set-ups. Interleaving the three spreads each one's
    // samples over the same stretch of the run, so a slow minute of a
    // shared machine weighs on all of them alike. Traced cold campaigns
    // alternate with untraced ones, so both see the same drift too.
    let (mut walls, mut traced_walls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut resumes, mut setups, mut registry_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Cold> = None;
    let mut expected_json = Vec::new();
    let mut last_traced = None;
    let started = Instant::now();
    while keep_going(walls.len(), started, share(ROUNDS_SHARE)) {
        let (cold, peak_mib) =
            peak_rss_during(|| cold_run(plan, seed, &registry, &cold_path, None))?;
        let cold = cold?;
        release_freed_heap();
        out.attempted += cold.campaign.cells.len() as u64;
        walls.push(cold.wall_s);
        peaks.push(peak_mib);
        if traced {
            let obs = Obs::with_trace(trace).map_err(err)?;
            let recorder = Recorder::new(obs.clone());
            let wrapped = layers::traced_registry(&options, &recorder);
            let traced_cold = cold_run(plan, seed, &wrapped, &cold_path, Some(&obs))?;
            release_freed_heap();
            obs.finish_trace().map_err(err)?;
            same_bytes(
                "traced cold store",
                &cold.bytes,
                &traced_cold.bytes,
                &mut out,
            );
            out.attempted += traced_cold.campaign.cells.len() as u64;
            traced_walls.push(traced_cold.wall_s);
            last_traced = Some((traced_cold, recorder));
        }
        let side = Duration::from_secs_f64(cold.wall_s * SIDE_SHARE);
        match &reference {
            Some(first) => same_bytes("repeated cold store", &first.bytes, &cold.bytes, &mut out),
            None => {
                expected_json = cold.store.to_json().pretty().into_bytes();
                reference = Some(cold);
            }
        }

        // The memoized rerun: reopen from disk, run the same campaign (no
        // cell may execute), save as JSON — byte-identical to the cold
        // store.
        repeat_for(side, || {
            let resumed = resume_run(plan, seed, &registry, &cold_path, &resumed_path, None)?;
            check_resumed(&resumed, &expected_json, &mut out);
            resumes.push(resumed.wall_s);
            Ok(())
        })?;
        // Set-up: the registry with its corpus digest, then the daemon
        // over a fresh copy of the cold store (store open, index build,
        // bind).
        repeat_for(side, || {
            copy()?;
            let (total_s, registry_s) = setup(plan, seed, &serve_path)?;
            setups.push(total_s);
            registry_ms.push(registry_s * 1e3);
            Ok(())
        })?;
    }
    let reference = reference.expect("the rounds run at least once");
    if let Some(baselines) = &plan.baseline_dir {
        match check_baseline(baselines, seed, &reference.bytes) {
            Ok(true) => out.report.note(format!(
                "cold store matches the committed baseline for seed {seed}"
            )),
            Ok(false) => out.report.note(format!(
                "no committed baseline for seed {seed}: cold stores checked against each other"
            )),
            Err(e) => out.mismatches.push(e),
        }
    }

    let resume_obs = Obs::new();
    if traced {
        let resumed = resume_run(
            plan,
            seed,
            &registry,
            &cold_path,
            &resumed_path,
            Some(&resume_obs),
        )?;
        check_resumed(&resumed, &expected_json, &mut out);
    }

    copy()?;
    let served = serve(plan, seed, &serve_path, &share, traced, &mut out)?;

    // The timings are medians over the rounds. The resident-set peak is
    // the smallest: whether two large evict/fill cells overlap is a race
    // between the workers that alone decides between the modes of its
    // distribution.
    let report = &mut out.report;
    for (name, samples) in [
        ("setup_s", &setups),
        ("campaign_s", &walls),
        ("resume_s", &resumes),
    ] {
        report.push(Metric::median(name, "s", samples));
        report.note(format!(
            "{name}: fastest of {} repeats {:.6} s",
            samples.len(),
            Metric::percentile(name, "s", samples, Percentile::MIN).value
        ));
    }
    report.push(Metric::percentile(
        "peak_rss_mb",
        "MiB",
        &peaks,
        Percentile::MIN,
    ));
    for (phase, tag) in [(&served.lo, "lo"), (&served.hi, "hi")] {
        if phase.latency_us.is_empty() {
            return Err(format!("the {tag} phase answered no query"));
        }
        report.push(Metric::median(
            format!("query_p50_us.{tag}"),
            "us",
            &phase.latency_us,
        ));
        report.push(Metric::percentile(
            format!("query_p99_us.{tag}"),
            "us",
            &phase.latency_us,
            Percentile::P99,
        ));
    }
    report.push(Metric::single("serve_max_rps", "req/s", served.ramp.max));
    report.push(Metric::median("submit_s", "s", &served.hi.submit_s));
    report.note(format!(
        "ramp: {} steps, highest rate within the limit {:.0} req/s",
        served.ramp.steps, served.ramp.max
    ));

    if traced {
        let (traced_cold, recorder) =
            last_traced.expect("traced runs alternate with untraced ones");
        layers::campaign_layers(
            &TracedRun {
                recorder: &recorder,
                resume: &resume_obs,
                trace,
                threads: plan.threads,
                wall_s: traced_cold.wall_s,
                exec_ns: traced_cold.exec_ns,
            },
            report,
            &mut out.mismatches,
        )?;
        layers::store_layers(&reference.store, &cold_path, dir, report)?;
        report.push(Metric::median("registry.build_ms", "ms", &registry_ms));
        report.push(Metric::median(
            "serve.index_build_ms",
            "ms",
            &served.index_build_ms,
        ));
        report.push(Metric::single(
            "serve.server_p50_us",
            "us",
            served.server_p50_us,
        ));
        report.push(Metric::single(
            "serve.server_p99_us",
            "us",
            served.server_p99_us,
        ));
        report.push(Metric::single("serve.request_s", "s", served.request_s));
        report.push(Metric::single(
            "serve.submit_cells_per_s",
            "1/s",
            served.submit_cells as f64 / Metric::median("", "s", &served.hi.submit_s).value,
        ));
        let late: Vec<f64> = served
            .lo
            .late_us
            .iter()
            .chain(&served.hi.late_us)
            .copied()
            .collect();
        report.push(Metric::percentile(
            "loadgen.late_p99_us",
            "us",
            &late,
            Percentile::P99,
        ));
        let median = |samples: &[f64]| Metric::median("", "s", samples).value;
        report.push(Metric::single(
            "obs.trace_overhead_ratio",
            "ratio",
            median(&traced_walls) / median(&walls) - 1.0,
        ));
        report.push(Metric::single(
            "fail_ratio",
            "ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        ));
    }
    Ok(out)
}

/// Whether the rounds go on: always until [`MIN_REPEATS`], then while
/// their budget lasts.
fn keep_going(done: usize, started: Instant, budget: Duration) -> bool {
    done < MIN_REPEATS || (done < MAX_REPEATS && started.elapsed() < budget)
}

/// Runs `f` once, then again while `budget` lasts.
fn repeat_for(budget: Duration, mut f: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    loop {
        f()?;
        if started.elapsed() >= budget {
            return Ok(());
        }
    }
}

/// One cold campaign.
struct Cold {
    /// Store open to store persisted, s.
    wall_s: f64,
    /// The executor call's start and end on the monotonic clock, ns.
    exec_ns: (u64, u64),
    campaign: Campaign,
    store: ResultStore,
    /// The checkpoint file as written.
    bytes: Vec<u8>,
}

/// Opens the (absent) store at `path`, runs the plan's campaign into it
/// and persists it: saved as JSON, or — with the plan's journal — every
/// fresh cell appended through [`Journal`] and then checkpointed.
fn cold_run(
    plan: &Plan,
    seed: u64,
    registry: &Registry,
    path: &Path,
    obs: Option<&Obs>,
) -> Result<Cold, String> {
    for stale in [path.to_path_buf(), journal_path(path)] {
        match std::fs::remove_file(&stale) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("rm {}: {e}", stale.display())),
        }
    }
    let started = Instant::now();
    let mut store = ResultStore::open_any(path).map_err(err)?.store;
    let journal = if plan.journal {
        let mut journal = Journal::open(path, JOURNAL_BATCH).map_err(err)?;
        if let Some(obs) = obs {
            journal.observe(obs);
        }
        Some(Mutex::new(journal))
    } else {
        None
    };
    let sink = |fp: &str, cell: &StoredCell| {
        if let Some(journal) = &journal {
            journal
                .lock()
                .expect("journal lock poisoned")
                .append(fp, cell);
        }
    };
    let hooks = ExecHooks {
        on_result: journal.as_ref().map(|_| &sink as ResultSink<'_>),
        obs,
        ..ExecHooks::default()
    };
    let exec_start = monotonic_ns();
    let campaign = run_campaign_with(
        registry,
        &plan.select,
        &Filter::all(),
        &plan.config(seed),
        &mut store,
        CellDomain::All,
        hooks,
    )
    .map_err(err)?;
    let exec_end = monotonic_ns();
    match journal {
        Some(journal) => {
            journal
                .into_inner()
                .expect("journal lock poisoned")
                .finish()
                .map_err(err)?;
            store.checkpoint_observed(path, obs).map_err(err)?;
        }
        None => store.save_observed(path, obs).map_err(err)?,
    }
    let wall_s = started.elapsed().as_secs_f64();
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(Cold {
        wall_s,
        exec_ns: (exec_start, exec_end),
        campaign,
        store,
        bytes,
    })
}

/// One memoized rerun.
struct Resumed {
    wall_s: f64,
    campaign: Campaign,
    /// The JSON store it saved.
    bytes: Vec<u8>,
}

fn resume_run(
    plan: &Plan,
    seed: u64,
    registry: &Registry,
    checkpoint: &Path,
    out: &Path,
    obs: Option<&Obs>,
) -> Result<Resumed, String> {
    let started = Instant::now();
    let mut store = ResultStore::open_any(checkpoint).map_err(err)?.store;
    let campaign = run_campaign_with(
        registry,
        &plan.select,
        &Filter::all(),
        &plan.config(seed),
        &mut store,
        CellDomain::All,
        ExecHooks {
            obs,
            ..ExecHooks::default()
        },
    )
    .map_err(err)?;
    store
        .save_as_observed(out, StoreFormat::Json, obs)
        .map_err(err)?;
    let wall_s = started.elapsed().as_secs_f64();
    let bytes = std::fs::read(out).map_err(|e| format!("read {}: {e}", out.display()))?;
    Ok(Resumed {
        wall_s,
        campaign,
        bytes,
    })
}

fn check_resumed(resumed: &Resumed, expected_json: &[u8], out: &mut Outcome) {
    out.attempted += resumed.campaign.cells.len() as u64;
    if resumed.campaign.executed != 0 {
        out.mismatches.push(format!(
            "the memoized rerun executed {} cells",
            resumed.campaign.executed
        ));
    }
    same_bytes(
        "store saved after the memoized rerun",
        expected_json,
        &resumed.bytes,
        out,
    );
}

/// One set-up: the registry (with its corpus digest), then the daemon
/// over `store`. Returns the total and the registry's share, s.
fn setup(plan: &Plan, seed: u64, store: &Path) -> Result<(f64, f64), String> {
    let started = Instant::now();
    let registry = Registry::builtin_with(&GenOptions {
        corpus_size: plan.corpus_size,
        corpus_seed: seed,
    });
    let registry_s = started.elapsed().as_secs_f64();
    let daemon = Server::bind(store, plan.serve_options(), None).map_err(err)?;
    let total_s = started.elapsed().as_secs_f64();
    std::hint::black_box(&registry);
    daemon.shutdown();
    daemon.wait().map_err(err)?;
    Ok((total_s, registry_s))
}

/// What the serve phase measured.
struct Served {
    lo: Phase,
    hi: Phase,
    ramp: Ramp,
    /// Cells in one submitted job.
    submit_cells: usize,
    server_p50_us: f64,
    server_p99_us: f64,
    request_s: f64,
    index_build_ms: Vec<f64>,
}

/// The daemon over the store at `path`: open-loop traffic at the `lo`
/// and `hi` rates with submits during `hi`, the submitted cells
/// checked against a batch run of the same selection and seed, then the
/// ramp to the highest rate that holds the latency limit.
fn serve(
    plan: &Plan,
    seed: u64,
    path: &Path,
    share: &dyn Fn(f64) -> Duration,
    traced: bool,
    out: &mut Outcome,
) -> Result<Served, String> {
    let store = ResultStore::open_any(path).map_err(err)?.store;
    let traffic = Traffic::over(&store)?;
    let index_build_ms = if traced {
        (0..INDEX_REPEATS)
            .map(|_| {
                let (index, s) = timed(|| StoreIndex::build(&store));
                std::hint::black_box(index);
                s * 1e3
            })
            .collect()
    } else {
        Vec::new()
    };
    let jobs = share(HI_SHARE).as_secs_f64().round().max(1.0) as u64;
    let mut references = Vec::new();
    let mut submits = Vec::new();
    for job in 1..=jobs {
        let job_seed = seed + job;
        references.push(submit_reference(plan, job_seed)?);
        submits.push(loadgen::request(vec![
            ("op", Json::str("submit")),
            ("scenarios", Json::Arr(vec![Json::str(SUBMIT_SCENARIO)])),
            ("seed", Json::Num(job_seed as f64)),
            ("corpus_size", Json::Num(f64::from(plan.submit_corpus))),
        ]));
    }

    let daemon = Server::bind(path, plan.serve_options(), None).map_err(err)?;
    let mut conns = (0..plan.threads)
        .map(|_| Conn::connect(daemon.addr()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let lo = loadgen::open_loop(
        &mut conns,
        &traffic,
        plan.rates[0],
        share(LO_SHARE),
        seed ^ 0x6c6f,
        &[],
    );
    let hi = loadgen::open_loop(
        &mut conns,
        &traffic,
        plan.rates[1],
        share(HI_SHARE),
        seed ^ 0x6869,
        &submits,
    );
    let (server_p50_us, server_p99_us, request_s) = server_latency(&mut conns[0])?;
    for reference in &references {
        verify_submit(&mut conns[0], reference, out)?;
    }
    let ramp = loadgen::ramp(
        &mut conns,
        &traffic,
        plan.rates[1],
        share(RAMP_STEP_SHARE),
        seed ^ 0x7261_6d70,
    );
    drop(conns);
    daemon.shutdown();
    let summary = daemon.wait().map_err(err)?;
    if summary.jobs_done != jobs || hi.submit_s.len() as u64 != jobs {
        out.mismatches.push(format!(
            "{jobs} jobs submitted, the daemon completed {} and reported {} done",
            summary.jobs_done,
            hi.submit_s.len()
        ));
    }
    for (sent, failed, errors) in [
        (lo.sent, lo.failed, &lo.errors),
        (hi.sent, hi.failed, &hi.errors),
        (ramp.sent, ramp.failed, &ramp.errors),
    ] {
        out.attempted += sent;
        out.failed += failed;
        out.mismatches.extend(errors.iter().cloned());
    }
    if hi.submit_s.is_empty() {
        return Err("no submitted job reported done".into());
    }
    Ok(Served {
        lo,
        hi,
        ramp,
        submit_cells: references[0].len(),
        server_p50_us,
        server_p99_us,
        request_s,
        index_build_ms,
    })
}

/// The batch run the submitted job must equal: the same selection, seed
/// and corpus, into an empty store.
fn submit_reference(plan: &Plan, seed: u64) -> Result<Vec<CampaignCell>, String> {
    let registry = Registry::builtin_with(&GenOptions {
        corpus_size: plan.submit_corpus,
        corpus_seed: seed,
    });
    let campaign = run_campaign(
        &registry,
        &[SUBMIT_SCENARIO.to_string()],
        &Filter::all(),
        &plan.config(seed),
        &mut ResultStore::new(),
    )
    .map_err(err)?;
    Ok(campaign.cells)
}

/// The daemon's own view, from its `metrics` op: query p50 and p99 (µs,
/// log-bucketed) and the time spent handling requests of every op (s).
fn server_latency(conn: &mut Conn) -> Result<(f64, f64, f64), String> {
    let response = conn
        .call("{\"op\":\"metrics\"}\n")
        .map_err(|e| format!("metrics: {e}"))?;
    let doc = Json::parse(response.trim())?;
    let Some(Json::Obj(series)) = doc.get("metrics").and_then(|m| m.get("histograms")) else {
        return Err("`metrics` response without histograms".into());
    };
    let field = |h: &Json, key: &str| h.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let query = series
        .iter()
        .find(|(name, _)| name == "harness_serve_request_latency_seconds{op=\"query\"}")
        .map(|(_, h)| h)
        .ok_or("no query latency histogram")?;
    let request_s = series.iter().map(|(_, h)| field(h, "sum_us")).sum::<f64>() / 1e6;
    Ok((field(query, "p50_us"), field(query, "p99_us"), request_s))
}

/// Point-queries every cell of the batch reference from the daemon: each
/// must be served with exactly the reference's metrics.
fn verify_submit(
    conn: &mut Conn,
    reference: &[CampaignCell],
    out: &mut Outcome,
) -> Result<(), String> {
    for cell in reference {
        let query = loadgen::request(vec![
            ("op", Json::str("query")),
            ("scenario", Json::str(&cell.scenario)),
            (
                "params",
                Json::Obj(
                    cell.params
                        .pairs()
                        .iter()
                        .map(|(axis, value)| (axis.clone(), Json::str(value)))
                        .collect(),
                ),
            ),
        ]);
        out.attempted += 1;
        let response = conn
            .call(&query)
            .map_err(|e| format!("query after submit: {e}"))?;
        let doc = Json::parse(response.trim())?;
        let seed = format!("{:016x}", cell.seed);
        let served = doc
            .get("cells")
            .and_then(Json::as_arr)
            .and_then(|cells| {
                cells
                    .iter()
                    .find(|c| c.get("seed").and_then(Json::as_str) == Some(seed.as_str()))
            })
            .and_then(|c| c.get("metrics"));
        if !served.is_some_and(|metrics| same_metrics(metrics, &cell.result)) {
            out.mismatches.push(format!(
                "served {} {} differs from the batch run",
                cell.scenario,
                cell.params.key()
            ));
        }
    }
    Ok(())
}

fn same_metrics(served: &Json, expected: &CellResult) -> bool {
    matches!(served, Json::Obj(members) if members.len() == expected.metrics.len())
        && expected
            .metrics
            .iter()
            .all(|(name, value)| served.get(name).and_then(Json::as_f64) == Some(*value))
}

/// Compares a cold store with `campaign-seed{seed}.json` under `dir`.
/// For a seed of [`BASELINE_SEEDS`] the file must exist; for any other
/// seed a missing file leaves nothing to compare. Returns whether a
/// baseline was compared.
pub fn check_baseline(dir: &Path, seed: u64, actual: &[u8]) -> Result<bool, String> {
    let path = dir.join(format!("campaign-seed{seed}.json"));
    match std::fs::read(&path) {
        Ok(expected) => match first_difference(&expected, actual) {
            None => Ok(true),
            Some(line) => Err(format!(
                "cold store differs from {} at line {line}",
                path.display()
            )),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && !BASELINE_SEEDS.contains(&seed) => {
            Ok(false)
        }
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// The 1-based line of the first byte where two files differ.
fn first_difference(expected: &[u8], actual: &[u8]) -> Option<usize> {
    if expected == actual {
        return None;
    }
    let common = expected
        .iter()
        .zip(actual)
        .take_while(|(a, b)| a == b)
        .count();
    Some(expected[..common].iter().filter(|&&b| b == b'\n').count() + 1)
}

fn same_bytes(what: &str, expected: &[u8], actual: &[u8], out: &mut Outcome) {
    if let Some(line) = first_difference(expected, actual) {
        out.mismatches
            .push(format!("{what}: differs at line {line}"));
    }
}

/// Runs `f` while a sampler reads the process's resident set every
/// millisecond; returns `f`'s value and the largest sample, MiB. (The
/// kernel's own high-water mark cannot be scoped to one repeat: it keeps
/// the peak of the whole process.)
fn peak_rss_during<T>(f: impl FnOnce() -> T) -> Result<(T, f64), String> {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| -> Result<f64, String> {
            let mut peak = 0.0f64;
            loop {
                peak = peak.max(resident_mib()?);
                if done.load(Ordering::Relaxed) {
                    return Ok(peak);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let value = f();
        done.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("resident-set sampler panicked")?;
        Ok((value, peak))
    })
}

/// Hands the heap the cold campaigns freed back to the kernel, outside
/// every timed phase. Left to the allocator, the release of
/// campaign-cold's ~250 MB (about 0.2 s) lands in whichever later call
/// frees next — a memoized rerun, in the middle of its timing — where a
/// `campaign run` process would pay it at exit.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers; it only returns
        // free heap pages to the kernel, under the allocator's own locks.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The process's resident set now, MiB.
fn resident_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload shrunk to seconds of debug-build work: two cheap
    /// scenarios or a one-program corpus, and low offered rates.
    fn tiny(name: &str) -> Plan {
        let mut plan = Plan::named(name).expect("a benchmark workload");
        if plan.select.is_empty() {
            plan.select = vec!["pipeline-domino".into(), "dram-refresh".into()];
        }
        plan.corpus_size = 1;
        plan.submit_corpus = 1;
        plan.baseline_dir = None;
        plan.rates = [400.0, 800.0];
        plan
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }

    fn repo_file(relative: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(relative)
    }

    /// `(name, unit)` of every metric one section of BENCHMARK.json
    /// declares, sorted.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse_file(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
        let mut names: Vec<(String, String)> = doc
            .get(section)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
                (field("name"), field("unit"))
            })
            .collect();
        names.sort();
        names
    }

    fn owned(names: Vec<(String, &'static str)>) -> Vec<(String, String)> {
        let mut names: Vec<_> = names
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn benchmark_json_declares_exactly_what_runs_report() {
        assert_eq!(declared("end_to_end"), owned(end_to_end()));
        assert_eq!(declared("per_layer"), owned(layers::per_layer()));
        let doc = Json::parse_file(&repo_file("BENCHMARK.json")).unwrap();
        for workload in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = workload.get("name").and_then(Json::as_str).unwrap();
            assert!(Plan::named(name).is_some(), "unknown workload {name}");
        }
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit_and_sample_count() {
        for name in ["campaign-cold", "gen-sweep"] {
            let dir = scratch(name);
            let outcome = run(&tiny(name), 5, 1.0, true, &dir, &dir.join("trace.json"))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            std::fs::remove_dir_all(&dir).ok();
            assert!(
                outcome.mismatches.is_empty(),
                "{name}: {:?}",
                outcome.mismatches
            );
            assert_eq!(outcome.failed, 0, "{name}");
            for names in [end_to_end(), layers::per_layer()] {
                for (metric, unit) in &names {
                    let m = outcome
                        .report
                        .get(metric)
                        .unwrap_or_else(|| panic!("{name}: {metric} not measured"));
                    assert_eq!(m.unit, *unit, "{name}: {metric}");
                    assert!(m.samples >= 1, "{name}: {metric} has no samples");
                    assert!(m.value.is_finite(), "{name}: {metric} = {}", m.value);
                }
                let line = outcome
                    .report
                    .result_line(&names, true, outcome.attempted, 0)
                    .unwrap();
                let doc = Json::parse(&line).unwrap();
                let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                    panic!("{name}: no metrics object in {line}");
                };
                assert_eq!(metrics.len(), names.len(), "{name}");
            }
            let cells = |id: &str| {
                outcome
                    .report
                    .get(&format!("scenarios.{id}.cells"))
                    .expect("per-scenario cell count")
                    .value
            };
            if name == "campaign-cold" {
                assert!(cells("pipeline-domino") > 0.0);
            } else {
                assert_eq!(cells("cache-evict-fill"), 0.0);
                assert!(cells("gen-pipeline") > 0.0);
            }
        }
    }

    #[test]
    fn a_perturbed_baseline_fails_verification() {
        let baselines = repo_file("baselines");
        let committed = std::fs::read(baselines.join("campaign-seed42.json")).unwrap();
        assert_eq!(check_baseline(&baselines, 42, &committed), Ok(true));
        let dir = scratch("baseline");
        let mut perturbed = committed.clone();
        let digit = perturbed
            .iter()
            .rposition(u8::is_ascii_digit)
            .expect("a store holds numbers");
        perturbed[digit] = if perturbed[digit] == b'9' {
            b'8'
        } else {
            perturbed[digit] + 1
        };
        std::fs::write(dir.join("campaign-seed42.json"), &perturbed).unwrap();
        let verdict = check_baseline(&dir, 42, &committed);
        assert!(
            verdict.as_ref().is_err_and(|e| e.contains("differs")),
            "{verdict:?}"
        );
        // A missing baseline is a failure for the held-out seed, and
        // nothing to compare for any other.
        assert!(check_baseline(&dir, 7, &committed).is_err());
        assert_eq!(check_baseline(&dir, 5, &committed), Ok(false));
        std::fs::remove_dir_all(&dir).ok();
    }
}
