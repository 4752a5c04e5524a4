//! The traced run's layer accounting: span-recording scenario wrappers,
//! and the per-layer metrics read back from those spans, from the
//! executor's and journal's own `obs` spans, and from the Chrome trace
//! file.

use std::path::Path;
use std::sync::{Arc, Mutex};

use harness::gen::GenOptions;
use harness::json::Json;
use harness::obs::{monotonic_ns, SpanStat};
use harness::{
    CellResult, Obs, Params, Registry, ResultStore, Scenario, ScenarioError, ScenarioSpec,
    StoreFormat,
};

use crate::report::{timed, Metric, Percentile, Report};

/// Every scenario id of the default registry, in registration order.
pub const SCENARIO_IDS: [&str; 13] = [
    "cache-evict-fill",
    "pipeline-sipr",
    "pipeline-domino",
    "dram-refresh",
    "dram-controller",
    "bus-arbitration",
    "branch-mispredict",
    "wcet-tightness",
    "singlepath-iipr",
    "dynsys-horizon",
    "gen/pipeline",
    "gen/cache",
    "gen/wcet",
];

/// The per-layer metrics besides the per-scenario pairs, and the serve
/// figures too noisy to carry a bound.
const LAYER_METRICS: [(&str, &str); 38] = [
    ("scenarios.cell_p50_ms", "ms"),
    ("scenarios.cell_p90_ms", "ms"),
    ("scenarios.cell_max_ms", "ms"),
    ("kernel.evict_fill.states", "count"),
    ("kernel.evict_fill.ns_per_state", "ns"),
    ("exec.plan_ms", "ms"),
    ("exec.decode_us", "us"),
    ("exec.memo_us", "us"),
    ("exec.memo_hit_ratio", "ratio"),
    ("exec.memo_lookups", "count"),
    ("exec.ideal_makespan_s", "s"),
    ("exec.sched_loss_s", "s"),
    ("exec.worker_busy_ratio", "ratio"),
    ("exec.assembly_ms", "ms"),
    ("registry.build_ms", "ms"),
    ("store.journal_append_us", "us"),
    ("store.journal_fsyncs", "count"),
    ("store.journal_fsync_ms", "ms"),
    ("store.save_ms.bin", "ms"),
    ("store.save_ms.json", "ms"),
    ("store.load_ms", "ms"),
    ("store.bytes.bin", "bytes"),
    ("store.bytes.json", "bytes"),
    ("serve.index_build_ms", "ms"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.request_s", "s"),
    ("serve.submit_cells_per_s", "1/s"),
    ("loadgen.late_p99_us", "us"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("fail_ratio", "ratio"),
    ("query_p50_us.lo", "us"),
    ("query_p99_us.lo", "us"),
    ("query_p50_us.hi", "us"),
    ("query_p99_us.hi", "us"),
    ("serve_max_rps", "req/s"),
    ("submit_s", "s"),
];

/// Repeats of the store save/load timings.
const STORE_REPEATS: usize = 5;

const NO_SPANS: SpanStat = SpanStat {
    count: 0,
    total_ns: 0,
    min_ns: 0,
    max_ns: 0,
};

/// The per-layer metrics a traced run reports, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for id in SCENARIO_IDS {
        names.push((format!("scenarios.{}.s", slug(id)), "s"));
        names.push((format!("scenarios.{}.cells", slug(id)), "count"));
    }
    names.extend(
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit)),
    );
    names
}

/// A scenario id as a metric-name segment (`gen/cache` → `gen-cache`).
fn slug(id: &str) -> String {
    id.replace('/', "-")
}

/// One executed cell, as its wrapper saw it.
#[derive(Debug, Clone)]
struct CellSample {
    scenario: &'static str,
    key: String,
    ns: u64,
    /// The evict/fill kernel's explored initial states (0 elsewhere).
    initial_states: f64,
}

/// What the wrapped scenarios record into: the span recorder (and its
/// trace file) and every executed cell.
pub struct Recorder {
    obs: Obs,
    cells: Mutex<Vec<CellSample>>,
}

impl Recorder {
    pub fn new(obs: Obs) -> Arc<Recorder> {
        Arc::new(Recorder {
            obs,
            cells: Mutex::new(Vec::new()),
        })
    }

    fn cells(&self) -> Vec<CellSample> {
        self.cells
            .lock()
            .expect("cell samples lock poisoned")
            .clone()
    }
}

/// A scenario timed cell by cell, each cell a `scenario/<id>` span. The
/// spec passes through unchanged, so fingerprints — and the store's
/// bytes — are those of the plain scenario.
struct Timed {
    inner: Box<dyn Scenario>,
    id: &'static str,
    span: String,
    recorder: Arc<Recorder>,
}

impl Scenario for Timed {
    fn spec(&self) -> ScenarioSpec {
        self.inner.spec()
    }

    fn run(&self, params: &Params, seed: u64) -> Result<CellResult, ScenarioError> {
        let start = monotonic_ns();
        let result = self.inner.run(params, seed);
        let ns = monotonic_ns().saturating_sub(start);
        self.recorder
            .obs
            .record_span(&self.span, "scenarios", start, ns);
        let initial_states = match &result {
            Ok(r) if self.id == "cache-evict-fill" => r.metric("initial_states").unwrap_or(0.0),
            _ => 0.0,
        };
        self.recorder
            .cells
            .lock()
            .expect("cell samples lock poisoned")
            .push(CellSample {
                scenario: self.id,
                key: params.key(),
                ns,
                initial_states,
            });
        result
    }
}

/// The default registry's scenarios — built-in, and generated over
/// `options` — each wrapped to record its cells into `recorder`.
pub fn traced_registry(options: &GenOptions, recorder: &Arc<Recorder>) -> Registry {
    let mut registry = Registry::empty();
    for inner in harness::scenarios::all()
        .into_iter()
        .chain(harness::gen::scenarios(options))
    {
        let id = inner.spec().id;
        registry.register(Box::new(Timed {
            inner,
            id,
            span: format!("scenario/{id}"),
            recorder: recorder.clone(),
        }));
    }
    registry
}

/// What a traced cold campaign and a traced memoized rerun left behind.
pub struct TracedRun<'a> {
    pub recorder: &'a Recorder,
    /// The memoized rerun's recorder.
    pub resume: &'a Obs,
    /// The cold campaign's trace file.
    pub trace: &'a Path,
    pub threads: usize,
    /// The traced cold campaign's wall time, store open to persisted, s.
    pub wall_s: f64,
    /// The executor call's start and end on the monotonic clock, ns.
    pub exec_ns: (u64, u64),
}

fn stat(obs: &Obs, name: &str) -> SpanStat {
    obs.span_stat(name).unwrap_or(NO_SPANS)
}

/// Mean duration of one span name over two recorders, in units of
/// `unit_ns` (0 when neither recorded one).
fn mean(a: SpanStat, b: SpanStat, unit_ns: f64) -> f64 {
    let count = a.count + b.count;
    if count == 0 {
        return 0.0;
    }
    (a.total_ns + b.total_ns) as f64 / count as f64 / unit_ns
}

/// The scenario, kernel, exec and journal metrics of the traced
/// campaign. Trace defects are verification failures, pushed to
/// `mismatches`.
pub fn campaign_layers(
    run: &TracedRun<'_>,
    report: &mut Report,
    mismatches: &mut Vec<String>,
) -> Result<(), String> {
    let cells = run.recorder.cells();
    for id in SCENARIO_IDS {
        let mine: Vec<&CellSample> = cells.iter().filter(|c| c.scenario == id).collect();
        let seconds = mine.iter().fold(0.0, |sum, c| sum + c.ns as f64) / 1e9;
        report.push(Metric::single(
            format!("scenarios.{}.s", slug(id)),
            "s",
            seconds,
        ));
        report.push(Metric::single(
            format!("scenarios.{}.cells", slug(id)),
            "count",
            mine.len() as f64,
        ));
    }
    let Some(longest) = cells.iter().max_by_key(|c| c.ns) else {
        return Err("the traced campaign executed no cell".into());
    };
    let cell_ms: Vec<f64> = cells.iter().map(|c| c.ns as f64 / 1e6).collect();
    report.push(Metric::percentile(
        "scenarios.cell_p50_ms",
        "ms",
        &cell_ms,
        Percentile::P50,
    ));
    report.push(Metric::percentile(
        "scenarios.cell_p90_ms",
        "ms",
        &cell_ms,
        Percentile::P90,
    ));
    report.push(Metric::single(
        "scenarios.cell_max_ms",
        "ms",
        longest.ns as f64 / 1e6,
    ));
    report.note(format!(
        "longest cell: {} {} ({:.3} ms)",
        longest.scenario,
        longest.key,
        longest.ns as f64 / 1e6
    ));

    let evict: Vec<&CellSample> = cells
        .iter()
        .filter(|c| c.scenario == "cache-evict-fill")
        .collect();
    let states = evict.iter().fold(0.0, |sum, c| sum + c.initial_states);
    let evict_ns = evict.iter().fold(0.0, |sum, c| sum + c.ns as f64);
    report.push(Metric::single("kernel.evict_fill.states", "count", states));
    report.push(Metric::single(
        "kernel.evict_fill.ns_per_state",
        "ns",
        if states > 0.0 { evict_ns / states } else { 0.0 },
    ));

    let (obs, resume) = (&run.recorder.obs, run.resume);
    let both = |name: &str, unit_ns: f64| mean(stat(obs, name), stat(resume, name), unit_ns);
    report.push(Metric::single("exec.plan_ms", "ms", both("plan", 1e6)));
    report.push(Metric::single("exec.decode_us", "us", both("decode", 1e3)));
    report.push(Metric::single("exec.memo_us", "us", both("memo", 1e3)));
    let hits = obs.counter("memo/hit") + resume.counter("memo/hit");
    let lookups = hits + obs.counter("memo/miss") + resume.counter("memo/miss");
    report.push(Metric::single(
        "exec.memo_hit_ratio",
        "ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    ));
    report.push(Metric::single("exec.memo_lookups", "count", lookups as f64));

    let cell = stat(obs, "cell");
    let threads = run.threads.max(1) as f64;
    let ideal_s = (cell.total_ns as f64 / threads).max(cell.max_ns as f64) / 1e9;
    let exec_s = run.exec_ns.1.saturating_sub(run.exec_ns.0) as f64 / 1e9;
    report.push(Metric::single("exec.ideal_makespan_s", "s", ideal_s));
    report.push(Metric::single("exec.sched_loss_s", "s", exec_s - ideal_s));
    let worker = stat(obs, "worker");
    report.push(Metric::single(
        "exec.worker_busy_ratio",
        "ratio",
        if worker.total_ns > 0 {
            cell.total_ns as f64 / worker.total_ns as f64
        } else {
            0.0
        },
    ));
    let worker_end_us = last_end_us(run.trace, "worker")?;
    let assembly_ms = (run.exec_ns.1 as f64 / 1e3 - worker_end_us).max(0.0) / 1e3;
    report.push(Metric::single("exec.assembly_ms", "ms", assembly_ms));

    report.push(Metric::single(
        "store.journal_append_us",
        "us",
        mean(stat(obs, "journal/append"), NO_SPANS, 1e3),
    ));
    report.push(Metric::single(
        "store.journal_fsyncs",
        "count",
        obs.counter("journal/fsync_batches") as f64,
    ));
    report.push(Metric::single(
        "store.journal_fsync_ms",
        "ms",
        stat(obs, "journal/fsync").total_ns as f64 / 1e6,
    ));

    // What the layer spans leave of the wall time: the driving thread's
    // serial spans (plan, assembly, persisting the store) and the mean
    // worker's spanned time come off. The rest is time no span covers —
    // mostly a worker idle while another finishes the longest cell.
    let persist = match stat(obs, "checkpoint") {
        s if s.count > 0 => s,
        _ => stat(obs, "store/save"),
    };
    let unattributed = run.wall_s
        - stat(obs, "plan").total_ns as f64 / 1e9
        - assembly_ms / 1e3
        - persist.total_ns as f64 / 1e9
        - worker.total_ns as f64 / 1e9 / threads;
    report.push(Metric::single("trace.unattributed_s", "s", unattributed));

    check_trace(run.trace, &cells, mismatches)
}

/// The trace must pass `campaign trace`'s validator whole, carry the
/// executor's spans, and hold one labelled span per executed cell.
fn check_trace(
    path: &Path,
    cells: &[CellSample],
    mismatches: &mut Vec<String>,
) -> Result<(), String> {
    let stats = harness::obs::trace::load_trace(path).map_err(|e| e.to_string())?;
    if stats.torn_tail {
        mismatches.push(format!("{}: torn final line", path.display()));
    }
    for span in ["plan", "worker", "decode", "memo", "cell"] {
        if !stats.spans.contains_key(span) {
            mismatches.push(format!("{}: no `{span}` spans", path.display()));
        }
    }
    for id in SCENARIO_IDS {
        let executed = cells.iter().filter(|c| c.scenario == id).count();
        let labelled = stats
            .spans
            .get(&format!("scenario/{id}"))
            .map_or(0, |s| s.count);
        if labelled != executed {
            mismatches.push(format!(
                "{}: {labelled} `scenario/{id}` spans for {executed} cells",
                path.display()
            ));
        }
    }
    Ok(())
}

/// The latest end (`ts + dur`, µs) among the trace's `name` spans.
fn last_end_us(path: &Path, name: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut end = 0.0f64;
    for line in text.lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let event = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if event.get("name").and_then(Json::as_str) == Some(name) {
            let field = |key: &str| event.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            end = end.max(field("ts") + field("dur"));
        }
    }
    Ok(end)
}

/// Save and load times of the cold store in both formats, and the
/// sizes. `checkpoint` is the cold run's own checkpoint file.
pub fn store_layers(
    store: &ResultStore,
    checkpoint: &Path,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let (bin, json) = (dir.join("layer.bin"), dir.join("layer.json"));
    let (mut save_bin, mut save_json, mut load) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..STORE_REPEATS {
        let (saved, s) = timed(|| store.save_as(&bin, StoreFormat::Binary));
        saved.map_err(|e| e.to_string())?;
        save_bin.push(s * 1e3);
        let (saved, s) = timed(|| store.save_as(&json, StoreFormat::Json));
        saved.map_err(|e| e.to_string())?;
        save_json.push(s * 1e3);
        let (loaded, s) = timed(|| ResultStore::open_any(checkpoint));
        std::hint::black_box(loaded.map_err(|e| e.to_string())?);
        load.push(s * 1e3);
    }
    let bytes = |path: &Path| {
        std::fs::metadata(path)
            .map(|m| m.len() as f64)
            .map_err(|e| format!("stat {}: {e}", path.display()))
    };
    report.push(Metric::median("store.save_ms.bin", "ms", &save_bin));
    report.push(Metric::median("store.save_ms.json", "ms", &save_json));
    report.push(Metric::median("store.load_ms", "ms", &load));
    report.push(Metric::single("store.bytes.bin", "bytes", bytes(&bin)?));
    report.push(Metric::single("store.bytes.json", "bytes", bytes(&json)?));
    Ok(())
}
