//! The campaign CLI: list scenarios, run filtered matrices, print the
//! evidence summary — and drive distributed campaigns end-to-end
//! (plan → shard → merge → diff), with crash-resumable checkpointed
//! execution and work-stealing shard workers.
//!
//! ```text
//! cargo run -p harness --bin campaign -- list
//! cargo run -p harness --bin campaign -- run [--scenario ID]... [--filter AXIS=VALUE]...
//!         [--threads N] [--seed S] [--corpus-size N] [--store PATH] [--json PATH]
//!         [--csv PATH] [--quiet] [--resume] [--checkpoint-every N] [--progress]
//! cargo run -p harness --bin campaign -- report [same flags as run]
//! cargo run -p harness --bin campaign -- gen [--seed S] [--corpus-size N]
//!         [--filter A=V]... [--disasm]
//! cargo run -p harness --bin campaign -- plan --shards N --manifest PATH
//!         [--scenario ID]... [--filter A=V]... [--seed S] [--corpus-size N]
//!         [--calibrate STORE]
//! cargo run -p harness --bin campaign -- shard --manifest PATH --index I
//!         [--store PATH] [--threads N] [--json PATH] [--csv PATH] [--quiet]
//!         [--steal] [--leases DIR] [--resume] [--checkpoint-every N] [--progress]
//! cargo run -p harness --bin campaign -- merge --out PATH [--manifest PATH] STORE...
//! cargo run -p harness --bin campaign -- diff BASELINE COMPARED [--tol METRIC=EPS]...
//!         [--tol-default EPS] [--quiet]
//! cargo run -p harness --bin campaign -- gc --store PATH [--dry-run] [--quiet]
//!         [--seed S] [--corpus-size N] [--max-cells N]
//! cargo run -p harness --bin campaign -- trace FILE
//! cargo run -p harness --bin campaign -- serve --store PATH [--addr HOST:PORT]
//!         [--accept-pool N] [--threads N] [--checkpoint-every N]
//!         [--compact-journal-over N] [--slowlog-over-us N] [--port-file PATH]
//!         [--trace FILE] [--quiet]
//! cargo run -p harness --bin campaign -- top (--addr HOST:PORT | --port-file PATH)
//!         [--interval-ms N] [--once]
//! ```
//!
//! `run` prints per-cell metrics; `report` prints the Table-1/2-style
//! evidence summary joined against `predictability_core::catalog`.
//! Both memoize through `--store` (results persist across invocations).
//! With `--checkpoint-every N` every completed cell is appended to an
//! append-only journal beside the store (fsync'd every N cells), and a
//! campaign killed mid-run resumes with `--resume` from the last
//! completed cell — zero recompute. `shard --steal` executes through
//! the lease-file work-stealing protocol instead of the static
//! partition.
//!
//! Exit status: 0 on success; 1 when `diff` finds differences; 2 on
//! any error (bad usage, unknown scenario id, bad filter or tolerance
//! clause, unreadable store or manifest, merge conflict).

use harness::dist;
use harness::exec::{run_campaign_with, Campaign, CellDomain, CellEvent, ExecConfig, ExecHooks};
use harness::gen::{GenOptions, DEFAULT_CORPUS_SIZE};
use harness::json::Json;
use harness::matrix::Filter;
use harness::obs::{trace as obs_trace, Obs};
use harness::registry::Registry;
use harness::report;
use harness::scenario::ScenarioError;
use harness::serve::{lock as serve_lock, top as serve_top, ServeOptions, Server};
use harness::session::Session;
use harness::store::{self, ResultStore};
use harness::telemetry::{self, Telemetry};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `diff` found differences (distinct from errors, like `diff(1)`).
const EXIT_DIFFERENCES: u8 = 1;
/// Any error: usage, unknown scenario, unreadable artifact, conflict.
const EXIT_ERROR: u8 = 2;

struct Options {
    command: String,
    scenarios: Vec<String>,
    filters: Vec<String>,
    threads: usize,
    seed: u64,
    store: Option<PathBuf>,
    json: Option<PathBuf>,
    csv: Option<PathBuf>,
    quiet: bool,
    // gen flags
    corpus_size: Option<u32>,
    disasm: bool,
    // lifecycle flags
    dry_run: bool,
    max_cells: Option<usize>,
    max_age_days: Option<u64>,
    compact_journal: bool,
    // convert flags
    to: Option<String>,
    // resume/checkpoint flags
    resume: bool,
    checkpoint_every: Option<usize>,
    compact_journal_over: Option<usize>,
    progress: bool,
    // serve flags
    addr: Option<String>,
    accept_pool: Option<usize>,
    port_file: Option<PathBuf>,
    slowlog_over_us: Option<u64>,
    // top flags
    interval_ms: Option<u64>,
    once: bool,
    // telemetry sidecar
    telemetry: bool,
    // observability
    trace: Option<PathBuf>,
    // merge reporting
    steal_report: bool,
    // dist flags
    shards: Option<u32>,
    index: Option<u32>,
    manifest: Option<PathBuf>,
    out: Option<PathBuf>,
    tols: Vec<String>,
    tol_default: Option<f64>,
    rel_default: Option<f64>,
    sigmas: Option<f64>,
    // replicate flags
    replicates: Option<u32>,
    keep_replicates: bool,
    calibrate: Option<PathBuf>,
    steal: bool,
    leases: Option<PathBuf>,
    positional: Vec<PathBuf>,
    /// Every `--flag` seen, for per-command applicability checks.
    given: Vec<String>,
}

impl Options {
    /// The registry the campaign-building commands run against: the
    /// built-ins plus the gen scenarios over a corpus derived from the
    /// campaign seed and `--corpus-size`.
    fn registry(&self) -> Registry {
        Registry::builtin_with(&GenOptions {
            corpus_size: self.corpus_size.unwrap_or(DEFAULT_CORPUS_SIZE),
            corpus_seed: self.seed,
        })
    }
}

const USAGE: &str = "\
usage: campaign <list|run|report|gen|plan|shard|merge|diff|gc|convert|trace|serve|top> [options]

options (run/report):
  --scenario ID      run only this scenario (repeatable; default: all)
  --filter A=V       keep only cells with axis A = value V (repeatable;
                     several values for one axis union, axes intersect)
  --threads N        worker threads (default: available parallelism)
  --seed S           campaign seed (default 0); also the corpus seed of
                     the gen/* scenarios' generated-program population
  --corpus-size N    generated kernels per shape for gen/* scenarios
                     (default 2; multiplies every gen matrix)
  --store PATH       memoize results in PATH (created if missing; a .bin
                     path gets the binary columnar format, anything else
                     JSON — an existing file keeps whichever format its
                     magic bytes say it has)
  --json PATH        write the campaign as deterministic JSON
  --csv PATH         write the campaign as long-format CSV (a replicated
                     campaign switches to the wide distribution schema:
                     mean,std,ci95,p05,p50,p95,n per base metric)
  --quiet            suppress per-cell output

replicates & distributions (run/report; also plan):
  --replicates N     fan every scenario cell over N replicate seeds
                     (seed r = splitmix of the cell seed and r) and fold
                     the group into one distribution cell per base cell:
                     derived metrics <m>.mean/.std/.ci95/.p05/.p50/
                     .p95/.n in declaration order. N=1 (the default) is
                     byte-identical to a pre-replicate campaign
  --keep-replicates  keep the raw per-replicate cells in the store next
                     to the fold (default: only the fold survives);
                     on merge, keep raws in the fused store too

crash-resumable execution (run/report/shard; all need --store):
  --checkpoint-every N  append every completed cell to an append-only
                     journal beside the store, fsync'd every N cells;
                     on success the journal is compacted into the store
  --resume           replay the journal before running: a campaign
                     killed mid-run continues from the last completed
                     cell with zero recompute
  --progress         live progress heartbeats on stderr
  --compact-journal-over N  (needs --checkpoint-every) fold the journal
                     into the checkpoint mid-run whenever it exceeds N
                     lines, so a very long campaign's replay cost stays
                     bounded; the final store bytes are identical with
                     and without it

wall-clock telemetry (run/report/shard; needs --store):
  --telemetry        append per-cell wall-clock durations and last-hit
                     access timestamps to a sidecar beside the store
                     (<store>.telemetry, JSON lines, fsync-batched like
                     the journal). The store itself stays byte-identical
                     to a run without telemetry; the sidecar feeds
                     `plan --calibrate` (measured cost weights),
                     `merge --report` (wall-clock balance) and
                     `gc --max-age-days` (age-based eviction)

observability (run/report/shard/merge):
  --trace FILE       record named monotonic-clock spans (plan, decode,
                     memo lookup, cell, journal append/fsync,
                     checkpoint, steal-lease claim, merge) and engine
                     counters to FILE as a Chrome trace-event stream —
                     open in Perfetto (ui.perfetto.dev) or validate
                     with `campaign trace FILE`. Purely observational:
                     the store bytes are identical with and without it
  trace  FILE        validate a --trace file (torn final lines from a
                     crash are tolerated; anything else is an error)
                     and print its per-span event counts and totals

generated-program corpora:
  gen    [--seed S] [--corpus-size N] [--filter A=V]... [--disasm]
         list the corpus the gen/* scenarios would sweep (one row per
         kernel: coordinates, generator seed, size, digest); --disasm
         additionally prints each matching kernel's disassembly

distributed campaigns:
  plan   --shards N --manifest PATH [--scenario]... [--filter]...
         [--seed S] [--corpus-size N] [--replicates N]
         [--calibrate STORE]
         partition the campaign into N shards; write the manifest
         (records per-scenario digests, cost weights, the replicate
         multiplier and the corpus identity); shards run the raw
         replicate cells and `merge --manifest` folds them, so the
         merged store is byte-identical to a single-process
         `run --replicates N`; --calibrate derives the cost weights
         from a prior
         (e.g. committed baseline) store — from its *measured* per-cell
         wall-clock telemetry when a <STORE>.telemetry sidecar
         accompanies it, falling back to the metric-magnitude proxy
  shard  --manifest PATH --index I [--store PATH] [--threads N]
         [--steal] [--leases DIR]
         run exactly shard I against its own store (the registry and
         corpus are rebuilt from the manifest; drift errors name the
         drifted scenarios); --steal turns the static assignment into
         an initial lease and steals unleased chunks through lease
         files (default DIR: <manifest>.leases next to the manifest).
         Leases belong to one campaign attempt: a stale lease dir from
         an earlier plan is rejected, and after a crashed attempt you
         remove the dir and re-run all shards with --resume (journaled
         cells replay; only the dead shard's unfinished chunks
         recompute)
  merge  --out PATH [--manifest PATH] [--report] [--leases DIR]
         [--keep-replicates] STORE...
         fuse shard stores (conflict = determinism violation -> exit 2);
         with --manifest, also verify exact planned-cell coverage and,
         for a replicated manifest, fold each replicate group into its
         distribution cell (drop the raws unless --keep-replicates) —
         byte-identical to a single-process run; --report (needs
         --manifest) prints the steal-aware summary — which shard won
         which chunk, from the lease files (--leases DIR, default
         <manifest>.leases), and the realized per-shard wall-clock
         balance from each input's telemetry sidecar
  diff   BASELINE COMPARED [--tol METRIC=EPS]... [--tol-default EPS]
         [--rel EPS] [--sigmas S]
         compare two stores cell-by-cell; exit 1 if they differ.
         A drifted metric is admitted (reported, not fatal) by the
         first rule that covers it: per-metric/default absolute
         tolerance, --rel EPS relative tolerance
         (|delta| <= EPS * max|value|), or --sigmas S for fold cells'
         .mean metrics (|delta| <= S standard errors, pooled from the
         sibling .std/.n columns); the summary names the admitting
         rule per near miss

result-store lifecycle:
  gc     --store PATH [--dry-run] [--seed S] [--corpus-size N]
         [--max-cells N] [--max-age-days N] [--compact-journal]
         drop cells the current registry can no longer serve (stale
         schema, unregistered scenario, old implementation version);
         --max-age-days evicts cells whose last telemetry-recorded
         access is older than N days (cells with no telemetry entry
         are treated as oldest); --max-cells additionally evicts down
         to N cells (oldest implementation version first, then stable
         fingerprint order); --dry-run reports without rewriting the
         store. A store with a journal sidecar is refused (a later
         --resume would replay evicted cells right back); pass
         --compact-journal to fold the journal into the store first
  convert --store PATH --to bin|json [--out PATH]
         rewrite a result store in the other checkpoint format: `bin`
         is the binary columnar layout (interned strings, fixed-width
         cell records, f64 metric columns, content digest in the
         header) that large stores load an order of magnitude faster;
         `json` is the readable interchange format. Conversion is
         canonical and lossless — json -> bin -> json reproduces the
         original checkpoint byte-identically. Default --out is the
         store path itself (in place). Every command sniffs the format
         by magic, so either format works anywhere a store is accepted;
         journal sidecars stay JSON-lines in both cases

always-on campaign serving:
  serve  --store PATH [--addr HOST:PORT] [--accept-pool N] [--threads N]
         [--checkpoint-every N] [--compact-journal-over N]
         [--slowlog-over-us N] [--port-file PATH] [--trace FILE]
         [--quiet]
         run the campaign daemon: open the store resumably (journal
         replay included), build a hot in-memory index over its cells
         and answer a line-delimited JSON protocol over TCP — one
         compact JSON object per line, ops: ping, stats, query
         (point lookup by scenario + axis assignment), query_range
         (axis-filtered scan returning metric columns), report (the
         evidence summary over the wire), submit (enqueue a campaign;
         it runs on the streaming executor with journaling and lands
         in the live index atomically), metrics (per-op latency
         histograms, counters and windowed rates as compact JSON plus
         Prometheus text exposition), jobs (per-job status, live
         cells_done/cells_total progress and failure error strings),
         slowlog (the ring of requests slower than --slowlog-over-us,
         default 10000) and shutdown (drain, checkpoint, fsync,
         release the lock). Default --addr 127.0.0.1:0 binds an
         ephemeral port; --port-file writes the bound address for
         scripts. A live daemon holds <store>.lock: gc and merge
         refuse its store until shutdown, while a dead daemon's lock
         is detected as stale and broken automatically
  top    (--addr HOST:PORT | --port-file PATH) [--interval-ms N]
         [--once]
         live terminal view of a running daemon: polls stats, metrics
         and jobs every --interval-ms (default 1000) and redraws a
         screen with endpoint latency percentiles (p50/p90/p99/max
         per op), windowed qps, index size and running-job progress
         bars; --once prints one plain screen to stdout and exits
         (for scripts). Exits 0 with a note when the daemon goes away
         mid-watch; errors only if the first connection fails

exit status: 0 success; 1 diff found differences; 2 error
";

fn parse(mut args: std::env::Args) -> Result<Options, String> {
    let _argv0 = args.next();
    let command = args.next().ok_or_else(|| USAGE.to_string())?;
    let mut options = Options {
        command,
        scenarios: Vec::new(),
        filters: Vec::new(),
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        seed: 0,
        store: None,
        json: None,
        csv: None,
        quiet: false,
        corpus_size: None,
        disasm: false,
        dry_run: false,
        max_cells: None,
        max_age_days: None,
        compact_journal: false,
        to: None,
        resume: false,
        checkpoint_every: None,
        compact_journal_over: None,
        progress: false,
        addr: None,
        accept_pool: None,
        port_file: None,
        slowlog_over_us: None,
        interval_ms: None,
        once: false,
        telemetry: false,
        trace: None,
        steal_report: false,
        shards: None,
        index: None,
        manifest: None,
        out: None,
        tols: Vec::new(),
        tol_default: None,
        rel_default: None,
        sigmas: None,
        replicates: None,
        keep_replicates: false,
        calibrate: None,
        steal: false,
        leases: None,
        positional: Vec::new(),
        given: Vec::new(),
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or(format!("{flag} needs a value"))
        };
        let number = |flag: &str, raw: String| -> Result<u64, String> {
            raw.parse().map_err(|_| format!("{flag} needs an integer"))
        };
        // u32 flags parse as u32 directly: an out-of-range value must
        // error, not silently truncate to a different shard/index.
        let small = |flag: &str, raw: String| -> Result<u32, String> {
            raw.parse()
                .map_err(|_| format!("{flag} needs a small integer"))
        };
        if flag.starts_with("--") {
            options.given.push(flag.clone());
        }
        match flag.as_str() {
            "--scenario" => options.scenarios.push(value("--scenario")?),
            "--filter" => options.filters.push(value("--filter")?),
            "--threads" => {
                options.threads = number("--threads", value("--threads")?)? as usize;
            }
            "--seed" => options.seed = number("--seed", value("--seed")?)?,
            "--store" => options.store = Some(PathBuf::from(value("--store")?)),
            "--json" => options.json = Some(PathBuf::from(value("--json")?)),
            "--csv" => options.csv = Some(PathBuf::from(value("--csv")?)),
            "--quiet" => options.quiet = true,
            "--corpus-size" => {
                options.corpus_size = Some(
                    small("--corpus-size", value("--corpus-size")?)
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--corpus-size needs an integer >= 1")?,
                )
            }
            "--disasm" => options.disasm = true,
            "--dry-run" => options.dry_run = true,
            "--max-cells" => {
                options.max_cells = Some(number("--max-cells", value("--max-cells")?)? as usize)
            }
            "--max-age-days" => {
                options.max_age_days = Some(number("--max-age-days", value("--max-age-days")?)?)
            }
            "--compact-journal" => options.compact_journal = true,
            "--to" => options.to = Some(value("--to")?),
            "--telemetry" => options.telemetry = true,
            "--trace" => options.trace = Some(PathBuf::from(value("--trace")?)),
            "--report" => options.steal_report = true,
            "--resume" => options.resume = true,
            "--checkpoint-every" => {
                options.checkpoint_every = Some(
                    number("--checkpoint-every", value("--checkpoint-every")?)
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--checkpoint-every needs an integer >= 1")?
                        as usize,
                )
            }
            "--compact-journal-over" => {
                options.compact_journal_over = Some(
                    number("--compact-journal-over", value("--compact-journal-over")?)
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--compact-journal-over needs an integer >= 1")?
                        as usize,
                )
            }
            "--progress" => options.progress = true,
            "--addr" => options.addr = Some(value("--addr")?),
            "--accept-pool" => {
                options.accept_pool = Some(
                    number("--accept-pool", value("--accept-pool")?)
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--accept-pool needs an integer >= 1")? as usize,
                )
            }
            "--port-file" => options.port_file = Some(PathBuf::from(value("--port-file")?)),
            "--slowlog-over-us" => {
                options.slowlog_over_us =
                    Some(number("--slowlog-over-us", value("--slowlog-over-us")?)?)
            }
            "--interval-ms" => {
                options.interval_ms = Some(
                    number("--interval-ms", value("--interval-ms")?)
                        .ok()
                        .filter(|n| *n >= 50)
                        .ok_or("--interval-ms needs an integer >= 50")?,
                )
            }
            "--once" => options.once = true,
            "--calibrate" => options.calibrate = Some(PathBuf::from(value("--calibrate")?)),
            "--steal" => options.steal = true,
            "--leases" => options.leases = Some(PathBuf::from(value("--leases")?)),
            "--shards" => options.shards = Some(small("--shards", value("--shards")?)?),
            "--index" => options.index = Some(small("--index", value("--index")?)?),
            "--manifest" => options.manifest = Some(PathBuf::from(value("--manifest")?)),
            "--out" => options.out = Some(PathBuf::from(value("--out")?)),
            "--tol" => options.tols.push(value("--tol")?),
            "--tol-default" => {
                options.tol_default = Some(
                    value("--tol-default")?
                        .parse()
                        .ok()
                        .filter(|eps: &f64| *eps >= 0.0)
                        .ok_or("--tol-default needs a number >= 0")?,
                );
            }
            "--rel" => {
                options.rel_default = Some(
                    value("--rel")?
                        .parse()
                        .ok()
                        .filter(|eps: &f64| *eps >= 0.0)
                        .ok_or("--rel needs a number >= 0")?,
                );
            }
            "--sigmas" => {
                options.sigmas = Some(
                    value("--sigmas")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s >= 0.0)
                        .ok_or("--sigmas needs a number >= 0")?,
                );
            }
            "--replicates" => {
                options.replicates = Some(
                    small("--replicates", value("--replicates")?)
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or("--replicates needs an integer >= 1")?,
                )
            }
            "--keep-replicates" => options.keep_replicates = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`\n\n{USAGE}"))
            }
            path => options.positional.push(PathBuf::from(path)),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    match parse(std::env::args()) {
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(EXIT_ERROR)
        }
        Ok(options) => match run(options) {
            Ok(code) => ExitCode::from(code),
            Err(message) => {
                eprintln!("campaign: {message}");
                ExitCode::from(EXIT_ERROR)
            }
        },
    }
}

fn run(options: Options) -> Result<u8, String> {
    // Flags a subcommand does not read are rejected, not silently
    // ignored — `shard --seed 7` runs with the *manifest's* seed, and
    // accepting the flag would misattribute the results.
    let allowed: &[&str] = match options.command.as_str() {
        "list" => &["--seed", "--corpus-size"],
        "run" | "report" => &[
            "--scenario",
            "--filter",
            "--threads",
            "--seed",
            "--corpus-size",
            "--store",
            "--json",
            "--csv",
            "--quiet",
            "--resume",
            "--checkpoint-every",
            "--compact-journal-over",
            "--progress",
            "--telemetry",
            "--trace",
            "--replicates",
            "--keep-replicates",
        ],
        "gen" => &["--seed", "--corpus-size", "--filter", "--disasm"],
        "plan" => &[
            "--scenario",
            "--filter",
            "--seed",
            "--corpus-size",
            "--shards",
            "--manifest",
            "--calibrate",
            "--replicates",
            "--quiet",
        ],
        "shard" => &[
            "--manifest",
            "--index",
            "--threads",
            "--store",
            "--json",
            "--csv",
            "--quiet",
            "--steal",
            "--leases",
            "--resume",
            "--checkpoint-every",
            "--compact-journal-over",
            "--progress",
            "--telemetry",
            "--trace",
        ],
        "merge" => &[
            "--out",
            "--manifest",
            "--report",
            "--leases",
            "--keep-replicates",
            "--quiet",
            "--trace",
        ],
        "trace" => &[],
        "diff" => &["--tol", "--tol-default", "--rel", "--sigmas", "--quiet"],
        "gc" => &[
            "--store",
            "--dry-run",
            "--seed",
            "--corpus-size",
            "--max-cells",
            "--max-age-days",
            "--compact-journal",
            "--quiet",
        ],
        "convert" => &["--store", "--to", "--out", "--quiet"],
        "serve" => &[
            "--store",
            "--addr",
            "--accept-pool",
            "--threads",
            "--checkpoint-every",
            "--compact-journal-over",
            "--slowlog-over-us",
            "--port-file",
            "--trace",
            "--quiet",
        ],
        "top" => &["--addr", "--port-file", "--interval-ms", "--once"],
        other => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    if let Some(flag) = options
        .given
        .iter()
        .find(|f| !allowed.contains(&f.as_str()))
    {
        return Err(format!(
            "`{flag}` does not apply to `{}`\n\n{USAGE}",
            options.command
        ));
    }
    if !matches!(options.command.as_str(), "merge" | "diff" | "trace")
        && !options.positional.is_empty()
    {
        return Err(format!(
            "unexpected argument `{}`\n\n{USAGE}",
            options.positional[0].display()
        ));
    }
    match options.command.as_str() {
        "list" => {
            print!("{}", report::list_scenarios(&options.registry()));
            Ok(0)
        }
        "run" | "report" => run_or_report(&options.registry(), &options),
        "gen" => gen(&options),
        "plan" => plan(&options.registry(), &options),
        "shard" => shard(&options),
        "merge" => merge(&options),
        "diff" => diff(&options),
        "gc" => gc(&options.registry(), &options),
        "convert" => convert(&options),
        "trace" => trace_cmd(&options),
        "serve" => serve_cmd(&options),
        "top" => top_cmd(&options),
        _ => unreachable!("validated above"),
    }
}

fn gen(options: &Options) -> Result<u8, String> {
    let filter = Filter::parse(&options.filters)?;
    let corpus = GenOptions {
        corpus_size: options.corpus_size.unwrap_or(DEFAULT_CORPUS_SIZE),
        corpus_seed: options.seed,
    }
    .corpus();
    // Same typo guard as campaign runs: a clause on an axis the corpus
    // does not declare would be vacuously satisfied and silently print
    // the full (wrong) listing.
    let known: Vec<&str> = corpus.axes().iter().map(|a| a.name).collect();
    for axis in filter.constrained_axes() {
        if !known.contains(&axis) {
            return Err(format!(
                "filter axis `{axis}` is not a corpus axis ({})",
                known.join(", ")
            ));
        }
    }
    print!(
        "{}",
        report::corpus_summary(&corpus, &filter, options.disasm)
    );
    Ok(0)
}

fn gc(registry: &Registry, options: &Options) -> Result<u8, String> {
    let path = options.store.as_deref().ok_or("gc needs --store PATH")?;
    if !path.exists() {
        return Err(format!("no such store: {}", path.display()));
    }
    // A live `campaign serve` checkpoints this store on its own
    // schedule: rewriting it underneath the daemon would race. A dead
    // daemon's lock is stale — report it and proceed.
    report_stale_lock(
        serve_lock::refuse_if_live(path, "gc").map_err(|e| e.to_string())?,
        path,
    );
    // A journal sidecar holds cells the store file does not: gc'ing the
    // store alone would be silently undone by the next `--resume`,
    // which replays every journaled cell — evicted ones included —
    // straight back. Refuse, or fold the pair together first.
    let journal = store::journal_path(path);
    let mut doc = load_store_doc(path)?;
    if journal.exists() {
        if !options.compact_journal {
            return Err(format!(
                "store has a journal sidecar ({}): gc would be undone by a later --resume \
                 replaying evicted cells back in — pass --compact-journal to fold the journal \
                 into the store first, or finish the campaign it belongs to",
                journal.display()
            ));
        }
        // An old-schema checkpoint loads *empty* through
        // open_resumable: compacting it would overwrite the file with
        // nothing before gc could report its cells as stale-schema
        // drops. Leave that store to the plain gc path.
        let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        if schema != store::SCHEMA_VERSION {
            return Err(format!(
                "store {} has schema {schema} (current {}): compacting would silently \
                 discard its cells before gc could report them — remove the journal ({}) \
                 by hand, then re-run gc",
                path.display(),
                store::SCHEMA_VERSION,
                journal.display()
            ));
        }
        let (resumed, replayed) = ResultStore::open_resumable(path).map_err(|e| e.to_string())?;
        // The gc report below must describe the real store + journal
        // union, not the stale checkpoint alone.
        doc = resumed.to_json();
        if options.dry_run {
            if !options.quiet {
                println!(
                    "journal would be compacted into {} ({replayed} cells) — dry run, \
                     nothing written",
                    path.display()
                );
            }
        } else {
            resumed.checkpoint(path).map_err(|e| e.to_string())?;
            if !options.quiet {
                println!(
                    "journal compacted into {} ({replayed} cells replayed)",
                    path.display()
                );
            }
        }
    } else if options.compact_journal && !options.quiet {
        println!("no journal sidecar to compact");
    }
    let age_policy = match options.max_age_days {
        None => None,
        Some(days) => {
            let sidecar = telemetry::telemetry_path(path);
            if !sidecar.exists() && !options.quiet {
                eprintln!(
                    "note: no telemetry sidecar at {} — every cell counts as oldest \
                     under --max-age-days {days}",
                    sidecar.display()
                );
            }
            Some((Telemetry::load(&sidecar).map_err(|e| e.to_string())?, days))
        }
    };
    let limits = store::GcLimits {
        max_cells: options.max_cells,
        max_age: age_policy.as_ref().map(|(telemetry, days)| store::MaxAge {
            telemetry,
            now_ms: telemetry::now_ms(),
            max_age_ms: (*days as f64 * store::MS_PER_DAY) as u64,
        }),
    };
    let (kept, outcome) = store::gc(&doc, registry, &limits).map_err(|e| e.to_string())?;
    if !options.quiet || !outcome.dropped.is_empty() {
        print!("{}", report::gc_summary(&outcome, options.dry_run));
    }
    if !options.dry_run {
        kept.save(path).map_err(|e| e.to_string())?;
        if !options.quiet {
            println!("store rewritten: {}", path.display());
        }
        // Prune the telemetry sidecar alongside the store: entries of
        // evicted cells are dead weight (and would resurrect their
        // last-hit ages if the cells ever recompute under the same
        // fingerprint).
        let sidecar = telemetry::telemetry_path(path);
        if sidecar.exists() && !outcome.dropped.is_empty() {
            let mut telemetry = Telemetry::load(&sidecar).map_err(|e| e.to_string())?;
            telemetry.retain(|fp| kept.contains(fp));
            telemetry
                .save_compacted(&sidecar)
                .map_err(|e| e.to_string())?;
            if !options.quiet {
                println!("telemetry sidecar compacted: {}", sidecar.display());
            }
        }
    }
    Ok(0)
}

/// Parses a checkpoint in either format into the JSON document `gc`
/// walks. A binary columnar store is decoded and re-rendered under its
/// own recorded schema number, so an old-schema binary checkpoint is
/// still reported cell-by-cell as stale-schema drops instead of
/// vanishing into the empty store `load` would return.
fn load_store_doc(path: &Path) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if store::columnar::is_columnar(&bytes) {
        let decoded =
            store::columnar::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        return Ok(decoded.store.to_json_with_schema(decoded.schema));
    }
    let text = String::from_utf8(bytes).map_err(|_| {
        format!(
            "store {} is neither binary columnar nor UTF-8 JSON — the file is corrupt or in a \
             foreign format",
            path.display()
        )
    })?;
    Json::parse(&text).map_err(|e| format!("json store {}: {e}", path.display()))
}

/// `campaign convert --store PATH --to bin|json [--out PATH]`: rewrite
/// a checkpoint in the other format. Lossless and canonical in both
/// directions — `json -> bin -> json` reproduces the original bytes.
fn convert(options: &Options) -> Result<u8, String> {
    let path = options
        .store
        .as_deref()
        .ok_or("convert needs --store PATH")?;
    let target = match options.to.as_deref() {
        Some("bin") => store::StoreFormat::Binary,
        Some("json") => store::StoreFormat::Json,
        Some(other) => return Err(format!("--to must be `bin` or `json`, not `{other}`")),
        None => return Err("convert needs --to bin|json".to_string()),
    };
    if !path.exists() {
        return Err(format!("no such store: {}", path.display()));
    }
    let out = options.out.as_deref().unwrap_or(path);
    // Rewriting a store a live daemon owns would race its checkpoints;
    // same rule as gc/merge. A dead daemon's lock is stale — report it
    // and proceed.
    report_stale_lock(
        serve_lock::refuse_if_live(path, "convert").map_err(|e| e.to_string())?,
        path,
    );
    if out != path {
        report_stale_lock(
            serve_lock::refuse_if_live(out, "convert").map_err(|e| e.to_string())?,
            out,
        );
    }
    let opened = ResultStore::open_any(path).map_err(|e| e.to_string())?;
    opened
        .store
        .save_as(out, target)
        .map_err(|e| e.to_string())?;
    if !options.quiet {
        println!(
            "converted {} ({} cells, {} -> {}) into {}",
            path.display(),
            opened.store.len(),
            opened.format,
            target,
            out.display()
        );
    }
    Ok(0)
}

/// Validates the persistence flags of a campaign command and opens what
/// its session runs against: the `--trace` recorder (threaded through
/// the executor and the journal/telemetry sidecars, streamed out as a
/// Chrome trace-event file at the end; purely observational) and the
/// store, with `--resume` replaying its journal. Returns the store, the
/// journal cells replayed and the recorder.
fn open_store(options: &Options) -> Result<(ResultStore, usize, Option<Obs>), String> {
    let journaling = options.resume || options.checkpoint_every.is_some();
    if journaling && options.store.is_none() {
        return Err("--resume and --checkpoint-every need --store PATH".into());
    }
    // The threshold only means something against an active journal:
    // accepting it alone would silently run without any journaling.
    if options.compact_journal_over.is_some() && options.checkpoint_every.is_none() {
        return Err(
            "--compact-journal-over needs --checkpoint-every (it bounds the journal \
             that flag appends to)"
                .into(),
        );
    }
    if options.telemetry && options.store.is_none() {
        return Err("--telemetry needs --store PATH (the sidecar lives beside it)".into());
    }
    // The recorder opens first so store load / journal replay below
    // already appear in the trace.
    let obs = match &options.trace {
        Some(path) => Some(Obs::with_trace(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let (store, replayed) = match (&options.store, options.resume) {
        (Some(path), true) => {
            ResultStore::open_resumable_observed(path, obs.as_ref()).map_err(|e| e.to_string())?
        }
        (Some(path), false) => (ResultStore::load(path).map_err(|e| e.to_string())?, 0),
        (None, _) => (ResultStore::new(), 0),
    };
    Ok((store, replayed, obs))
}

/// Runs `runner` in a [`Session`] built from the persistence flags
/// (journal with `--resume`/`--checkpoint-every`, sidecar with
/// `--telemetry`, the `--progress` stderr line), then prints what was
/// persisted and finishes the trace. The store is written before the
/// runner's error is returned, so a failing cell keeps its completed
/// siblings on disk.
fn run_session<T>(
    options: &Options,
    store: &mut ResultStore,
    obs: Option<&Obs>,
    runner: impl FnOnce(&mut ResultStore, ExecHooks<'_>) -> Result<T, ScenarioError>,
) -> Result<T, String> {
    let progress_line = |e: CellEvent<'_>| {
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r  {} cells executed, {} memoized (domain: {})",
            e.executed, e.memoized, e.total
        );
        let _ = err.flush();
    };
    let journaling = options.resume || options.checkpoint_every.is_some();
    let session = Session {
        store: options.store.as_deref(),
        journal_batch: journaling.then(|| options.checkpoint_every.unwrap_or(1)),
        compact_over: options.compact_journal_over,
        telemetry_batch: options.telemetry.then(|| {
            options
                .checkpoint_every
                .unwrap_or(telemetry::DEFAULT_TELEMETRY_BATCH)
        }),
        obs,
        on_cell: options
            .progress
            .then_some(&progress_line as &(dyn Fn(CellEvent<'_>) + Sync)),
        cancel: None,
    };
    let persisted = session.run(store, runner).map_err(|e| e.to_string())?;
    if options.progress {
        eprintln!();
    }
    // Telemetry is advisory: an incomplete sidecar is a warning, and
    // the store was saved regardless.
    match (persisted.telemetry_warning, &options.store) {
        (Some(warning), _) => {
            eprintln!("campaign: warning: telemetry sidecar incomplete: {warning}")
        }
        (None, Some(store)) if options.telemetry && !options.quiet => println!(
            "telemetry appended: {}",
            telemetry::telemetry_path(store).display()
        ),
        _ => {}
    }
    if let (Some(path), true, false) = (&options.store, journaling, options.quiet) {
        match persisted.compactions {
            0 => println!("checkpoint written: {}", path.display()),
            n => println!(
                "checkpoint written: {} ({n} mid-run journal compactions)",
                path.display()
            ),
        }
    }
    finish_trace(obs, options.quiet);
    persisted.outcome.map_err(|e| e.to_string())
}

/// Flushes the `--trace` file, if one was requested. Like telemetry,
/// the trace is advisory: an incomplete trace is a warning on stderr,
/// never a reason to fail a campaign whose store was already saved.
fn finish_trace(obs: Option<&Obs>, quiet: bool) {
    let Some(obs) = obs else { return };
    match obs.finish_trace() {
        Ok(Some((path, events))) => {
            if !quiet {
                println!("trace written: {} ({events} events)", path.display());
            }
        }
        Ok(None) => {}
        Err(e) => eprintln!("campaign: warning: trace incomplete: {e}"),
    }
}

fn run_or_report(registry: &Registry, options: &Options) -> Result<u8, String> {
    let filter = Filter::parse(&options.filters)?;
    let config = ExecConfig {
        threads: options.threads,
        seed: options.seed,
        replicates: options.replicates.unwrap_or(1),
        keep_replicates: options.keep_replicates,
    };
    let (mut store, replayed, obs) = open_store(options)?;
    let campaign = run_session(options, &mut store, obs.as_ref(), |store, hooks| {
        run_campaign_with(
            registry,
            &options.scenarios,
            &filter,
            &config,
            store,
            CellDomain::All,
            hooks,
        )
    })?;
    write_artifacts(&campaign, options)?;
    if options.command == "report" {
        print!("{}", report::evidence_summary(&campaign, registry));
        if campaign.replicates > 1 {
            print!("{}", report::distribution_summary(&campaign, registry));
        }
        return Ok(0);
    }
    print_cells(&campaign, options.quiet);
    println!(
        "{} cells: {} executed, {} memoized (seed {}){}",
        campaign.cells.len(),
        campaign.executed,
        campaign.memoized,
        campaign.seed,
        if options.resume {
            format!(" — resumed, {replayed} journal cells replayed")
        } else {
            String::new()
        }
    );
    Ok(0)
}

fn plan(registry: &Registry, options: &Options) -> Result<u8, String> {
    let shards = options.shards.ok_or("plan needs --shards N")?;
    let path = options
        .manifest
        .as_deref()
        .ok_or("plan needs --manifest PATH")?;
    // The baseline store, and — when a telemetry sidecar accompanies it
    // — the measured durations that outrank the metric proxy.
    let (baseline, baseline_telemetry) = match &options.calibrate {
        Some(p) => (
            Some(ResultStore::load_required(p).map_err(|e| e.to_string())?),
            Some(Telemetry::load_for_store(p).map_err(|e| e.to_string())?),
        ),
        None => (None, None),
    };
    let (manifest, shard_counts, source) = dist::plan_calibrated_with(
        registry,
        &options.scenarios,
        &options.filters,
        options.seed,
        shards,
        options.replicates.unwrap_or(1),
        baseline.as_ref(),
        baseline_telemetry.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    manifest.save(path).map_err(|e| e.to_string())?;
    if !options.quiet {
        print!("{}", report::plan_summary(&manifest, &shard_counts));
        match source {
            dist::WeightSource::WallClock => println!(
                "  weights calibrated from wall-clock telemetry ({})",
                telemetry::telemetry_path(options.calibrate.as_deref().unwrap_or(Path::new("")))
                    .display()
            ),
            dist::WeightSource::MetricProxy => {
                println!("  weights calibrated from the metric-magnitude proxy")
            }
            dist::WeightSource::Unit => {}
        }
    }
    println!("manifest written to {}", path.display());
    Ok(0)
}

fn shard(options: &Options) -> Result<u8, String> {
    let path = options
        .manifest
        .as_deref()
        .ok_or("shard needs --manifest PATH")?;
    let index = options.index.ok_or("shard needs --index I")?;
    if options.leases.is_some() && !options.steal {
        return Err("--leases needs --steal (the static partition uses no lease files)".into());
    }
    let manifest = dist::Manifest::load(path).map_err(|e| e.to_string())?;
    // The registry (and its generated corpus) is rebuilt from the
    // manifest, not from local flags: every worker must claim shards of
    // the exact campaign that was planned.
    let registry = dist::registry_for(&manifest);
    let (mut store, _, obs) = open_store(options)?;
    let (campaign, steal_stats) = if options.steal {
        let lease_dir = options
            .leases
            .clone()
            .unwrap_or_else(|| dist::LeaseDir::for_manifest(path));
        // `open` stamps the directory with this campaign's digest and
        // refuses stale lease directories from an earlier plan.
        let leases = dist::LeaseDir::open(&lease_dir, &manifest).map_err(|e| e.to_string())?;
        let (campaign, stats) = run_session(options, &mut store, obs.as_ref(), |store, hooks| {
            dist::run_shard_stealing(
                &registry,
                &manifest,
                index,
                options.threads,
                store,
                &leases,
                hooks,
            )
        })?;
        (campaign, Some(stats))
    } else {
        let campaign = run_session(options, &mut store, obs.as_ref(), |store, hooks| {
            dist::run_shard_with(&registry, &manifest, index, options.threads, store, hooks)
        })?;
        (campaign, None)
    };
    write_artifacts(&campaign, options)?;
    print_cells(&campaign, options.quiet);
    print!(
        "shard {index}/{}: {} cells: {} executed, {} memoized (seed {})",
        manifest.shards,
        campaign.cells.len(),
        campaign.executed,
        campaign.memoized,
        campaign.seed
    );
    match steal_stats {
        Some(stats) => println!(
            " — steal: {} chunks claimed ({} stolen), lease {} lazy cells, executed {}",
            stats.claimed_chunks, stats.stolen_chunks, stats.lease_cells, stats.executed_lazy_cells
        ),
        None => println!(),
    }
    Ok(0)
}

fn merge(options: &Options) -> Result<u8, String> {
    let out = options.out.as_deref().ok_or("merge needs --out PATH")?;
    if options.positional.is_empty() {
        return Err("merge needs at least one input store".into());
    }
    if options.steal_report && options.manifest.is_none() {
        return Err("--report needs --manifest PATH (the chunk map comes from it)".into());
    }
    if options.leases.is_some() && !options.steal_report {
        return Err("--leases needs --report (plain merges read no lease files)".into());
    }
    if options.keep_replicates && options.manifest.is_none() {
        return Err(
            "--keep-replicates needs --manifest PATH (the replicate fold it modulates is \
             driven by the manifest)"
                .into(),
        );
    }
    // A live daemon both reads (inputs) and writes (--out) its store on
    // its own schedule; merging against either end races it.
    for path in options
        .positional
        .iter()
        .chain(std::iter::once(&out.to_path_buf()))
    {
        report_stale_lock(
            serve_lock::refuse_if_live(path, "merge").map_err(|e| e.to_string())?,
            path,
        );
    }
    let obs = match &options.trace {
        Some(path) => Some(Obs::with_trace(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let stores = options
        .positional
        .iter()
        .map(|p| ResultStore::load_required(p).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs_merged = stores.len();
    let (fused, stats) =
        dist::merge_stores_owned_observed(stores, obs.as_ref()).map_err(|e| e.to_string())?;
    let mut fused = fused;
    let mut folded = 0usize;
    if let Some(path) = &options.manifest {
        let manifest = dist::Manifest::load(path).map_err(|e| e.to_string())?;
        let registry = dist::registry_for(&manifest);
        dist::merge::verify_coverage(&registry, &manifest, &fused).map_err(|e| e.to_string())?;
        // A replicated campaign's shards carry raw replicate cells;
        // folding them here (after coverage proved every replicate
        // present) makes the merged store byte-identical to the
        // single-process run's.
        folded =
            dist::merge::fold_replicates(&registry, &manifest, &mut fused, options.keep_replicates)
                .map_err(|e| e.to_string())?;
        if options.steal_report {
            let lease_dir = options
                .leases
                .clone()
                .unwrap_or_else(|| dist::LeaseDir::for_manifest(path));
            if !lease_dir.is_dir() {
                return Err(format!(
                    "no lease directory at {} — --report needs the lease files of a \
                     `shard --steal` campaign (or pass theirs via --leases DIR)",
                    lease_dir.display()
                ));
            }
            let leases = dist::LeaseDir::open(&lease_dir, &manifest).map_err(|e| e.to_string())?;
            let inputs: Vec<(String, Option<Telemetry>)> = options
                .positional
                .iter()
                .map(|p| {
                    let sidecar = telemetry::telemetry_path(p);
                    let telemetry = if sidecar.exists() {
                        Some(Telemetry::load(&sidecar).map_err(|e| e.to_string())?)
                    } else {
                        None
                    };
                    Ok((p.display().to_string(), telemetry))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let report = dist::steal_report(&registry, &manifest, &leases, &inputs)
                .map_err(|e| e.to_string())?;
            print!("{}", report::steal_summary(&report, &manifest));
        }
    }
    fused
        .save_observed(out, obs.as_ref())
        .map_err(|e| e.to_string())?;
    finish_trace(obs.as_ref(), options.quiet);
    // --quiet mutes the summary line; an explicitly requested --report
    // still prints (asking for a report and silencing it would be a
    // contradiction).
    if !options.quiet {
        println!(
            "merged {} stores into {}: {} cells ({} duplicate){}",
            inputs_merged,
            out.display(),
            fused.len(),
            stats.duplicates,
            if folded > 0 {
                format!(", {folded} replicate groups folded")
            } else {
                String::new()
            }
        );
    }
    Ok(0)
}

fn diff(options: &Options) -> Result<u8, String> {
    let [baseline, compared] = options.positional.as_slice() else {
        return Err("diff needs exactly two store paths (BASELINE COMPARED)".into());
    };
    let mut tol = dist::Tolerances::parse(&options.tols).map_err(|e| e.to_string())?;
    if let Some(eps) = options.tol_default {
        tol = tol.with_default(eps);
    }
    if let Some(rel) = options.rel_default {
        tol = tol.with_rel(rel);
    }
    if let Some(sigmas) = options.sigmas {
        tol = tol.with_sigmas(sigmas);
    }
    let load = |p: &Path| ResultStore::load_required(p).map_err(|e| e.to_string());
    let (a, b) = (load(baseline)?, load(compared)?);
    let report = dist::diff_stores(&a, &b, &tol);
    if !options.quiet || !report.is_empty() {
        print!("{}", report::diff_summary(&report));
    }
    Ok(if report.is_empty() {
        0
    } else {
        EXIT_DIFFERENCES
    })
}

/// Prints the remediation note for a stale (dead-owner) store lock a
/// command decided to ignore — so the operator learns the lock exists
/// and why it did not block.
fn report_stale_lock(stale: Option<serve_lock::LockInfo>, store: &Path) {
    if let Some(info) = stale {
        eprintln!(
            "note: ignoring stale store lock at {} (dead pid {}) — remove it, or let the \
             next `campaign serve` break it automatically",
            serve_lock::lock_path(store).display(),
            info.pid,
        );
    }
}

/// `campaign serve`: the always-on query/submit daemon over a store.
fn serve_cmd(options: &Options) -> Result<u8, String> {
    let store_path = options.store.as_deref().ok_or("serve needs --store PATH")?;
    let obs = match &options.trace {
        Some(path) => Some(Obs::with_trace(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let defaults = ServeOptions::default();
    let handle = Server::bind(
        store_path,
        ServeOptions {
            addr: options.addr.clone().unwrap_or(defaults.addr),
            accept_pool: options.accept_pool.unwrap_or(defaults.accept_pool),
            exec_threads: options.threads,
            checkpoint_every: options
                .checkpoint_every
                .unwrap_or(defaults.checkpoint_every),
            compact_journal_over: options.compact_journal_over,
            slowlog_over_us: options.slowlog_over_us.unwrap_or(defaults.slowlog_over_us),
            quiet: options.quiet,
        },
        obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    report_stale_lock(handle.broke_stale_lock.clone(), store_path);
    let addr = handle.addr();
    if let Some(port_file) = &options.port_file {
        // Written via a rename so a poller never reads a half-written
        // address.
        let tmp = port_file.with_extension("tmp");
        std::fs::write(&tmp, format!("{addr}\n"))
            .and_then(|()| std::fs::rename(&tmp, port_file))
            .map_err(|e| format!("write {}: {e}", port_file.display()))?;
    }
    if !options.quiet {
        println!(
            "serve: listening on {addr} ({} cells{})",
            handle.cells(),
            if handle.replayed > 0 {
                format!(", {} journal cells replayed", handle.replayed)
            } else {
                String::new()
            }
        );
    }
    let summary = handle.wait().map_err(|e| e.to_string())?;
    finish_trace(obs.as_ref(), options.quiet);
    if !options.quiet {
        println!(
            "serve: shut down after {} ms — {} cells checkpointed; {} connections, \
             {} requests ({} queries: {} hits, {} misses), {} submits \
             ({} done, {} failed, {} cancelled, {} dropped)",
            summary.uptime_ms,
            summary.cells,
            summary.connections,
            summary.requests,
            summary.queries,
            summary.query_hits,
            summary.query_misses,
            summary.submits,
            summary.jobs_done,
            summary.jobs_failed,
            summary.jobs_cancelled,
            summary.jobs_dropped,
        );
    }
    Ok(0)
}

/// One `top` poll: a fresh connection, one request/response round trip
/// per op. A fresh connection per poll keeps the daemon's accept-pool
/// slot free between polls and makes "daemon gone" detection trivial.
fn top_poll(addr: &str) -> std::io::Result<[Json; 3]> {
    use std::io::{BufRead, BufReader};
    let stream = std::net::TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut responses = Vec::with_capacity(3);
    for op in ["stats", "metrics", "jobs"] {
        writeln!(stream, "{{\"op\":\"{op}\"}}")?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let doc = Json::parse(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        responses.push(doc);
    }
    Ok(responses.try_into().expect("three ops, three responses"))
}

/// `campaign top`: live terminal view of a running daemon. The screen
/// itself is rendered by [`harness::serve::top`]; this loop only
/// polls, clears and reprints.
fn top_cmd(options: &Options) -> Result<u8, String> {
    let addr = match (&options.addr, &options.port_file) {
        (Some(addr), None) => addr.clone(),
        (None, Some(path)) => std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .trim()
            .to_string(),
        (Some(_), Some(_)) => return Err("top takes --addr or --port-file, not both".into()),
        (None, None) => return Err("top needs --addr HOST:PORT or --port-file PATH".into()),
    };
    let interval = std::time::Duration::from_millis(options.interval_ms.unwrap_or(1_000));
    let mut first = true;
    loop {
        let [stats, metrics, jobs] = match top_poll(&addr) {
            Ok(responses) => responses,
            // The first connection failing is an operator error (wrong
            // address, daemon not up); later failures mean the daemon
            // shut down mid-watch, which is a clean exit.
            Err(e) if first => return Err(format!("connect {addr}: {e}")),
            Err(_) => {
                println!("campaign top: daemon at {addr} is gone");
                return Ok(0);
            }
        };
        let screen = serve_top::render(&addr, &stats, &metrics, &jobs);
        if options.once {
            print!("{screen}");
            return Ok(0);
        }
        // ANSI clear + home, then the fresh frame.
        print!("\x1b[2J\x1b[H{screen}");
        let _ = std::io::stdout().flush();
        first = false;
        std::thread::sleep(interval);
    }
}

/// `campaign trace FILE`: validates a `--trace` output file and prints
/// its per-span totals — the quick sanity check CI runs before anyone
/// loads the file into Perfetto.
fn trace_cmd(options: &Options) -> Result<u8, String> {
    let [path] = options.positional.as_slice() else {
        return Err("trace needs exactly one trace file path".into());
    };
    let stats = obs_trace::load_trace(path).map_err(|e| e.to_string())?;
    println!(
        "{}: {} events{}",
        path.display(),
        stats.events,
        if stats.torn_tail {
            " (torn final line tolerated)"
        } else {
            ""
        }
    );
    for (name, span) in &stats.spans {
        println!(
            "  {:<20} {:>8} x {:>14.1} us",
            name, span.count, span.total_us
        );
    }
    Ok(0)
}

/// Writes the campaign-shaped artifacts (JSON/CSV). The store itself
/// is persisted by the [`Session`] in [`run_session`] —
/// checkpoint-compacted when journaling, atomically saved otherwise.
fn write_artifacts(campaign: &Campaign, options: &Options) -> Result<(), String> {
    if let Some(path) = &options.json {
        std::fs::write(path, report::campaign_json(campaign))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &options.csv {
        std::fs::write(path, report::campaign_csv(campaign))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn print_cells(campaign: &Campaign, quiet: bool) {
    if quiet {
        return;
    }
    for cell in &campaign.cells {
        let metrics: Vec<String> = cell
            .result
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!(
            "{:<20} {:<44} {}{}",
            cell.scenario,
            cell.params.key(),
            metrics.join(" "),
            if cell.memoized { "  (memoized)" } else { "" }
        );
    }
}
