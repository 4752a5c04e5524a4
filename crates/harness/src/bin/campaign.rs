//! The campaign CLI: list scenarios, run filtered matrices, print the
//! evidence summary — and drive distributed campaigns end-to-end
//! (plan → shard → merge → diff), with crash-resumable checkpointed
//! execution and work-stealing shard workers.
//!
//! ```text
//! cargo run -p harness --bin campaign -- list
//! cargo run -p harness --bin campaign -- run [--scenario ID]... [--filter AXIS=VALUE]...
//!         [--threads N] [--seed S] [--corpus-size N] [--store PATH] [--json PATH]
//!         [--csv PATH] [--quiet] [--progress]
//! cargo run -p harness --bin campaign -- report [same flags as run]
//! cargo run -p harness --bin campaign -- gen [--seed S] [--corpus-size N]
//!         [--filter A=V]... [--disasm]
//! cargo run -p harness --bin campaign -- plan --shards N --manifest PATH
//!         [--scenario ID]... [--filter A=V]... [--seed S] [--corpus-size N]
//!         [--replicates N]
//! cargo run -p harness --bin campaign -- shard --manifest PATH --index I
//!         [--store PATH] [--threads N] [--json PATH] [--csv PATH] [--quiet]
//!         [--steal] [--leases DIR] [--progress]
//! cargo run -p harness --bin campaign -- merge --out PATH [--manifest PATH] STORE...
//! cargo run -p harness --bin campaign -- diff BASELINE COMPARED [--tol METRIC=EPS]...
//!         [--tol-default EPS] [--quiet]
//! cargo run -p harness --bin campaign -- gc --store PATH [--dry-run] [--quiet]
//!         [--seed S] [--corpus-size N]
//! cargo run -p harness --bin campaign -- trace FILE
//! cargo run -p harness --bin campaign -- serve --store PATH [--addr HOST:PORT]
//!         [--accept-pool N] [--threads N] [--slowlog-over-us N]
//!         [--port-file PATH]
//!         [--trace FILE] [--quiet]
//! cargo run -p harness --bin campaign -- top (--addr HOST:PORT | --port-file PATH)
//!         [--interval-ms N] [--once]
//! ```
//!
//! `run` prints per-cell metrics; `report` prints the Table-1/2-style
//! evidence summary joined against `predictability_core::catalog`.
//! Both memoize through `--store` (results persist across invocations).
//! Every completed cell of a stored run is appended to a journal beside
//! the store, and the run ends by folding the journal into the store, so
//! a campaign killed mid-run resumes when the same command is run again
//! — zero recompute. `shard` runs its initial lease of
//! the manifest's chunk map; `shard --steal` claims it through the
//! lease-file work-stealing protocol and then steals unclaimed chunks.
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
use harness::serve::{top as serve_top, ServeOptions, Server};
use harness::session::Session;
use harness::store::{self, LockInfo, OpenedStore, ResultStore};
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
    // convert flags
    to: Option<String>,
    progress: bool,
    // serve flags
    addr: Option<String>,
    accept_pool: Option<usize>,
    port_file: Option<PathBuf>,
    slowlog_over_us: Option<u64>,
    // top flags
    interval_ms: Option<u64>,
    once: bool,
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

crash-resumable execution (run/report/shard with --store):
  every completed cell is appended to a journal beside the store
  (<store>.journal, JSON lines, fsync'd every 16 cells) and the run ends
  by folding the journal into the store. A run killed mid-campaign
  loses at most a torn final line (a power loss or OS crash at most the
  unsynced batch): run the same command again and it prints `N journal
  cells replayed` and executes only the remaining cells. A store has
  one writer at a time (<store>.lock): a second writer, or a reader
  (diff, merge inputs, convert's input, gc --dry-run), exits 2 naming
  the holder; a dead holder's lock is noted and broken
  --progress         live progress heartbeats on stderr

observability (run/report/shard/merge):
  --trace FILE       record named monotonic-clock spans (plan, decode,
                     memo lookup, cell, journal append/fsync,
                     checkpoint, steal-lease claim, merge) and engine
                     counters to FILE as a Chrome trace-event stream —
                     open in Perfetto (ui.perfetto.dev) or validate
                     with `campaign trace FILE`. Purely observational:
                     the store bytes are identical with and without it.
                     The trace is where a run's cell times live: one
                     `cell` span per executed cell
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
         write the manifest (records per-scenario digests, the
         replicate multiplier and the corpus identity) and print each
         shard's initial lease of chunks cut by cell count; shards run
         the raw replicate cells and `merge --manifest` folds them, so
         the merged store is byte-identical to a single-process
         `run --replicates N`
  shard  --manifest PATH --index I [--store PATH] [--threads N]
         [--steal] [--leases DIR]
         run shard I's initial lease against its own store (the
         registry and corpus are rebuilt from the manifest; drift
         errors name the drifted scenarios); --steal claims the lease
         chunk by chunk and then steals the other shards' unclaimed
         chunks through lease files (default DIR: <manifest>.leases
         next to the manifest).
         Leases belong to one campaign attempt: a stale lease dir from
         an earlier plan is rejected, and after a crashed attempt you
         remove the dir and re-run all shards (journaled cells replay;
         only the dead shard's unfinished chunks recompute)
  merge  --out PATH [--manifest PATH] [--report] [--leases DIR]
         [--keep-replicates] STORE...
         fuse shard stores, each input's journal replayed in memory
         (conflict = determinism violation -> exit 2);
         with --manifest, also verify exact planned-cell coverage and,
         for a replicated manifest, fold each replicate group into its
         distribution cell (drop the raws unless --keep-replicates) —
         byte-identical to a single-process run; --report (needs
         --manifest) prints the steal-aware summary from the lease
         files (--leases DIR, default <manifest>.leases): which shard
         won which chunk, and each shard's leased vs won chunks and
         cells. A shard's wall time is the `cell` row of
         `campaign trace` on its --trace file
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
         drop cells the current registry can no longer serve (stale
         schema, unregistered scenario, old implementation version);
         --dry-run reports without rewriting the store. A journal
         beside the store is folded in first, so its cells are
         collected too (a dry run folds only in memory); an old-schema
         store with a journal is refused
  convert --store PATH --to bin|json [--out PATH]
         rewrite a result store in the other checkpoint format: `bin`
         is the binary columnar layout (interned strings, fixed-width
         cell records, f64 metric columns, content digest in the
         header) that large stores load an order of magnitude faster;
         `json` is the readable interchange format. Conversion is
         canonical and lossless — json -> bin -> json reproduces the
         original checkpoint byte-identically. Default --out is the
         store path itself (in place). A journal beside the store is
         folded into the output. Every command sniffs the format by
         magic, so either format works anywhere a store is accepted;
         journal sidecars stay JSON-lines in both cases

always-on campaign serving:
  serve  --store PATH [--addr HOST:PORT] [--accept-pool N] [--threads N]
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
         scripts. The daemon is its store's writer: it holds
         <store>.lock until shutdown
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
        to: None,
        progress: false,
        addr: None,
        accept_pool: None,
        port_file: None,
        slowlog_over_us: None,
        interval_ms: None,
        once: false,
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
            "--to" => options.to = Some(value("--to")?),
            "--trace" => options.trace = Some(PathBuf::from(value("--trace")?)),
            "--report" => options.steal_report = true,
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
    let message = match parse(std::env::args()) {
        Err(message) => message,
        Ok(options) => match run(options) {
            Ok(code) => return ExitCode::from(code),
            Err(message) => format!("campaign: {message}"),
        },
    };
    warn(message);
    ExitCode::from(EXIT_ERROR)
}

/// Writes one line to stderr. Not `eprintln!`, which panics (exit 101)
/// when stderr is a closed pipe: the exit code stays the command's
/// whether or not anyone reads its diagnostics.
fn warn(message: impl std::fmt::Display) {
    let _ = writeln!(std::io::stderr(), "{message}");
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
            "--progress",
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
            "--progress",
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
        "gc" => &["--store", "--dry-run", "--seed", "--corpus-size", "--quiet"],
        "convert" => &["--store", "--to", "--out", "--quiet"],
        "serve" => &[
            "--store",
            "--addr",
            "--accept-pool",
            "--threads",
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
    // A dry run only reads; a real gc rewrites the store as its writer.
    let opened = if options.dry_run {
        ResultStore::load_required(path)
    } else {
        store::require(path).and_then(|()| ResultStore::open_resumable(path, "gc", None))
    }
    .map_err(|e| e.to_string())?;
    note_open(path, opened.replayed, opened.stale_lock.as_ref());
    // A journal sidecar holds cells the store file does not, and the
    // next open replays every one of them — evicted ones included —
    // straight back. So gc folds the pair first and rewrites it as a
    // checkpoint, which removes the journal.
    // A run killed before its first checkpoint leaves only a journal.
    let journal = store::journal_path(path);
    let mut doc = if path.exists() {
        load_store_doc(path)?
    } else {
        ResultStore::new().to_json()
    };
    if journal.exists() {
        // An old-schema checkpoint opens *empty*: folding it would
        // overwrite the file with nothing before gc could report its
        // cells as stale-schema drops. Refuse instead.
        let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        if schema != store::SCHEMA_VERSION {
            return Err(format!(
                "store {} has schema {schema} (current {}): folding its journal would \
                 silently discard its cells before gc could report them — remove the journal \
                 ({}) by hand, then re-run gc",
                path.display(),
                store::SCHEMA_VERSION,
                journal.display()
            ));
        }
        doc = opened.store.to_json();
    }
    let (kept, outcome) = store::gc(&doc, registry).map_err(|e| e.to_string())?;
    if !options.quiet || !outcome.dropped.is_empty() {
        print!("{}", report::gc_summary(&outcome, options.dry_run));
    }
    if !options.dry_run {
        kept.checkpoint(path).map_err(|e| e.to_string())?;
        if !options.quiet {
            println!("store rewritten: {}", path.display());
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
    store::require(path).map_err(|e| e.to_string())?;
    let out = options.out.as_deref().unwrap_or(path);
    // The output is opened as the writer, its lock held until the
    // checkpoint; an in-place convert reads its input through that open.
    let writer = ResultStore::open_resumable(out, "convert", None).map_err(|e| e.to_string())?;
    let opened = if same_store(path, out) {
        writer
    } else {
        note_open(out, 0, writer.stale_lock.as_ref());
        let input = ResultStore::load_required(path).map_err(|e| e.to_string())?;
        OpenedStore {
            lock: writer.lock,
            ..input
        }
    };
    note_open(path, opened.replayed, opened.stale_lock.as_ref());
    opened
        .store
        .checkpoint_as(out, target, None)
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

/// Opens what a campaign command's session runs against: the `--trace`
/// recorder (threaded through the executor and the journal, streamed
/// out as a Chrome trace-event file at the end;
/// purely observational) and the store through the writer open: keep
/// it until the session's final checkpoint, since it holds the store's
/// lock. The journal is replayed, so a rerun of a killed campaign
/// executes only the remaining cells.
fn open_store(options: &Options) -> Result<(OpenedStore, Option<Obs>), String> {
    // The recorder opens first so store load / journal replay below
    // already appear in the trace.
    let obs = match &options.trace {
        Some(path) => Some(Obs::with_trace(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let Some(path) = &options.store else {
        return Ok((OpenedStore::default(), obs));
    };
    let opened = ResultStore::open_resumable(path, &options.command, obs.as_ref())
        .map_err(|e| e.to_string())?;
    note_open(path, opened.replayed, opened.stale_lock.as_ref());
    Ok((opened, obs))
}

/// Says what opening `store` found: the cells a killed run left in its
/// journal (stdout, even under `--quiet`) and a dead owner's lock.
fn note_open(store: &Path, replayed: usize, stale_lock: Option<&LockInfo>) {
    if replayed > 0 {
        println!(
            "{replayed} journal cells replayed from {}",
            store::journal_path(store).display()
        );
    }
    if let Some(info) = stale_lock {
        warn(format_args!(
            "note: stale store lock at {} (dead pid {}, `campaign {}`): readers ignore it, \
             writers break it",
            store::lock_path(store).display(),
            info.pid,
            info.cmd,
        ));
    }
}

/// Whether two store paths name one store.
fn same_store(a: &Path, b: &Path) -> bool {
    a == b
        || std::fs::canonicalize(a)
            .ok()
            .is_some_and(|a| std::fs::canonicalize(b).ok() == Some(a))
}

/// Runs `runner` in a [`Session`] built from the persistence flags
/// (journal and checkpoint with `--store`, the `--progress` stderr
/// line), then finishes the trace. The store is written before the
/// runner's error is returned, so a failing cell keeps its completed
/// siblings on disk.
fn run_session<T>(
    options: &Options,
    store: &mut ResultStore,
    obs: Option<&Obs>,
    runner: impl FnOnce(&mut ResultStore, ExecHooks<'_>) -> Result<T, ScenarioError>,
) -> Result<T, String> {
    let progress_line = |e: CellEvent| {
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r  {} cells executed, {} memoized (domain: {})",
            e.executed, e.memoized, e.total
        );
        let _ = err.flush();
    };
    let session = Session {
        store: options.store.as_deref(),
        obs,
        on_cell: options
            .progress
            .then_some(&progress_line as &(dyn Fn(CellEvent) + Sync)),
        cancel: None,
    };
    let outcome = session.run(store, runner).map_err(|e| e.to_string())?;
    if options.progress {
        warn("");
    }
    finish_trace(obs, options.quiet);
    outcome.map_err(|e| e.to_string())
}

/// Flushes the `--trace` file, if one was requested. The trace is
/// advisory: an incomplete trace is a warning on stderr,
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
        Err(e) => warn(format_args!("campaign: warning: trace incomplete: {e}")),
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
    let (mut opened, obs) = open_store(options)?;
    let campaign = run_session(options, &mut opened.store, obs.as_ref(), |store, hooks| {
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
        "{} cells: {} executed, {} memoized (seed {})",
        campaign.cells.len(),
        campaign.executed,
        campaign.memoized,
        campaign.seed,
    );
    Ok(0)
}

fn plan(registry: &Registry, options: &Options) -> Result<u8, String> {
    let shards = options.shards.ok_or("plan needs --shards N")?;
    let path = options
        .manifest
        .as_deref()
        .ok_or("plan needs --manifest PATH")?;
    let manifest = dist::plan(
        registry,
        &options.scenarios,
        &options.filters,
        options.seed,
        shards,
        options.replicates.unwrap_or(1),
    )
    .map_err(|e| e.to_string())?;
    manifest.save(path).map_err(|e| e.to_string())?;
    if !options.quiet {
        let chunks = dist::chunk_map(registry, &manifest).map_err(|e| e.to_string())?;
        print!("{}", report::plan_summary(&manifest, &chunks));
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
        return Err("--leases needs --steal (a static shard uses no lease files)".into());
    }
    let manifest = dist::Manifest::load(path).map_err(|e| e.to_string())?;
    // The registry (and its generated corpus) is rebuilt from the
    // manifest, not from local flags: every worker must claim shards of
    // the exact campaign that was planned.
    let registry = dist::registry_for(&manifest);
    let (mut opened, obs) = open_store(options)?;
    let (campaign, steal_stats) = if options.steal {
        let lease_dir = options
            .leases
            .clone()
            .unwrap_or_else(|| dist::LeaseDir::for_manifest(path));
        // `open` stamps the directory with this campaign's digest and
        // refuses stale lease directories from an earlier plan.
        let leases = dist::LeaseDir::open(&lease_dir, &manifest).map_err(|e| e.to_string())?;
        let (campaign, stats) =
            run_session(options, &mut opened.store, obs.as_ref(), |store, hooks| {
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
        let campaign = run_session(options, &mut opened.store, obs.as_ref(), |store, hooks| {
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
    let obs = match &options.trace {
        Some(path) => Some(Obs::with_trace(path).map_err(|e| e.to_string())?),
        None => None,
    };
    // The output is opened as the writer before any input is read, its
    // lock held until the checkpoint; an input that is the output
    // itself is read through that open.
    let mut writer = ResultStore::open_resumable(out, "merge", None).map_err(|e| e.to_string())?;
    note_open(out, 0, writer.stale_lock.as_ref());
    let stores = options
        .positional
        .iter()
        .map(|p| {
            if same_store(p, out) {
                store::require(p)?;
                note_open(p, writer.replayed, None);
                // Taken, not cloned: a repeat of the output adds
                // nothing to the union.
                return Ok(std::mem::take(&mut writer.store));
            }
            let opened = ResultStore::load_required(p)?;
            note_open(p, opened.replayed, opened.stale_lock.as_ref());
            Ok(opened.store)
        })
        .collect::<Result<Vec<_>, ScenarioError>>()
        .map_err(|e| e.to_string())?;
    let inputs_merged = stores.len();
    let (mut fused, stats) = dist::merge_stores(stores, obs.as_ref()).map_err(|e| e.to_string())?;
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
            let report =
                dist::steal_report(&registry, &manifest, &leases).map_err(|e| e.to_string())?;
            print!("{}", report::steal_summary(&report, &manifest));
        }
    }
    fused
        .checkpoint_observed(out, obs.as_ref())
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
    let load = |p: &Path| {
        let opened = ResultStore::load_required(p).map_err(|e| e.to_string())?;
        // stdout is the diff report alone: only the stale note.
        note_open(p, 0, opened.stale_lock.as_ref());
        Ok::<_, String>(opened.store)
    };
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
            slowlog_over_us: options.slowlog_over_us.unwrap_or(defaults.slowlog_over_us),
            quiet: options.quiet,
        },
        obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    note_open(
        store_path,
        handle.opened.replayed,
        handle.opened.stale_lock.as_ref(),
    );
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
        println!("serve: listening on {addr} ({} cells)", handle.cells());
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
/// is journaled and checkpointed by the [`Session`] in [`run_session`].
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
