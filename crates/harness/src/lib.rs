//! # harness
//!
//! The scenario-matrix evaluation engine: the subsystem that turns
//! every simulator crate in this workspace into a registered, runnable
//! workload and executes whole experiment *campaigns* over them.
//!
//! The paper's template (a property to be predicted × sources of
//! uncertainty × a quality measure) only yields *evidence* when
//! instantiated over many concrete systems. This crate is that
//! instantiation engine, in four layers:
//!
//! * [`scenario`] + [`scenarios`] — the [`Scenario`] trait and
//!   declarative [`ScenarioSpec`] (system under test, uncertainty axes,
//!   quality metrics), with built-in registrations covering cache
//!   replacement (`mem-hierarchy`), in-order vs. out-of-order pipelines
//!   including the domino example (`pipeline-sim`), DRAM refresh and
//!   controllers (`dram-sim`), bus arbitration (`interconnect-sim`),
//!   branch predictors (`branch-pred`), WCET bound tightness
//!   (`wcet-analysis`), single-path conversion (`singlepath`) and
//!   dynamical-system horizons (`dynsys`).
//! * [`matrix`] — lazy matrix enumeration: [`matrix::CellIter`]
//!   decodes any cell from its row-major index in constant memory, so
//!   planning and sharding sweep multi-million-cell matrices without
//!   materializing them.
//! * [`space`] — the campaign index space: [`CampaignSpace`] resolves
//!   `(scenarios, filter, seed, replicates)` once and is the one place
//!   that decides a cell's global index, params, seed and fingerprint,
//!   and how a replicate group folds. The executor, the shard planner,
//!   the work-stealing chunk map and the merge-time fold all address
//!   cells through it.
//! * [`exec`] — the streaming parallel executor: workers pull lazy
//!   cell indices from a shared cursor, decode/filter/memo-check each
//!   on the fly and buffer outcomes in private per-worker slots (no
//!   shared lock on the hot path); deterministic per-cell seeding and
//!   global-index assembly make results identical whether the campaign
//!   ran on one thread or sixteen. [`exec::ExecHooks`] stream one
//!   [`exec::CellEvent`] (progress counts) per completed cell and every
//!   fresh result out as they happen. A panicking cell is contained:
//!   it fails as [`ScenarioError::Panicked`], like any erroring cell,
//!   and so does a cell with a NaN or infinite metric
//!   ([`ScenarioError::NonFiniteMetric`]).
//! * [`store`] — the memoizing [`ResultStore`]: completed cells are
//!   keyed by a fingerprint of `(schema, scenario, params, seed)` and
//!   persist as deterministic JSON; re-running a campaign executes only
//!   cells the store has never seen. An append-only [`store::Journal`]
//!   beside the checkpoint file makes every stored campaign
//!   *crash-resumable*: every completed cell is journaled (fsync'd per
//!   batch), the next open of a SIGKILL'd campaign's store replays it
//!   via [`ResultStore::open_resumable`], and `checkpoint()` compacts
//!   the pair atomically. A store has one writer at a time: the writer
//!   open takes a `store.json.lock` pidfile ([`store::StoreLock`]) held
//!   until the final checkpoint, readers
//!   ([`ResultStore::load_required`]) refuse a live writer's store, and
//!   a dead owner's lock is broken by the next writer.
//! * [`session`] — the persistence policy around one run: a
//!   [`Session`] opens the journal, hands the runner its hooks, and
//!   checkpoints the store whatever the runner returns. CLI `run`/`report`/`shard` and serve's `submit` all run
//!   through it, so a failing cell never discards its completed
//!   siblings.
//! * [`obs`] — the engine instrumentation layer: named
//!   monotonic-clock spans and counters around the whole campaign
//!   lifecycle (plan, decode, memo lookup, journal append/fsync,
//!   checkpoint, steal-lease claim, merge), exported as a Chrome
//!   trace-event file (`--trace FILE`, loadable in Perfetto) and as
//!   in-memory span and counter totals (the per-layer rows of the
//!   `perfbench` benchmark read them). A run's cell times live only
//!   in its trace (one `cell` span per executed cell), never in the
//!   byte-deterministic store: attaching an [`obs::Obs`] never changes
//!   store bytes.
//! * [`report`] — campaign serialization (JSON/CSV) and the Table-1/2
//!   style evidence summary joining results against
//!   `predictability_core::catalog`; driven by the `campaign` CLI
//!   (`cargo run -p harness --bin campaign`).
//! * [`dist`] — the distributed layer: a deterministic *streaming*
//!   shard planner and manifest (chunks cut by cell count), a
//!   one-shard-per-process worker mode, dynamic work stealing between
//!   shard processes over lease files ([`dist::steal`]), a merge
//!   engine that fuses shard stores into the byte-identical
//!   single-process store, and a cell-by-cell campaign differ with
//!   per-metric tolerances (the CI regression gate). See the `plan` /
//!   `shard` / `merge` / `diff` subcommands of the campaign CLI.
//! * [`serve`] — the always-on campaign daemon: `campaign serve`
//!   keeps a store resident behind a hot interned index
//!   ([`serve::index::StoreIndex`]) and answers point/range metric
//!   queries, report renders and new campaign submissions over a
//!   line-delimited JSON TCP protocol (std only, thread-per-connection
//!   behind a bounded accept pool). Submitted campaigns run on the
//!   streaming executor with crash-resume journaling and publish into
//!   the live index atomically; graceful shutdown drains, checkpoints
//!   and fsyncs, leaving a store byte-identical to the batch run's.
//!   The daemon is its store's writer, so it holds the store's lock.
//! * [`gen`] — generated-program sweeps: a deterministic corpus of
//!   `tinyisa::codegen` programs whose shape (`depth`, `stmts`,
//!   `loop_iters`, `program_index`) is exposed as matrix axes, swept
//!   through the pipeline/cache/WCET backends (`gen/pipeline`,
//!   `gen/cache`, `gen/wcet`) with per-kernel template metrics; the
//!   corpus digest enters fingerprints and shard manifests so corpus
//!   drift is caught like registry drift.
//!
//! ## Quickstart
//!
//! ```
//! use harness::exec::{run_campaign, ExecConfig};
//! use harness::matrix::Filter;
//! use harness::registry::Registry;
//! use harness::store::ResultStore;
//!
//! let registry = Registry::builtin();
//! let mut store = ResultStore::new();
//! let campaign = run_campaign(
//!     &registry,
//!     &["pipeline-domino".to_string()],
//!     &Filter::all().with("n", "16"),
//!     &ExecConfig { threads: 4, seed: 42, ..ExecConfig::default() },
//!     &mut store,
//! )
//! .unwrap();
//! assert_eq!(campaign.cells.len(), 1);
//! let sipr = campaign.cells[0].result.metric("sipr").unwrap();
//! assert!((sipr - (9.0 * 16.0 + 1.0) / (12.0 * 16.0)).abs() < 1e-12);
//!
//! // A second run against the same store executes zero cells.
//! let again = run_campaign(
//!     &registry,
//!     &["pipeline-domino".to_string()],
//!     &Filter::all().with("n", "16"),
//!     &ExecConfig { threads: 4, seed: 42, ..ExecConfig::default() },
//!     &mut store,
//! )
//! .unwrap();
//! assert_eq!(again.executed, 0);
//! ```

pub mod dist;
pub mod exec;
pub mod expect;
pub mod gen;
pub mod json;
pub mod matrix;
pub mod obs;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod serve;
pub mod session;
pub mod space;
pub mod store;

pub use dist::{diff_stores, merge_stores, DiffReport, LeaseDir, Manifest, Tolerances};
pub use exec::{
    run_campaign, run_campaign_with, Campaign, CampaignCell, CellDomain, CellEvent, ExecConfig,
    ExecHooks,
};
pub use expect::{fold_results, replicate_seed, Accumulator, Moments, DERIVED_SUFFIXES};
pub use gen::{Corpus, GenOptions};
pub use matrix::{CellIter, Filter};
pub use obs::Obs;
pub use registry::Registry;
pub use scenario::{Axis, CellResult, Params, Scenario, ScenarioError, ScenarioSpec};
pub use serve::{ServeOptions, ServeSummary, Server, ServerHandle};
pub use session::Session;
pub use space::CampaignSpace;
pub use store::{Journal, OpenedStore, ResultStore, StoreFormat};
