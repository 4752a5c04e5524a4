//! The memoizing result store.
//!
//! Every evaluated cell is stored under a *fingerprint* of everything
//! its result can depend on: the store schema version, the scenario id,
//! the canonical parameter key and the cell seed. Re-running a campaign
//! against the same store therefore executes only cells it has never
//! seen — a second identical run executes zero cells — while any change
//! to a scenario's identity, parameters or seeding naturally misses.
//! The store serializes to the deterministic JSON of [`crate::json`],
//! sorted by fingerprint, so equal stores are byte-equal on disk.
//!
//! On disk a store is a *checkpoint + journal* pair: the checkpoint is
//! the atomic full snapshot, and the append-only [`Journal`] beside it
//! records completed cells one JSON line at a time while a campaign is
//! still running. [`ResultStore::open_resumable`] replays the journal
//! over the checkpoint (tolerating the torn final line a SIGKILL
//! leaves), and [`ResultStore::checkpoint`] compacts the pair — which
//! is what makes campaigns crash-resumable with zero recompute.
//!
//! The checkpoint itself exists in two formats: the human-readable
//! deterministic JSON above, and the [`columnar`] binary layout (same
//! canonical order, interned strings, f64 metric columns) for stores
//! large enough that re-parsing text is the scaling ceiling. Every
//! open sniffs the format by magic ([`StoreFormat`]); saves keep an
//! existing file's format and infer `.bin` ⇒ binary for new files;
//! `campaign convert` switches between the two. The journal is always
//! JSON lines — it is an append-only interchange artifact, and both
//! checkpoint formats replay it identically.

pub mod columnar;

use crate::json::Json;
use crate::scenario::{CellResult, Params, ScenarioError};
use std::collections::BTreeMap;
use std::path::Path;

/// The two on-disk checkpoint formats, told apart by file magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// Deterministic pretty-printed JSON — the interchange format.
    Json,
    /// The [`columnar`] binary layout — the at-scale format.
    Binary,
}

impl std::fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreFormat::Json => "json",
            StoreFormat::Binary => "binary columnar",
        })
    }
}

/// Decides the format a save to `path` should write: an existing
/// file keeps its sniffed format (so `gc`/`merge --out`/checkpoints
/// never silently flip a store's format), and a fresh path infers
/// binary from a `.bin` extension, JSON otherwise.
pub fn sniff_format(path: &Path) -> Result<StoreFormat, ScenarioError> {
    use std::io::Read;
    match std::fs::File::open(path) {
        Ok(mut file) => {
            let mut magic = [0u8; 8];
            let mut read = 0;
            while read < magic.len() {
                match file.read(&mut magic[read..]) {
                    Ok(0) => break,
                    Ok(n) => read += n,
                    Err(e) => {
                        return Err(ScenarioError::Store(format!(
                            "read {}: {e}",
                            path.display()
                        )))
                    }
                }
            }
            Ok(if columnar::is_columnar(&magic[..read]) {
                StoreFormat::Binary
            } else {
                StoreFormat::Json
            })
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let bin = path
                .extension()
                .is_some_and(|ext| ext.eq_ignore_ascii_case("bin"));
            Ok(if bin {
                StoreFormat::Binary
            } else {
                StoreFormat::Json
            })
        }
        Err(e) => Err(ScenarioError::Store(format!(
            "open {}: {e}",
            path.display()
        ))),
    }
}

/// What a format-transparent open learned about a store file.
#[derive(Debug)]
pub struct OpenedStore {
    /// The current-schema cells (other schemas load empty, exactly
    /// like [`ResultStore::from_json`]).
    pub store: ResultStore,
    /// The format the file was found in (a missing file reports what
    /// a save would create, per [`sniff_format`]).
    pub format: StoreFormat,
    /// A binary file's interned symbol table — the serve index adopts
    /// it wholesale instead of re-interning. `None` for JSON files,
    /// missing files, and binary files of another schema.
    pub symbols: Option<Vec<String>>,
}

/// Bump when the fingerprint inputs or stored layout change; old
/// entries then miss instead of being misread. Version history:
/// 1 — fingerprint over (schema, id, version, params, seed);
/// 2 — the scenario's optional content digest (generated-program
///     corpus identity) joined the fingerprint inputs.
pub const SCHEMA_VERSION: u32 = 2;

/// One stored cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCell {
    /// Scenario id.
    pub scenario: String,
    /// Scenario implementation version the result was computed under.
    pub version: u32,
    /// Canonical parameter key (`axis=value,...`).
    pub params_key: String,
    /// The cell seed the result was computed under.
    pub seed: u64,
    /// True for a *fold cell*: derived distribution metrics
    /// (`<metric>.mean/.std/...`) computed by `harness::expect` over
    /// replicate outcomes, keyed by the base cell's fingerprint.
    pub fold: bool,
    /// The measured metrics.
    pub result: CellResult,
}

impl StoredCell {
    /// The cell's canonical JSON object — the value stored under its
    /// fingerprint in the checkpoint file and in journal lines.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scenario".into(), Json::str(&self.scenario)),
            ("version".into(), Json::Num(self.version as f64)),
            ("params".into(), Json::str(&self.params_key)),
            // Hex: u64 seeds exceed f64's exact integer range.
            ("seed".into(), Json::str(format!("{:016x}", self.seed))),
        ];
        // Only fold cells carry the flag: plain cells keep today's
        // exact bytes, so existing stores and goldens are unchanged.
        if self.fold {
            fields.push(("fold".into(), Json::Bool(true)));
        }
        fields.push((
            "metrics".into(),
            Json::Obj(
                self.result
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    /// Parses one cell object (`fp` only names the cell in errors).
    pub fn from_json(fp: &str, cell: &Json) -> Result<StoredCell, ScenarioError> {
        let bad = |what: &str| ScenarioError::Store(format!("cell {fp}: bad {what}"));
        let scenario = cell
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("scenario"))?
            .to_string();
        let version = cell
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("version"))? as u32;
        let params_key = cell
            .get("params")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("params"))?
            .to_string();
        let seed = cell
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| bad("seed"))?;
        let metrics = match cell.get("metrics") {
            Some(Json::Obj(ms)) => ms
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| bad("metric"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(bad("metrics")),
        };
        let fold = matches!(cell.get("fold"), Some(Json::Bool(true)));
        Ok(StoredCell {
            scenario,
            version,
            params_key,
            seed,
            fold,
            result: CellResult { metrics },
        })
    }
}

/// The FNV-1a-64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64: the workspace's stable non-cryptographic hash.
pub(crate) fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The fingerprint a cell is memoized under: everything its result can
/// depend on — store schema, scenario identity *and implementation
/// version*, the scenario's content digest where one exists (the
/// generated-program corpus a `gen/*` scenario sweeps), canonical
/// parameters, and the cell seed.
pub fn fingerprint_with_content(
    scenario_id: &str,
    version: u32,
    content: Option<&str>,
    params: &Params,
    seed: u64,
) -> String {
    let mut h = FNV_OFFSET;
    h = fnv1a(&SCHEMA_VERSION.to_le_bytes(), h);
    h = fnv1a(scenario_id.as_bytes(), h);
    h = fnv1a(&[0xff], h); // domain separator
    h = fnv1a(&version.to_le_bytes(), h);
    if let Some(digest) = content {
        h = fnv1a(digest.as_bytes(), h);
        h = fnv1a(&[0xfe], h); // content/params separator
    }
    h = fnv1a(params.key().as_bytes(), h);
    h = fnv1a(&seed.to_le_bytes(), h);
    format!("{h:016x}")
}

/// [`fingerprint_with_content`] for content-free scenarios.
pub fn fingerprint(scenario_id: &str, version: u32, params: &Params, seed: u64) -> String {
    fingerprint_with_content(scenario_id, version, None, params, seed)
}

/// The memoizing store: fingerprint → stored cell.
#[derive(Debug, Clone, Default)]
pub struct ResultStore {
    cells: BTreeMap<String, StoredCell>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> ResultStore {
        ResultStore::default()
    }

    /// Number of memoized cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Looks up a memoized result.
    pub fn get(
        &self,
        scenario_id: &str,
        version: u32,
        params: &Params,
        seed: u64,
    ) -> Option<&StoredCell> {
        self.cells
            .get(&fingerprint(scenario_id, version, params, seed))
    }

    /// Looks up a memoized result by an already-computed fingerprint.
    pub fn get_by_fingerprint(&self, fp: &str) -> Option<&StoredCell> {
        self.cells.get(fp)
    }

    /// True if the store holds a cell under this fingerprint.
    pub fn contains(&self, fp: &str) -> bool {
        self.cells.contains_key(fp)
    }

    /// All cells, ordered by fingerprint (the canonical store order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StoredCell)> {
        self.cells.iter().map(|(fp, cell)| (fp.as_str(), cell))
    }

    /// Inserts a cell under an already-computed fingerprint (the merge
    /// engine fuses shard stores without re-deriving fingerprints, and
    /// the executor inserts under content-aware fingerprints it already
    /// derived while partitioning).
    pub fn insert_cell(&mut self, fp: String, cell: StoredCell) {
        self.cells.insert(fp, cell);
    }

    /// Memoizes one result.
    pub fn insert(
        &mut self,
        scenario_id: &str,
        version: u32,
        params: &Params,
        seed: u64,
        result: CellResult,
    ) {
        self.cells.insert(
            fingerprint(scenario_id, version, params, seed),
            StoredCell {
                scenario: scenario_id.to_string(),
                version,
                params_key: params.key(),
                seed,
                fold: false,
                result,
            },
        );
    }

    /// Removes a cell by fingerprint (the GC eviction path).
    pub fn remove(&mut self, fp: &str) -> Option<StoredCell> {
        self.cells.remove(fp)
    }

    /// Consumes the store, yielding its cells in fingerprint order —
    /// the zero-clone export path.
    pub fn into_cells(self) -> impl Iterator<Item = (String, StoredCell)> {
        self.cells.into_iter()
    }

    /// Consumes the store into its underlying fingerprint-sorted tree —
    /// the merge engine fuses input trees directly with
    /// [`BTreeMap::append`] instead of rebuilding cell by cell.
    pub(crate) fn into_map(self) -> BTreeMap<String, StoredCell> {
        self.cells
    }

    /// Rewraps a fused tree as a store (the merge engine's inverse of
    /// [`Self::into_map`]).
    pub(crate) fn from_map(cells: BTreeMap<String, StoredCell>) -> ResultStore {
        ResultStore { cells }
    }

    /// Serializes the store (sorted by fingerprint — deterministic).
    pub fn to_json(&self) -> Json {
        self.to_json_with_schema(SCHEMA_VERSION)
    }

    /// [`Self::to_json`] under an explicit schema stamp — how
    /// `campaign gc` renders a binary checkpoint (whatever schema its
    /// header carries) into the raw document form [`gc`] consumes, so
    /// old-schema binary stores are reported cell-by-cell exactly like
    /// old-schema JSON ones.
    pub fn to_json_with_schema(&self, schema: u32) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Num(schema as f64)),
            (
                "cells".into(),
                Json::Obj(
                    self.cells
                        .iter()
                        .map(|(fp, cell)| (fp.clone(), cell.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a store; entries from other schema versions are
    /// dropped (they would be recomputed anyway).
    pub fn from_json(doc: &Json) -> Result<ResultStore, ScenarioError> {
        let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        if schema != SCHEMA_VERSION {
            return Ok(ResultStore::new());
        }
        let mut cells = BTreeMap::new();
        if let Some(Json::Obj(members)) = doc.get("cells") {
            for (fp, cell) in members {
                cells.insert(fp.clone(), StoredCell::from_json(fp, cell)?);
            }
        }
        Ok(ResultStore { cells })
    }

    /// Loads a store from disk; a missing file is an empty store.
    /// Both checkpoint formats are accepted transparently — the file
    /// magic decides (see [`ResultStore::open_any`]).
    pub fn load(path: &Path) -> Result<ResultStore, ScenarioError> {
        Ok(ResultStore::open_any(path)?.store)
    }

    /// The format-sniffing open every consumer (load, resume, `gc`,
    /// `diff`, `merge`, the serve daemon) funnels through: reads the
    /// file once, tells JSON from [`columnar`] binary by magic, and
    /// reports the detected format plus a binary file's symbol table.
    /// A missing file opens empty. Corruption errors name the detected
    /// format, so a torn binary file never surfaces as a JSON parse
    /// error at byte 0.
    pub fn open_any(path: &Path) -> Result<OpenedStore, ScenarioError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(OpenedStore {
                    store: ResultStore::new(),
                    format: sniff_format(path)?,
                    symbols: None,
                });
            }
            Err(e) => {
                return Err(ScenarioError::Store(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        };
        if columnar::is_columnar(&bytes) {
            let decoded = columnar::decode(&bytes)
                .map_err(|e| ScenarioError::Store(format!("{}: {e}", path.display())))?;
            // Other-schema cells are dropped exactly like `from_json`
            // drops them — and their symbol table with them, so the
            // serve index never adopts vocabulary of dropped cells.
            let current = decoded.schema == SCHEMA_VERSION;
            Ok(OpenedStore {
                store: if current {
                    decoded.store
                } else {
                    ResultStore::new()
                },
                format: StoreFormat::Binary,
                symbols: current.then_some(decoded.symbols),
            })
        } else {
            let text = String::from_utf8(bytes).map_err(|e| {
                ScenarioError::Store(format!(
                    "json store {}: invalid UTF-8 ({e}) — was this file truncated \
                     mid-write, or is it a foreign binary format?",
                    path.display()
                ))
            })?;
            let doc = Json::parse(&text)
                .map_err(|e| ScenarioError::Store(format!("json store {}: {e}", path.display())))?;
            Ok(OpenedStore {
                store: ResultStore::from_json(&doc)?,
                format: StoreFormat::Json,
                symbols: None,
            })
        }
    }

    /// Loads a store, treating a *missing* file as an error — the right
    /// semantics when the store is an input artifact (merge, diff)
    /// rather than a memoization cache being created on first use.
    pub fn load_required(path: &Path) -> Result<ResultStore, ScenarioError> {
        if !path.exists() {
            return Err(ScenarioError::Store(format!(
                "no such store: {}",
                path.display()
            )));
        }
        ResultStore::load(path)
    }

    /// Writes the store to disk (creating parent directories). The
    /// write is atomic — rendered to a temp file in the target
    /// directory, then renamed — so an interrupted worker can never
    /// leave a torn or truncated store behind. The format follows
    /// [`sniff_format`]: an existing file keeps its format, a fresh
    /// `.bin` path gets the binary columnar layout, anything else
    /// gets JSON.
    pub fn save(&self, path: &Path) -> Result<(), ScenarioError> {
        self.save_observed(path, None)
    }

    /// [`Self::save`] under a `store/save` span when a recorder is
    /// given. Observation never changes the written bytes.
    pub fn save_observed(
        &self,
        path: &Path,
        obs: Option<&crate::obs::Obs>,
    ) -> Result<(), ScenarioError> {
        let format = sniff_format(path)?;
        self.save_as_observed(path, format, obs)
    }

    /// Writes the store in an explicitly chosen format — the
    /// `campaign convert` entry point; everything else should let
    /// [`Self::save`] keep the file's existing format.
    pub fn save_as(&self, path: &Path, format: StoreFormat) -> Result<(), ScenarioError> {
        self.save_as_observed(path, format, None)
    }

    /// [`Self::save_as`] under a `store/save` span when a recorder is
    /// given. Observation never changes the written bytes.
    pub fn save_as_observed(
        &self,
        path: &Path,
        format: StoreFormat,
        obs: Option<&crate::obs::Obs>,
    ) -> Result<(), ScenarioError> {
        let _span = obs.map(|o| o.span("store/save", "store"));
        let bytes = match format {
            StoreFormat::Json => self.to_json().pretty().into_bytes(),
            StoreFormat::Binary => columnar::encode(self),
        };
        write_atomic(path, &bytes)
    }

    /// Loads a store *and replays its sidecar journal*: the
    /// crash-resume entry point. Returns the store and the number of
    /// journal cells replayed. Cells a SIGKILL'd campaign journaled but
    /// never checkpointed come back as memoized hits, so the resumed
    /// run executes only the remainder. Journal lines of another store
    /// schema are skipped (those cells recompute, like [`Self::load`]
    /// drops them); a torn *final* line — the telltale of a kill
    /// mid-append — is ignored; a torn line anywhere earlier is real
    /// corruption and errors.
    pub fn open_resumable(path: &Path) -> Result<(ResultStore, usize), ScenarioError> {
        ResultStore::open_resumable_observed(path, None)
    }

    /// [`Self::open_resumable`] with the load under a `store/load` span
    /// and the journal replay under `journal/replay`, when a recorder
    /// is given.
    pub fn open_resumable_observed(
        path: &Path,
        obs: Option<&crate::obs::Obs>,
    ) -> Result<(ResultStore, usize), ScenarioError> {
        let (opened, replayed) = ResultStore::open_resumable_full(path, obs)?;
        Ok((opened.store, replayed))
    }

    /// [`Self::open_resumable_observed`] keeping the whole
    /// [`OpenedStore`]: the serve daemon needs the detected format (to
    /// checkpoint back in kind) and a binary file's symbol table (to
    /// seed its index interner instead of re-interning every string).
    pub fn open_resumable_full(
        path: &Path,
        obs: Option<&crate::obs::Obs>,
    ) -> Result<(OpenedStore, usize), ScenarioError> {
        let load_span = obs.map(|o| o.span("store/load", "store"));
        let mut opened = ResultStore::open_any(path)?;
        let store = &mut opened.store;
        drop(load_span);
        let _replay_span = obs.map(|o| o.span("journal/replay", "store"));
        let journal = journal_path(path);
        if !journal.exists() {
            return Ok((opened, 0));
        }
        let mut replayed = 0;
        replay_sidecar_lines(&journal, &mut |doc| {
            if let Some((fp, cell)) = parse_journal_line(doc)? {
                store.insert_cell(fp, cell);
                replayed += 1;
            }
            Ok(())
        })?;
        Ok((opened, replayed))
    }

    /// Compacts the store + journal pair: writes the full store as the
    /// new checkpoint (atomic temp + rename), then removes the journal.
    /// A crash between the two steps leaves a journal whose cells are
    /// all already in the checkpoint — replay is idempotent, so the
    /// next [`Self::open_resumable`] still sees exactly this store.
    pub fn checkpoint(&self, path: &Path) -> Result<(), ScenarioError> {
        self.checkpoint_observed(path, None)
    }

    /// [`Self::checkpoint`] under a `checkpoint` span (with the inner
    /// save as a nested `store/save` span) when a recorder is given.
    pub fn checkpoint_observed(
        &self,
        path: &Path,
        obs: Option<&crate::obs::Obs>,
    ) -> Result<(), ScenarioError> {
        let _span = obs.map(|o| o.span("checkpoint", "store"));
        self.save_observed(path, obs)?;
        let journal = journal_path(path);
        if journal.exists() {
            std::fs::remove_file(&journal)
                .map_err(|e| ScenarioError::Store(format!("rm {}: {e}", journal.display())))?;
            // Make the unlink durable: a power loss must not resurrect
            // a journal beside a checkpoint it no longer belongs with.
            if let Some(dir) = journal.parent().filter(|d| !d.as_os_str().is_empty()) {
                sync_dir(dir)?;
            }
        }
        Ok(())
    }
}

/// The sidecar journal of a store: `store.json` → `store.json.journal`.
pub fn journal_path(store: &Path) -> std::path::PathBuf {
    let mut name = store.file_name().unwrap_or_default().to_os_string();
    name.push(".journal");
    store.with_file_name(name)
}

/// Walks an append-only JSON-lines sidecar (journal, telemetry log):
/// one parsed value per non-empty line, in file order. A failing final
/// line — the telltale of a kill mid-append — is tolerated and skipped;
/// a failure anywhere earlier is real corruption and errors with the
/// line number. `visit` returning `Err` counts as a line failure, so
/// schema-valid-JSON-but-bad-record lines get the same torn-tail
/// treatment as unparseable bytes.
pub(crate) fn replay_sidecar_lines(
    path: &Path,
    visit: &mut dyn FnMut(&Json) -> Result<(), String>,
) -> Result<(), ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Store(format!("read {}: {e}", path.display())))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for (i, line) in lines.iter().enumerate() {
        let outcome = Json::parse(line).and_then(|doc| visit(&doc));
        match outcome {
            Ok(()) => {}
            Err(_) if i + 1 == lines.len() => break, // torn tail
            Err(e) => {
                return Err(ScenarioError::Store(format!(
                    "{} line {}: {e}",
                    path.display(),
                    i + 1
                )))
            }
        }
    }
    Ok(())
}

/// Parses one journal line. `Ok(None)` means the line belongs to
/// another store schema (skipped, like old-schema checkpoint cells).
fn parse_journal_line(doc: &Json) -> Result<Option<(String, StoredCell)>, String> {
    let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
    if schema != SCHEMA_VERSION {
        return Ok(None);
    }
    let fp = doc
        .get("fp")
        .and_then(Json::as_str)
        .ok_or("journal line without fp")?
        .to_string();
    let cell = doc.get("cell").ok_or("journal line without cell")?;
    let cell = StoredCell::from_json(&fp, cell).map_err(|e| e.to_string())?;
    Ok(Some((fp, cell)))
}

/// The shared machinery of the store's append-only sidecars (the
/// crash-resume [`Journal`] and the telemetry log): a line-oriented
/// file opened for append with the torn final line *healed* (truncated
/// back to the last complete record), flushed on every append and
/// fsync'd every `batch` lines, with sticky I/O errors surfaced by
/// `finish` so worker threads never unwind through the executor.
#[derive(Debug)]
pub(crate) struct AppendLog {
    file: std::fs::File,
    path: std::path::PathBuf,
    batch: usize,
    pending: usize,
    /// Complete lines currently in the file (pre-existing lines counted
    /// at open, incremented per append) — the mid-run compaction
    /// trigger reads this.
    lines: usize,
    error: Option<String>,
    /// Optional span recorder + span-name prefix (`journal`,
    /// `telemetry`): appends and fsync batches are recorded as
    /// `<prefix>/append` / `<prefix>/fsync` spans. The trace log an
    /// [`crate::obs::Obs`] writes through is itself an `AppendLog` and
    /// must never be observed — recording holds the obs lock while
    /// appending, so a back-reference would deadlock.
    obs: Option<(crate::obs::Obs, &'static str)>,
}

impl AppendLog {
    /// Opens (creating if missing) the log at `path`, fsyncing every
    /// `batch` appended lines (`0` is treated as 1). A torn final line
    /// is truncated away before appending resumes: replay merely
    /// tolerates a torn tail, and a fresh append concatenated onto
    /// partial bytes would corrupt two records at once — fatally, on
    /// the next replay, once the merged garbage is no longer last.
    pub(crate) fn open(path: std::path::PathBuf, batch: usize) -> Result<AppendLog, ScenarioError> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| ScenarioError::Store(format!("mkdir {}: {e}", dir.display())))?;
        }
        let mut lines = 0;
        match std::fs::read(&path) {
            Ok(bytes) => {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                lines = bytes[..keep].iter().filter(|&&b| b == b'\n').count();
                if keep != bytes.len() {
                    let file = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| {
                            ScenarioError::Store(format!("open {}: {e}", path.display()))
                        })?;
                    file.set_len(keep as u64)
                        .and_then(|()| file.sync_data())
                        .map_err(|e| {
                            ScenarioError::Store(format!(
                                "truncate torn tail of {}: {e}",
                                path.display()
                            ))
                        })?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(ScenarioError::Store(format!(
                    "read {}: {e}",
                    path.display()
                )))
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| ScenarioError::Store(format!("open {}: {e}", path.display())))?;
        Ok(AppendLog {
            file,
            path,
            batch: batch.max(1),
            pending: 0,
            lines,
            error: None,
            obs: None,
        })
    }

    /// Attaches a span recorder: appends and fsync batches show up as
    /// `<prefix>/append` / `<prefix>/fsync` spans plus a
    /// `<prefix>/fsync_batches` counter.
    pub(crate) fn observe(&mut self, obs: &crate::obs::Obs, prefix: &'static str) {
        self.obs = Some((obs.clone(), prefix));
    }

    /// Complete lines in the file (pre-existing ones included).
    pub(crate) fn lines(&self) -> usize {
        self.lines
    }

    /// Appends one record (a newline is added). Failures are recorded,
    /// not returned — check [`AppendLog::finish`].
    pub(crate) fn append_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let start_ns = self.obs.is_some().then(crate::obs::monotonic_ns);
        let mut text = line.to_string();
        text.push('\n');
        if let Err(e) = std::io::Write::write_all(&mut self.file, text.as_bytes()) {
            self.error = Some(format!("append {}: {e}", self.path.display()));
            return;
        }
        if let (Some((obs, prefix)), Some(start)) = (&self.obs, start_ns) {
            let dur = crate::obs::monotonic_ns().saturating_sub(start);
            obs.record_span(&format!("{prefix}/append"), "store", start, dur);
        }
        self.lines += 1;
        self.pending += 1;
        if self.pending >= self.batch {
            self.sync();
        }
    }

    /// Forces any unsynced batch to disk.
    pub(crate) fn sync(&mut self) {
        if self.pending == 0 || self.error.is_some() {
            return;
        }
        let start_ns = self.obs.is_some().then(crate::obs::monotonic_ns);
        match self.file.sync_data() {
            Ok(()) => {
                self.pending = 0;
                if let (Some((obs, prefix)), Some(start)) = (&self.obs, start_ns) {
                    let dur = crate::obs::monotonic_ns().saturating_sub(start);
                    obs.record_span(&format!("{prefix}/fsync"), "store", start, dur);
                    obs.count(&format!("{prefix}/fsync_batches"), 1);
                }
            }
            Err(e) => self.error = Some(format!("fsync {}: {e}", self.path.display())),
        }
    }

    /// Final sync; surfaces the first I/O failure of the log's
    /// lifetime, if any.
    pub(crate) fn finish(mut self) -> Result<(), ScenarioError> {
        self.sync();
        match self.error.take() {
            None => Ok(()),
            Some(e) => Err(ScenarioError::Store(e)),
        }
    }
}

/// The append-only write-ahead journal beside a checkpoint file: one
/// completed cell per JSON line, flushed on every append and fsync'd
/// every `batch` cells. The journal is what makes a campaign
/// crash-resumable — a SIGKILL loses at most the cells of the current
/// unsynced batch, and [`ResultStore::open_resumable`] replays the
/// rest with zero recompute. I/O failures are sticky: the first error
/// is remembered and surfaced by [`Journal::finish`], so a worker
/// thread appending mid-campaign never has to unwind through the
/// executor.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
}

impl Journal {
    /// Opens (creating if missing) the journal beside `store_path`,
    /// fsyncing every `batch` appended cells (`0` is treated as 1).
    ///
    /// A torn final line (a kill mid-append) is *healed* here (see
    /// `AppendLog::open`): the file is truncated back to its last
    /// complete record before appending resumes. Replay merely
    /// tolerates the torn tail; without the truncation, the first
    /// fresh append would concatenate onto the partial bytes and
    /// corrupt two records at once — fatally, on the next resume, once
    /// the merged garbage is no longer the last line.
    pub fn open(store_path: &Path, batch: usize) -> Result<Journal, ScenarioError> {
        Ok(Journal {
            log: AppendLog::open(journal_path(store_path), batch)?,
        })
    }

    /// Complete cell lines currently in the journal file — lines
    /// replayed from a previous crash included, so a resumed campaign's
    /// compaction threshold sees the true journal size.
    pub fn lines(&self) -> usize {
        self.log.lines()
    }

    /// Attaches a span recorder: every append shows up as a
    /// `journal/append` span and every fsync batch as `journal/fsync`
    /// (plus the `journal/fsync_batches` counter).
    pub fn observe(&mut self, obs: &crate::obs::Obs) {
        self.log.observe(obs, "journal");
    }

    /// Appends one completed cell. Failures are recorded, not returned
    /// — check [`Journal::finish`].
    pub fn append(&mut self, fp: &str, cell: &StoredCell) {
        let line = Json::Obj(vec![
            ("schema".into(), Json::Num(SCHEMA_VERSION as f64)),
            ("fp".into(), Json::str(fp)),
            ("cell".into(), cell.to_json()),
        ]);
        self.log.append_line(&line.compact());
    }

    /// Final sync; surfaces the first I/O failure of the journal's
    /// lifetime, if any.
    pub fn finish(self) -> Result<(), ScenarioError> {
        self.log.finish()
    }
}

/// A [`Journal`] that folds itself into the checkpoint mid-run: once
/// the journal file exceeds `threshold` lines, the accumulated
/// checkpoint∪journal union is written as a fresh checkpoint (the
/// atomic [`ResultStore::checkpoint`] path — snapshot, fsync, remove
/// journal, dir fsync) and journaling restarts empty. A week-long
/// journal-heavy campaign thus holds the sidecar at O(threshold) lines
/// instead of O(cells), and every compaction boundary is itself a
/// crash-consistent resume point. With no threshold this is a plain
/// pass-through journal with zero extra cost (no shadow store is kept).
///
/// Like [`Journal`], append failures are sticky and surfaced by
/// [`CompactingJournal::finish`], so executor worker threads never
/// unwind through a compaction.
#[derive(Debug)]
pub struct CompactingJournal {
    /// `None` only transiently while a compaction swaps files, or
    /// permanently after a sticky error.
    journal: Option<Journal>,
    /// checkpoint ∪ journaled cells — what a mid-run compaction writes.
    /// Only maintained when a threshold is set.
    live: Option<ResultStore>,
    store_path: std::path::PathBuf,
    batch: usize,
    threshold: Option<usize>,
    compactions: usize,
    error: Option<String>,
    obs: Option<crate::obs::Obs>,
}

impl CompactingJournal {
    /// Opens the journal beside `store_path` (torn tail healed, see
    /// [`Journal::open`]). `base` must be the store as of the last
    /// checkpoint *plus* any replayed journal cells — exactly what
    /// [`ResultStore::open_resumable`] returns — so that a compaction
    /// writes the full union, not just the fresh cells.
    pub fn open(
        store_path: &Path,
        batch: usize,
        threshold: Option<usize>,
        base: &ResultStore,
    ) -> Result<CompactingJournal, ScenarioError> {
        Ok(CompactingJournal {
            journal: Some(Journal::open(store_path, batch)?),
            live: threshold.map(|_| base.clone()),
            store_path: store_path.to_path_buf(),
            batch,
            threshold,
            compactions: 0,
            error: None,
            obs: None,
        })
    }

    /// Attaches a span recorder: the underlying journal's
    /// `journal/append`/`journal/fsync` spans, plus a
    /// `journal/compact` span and `journal/compactions` counter per
    /// mid-run fold.
    pub fn observe(&mut self, obs: &crate::obs::Obs) {
        if let Some(journal) = &mut self.journal {
            journal.observe(obs);
        }
        self.obs = Some(obs.clone());
    }

    /// Appends one completed cell, folding the journal into the
    /// checkpoint first if it has outgrown the threshold. Failures are
    /// recorded, not returned — check [`CompactingJournal::finish`].
    pub fn append(&mut self, fp: &str, cell: &StoredCell) {
        if self.error.is_some() {
            return;
        }
        if let (Some(threshold), Some(journal)) = (self.threshold, &self.journal) {
            if journal.lines() > threshold {
                self.compact();
            }
        }
        let Some(journal) = &mut self.journal else {
            return;
        };
        journal.append(fp, cell);
        if let Some(live) = &mut self.live {
            live.insert_cell(fp.to_string(), cell.clone());
        }
    }

    /// Folds the journal into the checkpoint and restarts it empty.
    fn compact(&mut self) {
        let start_ns = self.obs.is_some().then(crate::obs::monotonic_ns);
        let journal = self
            .journal
            .take()
            .expect("compact is only called with a journal");
        if let Err(e) = journal.finish() {
            self.error = Some(e.to_string());
            return;
        }
        let live = self
            .live
            .as_ref()
            .expect("a threshold implies a live store");
        if let Err(e) = live.checkpoint_observed(&self.store_path, self.obs.as_ref()) {
            self.error = Some(e.to_string());
            return;
        }
        match Journal::open(&self.store_path, self.batch) {
            Ok(mut journal) => {
                if let Some(obs) = &self.obs {
                    journal.observe(obs);
                }
                self.journal = Some(journal);
                self.compactions += 1;
            }
            Err(e) => self.error = Some(e.to_string()),
        }
        if let (Some(obs), Some(start)) = (&self.obs, start_ns) {
            let dur = crate::obs::monotonic_ns().saturating_sub(start);
            obs.record_span("journal/compact", "store", start, dur);
            obs.count("journal/compactions", 1);
        }
    }

    /// Final sync; surfaces the first failure of the journal's
    /// lifetime, if any, and returns the mid-run compaction count.
    pub fn finish(mut self) -> Result<usize, ScenarioError> {
        if let Some(journal) = self.journal.take() {
            journal.finish()?;
        }
        match self.error.take() {
            None => Ok(self.compactions),
            Some(e) => Err(ScenarioError::Store(e)),
        }
    }
}

/// One cell dropped by [`gc`], with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcDrop {
    /// The cell's fingerprint (store key).
    pub fingerprint: String,
    /// Scenario id (empty when the cell was unreadable).
    pub scenario: String,
    /// Canonical parameter key.
    pub params_key: String,
    /// Why the cell was dropped.
    pub reason: String,
}

/// What a [`gc`] pass decided.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Cells retained.
    pub kept: usize,
    /// Cells dropped, in store (fingerprint) order.
    pub dropped: Vec<GcDrop>,
}

/// Milliseconds per day (the `--max-age-days` unit).
pub const MS_PER_DAY: f64 = 86_400_000.0;

/// Age-based eviction policy for [`gc`]: evict cells whose last access
/// (per the telemetry sidecar's hit log) is older than `max_age_ms` at
/// `now_ms`. Cells with no telemetry entry at all are treated as the
/// *oldest* — a store that predates telemetry, or cells no campaign has
/// touched since the sidecar appeared, age out rather than living
/// forever by omission.
#[derive(Debug, Clone, Copy)]
pub struct MaxAge<'a> {
    /// The aggregated access log beside the store.
    pub telemetry: &'a crate::telemetry::Telemetry,
    /// "Now", in Unix epoch milliseconds (a parameter, not a syscall,
    /// so two GC passes over equal inputs decide identically).
    pub now_ms: u64,
    /// Maximum tolerated age, in milliseconds.
    pub max_age_ms: u64,
}

/// The optional eviction limits of a [`gc`] pass, applied after the
/// staleness rules: age first (cells nobody reads make way before the
/// size cap bites), then the size cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcLimits<'a> {
    /// Evict down to at most this many cells.
    pub max_cells: Option<usize>,
    /// Evict cells not accessed recently enough.
    pub max_age: Option<MaxAge<'a>>,
}

/// The result-store lifecycle pass: rebuilds a store keeping only the
/// cells the given registry could still serve. Dropped are
///
/// * every cell of a store whose *schema* version is not the current
///   [`SCHEMA_VERSION`] (its fingerprints were computed under different
///   rules, so nothing in it can ever hit again),
/// * cells of scenarios the registry no longer knows, and
/// * cells whose scenario *implementation* version no longer matches
///   the registered one (stale results of an old implementation).
///
/// Content drift (a `gen/*` corpus change) needs no GC rule of its own:
/// the content digest is a fingerprint input, so stale corpus cells are
/// unreachable — but they still match their scenario's id and current
/// version, so they are retained as cells of *other* corpora (other
/// campaign seeds), which a future campaign may legitimately hit.
///
/// With `limits.max_age` set, cells whose last telemetry-recorded
/// access is older than the cap — or that have no telemetry entry at
/// all (treated as oldest) — are evicted next. With `limits.max_cells:
/// Some(n)`, the pass finally enforces a size cap: when more than `n`
/// cells survive, the excess is evicted oldest-implementation-version
/// first (the cells most likely to be invalidated next), ties broken by
/// stable fingerprint order — so two GC passes over equal stores evict
/// the identical cells. Eviction is reported like any other drop and
/// honours `--dry-run` the same way.
///
/// Takes the raw JSON document (not a loaded [`ResultStore`]) so
/// old-schema stores can be reported cell-by-cell instead of silently
/// loading empty.
pub fn gc(
    doc: &Json,
    registry: &crate::registry::Registry,
    limits: &GcLimits<'_>,
) -> Result<(ResultStore, GcReport), ScenarioError> {
    let schema = doc.get("schema").and_then(Json::as_f64).unwrap_or(0.0) as u32;
    let raw_cells = match doc.get("cells") {
        Some(Json::Obj(members)) => members.as_slice(),
        _ => &[],
    };
    if schema != SCHEMA_VERSION {
        let reason = format!("store schema {schema} != current {SCHEMA_VERSION}");
        let dropped = raw_cells
            .iter()
            .map(|(fp, cell)| GcDrop {
                fingerprint: fp.clone(),
                scenario: cell
                    .get("scenario")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                params_key: cell
                    .get("params")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                reason: reason.clone(),
            })
            .collect();
        return Ok((ResultStore::new(), GcReport { kept: 0, dropped }));
    }
    let store = ResultStore::from_json(doc)?;
    let current: BTreeMap<&str, u32> = registry
        .specs()
        .iter()
        .map(|spec| (spec.id, spec.version))
        .collect();
    let mut kept = ResultStore::new();
    let mut report = GcReport::default();
    for (fp, cell) in store.iter() {
        let reason = match current.get(cell.scenario.as_str()) {
            None => Some(format!(
                "scenario `{}` is no longer registered",
                cell.scenario
            )),
            Some(&version) if version != cell.version => Some(format!(
                "version {} != registered version {version}",
                cell.version
            )),
            Some(_) => None,
        };
        match reason {
            None => {
                kept.insert_cell(fp.to_string(), cell.clone());
                report.kept += 1;
            }
            Some(reason) => report.dropped.push(GcDrop {
                fingerprint: fp.to_string(),
                scenario: cell.scenario.clone(),
                params_key: cell.params_key.clone(),
                reason,
            }),
        }
    }
    if let Some(age) = &limits.max_age {
        let victims: Vec<(String, String)> = kept
            .iter()
            .filter_map(|(fp, _)| {
                let last = age.telemetry.last_hit_ms(fp);
                let stale = match last {
                    // No access record: older than anything recorded.
                    None => true,
                    Some(at) => age.now_ms.saturating_sub(at) > age.max_age_ms,
                };
                stale.then(|| {
                    let reason = match last {
                        None => format!(
                            "evicted: no telemetry access record (treated as oldest) under \
                             --max-age-days {:.1}",
                            age.max_age_ms as f64 / MS_PER_DAY
                        ),
                        Some(at) => format!(
                            "evicted: last hit {:.1} days ago exceeds --max-age-days {:.1}",
                            age.now_ms.saturating_sub(at) as f64 / MS_PER_DAY,
                            age.max_age_ms as f64 / MS_PER_DAY
                        ),
                    };
                    (fp.to_string(), reason)
                })
            })
            .collect();
        for (fp, reason) in victims {
            let cell = kept.remove(&fp).expect("victim came from the kept set");
            report.kept -= 1;
            report.dropped.push(GcDrop {
                fingerprint: fp,
                scenario: cell.scenario,
                params_key: cell.params_key,
                reason,
            });
        }
    }
    if let Some(max) = limits.max_cells {
        if kept.len() > max {
            let excess = kept.len() - max;
            let mut victims: Vec<(u32, String)> = kept
                .iter()
                .map(|(fp, cell)| (cell.version, fp.to_string()))
                .collect();
            victims.sort();
            for (_, fp) in victims.into_iter().take(excess) {
                let cell = kept.remove(&fp).expect("victim came from the kept set");
                report.kept -= 1;
                report.dropped.push(GcDrop {
                    fingerprint: fp,
                    scenario: cell.scenario,
                    params_key: cell.params_key,
                    reason: format!("evicted: store exceeds --max-cells {max}"),
                });
            }
        }
    }
    Ok((kept, report))
}

/// fsyncs a directory, making a just-renamed/linked/removed entry
/// durable: the rename in [`write_atomic`] is atomic with respect to
/// *readers*, but until the directory itself is synced a power loss can
/// still roll the entry back to the old file — or to nothing, after a
/// fresh create. (No-op off Unix, where directories cannot be opened.)
pub(crate) fn sync_dir(dir: &Path) -> Result<(), ScenarioError> {
    #[cfg(unix)]
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| ScenarioError::Store(format!("fsync dir {}: {e}", dir.display())))?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Atomically *and durably* replaces `path` with `bytes`: write a
/// uniquely-named temp file in the same directory (same filesystem, so
/// the rename cannot degrade to a copy), fsync it, rename over the
/// target, then fsync the parent directory. Readers see either the old
/// complete file or the new complete file, never a prefix — and after
/// this returns, a power loss cannot roll the replacement back (the
/// checkpoint path depends on that: the journal is deleted right after,
/// and losing the just-compacted store while the journal is already
/// gone would lose every journaled cell).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ScenarioError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            std::fs::create_dir_all(dir)
                .map_err(|e| ScenarioError::Store(format!("mkdir {}: {e}", dir.display())))?;
            dir.to_path_buf()
        }
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| ScenarioError::Store(format!("bad store path {}", path.display())))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_synced = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        // Content must reach disk before the rename publishes it: a
        // rename is only as durable as the bytes behind it.
        file.sync_all()
    };
    write_synced().map_err(|e| ScenarioError::Store(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        ScenarioError::Store(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    sync_dir(&dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(vec![("n".into(), "4".into())])
    }

    #[test]
    fn fingerprint_separates_all_inputs() {
        let p = params();
        let base = fingerprint("s", 1, &p, 1);
        assert_eq!(base, fingerprint("s", 1, &p, 1));
        assert_ne!(base, fingerprint("s2", 1, &p, 1));
        assert_ne!(base, fingerprint("s", 2, &p, 1), "version bump must miss");
        assert_ne!(base, fingerprint("s", 1, &p, 2));
        let p2 = Params::new(vec![("n".into(), "5".into())]);
        assert_ne!(base, fingerprint("s", 1, &p2, 1));
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut store = ResultStore::new();
        assert!(store.get("s", 1, &params(), 7).is_none());
        store.insert("s", 1, &params(), 7, CellResult::new(vec![("m", 1.5)]));
        assert!(
            store.get("s", 2, &params(), 7).is_none(),
            "other version misses"
        );
        let hit = store.get("s", 1, &params(), 7).unwrap();
        assert_eq!(hit.result.metric("m"), Some(1.5));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn json_round_trip_preserves_store() {
        let mut store = ResultStore::new();
        store.insert("a", 1, &params(), 1, CellResult::new(vec![("x", 2.0)]));
        store.insert(
            "b",
            3,
            &params(),
            2,
            CellResult::new(vec![("y", 0.25), ("z", 3.0)]),
        );
        let doc = store.to_json();
        let back = ResultStore::from_json(&Json::parse(&doc.pretty()).unwrap()).unwrap();
        assert_eq!(back.cells, store.cells);
        assert_eq!(back.to_json().pretty(), doc.pretty());
    }

    #[test]
    fn unknown_schema_loads_empty() {
        let doc = Json::Obj(vec![("schema".into(), Json::Num(999.0))]);
        assert!(ResultStore::from_json(&doc).unwrap().is_empty());
    }

    #[test]
    fn missing_file_is_empty_store() {
        let store = ResultStore::load(Path::new("/nonexistent/store.json")).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn load_required_rejects_missing_file() {
        let err = ResultStore::load_required(Path::new("/nonexistent/store.json")).unwrap_err();
        assert!(matches!(err, ScenarioError::Store(_)));
    }

    #[test]
    fn fingerprint_lookup_and_iteration_agree_with_get() {
        let mut store = ResultStore::new();
        store.insert("a", 1, &params(), 1, CellResult::new(vec![("x", 2.0)]));
        let fp = fingerprint("a", 1, &params(), 1);
        assert!(store.contains(&fp));
        assert_eq!(
            store.get_by_fingerprint(&fp),
            store.get("a", 1, &params(), 1)
        );
        let listed: Vec<&str> = store.iter().map(|(fp, _)| fp).collect();
        assert_eq!(listed, vec![fp.as_str()]);
    }

    #[test]
    fn content_digest_separates_fingerprints() {
        let p = params();
        let plain = fingerprint("s", 1, &p, 1);
        let a = fingerprint_with_content("s", 1, Some("aaaa"), &p, 1);
        let b = fingerprint_with_content("s", 1, Some("bbbb"), &p, 1);
        assert_ne!(plain, a, "content must enter the fingerprint");
        assert_ne!(a, b, "different corpora must miss each other");
        assert_eq!(a, fingerprint_with_content("s", 1, Some("aaaa"), &p, 1));
    }

    #[test]
    fn gc_keeps_current_drops_stale_and_unknown() {
        use crate::registry::Registry;
        use crate::scenario::{Axis, Scenario, ScenarioSpec};

        struct Fixed;
        impl Scenario for Fixed {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "fixed",
                    version: 3,
                    title: "f",
                    source_crate: "harness",
                    property: "p",
                    uncertainty: "u",
                    quality: "q",
                    catalog_id: None,
                    content_digest: None,
                    axes: vec![Axis::new("n", [1])],
                    headline_metric: "m",
                    smaller_is_better: true,
                }
            }
            fn run(&self, _: &Params, _: u64) -> Result<CellResult, ScenarioError> {
                Ok(CellResult::new(vec![("m", 0.0)]))
            }
        }

        let mut registry = Registry::empty();
        registry.register(Box::new(Fixed));
        let mut store = ResultStore::new();
        store.insert("fixed", 3, &params(), 1, CellResult::new(vec![("m", 1.0)]));
        store.insert("fixed", 2, &params(), 1, CellResult::new(vec![("m", 2.0)]));
        store.insert("gone", 1, &params(), 1, CellResult::new(vec![("m", 3.0)]));
        let (kept, report) = gc(&store.to_json(), &registry, &GcLimits::default()).unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped.len(), 2);
        let reasons: Vec<&str> = report.dropped.iter().map(|d| d.reason.as_str()).collect();
        assert!(reasons.iter().any(|r| r.contains("version 2")));
        assert!(reasons.iter().any(|r| r.contains("no longer registered")));
    }

    #[test]
    fn gc_drops_whole_store_on_schema_mismatch() {
        let mut store = ResultStore::new();
        store.insert("s", 1, &params(), 1, CellResult::new(vec![("m", 1.0)]));
        let mut doc = store.to_json();
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Num(1.0); // pretend schema 1
        }
        let (kept, report) = gc(
            &doc,
            &crate::registry::Registry::empty(),
            &GcLimits::default(),
        )
        .unwrap();
        assert!(kept.is_empty());
        assert_eq!(report.kept, 0);
        assert_eq!(report.dropped.len(), 1);
        assert!(report.dropped[0].reason.contains("schema 1"));
        assert_eq!(report.dropped[0].scenario, "s");
    }

    #[test]
    fn gc_max_cells_evicts_old_versions_then_fingerprint_order() {
        use crate::registry::Registry;
        use crate::scenario::{Axis, Scenario, ScenarioSpec};

        /// Two scenarios at different registered versions.
        struct At(&'static str, u32);
        impl Scenario for At {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: self.0,
                    version: self.1,
                    title: "f",
                    source_crate: "harness",
                    property: "p",
                    uncertainty: "u",
                    quality: "q",
                    catalog_id: None,
                    content_digest: None,
                    axes: vec![Axis::new("n", [1])],
                    headline_metric: "m",
                    smaller_is_better: true,
                }
            }
            fn run(&self, _: &Params, _: u64) -> Result<CellResult, ScenarioError> {
                Ok(CellResult::new(vec![("m", 0.0)]))
            }
        }

        let mut registry = Registry::empty();
        registry.register(Box::new(At("young", 5)));
        registry.register(Box::new(At("old", 1)));
        let mut store = ResultStore::new();
        for seed in 0..3 {
            store.insert(
                "young",
                5,
                &params(),
                seed,
                CellResult::new(vec![("m", 1.0)]),
            );
            store.insert("old", 1, &params(), seed, CellResult::new(vec![("m", 2.0)]));
        }
        // Cap at 3: the three version-1 cells go first (oldest
        // implementation version), so every survivor is version 5.
        let limit = |n| GcLimits {
            max_cells: Some(n),
            max_age: None,
        };
        let (kept, report) = gc(&store.to_json(), &registry, &limit(3)).unwrap();
        assert_eq!(kept.len(), 3);
        assert_eq!(report.kept, 3);
        assert_eq!(report.dropped.len(), 3);
        assert!(kept.iter().all(|(_, c)| c.version == 5));
        assert!(report
            .dropped
            .iter()
            .all(|d| d.reason.contains("--max-cells 3") && d.scenario == "old"));
        // Deterministic: evicted fingerprints are sorted.
        let evicted: Vec<&str> = report
            .dropped
            .iter()
            .map(|d| d.fingerprint.as_str())
            .collect();
        let mut sorted = evicted.clone();
        sorted.sort();
        assert_eq!(evicted, sorted);
        // A cap the store already satisfies evicts nothing.
        let (kept, report) = gc(&store.to_json(), &registry, &limit(10)).unwrap();
        assert_eq!(kept.len(), 6);
        assert!(report.dropped.is_empty());
    }

    #[test]
    fn gc_max_age_evicts_stale_and_untracked_cells() {
        use crate::registry::Registry;
        use crate::scenario::{Axis, Scenario, ScenarioSpec};
        use crate::telemetry::Telemetry;

        struct Fixed;
        impl Scenario for Fixed {
            fn spec(&self) -> ScenarioSpec {
                ScenarioSpec {
                    id: "fixed",
                    version: 1,
                    title: "f",
                    source_crate: "harness",
                    property: "p",
                    uncertainty: "u",
                    quality: "q",
                    catalog_id: None,
                    content_digest: None,
                    axes: vec![Axis::new("n", [1])],
                    headline_metric: "m",
                    smaller_is_better: true,
                }
            }
            fn run(&self, _: &Params, _: u64) -> Result<CellResult, ScenarioError> {
                Ok(CellResult::new(vec![("m", 0.0)]))
            }
        }

        let mut registry = Registry::empty();
        registry.register(Box::new(Fixed));
        let mut store = ResultStore::new();
        for seed in 0..3 {
            store.insert(
                "fixed",
                1,
                &params(),
                seed,
                CellResult::new(vec![("m", 1.0)]),
            );
        }
        let fps: Vec<String> = store.iter().map(|(fp, _)| fp.to_string()).collect();
        // fps[0] hit recently, fps[1] hit long ago, fps[2] never hit.
        let now_ms = 100 * MS_PER_DAY as u64;
        let mut telemetry = Telemetry::new();
        telemetry.record_hit(&fps[0], "fixed", now_ms - MS_PER_DAY as u64);
        telemetry.record_hit(&fps[1], "fixed", now_ms - 30 * MS_PER_DAY as u64);
        let limits = GcLimits {
            max_cells: None,
            max_age: Some(MaxAge {
                telemetry: &telemetry,
                now_ms,
                max_age_ms: 7 * MS_PER_DAY as u64,
            }),
        };
        let (kept, report) = gc(&store.to_json(), &registry, &limits).unwrap();
        assert_eq!(kept.len(), 1, "only the recently-hit cell survives");
        assert!(kept.contains(&fps[0]));
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped.len(), 2);
        let reason_of = |fp: &str| {
            report
                .dropped
                .iter()
                .find(|d| d.fingerprint == fp)
                .map(|d| d.reason.as_str())
                .unwrap()
        };
        assert!(reason_of(&fps[1]).contains("last hit 30.0 days ago"));
        assert!(reason_of(&fps[2]).contains("no telemetry access record"));
        // A generous cap evicts nothing.
        let generous = GcLimits {
            max_cells: None,
            max_age: Some(MaxAge {
                telemetry: &telemetry,
                now_ms,
                max_age_ms: 1000 * MS_PER_DAY as u64,
            }),
        };
        let (kept, report) = gc(&store.to_json(), &registry, &generous).unwrap();
        // fps[2] has no record at all, so it still ages out — "treated
        // as oldest" means no cap can save an untracked cell.
        assert_eq!(kept.len(), 2);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].fingerprint, fps[2]);
    }

    #[test]
    fn journal_appends_replay_and_checkpoint_compacts() {
        let dir = std::env::temp_dir().join(format!("harness-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.json");

        // Checkpoint two cells, then journal one more.
        let mut checkpointed = ResultStore::new();
        checkpointed.insert("a", 1, &params(), 1, CellResult::new(vec![("x", 1.0)]));
        checkpointed.insert("a", 1, &params(), 2, CellResult::new(vec![("x", 2.0)]));
        checkpointed.save(&path).unwrap();
        let mut journal = Journal::open(&path, 1).unwrap();
        let fp = fingerprint("a", 1, &params(), 3);
        let cell = StoredCell {
            scenario: "a".into(),
            version: 1,
            params_key: params().key(),
            seed: 3,
            fold: false,
            result: CellResult::new(vec![("x", 3.0)]),
        };
        journal.append(&fp, &cell);
        journal.finish().unwrap();

        // Resumable open replays the journal cell.
        let (resumed, replayed) = ResultStore::open_resumable(&path).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(resumed.len(), 3);
        assert_eq!(resumed.get_by_fingerprint(&fp), Some(&cell));
        // A plain load ignores the journal.
        assert_eq!(ResultStore::load(&path).unwrap().len(), 2);

        // Checkpoint compacts: journal gone, store holds everything,
        // and the next resumable open replays nothing.
        resumed.checkpoint(&path).unwrap();
        assert!(!journal_path(&path).exists());
        assert_eq!(ResultStore::load(&path).unwrap().len(), 3);
        let (again, replayed) = ResultStore::open_resumable(&path).unwrap();
        assert_eq!((again.len(), replayed), (3, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_tail_is_ignored_earlier_corruption_errors() {
        let dir = std::env::temp_dir().join(format!("harness-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let mut journal = Journal::open(&path, 1).unwrap();
        let fp = fingerprint("a", 1, &params(), 1);
        let cell = StoredCell {
            scenario: "a".into(),
            version: 1,
            params_key: params().key(),
            seed: 1,
            fold: false,
            result: CellResult::new(vec![("x", 1.0)]),
        };
        journal.append(&fp, &cell);
        journal.finish().unwrap();
        // Simulate a SIGKILL mid-append: a torn final line.
        let jpath = journal_path(&path);
        let mut text = std::fs::read_to_string(&jpath).unwrap();
        text.push_str("{\"schema\":2,\"fp\":\"dead");
        std::fs::write(&jpath, &text).unwrap();
        let (store, replayed) = ResultStore::open_resumable(&path).unwrap();
        assert_eq!((store.len(), replayed), (1, 1), "torn tail ignored");

        // Re-opening the journal for append must *heal* the torn tail
        // (truncate to the last complete record): the first fresh
        // append of a resumed run must not concatenate onto partial
        // bytes — that would corrupt two records, fatally once a
        // second crash buries the merged garbage mid-journal.
        let mut resumed = Journal::open(&path, 1).unwrap();
        let fp2 = fingerprint("a", 1, &params(), 2);
        let cell2 = StoredCell {
            seed: 2,
            ..cell.clone()
        };
        resumed.append(&fp2, &cell2);
        resumed.finish().unwrap();
        let (store, replayed) = ResultStore::open_resumable(&path).unwrap();
        assert_eq!((store.len(), replayed), (2, 2), "healed + appended");
        assert_eq!(store.get_by_fingerprint(&fp2), Some(&cell2));
        let healed = std::fs::read_to_string(&jpath).unwrap();
        assert!(!healed.contains("dead"), "torn bytes must be gone");

        // The same garbage mid-journal is corruption, not a torn tail.
        let mut torn_middle = String::from("{\"schema\":2,\"fp\":\"dead\n");
        torn_middle.push_str(healed.lines().next().unwrap());
        torn_middle.push('\n');
        std::fs::write(&jpath, &torn_middle).unwrap();
        assert!(matches!(
            ResultStore::open_resumable(&path),
            Err(ScenarioError::Store(_))
        ));

        // Journal lines of another schema are skipped, not replayed.
        std::fs::write(&jpath, "{\"schema\":1,\"fp\":\"aaaa\",\"cell\":{}}\n").unwrap();
        let (store, replayed) = ResultStore::open_resumable(&path).unwrap();
        assert_eq!((store.len(), replayed), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compacting_journal_folds_into_checkpoint_past_threshold() {
        let dir = std::env::temp_dir().join(format!("harness-compact-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.json");

        // Start from a one-cell checkpoint so a compaction must write
        // the union, not just the fresh cells.
        let mut base = ResultStore::new();
        base.insert("a", 1, &params(), 0, CellResult::new(vec![("x", 0.0)]));
        base.save(&path).unwrap();

        let cell = |seed: u64| {
            (
                fingerprint("a", 1, &params(), seed),
                StoredCell {
                    scenario: "a".into(),
                    version: 1,
                    params_key: params().key(),
                    seed,
                    fold: false,
                    result: CellResult::new(vec![("x", seed as f64)]),
                },
            )
        };
        let mut journal = CompactingJournal::open(&path, 1, Some(2), &base).unwrap();
        for seed in 1..=5 {
            let (fp, c) = cell(seed);
            journal.append(&fp, &c);
        }
        // 5 appends over a threshold of 2: the journal folded at least
        // once, and the sidecar never outgrew threshold + 1 lines.
        let jpath = journal_path(&path);
        let compactions = journal.finish().unwrap();
        assert!(compactions >= 1);
        let lines = std::fs::read_to_string(&jpath).unwrap().lines().count();
        assert!(lines <= 3, "journal kept {lines} lines past the threshold");

        // The resumable union holds every cell: checkpoint + journal
        // is lossless across compaction boundaries.
        let (resumed, _) = ResultStore::open_resumable(&path).unwrap();
        assert_eq!(resumed.len(), 6);
        for seed in 0..=5 {
            let (fp, c) = cell(seed);
            assert_eq!(resumed.get_by_fingerprint(&fp), Some(&c));
        }

        // No threshold: a pure pass-through (zero compactions).
        std::fs::remove_dir_all(&dir).ok();
        let mut plain = CompactingJournal::open(&path, 1, None, &ResultStore::new()).unwrap();
        for seed in 1..=5 {
            let (fp, c) = cell(seed);
            plain.append(&fp, &c);
        }
        assert_eq!(plain.finish().unwrap(), 0);
        assert_eq!(
            std::fs::read_to_string(journal_path(&path))
                .unwrap()
                .lines()
                .count(),
            5
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_and_replaces_existing_content() {
        let dir = std::env::temp_dir().join(format!("harness-store-{}", std::process::id()));
        let path = dir.join("store.json");
        let mut store = ResultStore::new();
        store.insert("a", 1, &params(), 1, CellResult::new(vec![("x", 2.0)]));
        store.save(&path).unwrap();
        // Overwrite with a different store: the rename must replace.
        let mut bigger = store.clone();
        bigger.insert("b", 1, &params(), 2, CellResult::new(vec![("y", 3.0)]));
        bigger.save(&path).unwrap();
        assert_eq!(ResultStore::load(&path).unwrap().len(), 2);
        // No temp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
