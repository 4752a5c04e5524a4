//! The store's direct JSON codec: checkpoints and journal lines are
//! rendered straight from [`StoredCell`]s and read straight back into
//! them, with no [`Json`] tree in between.
//!
//! The bytes are the tree's. A checkpoint is
//! `ResultStore::to_json().pretty()`, and a journal line is the
//! `compact()` of `{"schema", "fp", "cell"}`; both go through the same
//! writer, in two layouts. Reading accepts exactly the documents the
//! tree path (`Json::parse`, then `ResultStore::from_json` or the
//! journal rules) accepts, yields the same store and fails with the
//! same error:
//!
//! - keys may come in any order, and unknown keys are skipped (through
//!   the tree parser, so still bounded by [`crate::json::MAX_DEPTH`]);
//! - the first of duplicate keys wins, and among duplicate
//!   fingerprints the last one wins;
//! - a document of another schema loads empty;
//! - a syntax error anywhere beats a bad cell, as the tree parses the
//!   whole document before it reads a cell.
//!
//! `tests/codec_prop.rs` checks both directions against the tree.

use super::{ResultStore, StoredCell, SCHEMA_VERSION};
use crate::json::{self, Json};
use crate::scenario::{CellResult, ScenarioError};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the store as its checkpoint: `to_json().pretty()`.
pub fn write_store(store: &ResultStore) -> String {
    // Pre-sized: the fixed keys and padding of a cell take about 150
    // bytes, a metric at most its key and 32 more.
    let size: usize = store
        .cells
        .iter()
        .map(|(fp, cell)| {
            let metrics: usize = cell.result.metrics.iter().map(|(k, _)| k.len() + 32).sum();
            160 + fp.len() + cell.scenario.len() + cell.params_key.len() + metrics
        })
        .sum();
    let mut out = String::with_capacity(64 + size);
    out.push('{');
    write_schema(&mut out, Some(0));
    json::write_key(&mut out, Some(0), false, "cells");
    out.push('{');
    for (i, (fp, cell)) in store.cells.iter().enumerate() {
        json::write_key(&mut out, Some(1), i == 0, fp);
        write_cell(&mut out, cell, Some(2));
    }
    json::write_close(&mut out, Some(1), store.cells.is_empty(), '}');
    json::write_close(&mut out, Some(0), false, '}');
    out.push('\n');
    out
}

/// Appends one journal line, without its newline, to `out`.
pub fn write_journal_line(out: &mut String, fp: &str, cell: &StoredCell) {
    out.push('{');
    write_schema(out, None);
    json::write_key(out, None, false, "fp");
    json::write_str(out, fp);
    json::write_key(out, None, false, "cell");
    write_cell(out, cell, None);
    out.push('}');
}

/// The `schema` member, first in both layouts.
fn write_schema(out: &mut String, indent: Option<usize>) {
    json::write_key(out, indent, true, "schema");
    let _ = write!(out, "{SCHEMA_VERSION}");
}

/// Renders `cell.to_json()` at nesting level `indent`, or compact.
fn write_cell(out: &mut String, cell: &StoredCell, indent: Option<usize>) {
    out.push('{');
    json::write_key(out, indent, true, "scenario");
    json::write_str(out, &cell.scenario);
    json::write_key(out, indent, false, "version");
    let _ = write!(out, "{}", cell.version);
    json::write_key(out, indent, false, "params");
    json::write_str(out, &cell.params_key);
    json::write_key(out, indent, false, "seed");
    let _ = write!(out, "\"{:016x}\"", cell.seed);
    if cell.fold {
        json::write_key(out, indent, false, "fold");
        out.push_str("true");
    }
    json::write_key(out, indent, false, "metrics");
    let inner = indent.map(|i| i + 1);
    out.push('{');
    for (i, (name, value)) in cell.result.metrics.iter().enumerate() {
        json::write_key(out, inner, i == 0, name);
        json::write_num(out, *value);
    }
    json::write_close(out, inner, cell.result.metrics.is_empty(), '}');
    json::write_close(out, indent, false, '}');
}

/// What a read gives: the outer error is the JSON parser's, the inner
/// one says what is wrong with a well-formed value.
pub type Read<T, E> = Result<Result<T, E>, String>;

/// Reads a checkpoint document: the direct form of
/// `Json::parse(text).map(|doc| ResultStore::from_json(&doc))`, the
/// inner error being the first bad cell's.
pub fn read_store(text: &str) -> Read<ResultStore, ScenarioError> {
    let mut schema = None;
    let mut cells = None;
    json::parse_document(text, |bytes, pos| {
        if !at_object(bytes, pos) {
            return json::parse_value(bytes, pos, 0).map(drop);
        }
        json::parse_members(bytes, pos, |key, pos| {
            match &*key {
                "schema" if schema.is_none() => schema = Some(json::parse_value(bytes, pos, 1)?),
                "cells" if cells.is_none() => cells = Some(read_cells(bytes, pos)?),
                _ => drop(json::parse_value(bytes, pos, 1)?),
            }
            Ok(())
        })
    })?;
    if !is_current(schema) {
        return Ok(Ok(ResultStore::new()));
    }
    Ok(cells
        .unwrap_or(Ok(BTreeMap::new()))
        .map(|cells| ResultStore { cells }))
}

/// Reads one journal line: `Ok(None)` for a line of another schema
/// (skipped, like old-schema checkpoint cells).
pub fn read_journal_line(line: &str) -> Result<Option<(String, StoredCell)>, String> {
    let (mut schema, mut fp, mut cell) = (None, None, None);
    json::parse_document(line, |bytes, pos| {
        if !at_object(bytes, pos) {
            return json::parse_value(bytes, pos, 0).map(drop);
        }
        json::parse_members(bytes, pos, |key, pos| {
            match &*key {
                "schema" if schema.is_none() => schema = Some(json::parse_value(bytes, pos, 1)?),
                "fp" if fp.is_none() => fp = Some(json::parse_value(bytes, pos, 1)?),
                "cell" if cell.is_none() => cell = Some(read_cell(bytes, pos, 1)?),
                _ => drop(json::parse_value(bytes, pos, 1)?),
            }
            Ok(())
        })
    })?;
    if !is_current(schema) {
        return Ok(None);
    }
    let Some(Json::Str(fp)) = fp else {
        return Err("journal line without fp".into());
    };
    let cell = cell.ok_or("journal line without cell")?;
    let cell = cell.map_err(|what| bad_cell(&fp, what).to_string())?;
    Ok(Some((fp, cell)))
}

/// Whether a document's `schema` member is the current one, read the
/// way the tree path reads it (absent or not a number is schema 0).
fn is_current(schema: Option<Json>) -> bool {
    schema.and_then(|s| s.as_f64()).unwrap_or(0.0) as u32 == SCHEMA_VERSION
}

/// Skips whitespace and tells whether an object starts at `pos`.
fn at_object(bytes: &[u8], pos: &mut usize) -> bool {
    json::skip_ws(bytes, pos);
    bytes.get(*pos) == Some(&b'{')
}

fn bad_cell(fp: &str, what: &str) -> ScenarioError {
    ScenarioError::Store(format!("cell {fp}: bad {what}"))
}

/// Reads the `cells` member. A bad cell does not stop the walk, so a
/// later syntax error still wins; the first bad cell is the error, and
/// the cells after it are not kept.
fn read_cells(bytes: &[u8], pos: &mut usize) -> Read<BTreeMap<String, StoredCell>, ScenarioError> {
    let mut cells = BTreeMap::new();
    if !at_object(bytes, pos) {
        json::parse_value(bytes, pos, 1)?;
        return Ok(Ok(cells));
    }
    let mut bad = None;
    json::parse_members(bytes, pos, |fp, pos| {
        let cell = read_cell(bytes, pos, 2)?;
        match cell {
            _ if bad.is_some() => {}
            Ok(cell) => drop(cells.insert(fp.into_owned(), cell)),
            Err(what) => bad = Some(bad_cell(&fp, what)),
        }
        Ok(())
    })?;
    Ok(bad.map_or(Ok(cells), Err))
}

/// The first occurrence of each key a cell object reads.
#[derive(Default)]
struct Fields {
    scenario: Option<Json>,
    version: Option<Json>,
    params: Option<Json>,
    seed: Option<Json>,
    fold: Option<Json>,
    /// The metrics, or what is bad about them.
    metrics: Option<Result<Vec<(String, f64)>, &'static str>>,
}

/// Reads the cell value at `pos`, which sits inside `depth` containers.
/// The inner error names what is bad (see [`Fields::into_cell`]).
fn read_cell(bytes: &[u8], pos: &mut usize, depth: usize) -> Read<StoredCell, &'static str> {
    if !at_object(bytes, pos) {
        json::parse_value(bytes, pos, depth)?;
        return Ok(Err("scenario"));
    }
    let mut f = Fields::default();
    json::parse_members(bytes, pos, |key, pos| {
        let slot = match &*key {
            "scenario" => &mut f.scenario,
            "version" => &mut f.version,
            "params" => &mut f.params,
            "seed" => &mut f.seed,
            "fold" => &mut f.fold,
            "metrics" if f.metrics.is_none() => {
                f.metrics = Some(read_metrics(bytes, pos, depth + 1)?);
                return Ok(());
            }
            _ => return json::parse_value(bytes, pos, depth + 1).map(drop),
        };
        let value = json::parse_value(bytes, pos, depth + 1)?;
        slot.get_or_insert(value);
        Ok(())
    })?;
    Ok(f.into_cell())
}

impl Fields {
    /// The cell these fields make, or what is bad about them, checked
    /// in `StoredCell::from_json`'s order: scenario, version, params,
    /// seed, metrics, metric.
    fn into_cell(self) -> Result<StoredCell, &'static str> {
        let text = |value: Option<Json>| match value {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        };
        let scenario = text(self.scenario).ok_or("scenario")?;
        let version = self.version.and_then(|v| v.as_f64()).ok_or("version")? as u32;
        let params_key = text(self.params).ok_or("params")?;
        let seed = text(self.seed)
            .and_then(|s| u64::from_str_radix(&s, 16).ok())
            .ok_or("seed")?;
        let metrics = self.metrics.unwrap_or(Err("metrics"))?;
        Ok(StoredCell {
            scenario,
            version,
            params_key,
            seed,
            fold: matches!(self.fold, Some(Json::Bool(true))),
            result: CellResult { metrics },
        })
    }
}

/// Reads a cell's `metrics` value at `pos`, inside `depth` containers:
/// every member in order, duplicates kept, as `from_json` keeps them.
fn read_metrics(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Read<Vec<(String, f64)>, &'static str> {
    if !at_object(bytes, pos) {
        json::parse_value(bytes, pos, depth)?;
        return Ok(Err("metrics"));
    }
    let mut metrics = Vec::new();
    let mut bad = false;
    json::parse_members(bytes, pos, |name, pos| {
        match json::parse_value(bytes, pos, depth + 1)? {
            Json::Num(x) => metrics.push((name.into_owned(), x)),
            _ => bad = true,
        }
        Ok(())
    })?;
    Ok(if bad { Err("metric") } else { Ok(metrics) })
}
