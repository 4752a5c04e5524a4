//! Property tests for the store's direct JSON codec (`store::codec`)
//! against the `Json` tree it replaces.
//!
//! - Writing: a store renders to exactly `to_json().pretty()`, and a
//!   journal line to the `compact()` of its tree, for arbitrary cells.
//! - Reading valid documents: keys in any order, extra keys, repeated
//!   keys and fingerprints, any whitespace and another schema read to
//!   exactly what `ResultStore::from_json(&Json::parse(..))` reads,
//!   error included.
//! - Reading damage: every truncation, bit flip and splice of the
//!   seed-42 baseline and of its journal lines reads to `Ok` exactly
//!   when the tree does, with the same store or the same error, and
//!   never panics.
//!
//! The default run draws a few hundred cases; the `#[ignore]`d soaks
//! draw many more
//! (`cargo test --release -p harness --test codec_prop -- --ignored`).

use harness::json::{self, Json};
use harness::scenario::CellResult;
use harness::store::{codec, ResultStore, StoredCell, SCHEMA_VERSION};
use proptest::prelude::*;
use std::sync::OnceLock;

const BASELINE: &str = include_str!("../../../baselines/campaign-seed42.json");

/// Characters a generated string draws from: what JSON escapes, the
/// other control characters, and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '7', ' ', '=', ',', '{', ':', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}',
    '\u{7f}', 'é', '漢', '😀',
];

/// Metric values at the edges of the number writer: signed zero,
/// integers on both sides of the 9e15 integer cut-off, subnormals and
/// the extremes.
const EDGES: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -3.0,
    0.5,
    0.1,
    123_456.789,
    4_294_967_295.0,
    8_999_999_999_999_999.0,
    9e15,
    -9e15,
    9_000_000_000_000_002.0,
    9_007_199_254_740_993.0,
    1e16,
    1e21,
    1e300,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    5e-324,
    2.225e-308,
];

/// Bytes a splice draws from: JSON structure, the digits and literals
/// of cell records, and bytes that break UTF-8.
const SPLICE_POOL: &[u8] = b"[]{}\",:\\u0123456789.eE+-tfnul \n\xc3\xa9\xff";

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..CHARS.len(), 0..=10)
        .prop_map(|picks| picks.iter().map(|&i| CHARS[i]).collect())
}

fn metric() -> impl Strategy<Value = f64> {
    (0..2 * EDGES.len(), 0u64..=u64::MAX).prop_map(|(pick, bits)| match EDGES.get(pick) {
        Some(&edge) => edge,
        None => Some(f64::from_bits(bits))
            .filter(|x| x.is_finite())
            .unwrap_or(1.5),
    })
}

fn cell() -> impl Strategy<Value = StoredCell> {
    (
        (text(), 0u32..=u32::MAX, text()),
        (
            0u64..=u64::MAX,
            0u8..=1,
            prop::collection::vec((text(), metric()), 0..=4),
        ),
    )
        .prop_map(
            |((scenario, version, params_key), (seed, fold, metrics))| StoredCell {
                scenario,
                version,
                params_key,
                seed,
                fold: fold == 1,
                result: CellResult { metrics },
            },
        )
}

fn store() -> impl Strategy<Value = ResultStore> {
    prop::collection::vec((text(), cell()), 0..=6).prop_map(|cells| {
        let mut store = ResultStore::new();
        for (fp, cell) in cells {
            store.insert_cell(fp, cell);
        }
        store
    })
}

/// A journal line as a tree.
fn line_tree(fp: &str, cell: &StoredCell) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(SCHEMA_VERSION as f64)),
        ("fp".into(), Json::str(fp)),
        ("cell".into(), cell.to_json()),
    ])
}

/// The tree reading of a journal line: the oracle of
/// `codec::read_journal_line`.
fn tree_journal_line(line: &str) -> Result<Option<(String, StoredCell)>, String> {
    let doc = Json::parse(line)?;
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

/// Both readings of a store document must agree, errors included.
fn reads_like_the_tree(text: &str) {
    let tree = Json::parse(text).map(|doc| ResultStore::from_json(&doc));
    assert_eq!(codec::read_store(text), tree, "{text}");
}

/// Both readings of a journal line must agree, errors included.
fn line_reads_like_the_tree(line: &str) {
    assert_eq!(
        codec::read_journal_line(line),
        tree_journal_line(line),
        "{line}"
    );
}

/// A deterministic stream of choices (xorshift64).
struct Dice(u64);

impl Dice {
    fn roll(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Keys an inserted member draws from: unknown ones, and the store
/// schema's own (which then repeat).
const KEYS: &[&str] = &[
    "extra", "schema", "cells", "fp", "cell", "scenario", "version", "params", "seed", "fold",
    "metrics", "x\"y",
];

/// A value of the wrong shape for most places it lands in.
fn junk(dice: &mut Dice, depth: usize) -> Json {
    match dice.roll(if depth < 3 { 9 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(dice.roll(2) == 0),
        2 => Json::Num([0.0, 1.0, 2.0, 2.5, -1.0, 1e300][dice.roll(6)]),
        3..=5 => Json::str(["", "2", "00000000000000ff", "+ff", "zz", "a=1"][dice.roll(6)]),
        6 => Json::Num(SCHEMA_VERSION as f64),
        7 => Json::Arr((0..dice.roll(3)).map(|_| junk(dice, depth + 1)).collect()),
        _ => Json::Obj(
            (0..dice.roll(3))
                .map(|_| (KEYS[dice.roll(KEYS.len())].into(), junk(dice, depth + 1)))
                .collect(),
        ),
    }
}

/// Varies every object of `doc`, innermost first: at `heat` 0 it only
/// reorders members; hotter, it also repeats members (a repeated
/// fingerprint, or a repeated key inside a cell), inserts members,
/// drops them and replaces values with junk.
fn vary(doc: &mut Json, dice: &mut Dice, heat: usize) {
    let Json::Obj(members) = doc else {
        return;
    };
    for (_, value) in members.iter_mut() {
        vary(value, dice, heat);
    }
    if !members.is_empty() && dice.roll(4) < heat {
        // A repeat that differs (and of a cell, is still a valid cell),
        // so which of the two wins shows.
        let (key, mut value) = members[dice.roll(members.len())].clone();
        if !bump(&mut value) {
            value = junk(dice, 0);
        }
        members.insert(dice.roll(members.len() + 1), (key, value));
    }
    if dice.roll(4) < heat {
        let member = (KEYS[dice.roll(KEYS.len())].into(), junk(dice, 0));
        members.insert(dice.roll(members.len() + 1), member);
    }
    if !members.is_empty() && dice.roll(8) < heat {
        members.remove(dice.roll(members.len()));
    }
    if !members.is_empty() && dice.roll(8) < heat {
        let at = dice.roll(members.len());
        members[at].1 = junk(dice, 0);
    }
    for i in (1..members.len()).rev() {
        members.swap(i, dice.roll(i + 1));
    }
}

/// Adds one to the first number in `value` (a cell's `version`);
/// false if it holds none.
fn bump(value: &mut Json) -> bool {
    match value {
        Json::Num(x) => {
            *x += 1.0;
            true
        }
        Json::Arr(items) => items.iter_mut().any(bump),
        Json::Obj(members) => members.iter_mut().any(|(_, v)| bump(v)),
        _ => false,
    }
}

/// Up to two whitespace characters of any kind.
fn ws(dice: &mut Dice, out: &mut String) {
    for _ in 0..dice.roll(3) {
        out.push([' ', '\t', '\n', '\r'][dice.roll(4)]);
    }
}

/// Renders `doc` with whitespace of every kind between its tokens.
fn render(doc: &Json, dice: &mut Dice, out: &mut String) {
    ws(dice, out);
    match doc {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, dice, out);
            }
            ws(dice, out);
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(dice, out);
                out.push_str(&Json::str(key.as_str()).compact());
                ws(dice, out);
                out.push(':');
                render(value, dice, out);
            }
            ws(dice, out);
            out.push('}');
        }
        leaf => out.push_str(&leaf.compact()),
    }
    ws(dice, out);
}

/// A varied, re-rendered copy of `doc`, whose first member is its
/// `schema`: another schema when `other`.
fn varied(mut doc: Json, dice: &mut Dice, heat: usize, other: bool) -> String {
    if let (Json::Obj(members), true) = (&mut doc, other) {
        members[0].1 = Json::Num(1.0);
    }
    vary(&mut doc, dice, heat);
    let mut text = String::new();
    render(&doc, dice, &mut text);
    text
}

fn writer_matches_the_tree(store: &ResultStore) {
    assert_eq!(codec::write_store(store), store.to_json().pretty());
    let mut line = String::from("left over");
    for (fp, cell) in store.iter() {
        line.clear();
        codec::write_journal_line(&mut line, fp, cell);
        assert_eq!(line, line_tree(fp, cell).compact());
    }
}

fn reader_matches_the_tree(store: &ResultStore, roll: u64) {
    let mut dice = Dice(roll | 1);
    let (heat, other) = (dice.roll(3), dice.roll(8) == 0);
    let text = varied(store.to_json(), &mut dice, heat, other);
    reads_like_the_tree(&text);
    if heat == 0 {
        // Only reordered and re-spaced: the store itself comes back,
        // its metrics in another order.
        let read = codec::read_store(&text).unwrap().unwrap();
        let expected = if other { &ResultStore::new() } else { store };
        assert_eq!(sorted_metrics(&read), sorted_metrics(expected));
    }
    for (fp, cell) in store.iter() {
        let (heat, other) = (dice.roll(3), dice.roll(8) == 0);
        line_reads_like_the_tree(&varied(line_tree(fp, cell), &mut dice, heat, other));
    }
}

/// `store` with each cell's metrics sorted.
fn sorted_metrics(store: &ResultStore) -> ResultStore {
    let mut sorted = store.clone();
    for (fp, cell) in store.iter() {
        let mut cell = cell.clone();
        cell.result
            .metrics
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        sorted.insert_cell(fp.to_string(), cell);
    }
    sorted
}

/// Baseline journal lines: the `k`th cell's, `k` as a fraction.
fn baseline_line(k: f64) -> String {
    static STORE: OnceLock<ResultStore> = OnceLock::new();
    let store = STORE.get_or_init(|| codec::read_store(BASELINE).unwrap().unwrap());
    let (fp, cell) = store.iter().nth((store.len() as f64 * k) as usize).unwrap();
    let mut line = String::new();
    codec::write_journal_line(&mut line, fp, cell);
    line
}

/// A byte position in `bytes`, as a fraction.
fn at(bytes: &[u8], fraction: f64) -> usize {
    ((bytes.len() as f64) * fraction) as usize
}

/// The damage kinds, applied to `bytes`: a cut at `cut` (if any), then
/// bit flips, then splices.
fn damage(
    bytes: &[u8],
    cut: Option<f64>,
    flips: &[(f64, u32)],
    splices: &[(f64, Vec<usize>)],
) -> String {
    let mut bytes = bytes.to_vec();
    if let Some(cut) = cut {
        bytes.truncate(at(&bytes, cut));
    }
    for &(where_, bit) in flips {
        let i = at(&bytes, where_).min(bytes.len().saturating_sub(1));
        if let Some(b) = bytes.get_mut(i) {
            *b ^= 1 << bit;
        }
    }
    for (where_, picks) in splices {
        let insert: Vec<u8> = picks.iter().map(|&i| SPLICE_POOL[i]).collect();
        let pos = at(&bytes, *where_).min(bytes.len());
        bytes.splice(pos..pos, insert);
    }
    // Stores load only as UTF-8, as `open_any` checks before reading.
    String::from_utf8_lossy(&bytes).into_owned()
}

fn flips() -> impl Strategy<Value = Vec<(f64, u32)>> {
    prop::collection::vec((0.0f64..1.0, 0u32..8), 1..=8)
}

fn splices() -> impl Strategy<Value = Vec<(f64, Vec<usize>)>> {
    prop::collection::vec(
        (
            0.0f64..1.0,
            prop::collection::vec(0usize..SPLICE_POOL.len(), 1..=40),
        ),
        1..=4,
    )
}

#[test]
fn the_baselines_read_and_write_like_the_tree() {
    for text in [
        BASELINE,
        include_str!("../../../baselines/campaign-seed7.json"),
    ] {
        let store = codec::read_store(text).unwrap().unwrap();
        assert!(!store.is_empty());
        reads_like_the_tree(text);
        assert_eq!(codec::write_store(&store), text);
        writer_matches_the_tree(&store);
    }
}

#[test]
fn edge_documents_read_like_the_tree() {
    for text in [
        "",
        "{",
        "[1,2]",
        "{}",
        "{\"schema\":2}",
        "{\"schema\":2.5,\"cells\":{}}",
        "{\"cells\":{\"a\":5},\"schema\":2}",
        "{\"schema\":1,\"cells\":{\"a\":5}}",
        "{\"schema\":\"2\",\"cells\":{}}",
        "{\"schema\":2,\"cells\":[]} x",
        "{\"schema\":2,\"cells\":{\"a\":{\"scenario\":1}},\"schema\":1}",
        "{\"schema\":1,\"schema\":2,\"cells\":{\"a\":{}}}",
    ] {
        reads_like_the_tree(text);
        line_reads_like_the_tree(text);
    }
    // Unknown values keep the nesting bound at every level they can
    // sit: beside the schema, in a cell, in its metrics.
    for (before, after) in [
        (r#"{"schema":2,"x":"#, "}"),
        (r#"{"schema":2,"cells":{"a":{"x":"#, "}}}"),
        (r#"{"schema":2,"cells":{"a":{"metrics":{"m":"#, "}}}}"),
        (r#"{"schema":2,"fp":"a","cell":{"metrics":{"m":"#, "}}}"),
    ] {
        let mut refused = false;
        for n in json::MAX_DEPTH - 4..=json::MAX_DEPTH {
            let text = format!("{before}{}{}{after}", "[".repeat(n), "]".repeat(n));
            reads_like_the_tree(&text);
            line_reads_like_the_tree(&text);
            refused |= Json::parse(&text).is_err();
        }
        assert!(refused, "{before}: some depth must pass the bound");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn writer_equals_the_tree(store in store()) {
        writer_matches_the_tree(&store);
    }

    #[test]
    fn reader_equals_the_tree_on_valid_documents(store in store(), roll in 0u64..=u64::MAX) {
        reader_matches_the_tree(&store, roll);
    }

    #[test]
    fn truncated_store_reads_like_the_tree(cut in 0.0f64..1.0) {
        reads_like_the_tree(&damage(BASELINE.as_bytes(), Some(cut), &[], &[]));
    }

    #[test]
    fn bit_flipped_store_reads_like_the_tree(flips in flips()) {
        reads_like_the_tree(&damage(BASELINE.as_bytes(), None, &flips, &[]));
    }

    #[test]
    fn spliced_store_reads_like_the_tree(splices in splices()) {
        reads_like_the_tree(&damage(BASELINE.as_bytes(), None, &[], &splices));
    }

    #[test]
    fn damaged_journal_line_reads_like_the_tree(
        k in 0.0f64..1.0,
        cut in 0.0f64..1.0,
        flips in flips(),
        splices in splices(),
    ) {
        let line = baseline_line(k);
        line_reads_like_the_tree(&damage(line.as_bytes(), Some(cut), &[], &[]));
        line_reads_like_the_tree(&damage(line.as_bytes(), None, &flips, &[]));
        line_reads_like_the_tree(&damage(line.as_bytes(), None, &[], &splices));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    #[ignore = "soak: tens of thousands of cases; run with --ignored"]
    fn codec_soak(
        store in store(),
        roll in 0u64..=u64::MAX,
        damaged in (0.0f64..1.0, flips(), splices()),
    ) {
        writer_matches_the_tree(&store);
        reader_matches_the_tree(&store, roll);
        let (cut, flips, splices) = damaged;
        reads_like_the_tree(&damage(BASELINE.as_bytes(), Some(cut), &[], &[]));
        reads_like_the_tree(&damage(BASELINE.as_bytes(), None, &flips, &splices));
        let line = baseline_line(cut);
        line_reads_like_the_tree(&damage(line.as_bytes(), None, &flips, &splices));
    }
}
