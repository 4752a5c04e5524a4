//! Campaign serialization (JSON/CSV), the evidence summary that joins
//! campaign results against `predictability_core::catalog`, and the
//! human-readable renderings of the `dist` layer's artifacts (shard
//! plans, store diffs).

use crate::dist::diff::{DeltaKind, DiffReport};
use crate::dist::plan::Manifest;
use crate::dist::steal::Chunk;
use crate::exec::Campaign;
use crate::expect::DERIVED_SUFFIXES;
use crate::json::Json;
use crate::registry::Registry;
use crate::scenario::ScenarioSpec;
use predictability_core::catalog;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes a campaign deterministically: equal campaigns render to
/// equal bytes (the golden-file contract).
pub fn campaign_json(campaign: &Campaign) -> String {
    let mut members = vec![
        // Decimal string: u64 seeds exceed f64's exact integer range.
        ("seed".into(), Json::str(campaign.seed.to_string())),
        ("executed".into(), Json::Num(campaign.executed as f64)),
        ("memoized".into(), Json::Num(campaign.memoized as f64)),
    ];
    // Only replicated campaigns carry the axis: a `--replicates 1` run
    // must serialize byte-identically to a pre-replicate campaign.
    if campaign.replicates > 1 {
        members.push((
            "replicates".into(),
            Json::Num(f64::from(campaign.replicates)),
        ));
    }
    members.push((
        "cells".into(),
        Json::Arr(
            campaign
                .cells
                .iter()
                .map(|cell| {
                    Json::Obj(vec![
                        ("scenario".into(), Json::str(&cell.scenario)),
                        ("params".into(), Json::str(cell.params.key())),
                        // Hex: u64 seeds exceed f64's exact range.
                        ("seed".into(), Json::str(format!("{:016x}", cell.seed))),
                        (
                            "metrics".into(),
                            Json::Obj(
                                cell.result
                                    .metrics
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    Json::Obj(members).pretty()
}

/// Long-format CSV: one row per metric, schema-free across scenarios.
///
/// A replicated campaign's cells are distribution folds, so the CSV
/// switches to the wide distribution schema: one row per *base* metric
/// carrying the seven derived columns
/// (`mean,std,ci95,p05,p50,p95,n`).
pub fn campaign_csv(campaign: &Campaign) -> String {
    if campaign.replicates > 1 {
        return distribution_csv(campaign);
    }
    let mut out = String::from("scenario,params,seed,metric,value\n");
    for cell in &campaign.cells {
        for (metric, value) in &cell.result.metrics {
            let _ = writeln!(
                out,
                "{},\"{}\",{},{},{}",
                cell.scenario,
                cell.params.key(),
                cell.seed,
                metric,
                fmt_value(*value)
            );
        }
    }
    out
}

/// The wide CSV over fold cells: one row per base metric, the derived
/// suffixes as columns in [`DERIVED_SUFFIXES`] order.
fn distribution_csv(campaign: &Campaign) -> String {
    let width = DERIVED_SUFFIXES.len();
    let mut out = format!(
        "scenario,params,seed,metric,{}\n",
        DERIVED_SUFFIXES.join(",")
    );
    for cell in &campaign.cells {
        for group in cell.result.metrics.chunks_exact(width) {
            let base = group[0]
                .0
                .strip_suffix(".mean")
                .unwrap_or(group[0].0.as_str());
            let columns: Vec<String> = group.iter().map(|(_, v)| fmt_value(*v)).collect();
            let _ = writeln!(
                out,
                "{},\"{}\",{},{base},{}",
                cell.scenario,
                cell.params.key(),
                cell.seed,
                columns.join(",")
            );
        }
    }
    out
}

fn fmt_value(x: f64) -> String {
    if x == x.trunc() && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

/// Renders the scenario listing for `campaign list`.
pub fn list_scenarios(registry: &Registry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<6} {:<16} title",
        "id", "cells", "source crate"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for spec in registry.specs() {
        let _ = writeln!(
            out,
            "{:<20} {:<6} {:<16} {}",
            spec.id,
            spec.matrix_size(),
            spec.source_crate,
            spec.title
        );
        let axes: Vec<String> = spec
            .axes
            .iter()
            .map(|a| format!("{}={{{}}}", a.name, a.values.join("|")))
            .collect();
        let _ = writeln!(out, "{:<20} {:<6} matrix: {}", "", "", axes.join(" × "));
    }
    out
}

/// The Table-1/2-style evidence summary: per scenario, the template
/// slots, the joined catalog row (approach, paper citations) where one
/// exists, and every cell's headline metric with the extremes marked.
pub fn evidence_summary(campaign: &Campaign, registry: &Registry) -> String {
    let mut out = String::new();
    for spec in registry.specs() {
        let cells: Vec<_> = campaign
            .cells
            .iter()
            .filter(|c| c.scenario == spec.id)
            .collect();
        if cells.is_empty() {
            continue;
        }
        let _ = writeln!(out, "== {} [{}]", spec.title, spec.id);
        if let Some(row) = spec.catalog_id.and_then(catalog::by_id) {
            let _ = writeln!(
                out,
                "   catalog:     {} — {} (citations {})",
                row.id,
                row.approach,
                row.citations.join(", ")
            );
        }
        let _ = writeln!(out, "   property:    {}", spec.property);
        let _ = writeln!(out, "   uncertainty: {}", spec.uncertainty);
        let _ = writeln!(out, "   quality:     {}", spec.quality);
        let headline = spec.headline_metric;
        // Fold cells carry `<headline>.mean` instead of the raw
        // headline; fall back so replicated campaigns rank by mean.
        let lookup = |c: &crate::exec::CampaignCell| {
            c.result.metric(headline).map(|v| (v, None)).or_else(|| {
                c.result
                    .metric(&format!("{headline}.mean"))
                    .map(|v| (v, c.result.metric(&format!("{headline}.ci95"))))
            })
        };
        let stats: Vec<Option<(f64, Option<f64>)>> = cells.iter().map(|c| lookup(c)).collect();
        let values: Vec<Option<f64>> = stats.iter().map(|s| s.map(|(v, _)| v)).collect();
        let best = fold_extreme(&values, spec.smaller_is_better);
        let worst = fold_extreme(&values, !spec.smaller_is_better);
        for ((cell, value), stat) in cells.iter().zip(&values).zip(&stats) {
            let rendered = match stat {
                Some((v, Some(ci))) => format!("{} ± {}", fmt_value(*v), fmt_value(*ci)),
                Some((v, None)) => fmt_value(*v),
                None => "—".to_string(),
            };
            let marker = match value {
                Some(v) if Some(*v) == best && best != worst => "  <- best",
                Some(v) if Some(*v) == worst && best != worst => "  <- worst",
                _ => "",
            };
            let memo = if cell.memoized { " (memoized)" } else { "" };
            let _ = writeln!(
                out,
                "   {:<44} {headline} = {rendered}{marker}{memo}",
                cell.params.key()
            );
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{} cells: {} executed, {} memoized (campaign seed {})",
        campaign.cells.len(),
        campaign.executed,
        campaign.memoized,
        campaign.seed
    );
    out
}

/// The Fig-1-style distribution view over a replicated campaign: per
/// scenario, each cell's headline distribution rendered as a p05–p95
/// span gauge (`|` marks p05/p95, `o` the median) scaled to the
/// scenario's global range, plus the numeric columns. Cells without
/// fold metrics (a non-replicated campaign) render nothing.
pub fn distribution_summary(campaign: &Campaign, registry: &Registry) -> String {
    const WIDTH: usize = 32;
    let mut out = String::new();
    for spec in registry.specs() {
        let headline = spec.headline_metric;
        let dist = |c: &crate::exec::CampaignCell| {
            Some((
                c.result.metric(&format!("{headline}.mean"))?,
                c.result.metric(&format!("{headline}.ci95"))?,
                c.result.metric(&format!("{headline}.p05"))?,
                c.result.metric(&format!("{headline}.p50"))?,
                c.result.metric(&format!("{headline}.p95"))?,
                c.result.metric(&format!("{headline}.n"))?,
            ))
        };
        let cells: Vec<_> = campaign
            .cells
            .iter()
            .filter(|c| c.scenario == spec.id)
            .filter_map(|c| dist(c).map(|d| (c, d)))
            .collect();
        if cells.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "== {} [{}]  {headline} distribution",
            spec.title, spec.id
        );
        // One shared scale per scenario so gauges are comparable rows.
        let lo = cells.iter().map(|(_, d)| d.2).fold(f64::INFINITY, f64::min);
        let hi = cells
            .iter()
            .map(|(_, d)| d.4)
            .fold(f64::NEG_INFINITY, f64::max);
        let place = |v: f64| -> usize {
            // A zero-width scale (all cells identical) or a non-finite
            // quantile pins the marker to the gauge's midpoint.
            if hi <= lo || !v.is_finite() {
                return WIDTH / 2;
            }
            (((v - lo) / (hi - lo)) * (WIDTH - 1) as f64).round() as usize
        };
        for (cell, (mean, ci95, p05, p50, p95, n)) in cells {
            let mut gauge = vec![b' '; WIDTH];
            let span_end = place(p95).min(WIDTH - 1);
            for slot in gauge.iter_mut().take(span_end + 1).skip(place(p05)) {
                *slot = b'-';
            }
            gauge[place(p05).min(WIDTH - 1)] = b'|';
            gauge[place(p95).min(WIDTH - 1)] = b'|';
            gauge[place(p50).min(WIDTH - 1)] = b'o';
            let _ = writeln!(
                out,
                "   {:<44} [{}] p05={} p50={} p95={} mean={} ± {} (n={})",
                cell.params.key(),
                String::from_utf8_lossy(&gauge),
                fmt_value(p05),
                fmt_value(p50),
                fmt_value(p95),
                fmt_value(mean),
                fmt_value(ci95),
                fmt_value(n),
            );
        }
        out.push('\n');
    }
    out
}

/// Wraps already-materialized cells as an all-memoized [`Campaign`] so
/// the summary renderers above can run over them — the serve daemon's
/// `report` op uses this to render its index snapshot without
/// re-executing anything.
pub fn memoized_campaign(cells: Vec<crate::exec::CampaignCell>, seed: u64) -> Campaign {
    let memoized = cells.len();
    Campaign {
        seed,
        cells,
        executed: 0,
        memoized,
        replicates: 1,
    }
}

fn fold_extreme(values: &[Option<f64>], smaller: bool) -> Option<f64> {
    values
        .iter()
        .flatten()
        .copied()
        .reduce(|a, b| if (b < a) == smaller { b } else { a })
}

/// Renders a shard plan: the manifest's identity line, then each
/// shard's initial lease from the chunk map — in the wording of
/// `merge --report` — with its planned cost. Shards with an empty lease
/// (more shards than chunks) are counted, not listed, so a huge shard
/// count prints one line.
pub fn plan_summary(manifest: &Manifest, chunks: &[Chunk]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "planned {} cells over {} shards (seed {}, scenarios: {})",
        manifest.cells,
        manifest.shards,
        manifest.seed,
        manifest.scenarios.join(", ")
    );
    // shard -> (chunks, lazy cells) of its initial lease.
    let mut leases: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for chunk in chunks {
        let lease = leases.entry(chunk.initial_shard).or_default();
        lease.0 += 1;
        lease.1 += chunk.range.len();
    }
    for (shard, (chunks, cells)) in &leases {
        let _ = writeln!(
            out,
            "  shard {shard}: lease {chunks} chunks / {cells} cells"
        );
    }
    let empty = u64::from(manifest.shards) - leases.len() as u64;
    if empty > 0 {
        let _ = writeln!(out, "  {empty} shards with an empty lease");
    }
    out
}

/// Renders a store diff, unified-diff style: `-` removed cells, `+`
/// added cells, `~` metric changes, then a one-line total.
pub fn diff_summary(report: &DiffReport) -> String {
    let mut out = String::new();
    for delta in &report.deltas {
        let head = format!(
            "{:<20} {:<44} [{}]",
            delta.scenario, delta.params_key, delta.fingerprint
        );
        match &delta.kind {
            DeltaKind::Removed => {
                let _ = writeln!(out, "- {head} (only in baseline)");
            }
            DeltaKind::Added => {
                let _ = writeln!(out, "+ {head} (only in compared)");
            }
            DeltaKind::Changed(metrics) => {
                let _ = writeln!(out, "~ {head}");
                for m in metrics {
                    let fmt = |v: Option<f64>| v.map_or("—".to_string(), fmt_value);
                    let _ = writeln!(
                        out,
                        "    {}: {} -> {}",
                        m.metric,
                        fmt(m.before),
                        fmt(m.after)
                    );
                }
            }
        }
    }
    // Near misses: metrics that moved but were admitted by a
    // tolerance rule. Naming the rule is the audit trail — a drift the
    // sigma rule admitted is statistical noise, one the abs rule
    // admitted is a deliberate slack.
    for miss in &report.near_misses {
        let _ = writeln!(
            out,
            "≈ {:<20} {:<44} {}: {} -> {} (admitted: {})",
            miss.scenario,
            miss.params_key,
            miss.metric,
            fmt_value(miss.before),
            fmt_value(miss.after),
            miss.admitted
        );
    }
    let _ = write!(
        out,
        "diff: {} added, {} removed, {} changed, {} unchanged",
        report.added(),
        report.removed(),
        report.changed(),
        report.unchanged
    );
    if !report.near_misses.is_empty() {
        let _ = write!(out, ", {} within tolerance", report.near_misses.len());
    }
    out.push('\n');
    out
}

/// Renders the steal-aware merge report: one `chunk` line per planned
/// chunk (who won it, and whether that was a steal) and the per-shard
/// planned-vs-won balance. Chunk lines are the CI contract: every
/// planned chunk appears exactly once.
pub fn steal_summary(report: &crate::dist::merge::StealReport, manifest: &Manifest) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "steal report: {} chunks over {} shards ({} stolen, {} unclaimed)",
        report.chunks.len(),
        report.shards,
        report.stolen(),
        report.unclaimed()
    );
    for lease in &report.chunks {
        let chunk = &lease.chunk;
        let scenario = manifest
            .scenarios
            .get(chunk.scenario)
            .map_or("?", String::as_str);
        let fate = match lease.holder {
            None => "UNCLAIMED".to_string(),
            Some(holder) if lease.stolen() => {
                format!("shard {holder} (stolen from {})", chunk.initial_shard)
            }
            Some(holder) => format!("shard {holder} (native)"),
        };
        let _ = writeln!(
            out,
            "chunk {:03}  {:<20} cells [{}..{})  {}",
            chunk.id, scenario, chunk.range.start, chunk.range.end, fate
        );
    }
    for balance in &report.shards_balance {
        let _ = writeln!(
            out,
            "shard {}: lease {} chunks / {} cells -> won {} chunks / {} cells ({} stolen)",
            balance.shard,
            balance.leased_chunks,
            balance.leased_cells,
            balance.won_chunks,
            balance.won_cells,
            balance.stolen_chunks
        );
    }
    out
}

/// Renders a generated-program corpus for `campaign gen`: the corpus
/// identity line, then one row per kernel matching the filter
/// (coordinates, generator seed, instruction count, digest), optionally
/// followed by each matching kernel's disassembly.
pub fn corpus_summary(
    corpus: &crate::gen::Corpus,
    filter: &crate::matrix::Filter,
    disasm: bool,
) -> String {
    use crate::gen::Corpus;
    use crate::scenario::Params;
    use tinyisa::codegen::{canonical_source, kernel_digest};

    // One pass over the population: each kernel is generated once, its
    // digest feeds both the matching row and the population digest in
    // the header.
    let mut rows = String::new();
    let mut digests = Vec::new();
    let shapes = Corpus::shapes();
    for shape in &shapes {
        for index in 0..corpus.size {
            let kernel = corpus.kernel(*shape, index);
            let digest = kernel_digest(&kernel);
            digests.push(digest.clone());
            let params = Params::new(vec![
                ("depth".into(), shape.depth.to_string()),
                ("stmts".into(), shape.stmts.to_string()),
                ("loop_iters".into(), shape.loop_iters.to_string()),
                ("program_index".into(), index.to_string()),
            ]);
            if !filter.matches(&params) {
                continue;
            }
            let _ = writeln!(
                rows,
                "{:<44} {:016x}   {:>6}  {digest}",
                params.key(),
                corpus.kernel_seed(*shape, index),
                kernel.program.instrs.len(),
            );
            if disasm {
                for line in canonical_source(&kernel).lines() {
                    let _ = writeln!(rows, "    {line}");
                }
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus seed {}: {} kernels/shape × {} shapes = {} programs (digest {})",
        corpus.seed,
        corpus.size,
        shapes.len(),
        corpus.size as usize * shapes.len(),
        corpus.fold_digest(digests.into_iter())
    );
    let _ = writeln!(
        out,
        "{:<44} {:<18} {:>6}  digest",
        "kernel", "generator seed", "instrs"
    );
    out.push_str(&rows);
    out
}

/// Renders a GC pass: each dropped cell with its reason, then the
/// kept/dropped totals (tagged when the pass was a dry run).
pub fn gc_summary(report: &crate::store::GcReport, dry_run: bool) -> String {
    let mut out = String::new();
    for drop in &report.dropped {
        let _ = writeln!(
            out,
            "- {:<20} {:<44} [{}] {}",
            drop.scenario, drop.params_key, drop.fingerprint, drop.reason
        );
    }
    let _ = writeln!(
        out,
        "gc{}: {} kept, {} dropped",
        if dry_run { " (dry run)" } else { "" },
        report.kept,
        report.dropped.len()
    );
    out
}

/// Renders one spec's template slots (used by `campaign list
/// --verbose`-style output and kept public for reuse).
pub fn spec_summary(spec: &ScenarioSpec) -> String {
    format!(
        "{} [{}]: property = {}; uncertainty = {}; quality = {}",
        spec.title, spec.id, spec.property, spec.uncertainty, spec.quality
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_campaign, ExecConfig};
    use crate::matrix::Filter;
    use crate::store::ResultStore;

    fn small_campaign() -> (Campaign, Registry) {
        let registry = Registry::builtin();
        let campaign = run_campaign(
            &registry,
            &["pipeline-domino".to_string(), "dram-refresh".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 1,
                ..ExecConfig::default()
            },
            &mut ResultStore::new(),
        )
        .unwrap();
        (campaign, registry)
    }

    #[test]
    fn json_and_csv_are_deterministic() {
        let (a, _) = small_campaign();
        let (b, _) = small_campaign();
        assert_eq!(campaign_json(&a), campaign_json(&b));
        assert_eq!(campaign_csv(&a), campaign_csv(&b));
    }

    #[test]
    fn csv_has_a_row_per_metric() {
        let (campaign, _) = small_campaign();
        let rows: usize = campaign.cells.iter().map(|c| c.result.metrics.len()).sum();
        assert_eq!(campaign_csv(&campaign).lines().count(), rows + 1);
    }

    #[test]
    fn summary_joins_the_catalog() {
        let (campaign, registry) = small_campaign();
        let s = evidence_summary(&campaign, &registry);
        assert!(s.contains("pipeline-domino"));
        // The refresh row's catalog join (approach text from core).
        assert!(s.contains("Predictable DRAM refreshes"));
        assert!(s.contains("citations"));
        assert!(s.contains("<- best"));
    }

    #[test]
    fn plan_summary_counts_every_shard() {
        let registry = Registry::builtin();
        let plan = |shards| {
            let manifest =
                crate::dist::plan(&registry, &["pipeline-domino".into()], &[], 1, shards, 1)
                    .unwrap();
            let chunks = crate::dist::chunk_map(&registry, &manifest).unwrap();
            plan_summary(&manifest, &chunks)
        };
        // pipeline-domino has 4 cells: 3 shards lease 2+1+1.
        let s = plan(3);
        assert!(s.contains("planned 4 cells over 3 shards"), "got: {s}");
        assert!(
            s.contains("  shard 0: lease 2 chunks / 2 cells\n"),
            "got: {s}"
        );
        for shard in 1..3 {
            assert!(s.contains(&format!("  shard {shard}: lease 1 chunks / 1 cells\n")));
        }
        assert!(!s.contains("empty lease"), "got: {s}");
        // More shards than chunks: only the leased shards are listed.
        let s = plan(u32::MAX);
        assert_eq!(s.lines().filter(|l| l.starts_with("  shard ")).count(), 4);
        assert!(
            s.contains("  4294967291 shards with an empty lease"),
            "got: {s}"
        );
    }

    #[test]
    fn diff_summary_renders_every_delta_kind() {
        use crate::dist::diff::{diff_stores, Tolerances};
        use crate::scenario::{CellResult, Params};
        use crate::store::ResultStore;
        let p = |n: u64| Params::new(vec![("n".into(), n.to_string())]);
        let mut a = ResultStore::new();
        let mut b = ResultStore::new();
        a.insert("s", 1, &p(1), 1, CellResult::new(vec![("m", 1.0)]));
        a.insert("s", 1, &p(2), 2, CellResult::new(vec![("m", 2.0)]));
        b.insert("s", 1, &p(2), 2, CellResult::new(vec![("m", 2.5)]));
        b.insert("s", 1, &p(3), 3, CellResult::new(vec![("m", 3.0)]));
        let s = diff_summary(&diff_stores(&a, &b, &Tolerances::exact()));
        assert!(s.contains("- s"));
        assert!(s.contains("+ s"));
        assert!(s.contains("~ s"));
        assert!(s.contains("m: 2 -> 2.5"));
        assert!(s.contains("1 added, 1 removed, 1 changed, 0 unchanged"));
    }

    #[test]
    fn steal_summary_names_every_chunk_exactly_once() {
        use crate::dist::{self, LeaseDir};
        let registry = Registry::builtin();
        let manifest = dist::plan(
            &registry,
            &["pipeline-domino".into(), "dram-refresh".into()],
            &[],
            42,
            2,
            1,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("harness-stealsum-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let leases = LeaseDir::open(&dir, &manifest).unwrap();
        let chunks = dist::chunk_map(&registry, &manifest).unwrap();
        for chunk in &chunks {
            assert!(leases.claim(chunk.id, chunk.initial_shard).unwrap());
        }
        let report = dist::steal_report(&registry, &manifest, &leases).unwrap();
        let s = steal_summary(&report, &manifest);
        let chunk_lines: Vec<&str> = s.lines().filter(|l| l.starts_with("chunk ")).collect();
        assert_eq!(chunk_lines.len(), chunks.len());
        for chunk in &chunks {
            assert_eq!(
                chunk_lines
                    .iter()
                    .filter(|l| l.starts_with(&format!("chunk {:03} ", chunk.id)))
                    .count(),
                1,
                "chunk {} must appear exactly once:\n{s}",
                chunk.id
            );
        }
        assert!(s.contains("(0 stolen, 0 unclaimed)"), "got: {s}");
        assert!(s.contains("pipeline-domino"), "chunks name their scenario");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listing_mentions_every_scenario_and_axis() {
        let registry = Registry::builtin();
        let s = list_scenarios(&registry);
        for spec in registry.specs() {
            assert!(s.contains(spec.id));
            for axis in &spec.axes {
                assert!(s.contains(axis.name), "axis {} missing", axis.name);
            }
        }
    }

    fn replicated_campaign() -> (Campaign, Registry) {
        let registry = Registry::builtin();
        let campaign = run_campaign(
            &registry,
            &["pipeline-domino".to_string()],
            &Filter::all(),
            &ExecConfig {
                threads: 2,
                seed: 1,
                replicates: 8,
                keep_replicates: false,
            },
            &mut ResultStore::new(),
        )
        .unwrap();
        (campaign, registry)
    }

    #[test]
    fn replicated_campaign_renders_distribution_artifacts() {
        let (campaign, registry) = replicated_campaign();
        // JSON carries the axis (only when > 1).
        let json = campaign_json(&campaign);
        assert!(json.contains("\"replicates\": 8"), "got: {json}");
        let (plain, _) = small_campaign();
        assert!(!campaign_json(&plain).contains("replicates"));
        // CSV switches to the wide distribution schema.
        let csv = campaign_csv(&campaign);
        let header = csv.lines().next().unwrap();
        assert_eq!(
            header,
            "scenario,params,seed,metric,mean,std,ci95,p05,p50,p95,n"
        );
        // One row per base metric per fold cell.
        let rows: usize = campaign
            .cells
            .iter()
            .map(|c| c.result.metrics.len() / DERIVED_SUFFIXES.len())
            .sum();
        assert_eq!(csv.lines().count(), rows + 1);
        // Evidence summary ranks by the fold mean with a ±ci95 band.
        let s = evidence_summary(&campaign, &registry);
        assert!(s.contains(" ± "), "got: {s}");
        assert!(s.contains("<- best"), "got: {s}");
        // The distribution view draws one gauge per cell.
        let d = distribution_summary(&campaign, &registry);
        assert!(d.contains("distribution"), "got: {d}");
        assert!(d.contains("p05="), "got: {d}");
        assert!(d.contains("(n=8)"), "got: {d}");
        let gauges = d.lines().filter(|l| l.contains("p05=")).count();
        assert_eq!(
            gauges,
            campaign.cells.len(),
            "one gauge per fold cell:\n{d}"
        );
        // A plain campaign has no fold metrics: the view is empty.
        assert!(distribution_summary(&plain, &registry).is_empty());
    }
}
