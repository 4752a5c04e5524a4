//! # repro-bench
//!
//! Experiment harnesses regenerating every figure, equation and table
//! of the paper. Each experiment is a pure function returning typed
//! rows, shared between the printable binaries (`src/bin/*`) and the
//! cross-crate integration tests — so the numbers in `EXPERIMENTS.md` are reproducible from
//! code paths that are themselves under test.
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Figure 1 | [`fig1::distribution`] | `fig1_distribution` |
//! | Equation 4 | [`eq4::rows`] | `eq4_domino` |
//! | Table 1 (7 rows) | [`evidence::table1_evidence`] | `table1_evidence` |
//! | Table 2 (6 rows) | [`evidence::table2_evidence`] | `table2_evidence` |
//! | §4 cache metrics | [`cache_metrics::rows`] | `cache_metrics` |
//! | §4 dynamical systems | [`dynsys_horizon::rows`] | `dynsys_horizon` |

pub mod cache_metrics;
pub mod dynsys_horizon;
pub mod eq4;
pub mod evidence;
pub mod fig1;

/// Formats a slice of `(label, value)` pairs as an aligned two-column
/// table.
pub fn two_column(rows: &[(String, String)]) -> String {
    let w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (l, v) in rows {
        out.push_str(&format!("{l:<w$}  {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_column_aligns() {
        let s = super::two_column(&[
            ("a".to_string(), "1".to_string()),
            ("long-label".to_string(), "2".to_string()),
        ]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].find('1'), lines[1].find('2'));
    }
}
