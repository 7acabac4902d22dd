//! Tabular data protection: frequency tables with cell suppression.
//!
//! Statistical offices publish *frequency tables* (cross-tabulations with
//! margins), not only microdata; cells with very few contributors disclose
//! respondents just like isolated records do. The classic remedy (\[17\],
//! \[26\]) is **primary suppression** of all small cells followed by
//! **complementary suppression** of additional cells, so that no primary
//! cell can be recovered from the published margins by linear algebra.
//!
//! The auditor reuses the exact rational solver of `tdf-mathkit`: a
//! suppression pattern is safe exactly when no suppressed cell's unit
//! vector lies in the row space of the published linear constraints
//! (row sums, column sums, and every published cell).

// Index loops below walk several parallel arrays; iterators would obscure them.
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeSet;
use tdf_mathkit::linalg::QMatrix;
use tdf_mathkit::Rational;
use tdf_microdata::{Dataset, Error, Result, Value};

/// A two-way frequency table with margins.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyTable {
    /// Row category labels.
    pub row_labels: Vec<Value>,
    /// Column category labels.
    pub col_labels: Vec<Value>,
    /// Counts, row-major.
    pub counts: Vec<Vec<usize>>,
}

impl FrequencyTable {
    /// Cross-tabulates two categorical/boolean columns of `data`.
    pub fn from_dataset(data: &Dataset, row_col: usize, col_col: usize) -> Result<Self> {
        for c in [row_col, col_col] {
            if data.schema().attribute(c).kind.is_numeric() {
                return Err(Error::NotNumeric(format!(
                    "frequency tables need categorical attributes, `{}` is numeric",
                    data.schema().attribute(c).name
                )));
            }
        }
        let mut rows = BTreeSet::new();
        let mut cols = BTreeSet::new();
        for i in 0..data.num_rows() {
            rows.insert(data.value(i, row_col).clone());
            cols.insert(data.value(i, col_col).clone());
        }
        let row_labels: Vec<Value> = rows.into_iter().collect();
        let col_labels: Vec<Value> = cols.into_iter().collect();
        let mut counts = vec![vec![0usize; col_labels.len()]; row_labels.len()];
        for i in 0..data.num_rows() {
            let r = row_labels
                .iter()
                .position(|v| v.group_eq(&data.value(i, row_col)))
                .expect("label collected");
            let c = col_labels
                .iter()
                .position(|v| v.group_eq(&data.value(i, col_col)))
                .expect("label collected");
            counts[r][c] += 1;
        }
        Ok(Self {
            row_labels,
            col_labels,
            counts,
        })
    }

    /// Row margins (sums).
    pub fn row_margins(&self) -> Vec<usize> {
        self.counts.iter().map(|r| r.iter().sum()).collect()
    }

    /// Column margins.
    pub fn col_margins(&self) -> Vec<usize> {
        (0..self.col_labels.len())
            .map(|c| self.counts.iter().map(|r| r[c]).sum())
            .collect()
    }

    /// Grand total.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }
}

/// A published table: margins in the clear, some interior cells suppressed.
#[derive(Debug, Clone)]
pub struct SuppressedTable {
    /// The source table shape (labels and margins are published).
    pub table: FrequencyTable,
    /// `true` at suppressed (unpublished) cells.
    pub suppressed: Vec<Vec<bool>>,
    /// How many cells were suppressed beyond the primaries.
    pub complementary: usize,
}

impl SuppressedTable {
    /// True when a recipient of the published cells + margins can recover
    /// *no* suppressed cell exactly (audited with exact linear algebra).
    pub fn is_safe(&self) -> bool {
        let nr = self.table.row_labels.len();
        let nc = self.table.col_labels.len();
        let idx = |r: usize, c: usize| r * nc + c;
        let mut system = QMatrix::new(nr * nc);
        // Published cells are known exactly.
        for r in 0..nr {
            for c in 0..nc {
                if !self.suppressed[r][c] {
                    let mut row = vec![Rational::zero(); nr * nc];
                    row[idx(r, c)] = Rational::one();
                    system.absorb_row_space(&row);
                }
            }
        }
        // Margins are published: one constraint per row and column.
        for r in 0..nr {
            let mut row = vec![Rational::zero(); nr * nc];
            for c in 0..nc {
                row[idx(r, c)] = Rational::one();
            }
            system.absorb_row_space(&row);
        }
        for c in 0..nc {
            let mut row = vec![Rational::zero(); nr * nc];
            for r in 0..nr {
                row[idx(r, c)] = Rational::one();
            }
            system.absorb_row_space(&row);
        }
        // Safe iff no suppressed cell is determined.
        for r in 0..nr {
            for c in 0..nc {
                if self.suppressed[r][c] && system.determined(idx(r, c)).is_some() {
                    return false;
                }
            }
        }
        true
    }
}

/// Suppresses every interior cell with `0 < count < threshold` (primary),
/// then greedily adds complementary suppressions until the pattern is safe
/// against margin-based recovery.
pub fn suppress_small_cells(table: &FrequencyTable, threshold: usize) -> SuppressedTable {
    let nr = table.row_labels.len();
    let nc = table.col_labels.len();
    let mut suppressed = vec![vec![false; nc]; nr];
    for r in 0..nr {
        for c in 0..nc {
            let v = table.counts[r][c];
            if v > 0 && v < threshold {
                suppressed[r][c] = true;
            }
        }
    }
    let mut result = SuppressedTable {
        table: table.clone(),
        suppressed,
        complementary: 0,
    };
    // Greedy repair: while unsafe, suppress the smallest positive published
    // cell sharing a row or column with some suppressed cell.
    while !result.is_safe() {
        let mut best: Option<(usize, usize, usize)> = None;
        for r in 0..nr {
            for c in 0..nc {
                if result.suppressed[r][c] {
                    continue;
                }
                let shares_line = (0..nc).any(|c2| result.suppressed[r][c2])
                    || (0..nr).any(|r2| result.suppressed[r2][c]);
                if !shares_line {
                    continue;
                }
                let v = result.table.counts[r][c];
                if best.is_none_or(|(_, _, bv)| v < bv) {
                    best = Some((r, c, v));
                }
            }
        }
        match best {
            Some((r, c, _)) => {
                result.suppressed[r][c] = true;
                result.complementary += 1;
            }
            None => break, // nothing left to suppress on the shared lines
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_microdata::synth::census;

    fn toy_table() -> FrequencyTable {
        FrequencyTable {
            row_labels: vec!["a".into(), "b".into(), "c".into()],
            col_labels: vec!["x".into(), "y".into(), "z".into()],
            counts: vec![vec![1, 8, 9], vec![7, 6, 5], vec![9, 4, 12]],
        }
    }

    #[test]
    fn cross_tabulation_counts_and_margins() {
        let d = census(200, 3);
        let edu = d.schema().index_of("education").unwrap();
        let dis = d.schema().index_of("disease").unwrap();
        let t = FrequencyTable::from_dataset(&d, edu, dis).unwrap();
        assert_eq!(t.total(), 200);
        assert_eq!(t.row_margins().iter().sum::<usize>(), 200);
        assert_eq!(t.col_margins().iter().sum::<usize>(), 200);
    }

    #[test]
    fn numeric_attributes_are_rejected() {
        let d = census(20, 4);
        assert!(FrequencyTable::from_dataset(&d, 0, 4).is_err());
    }

    #[test]
    fn single_suppressed_cell_is_recoverable_from_margins() {
        // The canonical failure: one suppressed cell in a published table
        // is always recoverable by subtraction.
        let t = toy_table();
        let mut s = SuppressedTable {
            table: t,
            suppressed: vec![vec![true, false, false], vec![false; 3], vec![false; 3]],
            complementary: 0,
        };
        assert!(!s.is_safe());
        // Adding a second suppression in the same row is still unsafe
        // (column margins pin both down? no — two cells in one row with
        // two different columns need one more), so a rectangle is needed.
        s.suppressed[1][0] = true;
        s.suppressed[0][1] = true;
        s.suppressed[1][1] = true;
        assert!(s.is_safe(), "a 2×2 suppression rectangle is unrecoverable");
    }

    #[test]
    fn suppression_produces_a_safe_pattern() {
        let t = toy_table();
        let s = suppress_small_cells(&t, 5);
        // Primaries: the 1 and the 4.
        assert!(s.suppressed[0][0]);
        assert!(s.suppressed[2][1]);
        assert!(s.is_safe());
        assert!(
            s.complementary > 0,
            "complementary suppression was required"
        );
    }

    #[test]
    fn no_small_cells_means_nothing_suppressed() {
        let t = FrequencyTable {
            row_labels: vec!["a".into(), "b".into()],
            col_labels: vec!["x".into(), "y".into()],
            counts: vec![vec![10, 20], vec![30, 40]],
        };
        let s = suppress_small_cells(&t, 5);
        assert!(s.suppressed.iter().flatten().all(|&b| !b));
        assert_eq!(s.complementary, 0);
        assert!(s.is_safe());
    }

    #[test]
    fn zero_cells_are_not_primaries() {
        // Empty cells disclose nothing; suppressing them wastes utility.
        let t = FrequencyTable {
            row_labels: vec!["a".into(), "b".into()],
            col_labels: vec!["x".into(), "y".into()],
            counts: vec![vec![0, 20], vec![30, 40]],
        };
        let s = suppress_small_cells(&t, 5);
        assert!(!s.suppressed[0][0]);
    }

    #[test]
    fn census_table_end_to_end() {
        let d = census(150, 9);
        let edu = d.schema().index_of("education").unwrap();
        let dis = d.schema().index_of("disease").unwrap();
        let t = FrequencyTable::from_dataset(&d, edu, dis).unwrap();
        let s = suppress_small_cells(&t, 3);
        assert!(s.is_safe());
    }
}
