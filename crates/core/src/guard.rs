//! Data-quality screening for sample matrices (the pipeline's intake
//! guard).
//!
//! Real late-stage data — tester exports, partially-failed measurement
//! populations, simulator logs — arrives dirty: rows with NaN/Inf cells
//! from failed measurements, constant columns from stuck instruments,
//! duplicate rows from re-run entries, and gross outliers from mis-probed
//! dies. Feeding any of those into MLE/MAP either hard-errors deep in the
//! estimator (with no indication of *which* row was bad) or silently
//! skews the moments.
//!
//! [`screen`] inspects an `n × d` sample matrix **before** estimation and
//! produces a cleaned matrix plus a [`DataQualityReport`] listing exactly
//! what was found and what was removed, so the decision trail survives
//! into the caller's [`crate::pipeline::FusionReport`].

use crate::{BmfError, Result};
use bmf_linalg::Matrix;
use std::collections::HashMap;

/// Consistency factor making the median absolute deviation comparable to
/// a Gaussian standard deviation (`1/Φ⁻¹(3/4)`).
const MAD_TO_SIGMA: f64 = 1.4826;

/// Robust-z threshold above which a cell marks its row as an outlier
/// (MAD-based, per column). Conservative: the guard must not clip genuine
/// heavy process tails.
const MAD_THRESHOLD: f64 = 8.0;

/// Largest fraction of rows the guard may drop before the matrix is
/// declared unusable.
const MAX_DROP_FRACTION: f64 = 0.5;

/// Everything the guard found, with original (pre-drop) row/column
/// indices so findings can be traced back to the source data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataQualityReport {
    /// Rows in the input matrix.
    pub rows_in: usize,
    /// Rows surviving the screen.
    pub rows_out: usize,
    /// `(row, column)` positions of NaN/Inf cells.
    pub nonfinite_cells: Vec<(usize, usize)>,
    /// Original indices of rows removed by the screen (non-finite and,
    /// when [`screen`] is asked to drop outliers, outlier rows).
    pub dropped_rows: Vec<usize>,
    /// Columns whose finite entries are all identical (stuck-instrument
    /// signature; downstream scaling will reject these).
    pub constant_columns: Vec<usize>,
    /// `(kept, duplicate)` pairs of bitwise-identical rows.
    pub duplicate_rows: Vec<(usize, usize)>,
    /// Original indices of rows flagged by the MAD outlier rule.
    pub outlier_rows: Vec<usize>,
}

impl DataQualityReport {
    /// `true` when the screen found nothing at all. Checks the row
    /// *counts* as well as the per-row findings: a stats-only input
    /// (sharded merge) reports upstream drops by count alone.
    pub fn is_clean(&self) -> bool {
        self.rows_in == self.rows_out
            && self.nonfinite_cells.is_empty()
            && self.dropped_rows.is_empty()
            && self.constant_columns.is_empty()
            && self.duplicate_rows.is_empty()
            && self.outlier_rows.is_empty()
    }

    /// Fraction of input rows the screen dropped (0 when no rows came
    /// in). Counted via `rows_in − rows_out` so it also covers rows
    /// screened upstream of the pipeline (sharded merges), where the
    /// per-row index list is unavailable.
    pub fn dropped_fraction(&self) -> f64 {
        if self.rows_in == 0 {
            0.0
        } else {
            self.rows_in.saturating_sub(self.rows_out) as f64 / self.rows_in as f64
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} -> {} rows ({} non-finite cells, {} dropped, {} constant col(s), {} duplicate(s), {} outlier(s))",
            self.rows_in,
            self.rows_out,
            self.nonfinite_cells.len(),
            self.dropped_rows.len(),
            self.constant_columns.len(),
            self.duplicate_rows.len(),
            self.outlier_rows.len()
        )
    }
}

/// Median of a non-empty slice (averaging the middle pair for even
/// lengths). The slice is copied; NaNs must be screened beforehand.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Screens an `n × d` sample matrix.
///
/// Detection steps, in order:
///
/// 1. **Non-finite cells** — every NaN/Inf cell is recorded with its
///    `(row, column)`, and its row is dropped. A caller that must refuse
///    such data does so on the report (`FailureMode::Strict` in the
///    pipeline).
/// 2. **Constant columns** — columns whose surviving entries are all
///    identical (recorded; the caller decides whether that is fatal).
/// 3. **Duplicate rows** — bitwise-identical surviving rows (recorded).
/// 4. **MAD outliers** — a surviving row is flagged when any cell's
///    robust z-score `|x − median| / (1.4826·MAD)` exceeds 8; flagged
///    rows are dropped only when `drop_outliers` is set. Outliers are
///    physical until proven otherwise, so the pipeline only flags them.
///
/// Returns the cleaned matrix (row order preserved) and the report.
///
/// # Errors
///
/// [`BmfError::InvalidSamples`] for an empty matrix, or when more than
/// half of the rows would be dropped (so at least one row survives).
pub fn screen(samples: &Matrix, drop_outliers: bool) -> Result<(Matrix, DataQualityReport)> {
    let (n, d) = samples.shape();
    if n == 0 || d == 0 {
        return Err(BmfError::InvalidSamples {
            reason: format!("guard needs a non-empty sample matrix, got {n}x{d}"),
        });
    }

    let mut report = DataQualityReport {
        rows_in: n,
        ..DataQualityReport::default()
    };

    // Step 1: non-finite screening.
    let mut keep: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row_ok = true;
        for j in 0..d {
            if !samples[(i, j)].is_finite() {
                report.nonfinite_cells.push((i, j));
                row_ok = false;
            }
        }
        if row_ok {
            keep.push(i);
        } else {
            report.dropped_rows.push(i);
        }
    }

    // Step 2: constant columns among survivors.
    if !keep.is_empty() {
        for j in 0..d {
            let first = samples[(keep[0], j)];
            if keep.iter().all(|&i| samples[(i, j)] == first) {
                report.constant_columns.push(j);
            }
        }
    }

    // Step 3: duplicate rows (bitwise, hash-indexed so large early-stage
    // pools stay O(n·d)).
    let mut seen: HashMap<Vec<u64>, usize> = HashMap::with_capacity(keep.len());
    for &i in &keep {
        let key: Vec<u64> = (0..d).map(|j| samples[(i, j)].to_bits()).collect();
        match seen.get(&key) {
            Some(&first) => report.duplicate_rows.push((first, i)),
            None => {
                seen.insert(key, i);
            }
        }
    }

    // Step 4: MAD outlier flagging on the survivors.
    if keep.len() >= 3 {
        // Column medians and MADs over surviving rows.
        let mut flagged: Vec<usize> = Vec::new();
        let mut col_med = vec![0.0; d];
        let mut col_mad = vec![0.0; d];
        let mut buf = Vec::with_capacity(keep.len());
        for j in 0..d {
            buf.clear();
            buf.extend(keep.iter().map(|&i| samples[(i, j)]));
            col_med[j] = median(&buf);
            let dev: Vec<f64> = buf.iter().map(|&x| (x - col_med[j]).abs()).collect();
            col_mad[j] = median(&dev);
        }
        for &i in &keep {
            let is_outlier = (0..d).any(|j| {
                let sigma = MAD_TO_SIGMA * col_mad[j];
                // A zero MAD (half the column identical) gives no robust
                // scale; skip the column rather than flagging everything.
                sigma > 0.0 && (samples[(i, j)] - col_med[j]).abs() > MAD_THRESHOLD * sigma
            });
            if is_outlier {
                flagged.push(i);
            }
        }
        report.outlier_rows = flagged;
        if drop_outliers && !report.outlier_rows.is_empty() {
            let outliers: std::collections::HashSet<usize> =
                report.outlier_rows.iter().copied().collect();
            keep.retain(|i| {
                let drop = outliers.contains(i);
                if drop {
                    report.dropped_rows.push(*i);
                }
                !drop
            });
        }
    }

    report.dropped_rows.sort_unstable();
    report.rows_out = keep.len();

    let dropped_fraction = report.dropped_rows.len() as f64 / n as f64;
    if dropped_fraction > MAX_DROP_FRACTION {
        return Err(BmfError::InvalidSamples {
            reason: format!(
                "guard dropped {} of {n} rows ({:.0}% > {:.0}% allowed): {}",
                report.dropped_rows.len(),
                dropped_fraction * 100.0,
                MAX_DROP_FRACTION * 100.0,
                report.summary()
            ),
        });
    }

    let flags = report.nonfinite_cells.len()
        + report.constant_columns.len()
        + report.duplicate_rows.len()
        + report.outlier_rows.len();
    bmf_obs::counters::GUARD_FLAGS.add(flags as u64);
    if flags > 0 {
        bmf_obs::event!(Warn, "guard.flag",
            "nonfinite": report.nonfinite_cells.len(),
            "constant_cols": report.constant_columns.len(),
            "duplicates": report.duplicate_rows.len(),
            "outliers": report.outlier_rows.len(),
            "dropped": report.dropped_rows.len());
    }

    let cleaned = Matrix::from_fn(keep.len(), d, |i, j| samples[(keep[i], j)]);
    Ok((cleaned, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_matrix() -> Matrix {
        Matrix::from_fn(20, 3, |i, j| {
            ((i * 7 + j * 13) % 11) as f64 * 0.37 + j as f64 - 0.01 * i as f64
        })
    }

    #[test]
    fn clean_data_passes_untouched() {
        let m = clean_matrix();
        let (out, report) = screen(&m, false).unwrap();
        assert_eq!(out, m);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.rows_in, 20);
        assert_eq!(report.rows_out, 20);
    }

    #[test]
    fn nonfinite_rows_are_dropped_with_indices() {
        let mut m = clean_matrix();
        m[(3, 1)] = f64::NAN;
        m[(7, 0)] = f64::INFINITY;
        m[(7, 2)] = f64::NEG_INFINITY;
        let (out, report) = screen(&m, false).unwrap();
        assert_eq!(out.nrows(), 18);
        assert_eq!(report.dropped_rows, vec![3, 7]);
        assert_eq!(report.nonfinite_cells, vec![(3, 1), (7, 0), (7, 2)]);
        // Remaining rows keep their relative order.
        assert_eq!(out.row(0), m.row(0));
        assert_eq!(out.row(3), m.row(4));
    }

    #[test]
    fn constant_columns_are_detected() {
        let mut m = clean_matrix();
        for i in 0..m.nrows() {
            m[(i, 1)] = 42.0;
        }
        let (_, report) = screen(&m, false).unwrap();
        assert_eq!(report.constant_columns, vec![1]);
    }

    #[test]
    fn duplicate_rows_are_recorded_not_dropped() {
        let mut m = clean_matrix();
        for j in 0..3 {
            m[(9, j)] = m[(2, j)];
            m[(15, j)] = m[(2, j)];
        }
        let (out, report) = screen(&m, false).unwrap();
        assert_eq!(out.nrows(), 20); // duplicates are informational
        assert_eq!(report.duplicate_rows, vec![(2, 9), (2, 15)]);
    }

    #[test]
    fn mad_outliers_are_flagged_and_optionally_dropped() {
        let mut m = clean_matrix();
        m[(4, 0)] = 1e6; // gross outlier
        let (out, report) = screen(&m, false).unwrap();
        assert_eq!(report.outlier_rows, vec![4]);
        assert_eq!(out.nrows(), 20); // flag-only by default

        let (out, report) = screen(&m, true).unwrap();
        assert_eq!(out.nrows(), 19);
        assert_eq!(report.dropped_rows, vec![4]);
    }

    #[test]
    fn normal_spread_is_not_flagged() {
        // Conservative threshold: ordinary variation must never trip it.
        let m = clean_matrix();
        let (_, report) = screen(&m, false).unwrap();
        assert!(report.outlier_rows.is_empty());
    }

    #[test]
    fn excessive_loss_is_an_error() {
        let mut m = clean_matrix();
        for i in 0..15 {
            m[(i, 0)] = f64::NAN;
        }
        let err = screen(&m, false).unwrap_err();
        assert!(err.to_string().contains("dropped 15 of 20"), "{err}");
    }

    #[test]
    fn all_rows_bad_is_an_error() {
        let mut m = Matrix::zeros(3, 2);
        for i in 0..3 {
            m[(i, 0)] = f64::NAN;
        }
        let err = screen(&m, false).unwrap_err();
        assert!(err.to_string().contains("dropped 3 of 3"), "{err}");
    }

    #[test]
    fn empty_matrix_is_an_error() {
        assert!(screen(&Matrix::zeros(0, 3), false).is_err());
    }

    #[test]
    fn zero_mad_columns_do_not_flag_everything() {
        // Column 1 is 60% one value: MAD = 0 → no robust scale → skip.
        let mut m = clean_matrix();
        for i in 0..13 {
            m[(i, 1)] = 5.0;
        }
        let (_, report) = screen(&m, false).unwrap();
        assert!(report.outlier_rows.is_empty(), "{:?}", report.outlier_rows);
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
