//! Global column statistics (the paper's **Stat** feature group).
//!
//! Sherlock complements the distributional features with 27 hand-crafted
//! global statistics per column (value counts, uniqueness, length and
//! numeric-value statistics, …). This module computes an analogous set of
//! exactly 27 statistics; the paper notes these are passed to the primary
//! network directly, without a compression subnetwork, because of their low
//! dimensionality.

use crate::scratch::{
    FeatureScratch, FLAG_ALL_ALPHA_WS, FLAG_ALL_NUMISH, FLAG_ANY_DIGIT, FLAG_ANY_SPECIAL,
    FLAG_ANY_UPPER, FLAG_HAS_SPACE,
};
use sato_tabular::table::{CellSource, Column};

/// Number of statistics in the Stat group (kept at the paper's 27).
pub const STAT_FEATURE_DIM: usize = 27;

/// Compute the 27 global statistics of a column.
///
/// Convenience wrapper around [`stat_features_into`] that allocates its own
/// workspace; batch callers should reuse a [`FeatureScratch`] instead.
pub fn stat_features(column: &Column) -> Vec<f32> {
    let mut out = vec![0.0f32; STAT_FEATURE_DIM];
    let mut scratch = FeatureScratch::new();
    scratch.scan(column);
    stat_features_from_scan(column, &mut scratch, &mut out);
    out
}

/// Compute the Stat features into `out` (length [`STAT_FEATURE_DIM`]),
/// reusing `scratch` for the single cell pass.
pub fn stat_features_into(column: &Column, scratch: &mut FeatureScratch, out: &mut [f32]) {
    scratch.scan(column);
    stat_features_from_scan(column, scratch, out);
}

/// Aggregate the 27 statistics from an already-scanned column. The per-cell
/// counters all come from the shared single pass; only the distinct count
/// re-reads cell values (hashing each non-blank cell into an open-addressed
/// set of cell indices, without copying them) — which is why
/// [`CellSource`] requires random access.
pub(crate) fn stat_features_from_scan<C: CellSource + ?Sized>(
    column: &C,
    scratch: &mut FeatureScratch,
    out: &mut [f32],
) {
    assert_eq!(out.len(), STAT_FEATURE_DIM, "Stat output width mismatch");
    out.fill(0.0);
    let total = scratch.total_cells;
    let n = scratch.n_cells;
    out[0] = total as f32;
    out[1] = n as f32;
    out[2] = if total > 0 {
        1.0 - n as f32 / total as f32
    } else {
        0.0
    }; // fraction missing
    if n == 0 {
        return;
    }

    let distinct = scratch.distinct.count(column, &scratch.nonblank_idx);
    out[3] = distinct as f32;
    out[4] = distinct as f32 / n as f32; // fraction unique

    // Length statistics (in characters).
    let (len_mean, len_std, len_min, len_max) = moments(&scratch.lengths);
    out[5] = len_mean;
    out[6] = len_std;
    out[7] = len_min;
    out[8] = len_max;

    // Token statistics (words per cell).
    let (tok_mean, tok_std, tok_min, tok_max) = moments(&scratch.token_counts);
    out[9] = tok_mean;
    out[10] = tok_std;
    out[11] = tok_min;
    out[12] = tok_max;

    // Character-class fractions (cell level), from the scan's flag bits.
    let frac = |bit: u8| scratch.flags.iter().filter(|&&f| f & bit != 0).count() as f32 / n as f32;
    out[13] = frac(FLAG_ALL_NUMISH);
    out[14] = frac(FLAG_ANY_DIGIT);
    out[15] = frac(FLAG_ALL_ALPHA_WS);
    out[16] = frac(FLAG_ANY_UPPER);
    out[17] = frac(FLAG_HAS_SPACE);
    out[18] = frac(FLAG_ANY_SPECIAL);

    // Numeric value statistics (over parseable cells).
    let numeric = &scratch.numeric;
    out[19] = numeric.len() as f32 / n as f32; // fraction numeric-parseable
    if !numeric.is_empty() {
        let (num_mean, num_std, num_min, num_max) = moments(numeric);
        out[20] = num_mean;
        out[21] = num_std;
        out[22] = num_min;
        out[23] = num_max;
        out[24] = numeric.iter().filter(|&&x| x < 0.0).count() as f32 / numeric.len() as f32;
        out[25] =
            numeric.iter().filter(|&&x| x.fract() != 0.0).count() as f32 / numeric.len() as f32;
    }
    // Mean digit fraction per cell.
    out[26] = scratch.digit_fracs.iter().sum::<f32>() / n as f32;
}

fn moments(values: &[f32]) -> (f32, f32, f32, f32) {
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    (mean, var.sqrt(), min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_27_statistics() {
        let col = Column::new(["a", "b"]);
        assert_eq!(stat_features(&col).len(), 27);
        assert_eq!(STAT_FEATURE_DIM, 27);
    }

    #[test]
    fn empty_column_reports_counts_only() {
        let col = Column::new(["", ""]);
        let f = stat_features(&col);
        assert_eq!(f[0], 2.0);
        assert_eq!(f[1], 0.0);
        assert_eq!(f[2], 1.0);
        assert!(f[3..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn uniqueness_and_lengths() {
        let col = Column::new(["aa", "aa", "bbbb"]);
        let f = stat_features(&col);
        assert_eq!(f[3], 2.0); // distinct
        assert!((f[4] - 2.0 / 3.0).abs() < 1e-6);
        assert!((f[5] - (2.0 + 2.0 + 4.0) / 3.0).abs() < 1e-6);
        assert_eq!(f[7], 2.0);
        assert_eq!(f[8], 4.0);
    }

    #[test]
    fn numeric_statistics_for_number_columns() {
        let col = Column::new(["10", "20", "30"]);
        let f = stat_features(&col);
        assert_eq!(f[19], 1.0); // all numeric
        assert!((f[20] - 20.0).abs() < 1e-4);
        assert_eq!(f[22], 10.0);
        assert_eq!(f[23], 30.0);
        assert_eq!(f[13], 1.0); // all-digit cells
    }

    #[test]
    fn formatted_numbers_are_recognised() {
        let col = Column::new(["1,777,972", "380,948"]);
        let f = stat_features(&col);
        assert_eq!(f[19], 1.0);
        assert!(f[23] > 1_000_000.0);
    }

    #[test]
    fn unit_suffixed_numbers_are_numeric() {
        let col = Column::new(["75 kg", "82 kg"]);
        let f = stat_features(&col);
        assert!(f[19] > 0.9);
    }

    #[test]
    fn text_columns_have_low_numeric_fraction() {
        let col = Column::new(["Warsaw", "London", "Paris"]);
        let f = stat_features(&col);
        assert_eq!(f[19], 0.0);
        assert_eq!(f[15], 1.0); // purely alphabetic
        assert_eq!(f[26], 0.0);
    }

    #[test]
    fn text_and_numbers_produce_different_vectors() {
        let text = stat_features(&Column::new(["alpha", "beta", "gamma"]));
        let nums = stat_features(&Column::new(["1", "2", "3"]));
        assert_ne!(text, nums);
    }

    #[test]
    fn negative_and_fractional_flags() {
        let col = Column::new(["-1.5", "2.25", "3"]);
        let f = stat_features(&col);
        assert!((f[24] - 1.0 / 3.0).abs() < 1e-6);
        assert!((f[25] - 2.0 / 3.0).abs() < 1e-6);
    }
}
