//! Character-distribution features (the paper's **Char** feature group).
//!
//! Sherlock's original Char group aggregates, for every printable ASCII
//! character, statistics of its per-cell occurrence counts. This
//! implementation follows the same recipe over a curated character set
//! (lower-case letters, digits and common punctuation) and three aggregate
//! statistics per character — mean count per cell, standard deviation of the
//! count, and the fraction of cells containing the character — which
//! preserves the property the downstream model relies on: columns with
//! different surface shapes (codes vs names vs dates vs free text) land in
//! clearly different regions of the feature space.
//!
//! The single cell pass ([`FeatureScratch`]) leaves one row of alphabet
//! counts per non-blank cell. The aggregation walks those rows in cell
//! order with one f32 accumulator per character — a contiguous update the
//! compiler can vectorize across characters — first for the sums and
//! presence counts, then for the squared deviations from the mean. Each
//! character's accumulator still adds its cell counts in cell order, the
//! order of the per-character reference loop, and f32 addition is
//! deterministic for a fixed order, so every output bit matches
//! `sato_features::reference::char_features`.

use crate::scratch::{FeatureScratch, CHARSET_LEN};
use sato_tabular::table::Column;

/// The characters whose per-cell distributions are summarised.
pub const CHARSET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ' ', '.',
    ',', '-', '_', '/', ':', '(', ')', '&', '\'', '"', '%', '$', '#', '@', '+',
];

/// Number of aggregate statistics kept per character.
pub const STATS_PER_CHAR: usize = 3;

/// Dimensionality of the Char feature group.
pub const CHAR_FEATURE_DIM: usize = CHARSET.len() * STATS_PER_CHAR;

/// Extract the Char feature vector for a column.
///
/// Empty columns (or columns whose cells are all empty) produce an all-zero
/// vector, mirroring Sherlock's handling of missing data.
///
/// Convenience wrapper around [`char_features_into`] that allocates its own
/// workspace; batch callers should reuse a [`FeatureScratch`] instead.
pub fn char_features(column: &Column) -> Vec<f32> {
    let mut out = vec![0.0f32; CHAR_FEATURE_DIM];
    let mut scratch = FeatureScratch::new();
    scratch.scan(column);
    char_features_from_scan(&scratch, &mut out);
    out
}

/// Extract the Char features into `out` (length [`CHAR_FEATURE_DIM`]),
/// reusing `scratch` for the single cell pass.
pub fn char_features_into(column: &Column, scratch: &mut FeatureScratch, out: &mut [f32]) {
    scratch.scan(column);
    char_features_from_scan(scratch, out);
}

/// Aggregate the Char features from an already-scanned column.
///
/// The scan visits every cell's characters exactly once (instead of once per
/// alphabet character, each with its own lower-cased copy of the cell); this
/// aggregation then walks the cell-major histograms row by row, updating one
/// accumulator per alphabet character. Each character's sums are still
/// taken in cell order, so the f32 accumulation is bit-identical to the
/// naive per-character recipe, while each update reads a contiguous row
/// instead of one strided serial chain per character.
pub(crate) fn char_features_from_scan(scratch: &FeatureScratch, out: &mut [f32]) {
    assert_eq!(out.len(), CHAR_FEATURE_DIM, "Char output width mismatch");
    out.fill(0.0);
    let cells = scratch.n_cells;
    if cells == 0 {
        return;
    }
    let n = cells as f32;
    let rows = scratch.char_counts.chunks_exact(CHARSET_LEN);
    let mut sum = [0.0f32; CHARSET_LEN];
    let mut present = [0u32; CHARSET_LEN];
    for row in rows.clone() {
        for ((s, p), &c) in sum.iter_mut().zip(&mut present).zip(row) {
            *s += c as f32;
            *p += u32::from(c > 0);
        }
    }
    let mean = sum.map(|s| s / n);
    let mut var = [0.0f32; CHARSET_LEN];
    for row in rows {
        for ((v, &m), &c) in var.iter_mut().zip(&mean).zip(row) {
            let d = c as f32 - m;
            *v += d * d;
        }
    }
    for (ci, stats) in out.chunks_exact_mut(STATS_PER_CHAR).enumerate() {
        stats[0] = mean[ci];
        stats[1] = (var[ci] / n).sqrt();
        stats[2] = present[ci] as f32 / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_is_fixed() {
        let col = Column::new(["abc", "def"]);
        assert_eq!(char_features(&col).len(), CHAR_FEATURE_DIM);
        assert_eq!(CHAR_FEATURE_DIM, CHARSET.len() * 3);
    }

    #[test]
    fn empty_column_gives_zero_vector() {
        let col = Column::new(Vec::<String>::new());
        assert!(char_features(&col).iter().all(|&x| x == 0.0));
        let blank = Column::new(["", "  "]);
        assert!(char_features(&blank).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn digit_heavy_columns_differ_from_letter_heavy_columns() {
        let numbers = Column::new(["1234", "5678", "90123"]);
        let words = Column::new(["alpha", "beta", "gamma"]);
        let fn_ = char_features(&numbers);
        let fw = char_features(&words);
        // index of '1' presence fraction
        let idx_one = CHARSET.iter().position(|&c| c == '1').unwrap() * STATS_PER_CHAR + 2;
        let idx_a = CHARSET.iter().position(|&c| c == 'a').unwrap() * STATS_PER_CHAR + 2;
        assert!(fn_[idx_one] > 0.0 && fw[idx_one] == 0.0);
        assert!(fw[idx_a] > 0.0 && fn_[idx_a] == 0.0);
    }

    #[test]
    fn case_is_folded() {
        let upper = Column::new(["ABC"]);
        let lower = Column::new(["abc"]);
        assert_eq!(char_features(&upper), char_features(&lower));
    }

    #[test]
    fn mean_count_reflects_repetition() {
        let col = Column::new(["aaa", "a"]);
        let f = char_features(&col);
        let idx_a_mean = CHARSET.iter().position(|&c| c == 'a').unwrap() * STATS_PER_CHAR;
        assert!((f[idx_a_mean] - 2.0).abs() < 1e-6);
        // Std of [3, 1] is 1.
        assert!((f[idx_a_mean + 1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn presence_fraction_bounded() {
        let col = Column::new(["a-b", "c", "d-e-f", ""]);
        let f = char_features(&col);
        assert!(f.iter().all(|&x| x >= 0.0));
        // every presence fraction (offset 2) is within [0, 1]
        for ci in 0..CHARSET.len() {
            assert!(f[ci * STATS_PER_CHAR + 2] <= 1.0);
        }
    }
}
