//! Word-embedding features (the paper's **Word** feature group).
//!
//! Sherlock averages pre-trained GloVe vectors over the tokens of a column;
//! this reproduction uses the hashed character n-gram embedding from
//! [`crate::hashing`] instead (see the module docs there for why this is a
//! faithful substitution). The column feature is the concatenation of the
//! element-wise mean and standard deviation of the token vectors, matching
//! Sherlock's mean/std aggregation.
//!
//! The token vectors come from the [`TokenTable`], which hashes each
//! distinct token of a batch once; the group adds them occurrence by
//! occurrence, so repeated tokens weigh in as often as they occur and the
//! sums run in the order of [`crate::reference::word_features`].

use crate::scratch::FeatureScratch;
use crate::tokens::TokenTable;
use sato_tabular::table::{CellSource, Column};

/// Hash seed that defines the word-embedding space.
pub const WORD_EMBED_SEED: u64 = 0x5a70_0001;

/// Default per-token embedding width.
pub const DEFAULT_WORD_DIM: usize = 50;

/// Compute the Word feature group for a column: `[mean || std]` of the
/// hashed token embeddings, `2 * dim` values in total.
///
/// Convenience wrapper around [`word_features_into`] that allocates its own
/// workspace; batch callers should reuse a [`FeatureScratch`] instead.
pub fn word_features(column: &Column, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; 2 * dim];
    let mut scratch = FeatureScratch::new();
    word_features_into(column, dim, &mut scratch, &mut out);
    out
}

/// Compute the Word features into `out` (length `2 * dim`) as a batch of
/// one column through `scratch`'s token table.
pub fn word_features_into<C: CellSource + ?Sized>(
    column: &C,
    dim: usize,
    scratch: &mut FeatureScratch,
    out: &mut [f32],
) {
    let tokens = &mut scratch.tokens;
    tokens.clear(dim);
    tokens.intern_column((0..column.num_cells()).map(|i| column.cell(i)), |_| None);
    word_features_from_table(tokens, out);
}

/// The Word group of the column last interned into `tokens`, written to
/// `out` (length `2 * tokens.word_dim()`).
///
/// The output slice doubles as the accumulator — `out[..dim]` holds the
/// running sum and `out[dim..]` the running sum of squares until the final
/// mean/std fix-up.
pub(crate) fn word_features_from_table(tokens: &TokenTable, out: &mut [f32]) {
    let dim = tokens.word_dim();
    assert_eq!(out.len(), 2 * dim, "Word output width mismatch");
    out.fill(0.0);
    let (sum, sum_sq) = out.split_at_mut(dim);
    let mut count = 0usize;
    for token_vec in tokens.column_word_vecs() {
        for (i, &v) in token_vec.iter().enumerate() {
            sum[i] += v;
            sum_sq[i] += v * v;
        }
        count += 1;
    }
    if count == 0 {
        return;
    }
    let n = count as f32;
    for i in 0..dim {
        let mean = out[i] / n;
        let var = (out[dim + i] / n - mean * mean).max(0.0);
        out[i] = mean;
        out[dim + i] = var.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::cosine;

    #[test]
    fn dimension_is_twice_embedding_width() {
        let col = Column::new(["Warsaw", "London"]);
        assert_eq!(word_features(&col, 32).len(), 64);
    }

    #[test]
    fn empty_column_is_zero() {
        let col = Column::new(["", "  ", "---"]);
        assert!(word_features(&col, 16).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identical_columns_have_identical_features() {
        let a = Column::new(["Florence", "Warsaw", "London"]);
        let b = Column::new(["Florence", "Warsaw", "London"]);
        assert_eq!(word_features(&a, 50), word_features(&b, 50));
    }

    #[test]
    fn city_columns_are_more_similar_to_each_other_than_to_numbers() {
        let cities_a = Column::new(["Florence", "Warsaw", "London", "Braunschweig"]);
        let cities_b = Column::new(["Warsaw", "London", "Paris", "Rome"]);
        let numbers = Column::new(["12345", "67890", "24680", "13579"]);
        let fa = word_features(&cities_a, 64);
        let fb = word_features(&cities_b, 64);
        let fn_ = word_features(&numbers, 64);
        assert!(cosine(&fa, &fb) > cosine(&fa, &fn_));
    }

    #[test]
    fn single_token_column_has_zero_std_part() {
        let col = Column::new(["warsaw"]);
        let f = word_features(&col, 20);
        assert!(f[20..].iter().all(|&x| x.abs() < 1e-6));
        assert!(f[..20].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn order_of_cells_does_not_matter() {
        let a = Column::new(["alpha beta", "gamma"]);
        let b = Column::new(["gamma", "alpha beta"]);
        let fa = word_features(&a, 32);
        let fb = word_features(&b, 32);
        for (x, y) in fa.iter().zip(&fb) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
