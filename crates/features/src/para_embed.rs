//! Paragraph-embedding features (the paper's **Para** feature group).
//!
//! Sherlock uses a doc2vec model that embeds the *whole column* as one
//! paragraph. The substitution here builds a term-frequency weighted hashed
//! bag-of-ngrams over the entire column text in a dedicated hash space
//! (different seed than the Word group), then L2-normalises it. The result
//! captures column-level co-occurrence information that the per-token Word
//! group does not, which is the role the Para group plays in Sherlock.
//!
//! The counting is done by the [`TokenTable`]: interning a column records
//! each distinct token's term frequency next to its seeded FNV hash, and
//! the group drains them in sorted token order.

use crate::hashing::l2_normalize;
use crate::scratch::FeatureScratch;
use crate::tokens::TokenTable;
use sato_tabular::table::{CellSource, Column};

/// Hash seed that defines the paragraph-embedding space.
pub const PARA_EMBED_SEED: u64 = 0x5a70_0002;

/// Default paragraph embedding width.
pub const DEFAULT_PARA_DIM: usize = 100;

/// Compute the Para feature group for a column.
///
/// Token counts are dampened with `ln(1 + tf)` before hashing so that a few
/// extremely frequent cell values do not dominate the representation.
///
/// Convenience wrapper around [`para_features_into`] that allocates its own
/// workspace; batch callers should reuse a [`FeatureScratch`] instead.
pub fn para_features(column: &Column, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    para_features_into(column, &mut FeatureScratch::new(), &mut out);
    out
}

/// Compute the Para features into `out` (whose length sets the embedding
/// width) as a batch of one column through `scratch`'s token table (no
/// Word vectors are hashed).
pub fn para_features_into<C: CellSource + ?Sized>(
    column: &C,
    scratch: &mut FeatureScratch,
    out: &mut [f32],
) {
    let tokens = &mut scratch.tokens;
    tokens.clear(0);
    tokens.intern_column((0..column.num_cells()).map(|i| column.cell(i)), |_| None);
    para_features_from_table(tokens, out);
}

/// The Para group of the column last interned into `tokens`, written to
/// `out` (whose length sets the embedding width).
///
/// The drain runs in the lexicographic token order of the reference
/// implementation — f32 addition is not associative, and trained artifacts
/// rely on the features staying bit-for-bit identical
/// ([`crate::reference::para_features`] is the oracle).
pub(crate) fn para_features_from_table(tokens: &mut TokenTable, out: &mut [f32]) {
    let dim = out.len() as u64;
    out.fill(0.0);
    tokens.drain_para(|hash, tf| {
        let sign = if (hash >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        out[(hash % dim) as usize] += sign * (1.0 + tf as f32).ln();
    });
    // A column without tokens stays the zero vector (a no-op here).
    l2_normalize(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::cosine;

    #[test]
    fn dimension_and_normalisation() {
        let col = Column::new(["Rock", "Jazz", "Rock"]);
        let f = para_features(&col, 64);
        assert_eq!(f.len(), 64);
        let norm: f32 = f.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_column_is_zero_vector() {
        let col = Column::new(["", "  "]);
        assert!(para_features(&col, 32).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn repeated_tokens_are_dampened() {
        // A column dominated by one token should still resemble a column
        // containing that token once (direction-wise).
        let once = Column::new(["rock"]);
        let many = Column::new(["rock"; 50]);
        let f_once = para_features(&once, 64);
        let f_many = para_features(&many, 64);
        assert!(cosine(&f_once, &f_many) > 0.99);
    }

    #[test]
    fn different_vocabularies_have_low_similarity() {
        let music = Column::new(["Rock", "Jazz", "Blues", "Folk"]);
        let cities = Column::new(["Warsaw", "London", "Paris", "Rome"]);
        let fm = para_features(&music, 128);
        let fc = para_features(&cities, 128);
        assert!(cosine(&fm, &fc) < 0.3);
    }

    #[test]
    fn para_space_differs_from_word_space() {
        // Same column, same dim: the Para vector must not equal the mean
        // Word vector because the hash seeds differ.
        let col = Column::new(["Warsaw", "London"]);
        let para = para_features(&col, 50);
        let word = crate::word_embed::word_features(&col, 25);
        assert_ne!(para, word[..50].to_vec());
    }
}
