//! Paragraph-embedding features (the paper's **Para** feature group).
//!
//! Sherlock uses a doc2vec model that embeds the *whole column* as one
//! paragraph. The substitution here builds a term-frequency weighted hashed
//! bag-of-ngrams over the entire column text in a dedicated hash space
//! (different seed than the Word group), then L2-normalises it. The result
//! captures column-level co-occurrence information that the per-token Word
//! group does not, which is the role the Para group plays in Sherlock.

use crate::hashing::l2_normalize;
use crate::scratch::{FeatureScratch, ParaEntry};
use sato_tabular::table::{CellSource, Column};
use sato_tabular::text::for_each_token_lower;

/// Hash seed that defines the paragraph-embedding space.
pub const PARA_EMBED_SEED: u64 = 0x5a70_0002;

/// Default paragraph embedding width.
pub const DEFAULT_PARA_DIM: usize = 100;

/// Probe stride for open addressing on the term-frequency map key (a 64-bit
/// FNV collision between distinct tokens must not merge their counts).
const PARA_PROBE_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

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
/// width), reusing `scratch` for the term-frequency counting state.
pub fn para_features_into<C: CellSource + ?Sized>(
    column: &C,
    scratch: &mut FeatureScratch,
    out: &mut [f32],
) {
    para_features_from_cells(
        (0..column.num_cells()).map(|i| column.cell(i)),
        scratch,
        out,
    );
}

/// The Para core over any stream of cell values: term-frequency counting
/// keyed by the seeded FNV token hash (no per-token `String`, no
/// `HashMap<String, usize>`), with the distinct tokens' lower-cased bytes
/// kept in a reusable arena.
///
/// The drain sorts entries by those token bytes, so the `out[bucket]`
/// accumulation runs in exactly the lexicographic token order of the
/// reference implementation — f32 addition is not associative, and trained
/// artifacts rely on the features staying bit-for-bit identical
/// ([`crate::reference::para_features`] is the oracle).
pub fn para_features_from_cells<'a>(
    cells: impl Iterator<Item = &'a str>,
    scratch: &mut FeatureScratch,
    out: &mut [f32],
) {
    let dim = out.len();
    out.fill(0.0);
    let FeatureScratch {
        para_map,
        para_entries,
        para_arena,
        para_order,
        token,
        ..
    } = scratch;
    para_map.clear();
    para_entries.clear();
    para_arena.clear();
    for cell in cells {
        for_each_token_lower(cell, token, |token| {
            let bytes = token.as_bytes();
            let hash = sato_kernels::fnv1a64_seeded(bytes, PARA_EMBED_SEED);
            // Open-address on the map key: on the (astronomically rare)
            // 64-bit hash collision between distinct tokens, step to the
            // next key instead of merging their counts.
            let mut key = hash;
            loop {
                match para_map.get(&key) {
                    Some(&idx) => {
                        let entry = &mut para_entries[idx as usize];
                        if &para_arena[entry.start as usize..entry.end as usize] == bytes {
                            entry.tf += 1;
                            break;
                        }
                        key = key.wrapping_add(PARA_PROBE_STRIDE);
                    }
                    None => {
                        let start = para_arena.len() as u32;
                        para_arena.extend_from_slice(bytes);
                        para_map.insert(key, para_entries.len() as u32);
                        para_entries.push(ParaEntry {
                            start,
                            end: para_arena.len() as u32,
                            hash,
                            tf: 1,
                        });
                        break;
                    }
                }
            }
        });
    }
    if para_entries.is_empty() {
        return;
    }
    // Accumulate in sorted token order: f32 addition is not associative, so
    // map iteration order would leak into the features (and break
    // bit-for-bit reproducibility of trained models).
    para_order.clear();
    para_order.extend(0..para_entries.len() as u32);
    para_order.sort_unstable_by(|&a, &b| {
        let ea = &para_entries[a as usize];
        let eb = &para_entries[b as usize];
        para_arena[ea.start as usize..ea.end as usize]
            .cmp(&para_arena[eb.start as usize..eb.end as usize])
    });
    for &i in para_order.iter() {
        let entry = &para_entries[i as usize];
        let bucket = (entry.hash % dim as u64) as usize;
        let sign = if (entry.hash >> 63) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
        out[bucket] += sign * (1.0 + entry.tf as f32).ln();
    }
    l2_normalize(out);
}

/// Compute the Para features of an entire table's values — used as the LDA
/// fall-back "table fingerprint" in some ablations and by the BERT-like
/// encoder, which consumes raw value text rather than per-column features.
///
/// Iterates the columns' values directly (no merged-column clone of every
/// cell); bit-identical to running [`para_features`] on the concatenation.
pub fn table_para_features(columns: &[Column], dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    para_features_from_cells(
        columns.iter().flat_map(|c| c.iter()),
        &mut FeatureScratch::new(),
        &mut out,
    );
    out
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

    #[test]
    fn table_features_cover_all_columns() {
        let a = Column::new(["Rock", "Jazz"]);
        let b = Column::new(["Warsaw", "London"]);
        let table = table_para_features(&[a.clone(), b.clone()], 64);
        let fa = para_features(&a, 64);
        let fb = para_features(&b, 64);
        // The table vector should be similar to both column vectors.
        assert!(cosine(&table, &fa) > 0.3);
        assert!(cosine(&table, &fb) > 0.3);
    }
}
