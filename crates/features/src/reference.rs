//! Reference (pre-optimisation) feature implementations.
//!
//! These are the original multi-pass extractors: `char` re-lowercases every
//! cell once per alphabet character, `word` allocates a `String` per token
//! and a fresh embedding `Vec` per hash call. They are kept verbatim as the
//! **correctness oracle**: the optimised single-pass extractors must
//! reproduce them bit for bit (asserted by the `single_pass_parity` tests),
//! so a serving artifact trained before the optimisation predicts
//! identically after it.
//!
//! Nothing in the serving or training path calls into this module.

use crate::char_dist::{CHARSET, CHAR_FEATURE_DIM, STATS_PER_CHAR};
use crate::hashing::l2_normalize;
use crate::para_embed::PARA_EMBED_SEED;
use crate::stats::STAT_FEATURE_DIM;
use crate::word_embed::WORD_EMBED_SEED;
use sato_kernels::fnv1a64_seeded;
use sato_tabular::table::Column;
use sato_tabular::text::tokenize;
use std::collections::HashMap;

/// Reference Char features: one pass over the column *per alphabet
/// character*, with a lower-cased copy of every cell in each pass.
pub fn char_features(column: &Column) -> Vec<f32> {
    let cells: Vec<&str> = column
        .values
        .iter()
        .map(String::as_str)
        .filter(|v| !v.trim().is_empty())
        .collect();
    let mut out = vec![0.0f32; CHAR_FEATURE_DIM];
    if cells.is_empty() {
        return out;
    }
    let n = cells.len() as f32;
    for (ci, &ch) in CHARSET.iter().enumerate() {
        let counts: Vec<f32> = cells
            .iter()
            .map(|cell| cell.to_lowercase().chars().filter(|&c| c == ch).count() as f32)
            .collect();
        let mean = counts.iter().sum::<f32>() / n;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f32>() / n;
        let present = counts.iter().filter(|&&c| c > 0.0).count() as f32 / n;
        out[ci * STATS_PER_CHAR] = mean;
        out[ci * STATS_PER_CHAR + 1] = var.sqrt();
        out[ci * STATS_PER_CHAR + 2] = present;
    }
    out
}

/// Reference Stat features: separate passes (and separate intermediate
/// vectors) per statistic family.
pub fn stat_features(column: &Column) -> Vec<f32> {
    let total = column.values.len();
    let non_empty: Vec<&str> = column
        .values
        .iter()
        .map(String::as_str)
        .filter(|v| !v.trim().is_empty())
        .collect();
    let n = non_empty.len();

    let mut out = vec![0.0f32; STAT_FEATURE_DIM];
    out[0] = total as f32;
    out[1] = n as f32;
    out[2] = if total > 0 {
        1.0 - n as f32 / total as f32
    } else {
        0.0
    };
    if n == 0 {
        return out;
    }

    let mut distinct: Vec<&str> = non_empty.clone();
    distinct.sort_unstable();
    distinct.dedup();
    out[3] = distinct.len() as f32;
    out[4] = distinct.len() as f32 / n as f32;

    let lengths: Vec<f32> = non_empty.iter().map(|v| v.chars().count() as f32).collect();
    let (len_mean, len_std, len_min, len_max) = moments(&lengths);
    out[5] = len_mean;
    out[6] = len_std;
    out[7] = len_min;
    out[8] = len_max;

    let token_counts: Vec<f32> = non_empty
        .iter()
        .map(|v| v.split_whitespace().count() as f32)
        .collect();
    let (tok_mean, tok_std, tok_min, tok_max) = moments(&token_counts);
    out[9] = tok_mean;
    out[10] = tok_std;
    out[11] = tok_min;
    out[12] = tok_max;

    let frac = |pred: &dyn Fn(&str) -> bool| {
        non_empty.iter().filter(|v| pred(v)).count() as f32 / n as f32
    };
    out[13] = frac(&|v| {
        v.chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == ',' || c == '-')
    });
    out[14] = frac(&|v| v.chars().any(|c| c.is_ascii_digit()));
    out[15] = frac(&|v| v.chars().all(|c| c.is_alphabetic() || c.is_whitespace()));
    out[16] = frac(&|v| v.chars().any(|c| c.is_uppercase()));
    out[17] = frac(&|v| v.contains(' '));
    out[18] = frac(&|v| v.contains(|c: char| !c.is_alphanumeric() && !c.is_whitespace()));

    let numeric: Vec<f32> = non_empty.iter().filter_map(|v| parse_numeric(v)).collect();
    out[19] = numeric.len() as f32 / n as f32;
    if !numeric.is_empty() {
        let (num_mean, num_std, num_min, num_max) = moments(&numeric);
        out[20] = num_mean;
        out[21] = num_std;
        out[22] = num_min;
        out[23] = num_max;
        out[24] = numeric.iter().filter(|&&x| x < 0.0).count() as f32 / numeric.len() as f32;
        out[25] =
            numeric.iter().filter(|&&x| x.fract() != 0.0).count() as f32 / numeric.len() as f32;
    }
    out[26] = non_empty
        .iter()
        .map(|v| {
            let chars = v.chars().count().max(1) as f32;
            v.chars().filter(|c| c.is_ascii_digit()).count() as f32 / chars
        })
        .sum::<f32>()
        / n as f32;
    out
}

fn parse_numeric(v: &str) -> Option<f32> {
    let cleaned: String = v
        .chars()
        .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    if cleaned.is_empty() || !v.chars().any(|c| c.is_ascii_digit()) {
        return None;
    }
    let digits = v.chars().filter(|c| c.is_ascii_digit()).count();
    if (digits as f32) < 0.4 * v.chars().filter(|c| !c.is_whitespace()).count() as f32 {
        return None;
    }
    cleaned.parse::<f32>().ok()
}

fn moments(values: &[f32]) -> (f32, f32, f32, f32) {
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
    let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    (mean, var.sqrt(), min, max)
}

/// Reference token hash: lower-cased `String` copy, `format!` boundary
/// marks, `Vec<char>` collect and a gram `String` per window.
pub fn hash_token(token: &str, dim: usize, ngram_range: (usize, usize), seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    let token = token.to_lowercase();
    let chars: Vec<char> = format!("<{token}>").chars().collect();
    let (lo, hi) = ngram_range;
    for n in lo..=hi {
        if chars.len() < n {
            continue;
        }
        for window in chars.windows(n) {
            let gram: String = window.iter().collect();
            let h = fnv1a64_seeded(gram.as_bytes(), seed);
            let bucket = (h % dim as u64) as usize;
            let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
            v[bucket] += sign;
        }
    }
    l2_normalize(&mut v);
    v
}

/// Reference Word features: tokenize (allocating a `String` per token), one
/// embedding `Vec` per token.
pub fn word_features(column: &Column, dim: usize) -> Vec<f32> {
    let mut sum = vec![0.0f32; dim];
    let mut sum_sq = vec![0.0f32; dim];
    let mut count = 0usize;
    for cell in column.iter() {
        for token in tokenize(cell) {
            let v = hash_token(&token, dim, (3, 5), WORD_EMBED_SEED);
            for i in 0..dim {
                sum[i] += v[i];
                sum_sq[i] += v[i] * v[i];
            }
            count += 1;
        }
    }
    let mut out = vec![0.0f32; 2 * dim];
    if count == 0 {
        return out;
    }
    let n = count as f32;
    for i in 0..dim {
        let mean = sum[i] / n;
        let var = (sum_sq[i] / n - mean * mean).max(0.0);
        out[i] = mean;
        out[dim + i] = var.sqrt();
    }
    out
}

/// Reference Para features: a `String` allocation per token into a
/// `HashMap<String, usize>` term-frequency map, drained in sorted token
/// order.
pub fn para_features(column: &Column, dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    let mut term_freq: HashMap<String, usize> = HashMap::new();
    for cell in column.iter() {
        for token in tokenize(cell) {
            *term_freq.entry(token).or_insert(0) += 1;
        }
    }
    if term_freq.is_empty() {
        return out;
    }
    // Accumulate in sorted token order: f32 addition is not associative, so
    // HashMap iteration order would leak into the features.
    let mut term_freq: Vec<(String, usize)> = term_freq.into_iter().collect();
    term_freq.sort_unstable();
    for (token, tf) in term_freq {
        let h = fnv1a64_seeded(token.as_bytes(), PARA_EMBED_SEED);
        let bucket = (h % dim as u64) as usize;
        let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        out[bucket] += sign * (1.0 + tf as f32).ln();
    }
    l2_normalize(&mut out);
    out
}

#[cfg(test)]
mod single_pass_parity {
    use super::*;
    use crate::scratch::FeatureScratch;
    use sato_tabular::corpus::default_corpus;

    /// The optimised extractors must reproduce the reference implementations
    /// bit for bit over a realistic corpus — this is what makes the
    /// optimisation safe for already-trained serving artifacts.
    #[test]
    fn optimised_extractors_match_reference_bit_for_bit() {
        let corpus = default_corpus(40, 17);
        let mut scratch = FeatureScratch::new();
        let mut checked = 0usize;
        for table in corpus.iter() {
            for column in &table.columns {
                assert_eq!(
                    crate::char_dist::char_features(column),
                    char_features(column)
                );
                assert_eq!(crate::stats::stat_features(column), stat_features(column));
                assert_eq!(
                    crate::word_embed::word_features(column, 50),
                    word_features(column, 50)
                );
                // The scratch-reusing entry points agree with the allocating
                // wrappers (and therefore with the reference) too.
                let mut char_out = vec![0.0f32; CHAR_FEATURE_DIM];
                crate::char_dist::char_features_into(column, &mut scratch, &mut char_out);
                assert_eq!(char_out, char_features(column));
                let mut stat_out = vec![0.0f32; STAT_FEATURE_DIM];
                crate::stats::stat_features_into(column, &mut scratch, &mut stat_out);
                assert_eq!(stat_out, stat_features(column));
                let mut word_out = vec![0.0f32; 64];
                crate::word_embed::word_features_into(column, 32, &mut scratch, &mut word_out);
                assert_eq!(word_out, word_features(column, 32));
                assert_eq!(
                    crate::para_embed::para_features(column, 100),
                    para_features(column, 100)
                );
                let mut para_out = vec![0.0f32; 100];
                crate::para_embed::para_features_into(column, &mut scratch, &mut para_out);
                assert_eq!(para_out, para_features(column, 100));
                checked += 1;
            }
        }
        assert!(checked > 50, "parity checked on too few columns: {checked}");
    }

    #[test]
    fn edge_case_columns_match_reference() {
        use sato_tabular::table::Column;
        let cases = [
            Column::new(Vec::<String>::new()),
            Column::new(["", "  ", "\t"]),
            Column::new(["MiXeD CaSe", "ALLCAPS", "123-456", "-1.5", "1,777,972"]),
            Column::new(["a"]),
            Column::new(["Kelvin \u{212A}", "\u{00C9}clair", "na\u{00EF}ve"]),
            // Greek capital sigma is the one context-sensitive lower-case
            // mapping in Unicode: word-final Σ folds to ς, not σ.
            Column::new(["ΟΔΟΣ", "Οδός", "ΣΟΦΙΑ"]),
            Column::new(["75 kg", "3.5 MB", "$12.50", "50%"]),
        ];
        for column in &cases {
            assert_eq!(
                crate::char_dist::char_features(column),
                char_features(column)
            );
            assert_eq!(crate::stats::stat_features(column), stat_features(column));
            assert_eq!(
                crate::word_embed::word_features(column, 16),
                word_features(column, 16)
            );
            assert_eq!(
                crate::para_embed::para_features(column, 32),
                para_features(column, 32)
            );
        }
    }

    /// Generated-cell alphabet: ASCII letters and digits, separators,
    /// whitespace and NUL, plus the case-mapping corner cases of the
    /// tokenizer's own generated tests (`sato_tabular::text`).
    const ALPHABET: &[char] = &[
        'a', 'Z', 'q', 'M', 'k', 'K', '0', '7', ',', '.', '-', ' ', '\t', '\n', '\0', 'Σ', 'σ',
        'ς', '\u{212A}', '\u{0130}', 'ß', '\u{1E9E}', '\u{01C5}', '\u{0345}', '\u{0307}', 'Ⅰ',
        '中', 'א',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn word_and_para_match_reference_on_generated_columns(
            cells in proptest::collection::vec(
                proptest::collection::vec(0..ALPHABET.len(), 0..12),
                0..6,
            ),
        ) {
            let column = Column::new(
                cells
                    .iter()
                    .map(|cell| cell.iter().map(|&i| ALPHABET[i]).collect::<String>()),
            );
            proptest::prop_assert_eq!(
                crate::word_embed::word_features(&column, 16),
                word_features(&column, 16)
            );
            proptest::prop_assert_eq!(
                crate::para_embed::para_features(&column, 32),
                para_features(&column, 32)
            );
        }
    }

    /// Char and Stat of `column` through the single-pass scan, as the
    /// extractor computes them for any [`CellSource`].
    fn char_and_stat<C: sato_tabular::table::CellSource + ?Sized>(
        column: &C,
        scratch: &mut FeatureScratch,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut char_out = vec![0.0f32; CHAR_FEATURE_DIM];
        let mut stat_out = vec![0.0f32; STAT_FEATURE_DIM];
        scratch.scan(column);
        crate::char_dist::char_features_from_scan(scratch, &mut char_out);
        crate::stats::stat_features_from_scan(column, scratch, &mut stat_out);
        (char_out, stat_out)
    }

    /// A generated column for the Char/Stat proptest. Cells are drawn from a
    /// small pool of [`ALPHABET`] strings, so values repeat; each pick is
    /// kept as is, upper- or lower-cased (values that differ only in case),
    /// or blanked. `shape` 6 and 7 replace it with a 10k-cell column whose
    /// cells are all equal or all distinct.
    fn generated_column(pool: &[Vec<usize>], picks: &[(usize, u8)], shape: u8) -> Column {
        let pool: Vec<String> = pool
            .iter()
            .map(|cell| cell.iter().map(|&i| ALPHABET[i]).collect())
            .collect();
        match shape {
            6 => Column::new(std::iter::repeat(format!("{}x", pool[0])).take(10_000)),
            7 => Column::new((0..10_000).map(|i| format!("{}{i}", pool[0]))),
            _ => Column::new(picks.iter().map(|&(p, variant)| {
                let base = &pool[p % pool.len()];
                match variant {
                    0 => base.clone(),
                    1 => base.to_uppercase(),
                    2 => base.to_lowercase(),
                    _ => [" ", "", "\t \n"][p % 3].to_string(),
                }
            })),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Char and Stat match the reference bit for bit on generated
        /// columns, read both in memory and from a decoded colstore frame.
        #[test]
        fn char_and_stat_match_reference_on_generated_columns(
            pool in proptest::collection::vec(
                proptest::collection::vec(0..ALPHABET.len(), 0..8),
                1..6,
            ),
            picks in proptest::collection::vec((0usize..64, 0u8..4), 0..40),
            shape in 0u8..8,
        ) {
            use sato_tabular::colstore::{ColStoreReader, ColStoreWriter, TableBuf};
            use sato_tabular::table::{Table, TableCells};

            let column = generated_column(&pool, &picks, shape);
            let expected = (char_features(&column), stat_features(&column));
            let mut scratch = FeatureScratch::new();
            proptest::prop_assert_eq!(&char_and_stat(&column, &mut scratch), &expected);

            let mut writer = ColStoreWriter::new(Vec::new()).unwrap();
            writer.write_table(&Table::unlabelled(1, vec![column])).unwrap();
            let bytes = writer.finish().unwrap();
            let mut reader = ColStoreReader::new(&bytes[..]).unwrap();
            let mut buf = TableBuf::new();
            proptest::prop_assert!(reader.read_into(&mut buf).unwrap());
            proptest::prop_assert_eq!(&char_and_stat(&buf.cells(0), &mut scratch), &expected);
        }
    }

    /// The hash-keyed Para counting must reproduce the sorted `String`-map
    /// drain bit for bit even when many distinct tokens collide in the same
    /// embedding *bucket* (the case where f32 accumulation order matters):
    /// dim = 2 forces roughly half the vocabulary into each bucket.
    #[test]
    fn para_bucket_collisions_accumulate_in_reference_order() {
        use sato_tabular::table::Column;
        let cells: Vec<String> = (0..60)
            .map(|i| format!("tok{i} tok{} shared repeated", i % 7))
            .collect();
        let column = Column::new(cells);
        for dim in [1, 2, 3, 100] {
            assert_eq!(
                crate::para_embed::para_features(&column, dim),
                para_features(&column, dim),
                "Para parity broke at dim {dim}"
            );
        }
    }

    #[test]
    fn hash_token_matches_reference() {
        for token in [
            "Warsaw",
            "a",
            "",
            "1234567",
            "Braunschweig",
            "x-y",
            "ΟΔΟΣ",
            "ΣΟΦΙΑ",
        ] {
            assert_eq!(
                crate::hashing::hash_token(token, 64, (3, 5), 7),
                hash_token(token, 64, (3, 5), 7)
            );
        }
    }
}
