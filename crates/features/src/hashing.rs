//! Deterministic feature hashing used by the word and paragraph embeddings.
//!
//! The real Sherlock features use pre-trained GloVe word vectors and doc2vec
//! paragraph vectors. Those checkpoints are external binary artefacts, so
//! this reproduction substitutes a fastText-style *hashing embedding*:
//! character n-grams of a token are hashed into a fixed number of buckets
//! with pseudo-random signs, summed and normalised. Similar strings share
//! n-grams and therefore land near each other — the distributional property
//! the downstream classifier actually exploits.
//!
//! The hashers take tokens as they are given: the Word and Para groups get
//! their lower-cased tokens from [`sato_tabular::text`], the one tokenizer
//! of the workspace.

/// Hash a token's character n-grams into a `dim`-bucket signed vector.
///
/// * `ngram_range` controls which n-gram lengths are used (inclusive).
/// * `seed` decorrelates different embedding spaces (the word and paragraph
///   groups use different seeds so they are not identical features).
///
/// The token is lower-cased first ([`sato_tabular::text::push_lowercase`]).
/// Convenience wrapper around [`hash_token_into`] that allocates the output,
/// the folded token and its window buffer; hot paths should reuse them.
pub fn hash_token(token: &str, dim: usize, ngram_range: (usize, usize), seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    let mut lower = String::with_capacity(token.len());
    sato_tabular::text::push_lowercase(token, &mut lower);
    hash_token_into(&lower, ngram_range, seed, &mut Vec::new(), &mut v);
    v
}

/// Hash a token's character n-grams into `out` (one bucket per element),
/// reusing `chars_buf` for the `<token>` character window.
///
/// The token is hashed as given: callers pass it already lower-cased.
pub fn hash_token_into(
    token: &str,
    ngram_range: (usize, usize),
    seed: u64,
    chars_buf: &mut Vec<char>,
    out: &mut [f32],
) {
    let dim = out.len();
    assert!(dim > 0, "embedding width must be positive");
    out.fill(0.0);
    chars_buf.clear();
    chars_buf.push('<');
    chars_buf.extend(token.chars());
    chars_buf.push('>');
    accumulate_ngrams(chars_buf, ngram_range, seed, out);
    l2_normalize(out);
}

/// Hash every n-gram of `chars` into signed `out` buckets, extending each
/// start position through the lengths `lo..=hi` so every character is
/// absorbed once per start instead of once per (start, length) pair.
///
/// The bucket accumulations are `±1.0` added to `f32` — integer-valued sums
/// far below 2^24 — so visiting the grams start-major instead of
/// length-major produces bit-identical buckets to the historical
/// length-major loop (kept in the tests as the oracle) while doing a
/// fraction of the hash work (for the standard `(3, 5)` range, each char is
/// hashed once per start instead of up to three times).
#[inline]
fn accumulate_ngrams(chars: &[char], ngram_range: (usize, usize), seed: u64, out: &mut [f32]) {
    let dim = out.len() as u64;
    let (lo, hi) = ngram_range;
    assert!(
        lo > 0,
        "n-gram lengths start at 1, got the range {ngram_range:?}"
    );
    for start in 0..chars.len().saturating_sub(lo - 1) {
        let mut hasher = sato_kernels::Fnv1a::with_seed(seed);
        let longest = hi.min(chars.len() - start);
        for (off, &c) in chars[start..start + longest].iter().enumerate() {
            hasher.write_char(c);
            if off + 1 >= lo {
                let h = hasher.finish();
                let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
                out[(h % dim) as usize] += sign;
            }
        }
    }
}

/// Normalise a vector to unit L2 norm in place (no-op for the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity between two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The historical length-major n-gram loop: for each `n`, hash every
    /// `n`-char window from scratch. The parity oracle of the
    /// prefix-extension loop.
    fn accumulate_ngrams_scalar(
        chars: &[char],
        ngram_range: (usize, usize),
        seed: u64,
        out: &mut [f32],
    ) {
        let dim = out.len();
        let (lo, hi) = ngram_range;
        for n in lo..=hi {
            if chars.len() < n {
                continue;
            }
            for window in chars.windows(n) {
                let mut hasher = sato_kernels::Fnv1a::with_seed(seed);
                for &c in window {
                    hasher.write_char(c);
                }
                let h = hasher.finish();
                let bucket = (h % dim as u64) as usize;
                let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
                out[bucket] += sign;
            }
        }
    }

    /// [`hash_token_into`] built on the length-major scalar loop.
    fn hash_token_into_scalar(
        token: &str,
        ngram_range: (usize, usize),
        seed: u64,
        chars_buf: &mut Vec<char>,
        out: &mut [f32],
    ) {
        assert!(!out.is_empty(), "embedding width must be positive");
        out.fill(0.0);
        chars_buf.clear();
        chars_buf.push('<');
        chars_buf.extend(token.chars());
        chars_buf.push('>');
        accumulate_ngrams_scalar(chars_buf, ngram_range, seed, out);
        l2_normalize(out);
    }

    /// A zero-length n-gram is not a gram: the range must start at 1.
    #[test]
    #[should_panic(expected = "n-gram lengths start at 1")]
    fn zero_length_ngram_range_panics() {
        hash_token("Warsaw", 16, (0, 3), 0);
    }

    #[test]
    fn hashing_is_deterministic() {
        let a = hash_token("Warsaw", 64, (3, 5), 1);
        let b = hash_token("Warsaw", 64, (3, 5), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = hash_token("Warsaw", 64, (3, 5), 1);
        let b = hash_token("Warsaw", 64, (3, 5), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn vectors_are_unit_norm() {
        let v = hash_token("Florence", 64, (3, 5), 0);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_strings_are_closer_than_dissimilar_ones() {
        let dim = 128;
        let warsaw = hash_token("Warsaw", dim, (3, 5), 0);
        let warsawa = hash_token("Warsawa", dim, (3, 5), 0);
        let number = hash_token("1234567", dim, (3, 5), 0);
        assert!(cosine(&warsaw, &warsawa) > cosine(&warsaw, &number));
        assert!(cosine(&warsaw, &warsawa) > 0.4);
    }

    #[test]
    fn short_tokens_still_produce_vectors() {
        let v = hash_token("a", 32, (3, 5), 0);
        // "<a>" has exactly one 3-gram, so the vector is non-zero.
        assert!(v.iter().any(|&x| x != 0.0));
    }

    /// The Word and Para groups hash the tokens of
    /// [`sato_tabular::text::tokenize`]; case is folded before hashing.
    #[test]
    fn tokenize_splits_on_non_alphanumerics() {
        use sato_tabular::text::tokenize;
        assert_eq!(tokenize("Warsaw, Poland"), vec!["warsaw", "poland"]);
        assert_eq!(tokenize("3.5 MB"), vec!["3", "5", "mb"]);
        assert!(tokenize("--- ").is_empty());
        assert_eq!(
            hash_token("MB", 32, (3, 5), 0),
            hash_token("mb", 32, (3, 5), 0)
        );
    }

    /// Hashing the streamed lower-case tokens with [`hash_token_into`]
    /// gives bit for bit the vectors [`hash_token`] gives for the
    /// original-case tokens, which it folds itself.
    #[test]
    fn streaming_lowercase_tokens_match_tokenize_bit_for_bit() {
        use sato_tabular::text::{for_each_token_lower, tokenize};
        let cases = [
            "Warsaw, Poland",
            "3.5 MB",
            "--- ",
            "",
            "MiXeD CaSe ALLCAPS 123-456",
            "Kelvin \u{212A} \u{00C9}clair na\u{00EF}ve",
            // Word-final Greek capital sigma: the one context-sensitive
            // lower-case mapping (Σ → ς at word end).
            "ΟΔΟΣ Οδός ΣΟΦΙΑ",
        ];
        let mut buf = String::new();
        let mut chars = Vec::new();
        for cell in cases {
            let raw: Vec<&str> = cell
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .collect();
            let mut streamed = Vec::new();
            let mut hashed = Vec::new();
            for_each_token_lower(cell, &mut buf, |t| {
                streamed.push(t.to_string());
                let mut v = vec![0.0f32; 64];
                hash_token_into(t, (3, 5), 7, &mut chars, &mut v);
                hashed.push(v);
            });
            assert_eq!(streamed, tokenize(cell), "tokens diverged on {cell:?}");
            let expected: Vec<Vec<f32>> =
                raw.iter().map(|t| hash_token(t, 64, (3, 5), 7)).collect();
            assert_eq!(hashed, expected, "hashes diverged on {cell:?}");
        }
    }

    #[test]
    fn cosine_bounds() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine(&a, &b).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &a), 0.0);
    }

    #[test]
    fn fnv_differs_across_seeds_and_inputs() {
        use sato_kernels::fnv1a64_seeded;
        assert_ne!(fnv1a64_seeded(b"abc", 0), fnv1a64_seeded(b"abd", 0));
        assert_ne!(fnv1a64_seeded(b"abc", 0), fnv1a64_seeded(b"abc", 1));
    }

    /// The start-major prefix-extension loop must reproduce the historical
    /// length-major windows bit for bit (±1 integer sums in f32 are exact
    /// under reordering), across token lengths, ranges and scripts.
    #[test]
    fn prefix_extension_matches_scalar_windows_bit_for_bit() {
        let tokens = [
            "",
            "a",
            "ab",
            "Warsaw",
            "Warszawa",
            "1234567",
            "ΟΔΟΣ",
            "naïve",
            "ßΣς",
            "a-very-long-token-with-many-grams",
        ];
        let ranges = [(1, 1), (1, 3), (3, 5), (2, 7), (5, 3)];
        let mut chars_a = Vec::new();
        let mut chars_b = Vec::new();
        for token in tokens {
            for range in ranges {
                for seed in [0u64, 1, 0xdead_beef] {
                    let mut fast = vec![0.0f32; 64];
                    let mut slow = vec![0.0f32; 64];
                    hash_token_into(token, range, seed, &mut chars_a, &mut fast);
                    hash_token_into_scalar(token, range, seed, &mut chars_b, &mut slow);
                    let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
                    let slow_bits: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        fast_bits, slow_bits,
                        "diverged on {token:?} {range:?} {seed}"
                    );
                }
            }
        }
    }
}
