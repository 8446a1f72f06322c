//! Deterministic feature hashing used by the word and paragraph embeddings.
//!
//! The real Sherlock features use pre-trained GloVe word vectors and doc2vec
//! paragraph vectors. Those checkpoints are external binary artefacts, so
//! this reproduction substitutes a fastText-style *hashing embedding*:
//! character n-grams of a token are hashed into a fixed number of buckets
//! with pseudo-random signs, summed and normalised. Similar strings share
//! n-grams and therefore land near each other — the distributional property
//! the downstream classifier actually exploits.

/// Streaming FNV-1a state, so n-gram windows can be hashed char by char
/// without materialising the gram as a `String` first. Thin wrapper over
/// [`sato_kernels::Fnv1a`] keeping this crate's historical seeded
/// constructor name.
#[derive(Clone, Copy)]
pub struct Fnv1a(sato_kernels::Fnv1a);

impl Fnv1a {
    /// Start a seeded hash stream.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Fnv1a(sato_kernels::Fnv1a::with_seed(seed))
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    /// Absorb a character's UTF-8 encoding (identical to hashing the bytes
    /// of a string containing it).
    #[inline]
    pub fn write_char(&mut self, c: char) {
        self.0.write_char(c);
    }

    /// The accumulated hash value.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

/// A simple, stable 64-bit FNV-1a hash (so features do not depend on the
/// platform's `DefaultHasher` seed and stay identical across runs).
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    sato_kernels::fnv1a64_seeded(bytes, seed)
}

/// Hash a token's character n-grams into a `dim`-bucket signed vector.
///
/// * `ngram_range` controls which n-gram lengths are used (inclusive).
/// * `seed` decorrelates different embedding spaces (the word and paragraph
///   groups use different seeds so they are not identical features).
///
/// Convenience wrapper around [`hash_token_into`] that allocates the output
/// and its window buffer; hot paths should reuse both.
pub fn hash_token(token: &str, dim: usize, ngram_range: (usize, usize), seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    let mut chars = Vec::new();
    hash_token_into(token, ngram_range, seed, &mut chars, &mut v);
    v
}

/// Hash a token's character n-grams into `out` (one bucket per element),
/// reusing `chars_buf` for the `<token>` character window.
///
/// Case is folded per character (no lower-cased `String` copy of the token,
/// no `format!` for the boundary marks). Per-character folding matches
/// `str::to_lowercase` except for context-sensitive mappings (the Greek
/// final sigma is the only one), so tokens containing a non-ASCII uppercase
/// character take a rare exact-fold fallback — keeping the output
/// bit-identical to the reference implementation for every input.
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
    if token.chars().any(|c| !c.is_ascii() && c.is_uppercase()) {
        // Context-sensitive case mapping possible: defer to the exact
        // whole-string fold.
        chars_buf.extend(token.to_lowercase().chars());
    } else {
        for c in token.chars() {
            if c.is_ascii() {
                chars_buf.push(c.to_ascii_lowercase());
            } else {
                chars_buf.extend(c.to_lowercase());
            }
        }
    }
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
/// [`accumulate_ngrams_scalar`] loop while doing a fraction of the hash
/// work (for the standard `(3, 5)` range, each char is hashed once per
/// start instead of up to three times).
#[inline]
fn accumulate_ngrams(chars: &[char], ngram_range: (usize, usize), seed: u64, out: &mut [f32]) {
    let dim = out.len() as u64;
    let (lo, hi) = ngram_range;
    if lo == 0 {
        // Degenerate range: defer to the reference loop's semantics
        // (`windows(0)` panics there too, so normal configs never hit this).
        return accumulate_ngrams_scalar(chars, ngram_range, seed, out);
    }
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

/// The historical length-major n-gram loop: for each `n`, hash every
/// `n`-char window from scratch. Kept as the parity oracle of the
/// prefix-extension loop.
pub fn accumulate_ngrams_scalar(
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
            let mut hasher = Fnv1a::new(seed);
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

/// Reference form of [`hash_token_into`] built on the length-major scalar
/// loop — used by the parity tests.
pub fn hash_token_into_scalar(
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
    if token.chars().any(|c| !c.is_ascii() && c.is_uppercase()) {
        chars_buf.extend(token.to_lowercase().chars());
    } else {
        for c in token.chars() {
            if c.is_ascii() {
                chars_buf.push(c.to_ascii_lowercase());
            } else {
                chars_buf.extend(c.to_lowercase());
            }
        }
    }
    chars_buf.push('>');
    accumulate_ngrams_scalar(chars_buf, ngram_range, seed, out);
    l2_normalize(out);
}

/// Visit every word token of a cell (maximal alphanumeric runs) without
/// allocating per-token `String`s. Tokens are passed through in their
/// original case; the n-gram hasher folds case per character.
#[inline]
pub fn for_each_token(cell: &str, mut f: impl FnMut(&str)) {
    for token in cell.split(|c: char| !c.is_alphanumeric()) {
        if !token.is_empty() {
            f(token);
        }
    }
}

/// Visit every **lower-cased** word token of a cell, folding each token into
/// the reusable `buf` instead of allocating a `String` per token.
///
/// The tokens handed to `f` are bit-identical to [`tokenize`]'s output:
/// case is folded per character (which matches `str::to_lowercase` except
/// for context-sensitive mappings), and tokens containing a non-ASCII
/// uppercase character take the rare exact whole-string fold, exactly as in
/// [`hash_token_into`]. `sato_topic::vocab::for_each_token_lower` carries
/// the same fold logic (that crate cannot depend on this one); a Unicode
/// fix here must be mirrored there.
#[inline]
pub fn for_each_token_lower(cell: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    for token in cell.split(|c: char| !c.is_alphanumeric()) {
        if token.is_empty() {
            continue;
        }
        buf.clear();
        if token.chars().any(|c| !c.is_ascii() && c.is_uppercase()) {
            buf.push_str(&token.to_lowercase());
        } else {
            for c in token.chars() {
                if c.is_ascii() {
                    buf.push(c.to_ascii_lowercase());
                } else {
                    buf.extend(c.to_lowercase());
                }
            }
        }
        f(buf.as_str());
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

/// Split a cell into word tokens (alphanumeric runs).
pub fn tokenize(cell: &str) -> Vec<String> {
    cell.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
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

    #[test]
    fn tokenize_splits_on_non_alphanumerics() {
        assert_eq!(tokenize("Warsaw, Poland"), vec!["warsaw", "poland"]);
        assert_eq!(tokenize("3.5 MB"), vec!["3", "5", "mb"]);
        assert!(tokenize("--- ").is_empty());
    }

    #[test]
    fn streaming_lowercase_tokens_match_tokenize_bit_for_bit() {
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
        for cell in cases {
            let mut streamed = Vec::new();
            for_each_token_lower(cell, &mut buf, |t| streamed.push(t.to_string()));
            assert_eq!(streamed, tokenize(cell), "tokens diverged on {cell:?}");
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
        assert_ne!(fnv1a(b"abc", 0), fnv1a(b"abd", 0));
        assert_ne!(fnv1a(b"abc", 0), fnv1a(b"abc", 1));
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
