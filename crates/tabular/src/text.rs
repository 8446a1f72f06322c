//! The tokenizer for cell and header text.
//!
//! A token is a maximal run of alphanumeric characters
//! ([`char::is_alphanumeric`]); every other character separates tokens.
//! Tokens are lower-cased exactly as [`str::to_lowercase`] lower-cases
//! them. The Sherlock Word and Para feature groups, the LDA table-document
//! vocabulary (§4.2), header canonicalization (§4.1) and the BERT-like
//! raw-text encoder all read their tokens from this module, so what counts
//! as a token, and how it is case-folded, is decided here once.
//!
//! ```
//! use sato_tabular::text::{for_each_token_lower, tokenize};
//! assert_eq!(tokenize("Warsaw, 1,777,972"), ["warsaw", "1", "777", "972"]);
//!
//! let mut buf = String::new();
//! let mut streamed = Vec::new();
//! for_each_token_lower("ΟΔΟΣ 3.5 MB", &mut buf, |t| streamed.push(t.to_string()));
//! assert_eq!(streamed, tokenize("ΟΔΟΣ 3.5 MB"));
//! ```

/// Append the lower-case form of `s` to `buf`; the appended text equals
/// `s.to_lowercase()` for every input.
///
/// Case is folded per character: ASCII directly, everything else through
/// [`char::to_lowercase`]. That matches `str::to_lowercase` except for its
/// context-sensitive mapping (a word-final Greek capital sigma becomes ς),
/// so a string containing any non-ASCII uppercase character takes the exact
/// whole-string fold instead.
#[inline]
pub fn push_lowercase(s: &str, buf: &mut String) {
    if s.chars().any(|c| !c.is_ascii() && c.is_uppercase()) {
        buf.push_str(&s.to_lowercase());
    } else {
        for c in s.chars() {
            if c.is_ascii() {
                buf.push(c.to_ascii_lowercase());
            } else {
                buf.extend(c.to_lowercase());
            }
        }
    }
}

/// The tokens of `text` in their original case.
#[inline]
fn raw_tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Visit every lower-cased token of `text`, folding each one into the
/// reusable `buf` instead of allocating a `String` per token.
///
/// The tokens handed to `f` are exactly [`tokenize`]'s output, in order.
#[inline]
pub fn for_each_token_lower(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    for token in raw_tokens(text) {
        buf.clear();
        push_lowercase(token, buf);
        f(buf.as_str());
    }
}

/// Split `text` into lower-cased tokens, one `String` each.
///
/// The allocating form, built on [`str::to_lowercase`]: it is the oracle
/// the streaming [`for_each_token_lower`] is tested against.
pub fn tokenize(text: &str) -> Vec<String> {
    raw_tokens(text).map(str::to_lowercase).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn streamed(text: &str) -> Vec<String> {
        let mut buf = String::new();
        let mut out = Vec::new();
        for_each_token_lower(text, &mut buf, |t| out.push(t.to_string()));
        out
    }

    #[test]
    fn tokenize_splits_on_non_alphanumerics() {
        assert_eq!(tokenize("Warsaw, Poland"), vec!["warsaw", "poland"]);
        assert_eq!(tokenize("3.5 MB"), vec!["3", "5", "mb"]);
        assert!(tokenize("--- ").is_empty());
        assert_eq!(
            tokenize("Warsaw, 1,777,972"),
            vec!["warsaw", "1", "777", "972"]
        );
        assert!(tokenize("--").is_empty());
    }

    #[test]
    fn streaming_lowercase_tokens_match_tokenize_bit_for_bit() {
        let cases = [
            "Warsaw, Poland",
            "Warsaw, 1,777,972",
            "3.5 MB",
            "3.5 MB $12.50",
            "--- ",
            "--",
            "",
            "MiXeD CaSe ALLCAPS",
            "MiXeD CaSe ALLCAPS 123-456",
            "Kelvin \u{212A} \u{00C9}clair na\u{00EF}ve",
            // Word-final Greek capital sigma: the one context-sensitive
            // lower-case mapping (Σ → ς at word end).
            "ΟΔΟΣ Οδός ΣΟΦΙΑ",
            "x-y ßΣς \u{01C5} İ",
        ];
        for text in cases {
            assert_eq!(
                streamed(text),
                tokenize(text),
                "tokens diverged on {text:?}"
            );
            let mut folded = String::from("keep:");
            push_lowercase(text, &mut folded);
            assert_eq!(folded, format!("keep:{}", text.to_lowercase()));
        }
    }

    /// The generated-string alphabet: ASCII letters and digits, separators,
    /// whitespace and NUL, plus the case-mapping corner cases — all three
    /// sigmas, the Kelvin sign, dotted capital I, both eszetts, a titlecase
    /// digraph, combining marks, a letter-number, and caseless scripts.
    const ALPHABET: &[char] = &[
        'a', 'Z', 'q', 'M', 'k', 'K', '0', '7', ',', '.', '-', ' ', '\t', '\n', '\0', 'Σ', 'σ',
        'ς', '\u{212A}', '\u{0130}', 'ß', '\u{1E9E}', '\u{01C5}', '\u{0345}', '\u{0307}', 'Ⅰ',
        '中', 'א',
    ];

    fn generated(indices: &[usize]) -> String {
        indices.iter().map(|&i| ALPHABET[i]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn streaming_tokens_match_tokenize_on_generated_strings(
            indices in proptest::collection::vec(0..ALPHABET.len(), 0..12),
        ) {
            let text = generated(&indices);
            prop_assert_eq!(streamed(&text), tokenize(&text));
            let mut folded = String::new();
            push_lowercase(&text, &mut folded);
            prop_assert_eq!(folded, text.to_lowercase());
        }
    }
}
