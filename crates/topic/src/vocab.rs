//! Vocabulary construction for the table-as-document topic model.
//!
//! Section 4.2 of the paper: *"Since LDA is an unsupervised model, we only
//! need the vocabulary (i.e., set of all cell values) of the tables without
//! any headers or semantic annotation. We convert numerical values into
//! strings and then concatenate all values in the table sequentially to form
//! a 'document' for each table."*
//!
//! A document's tokens are the lower-cased alphanumeric runs of
//! [`sato_tabular::text`], so numeric cells become numeric tokens, exactly
//! as the paper converts numbers to strings.

use sato_tabular::text::{for_each_token_lower, tokenize};
use std::collections::HashMap;

/// A token-to-id mapping with document-frequency based pruning.
///
/// Only the token list is persisted; the token → id map is rebuilt from it
/// on load.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
}

impl Vocabulary {
    /// Rebuild a vocabulary from its tokens in id order (the artifact's load
    /// path; ids are assigned densely in slice order).
    pub(crate) fn from_id_tokens(tokens: Vec<String>) -> Self {
        let token_to_id = tokens
            .iter()
            .enumerate()
            .map(|(id, t)| (t.clone(), id))
            .collect();
        Vocabulary {
            token_to_id,
            id_to_token: tokens,
        }
    }

    /// Build a vocabulary from an iterator of documents, keeping tokens that
    /// appear at least `min_count` times in total.
    pub fn build<'a>(documents: impl Iterator<Item = &'a str>, min_count: usize) -> Self {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for doc in documents {
            for token in tokenize(doc) {
                *counts.entry(token).or_insert(0) += 1;
            }
        }
        let mut kept: Vec<(String, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count)
            .collect();
        // Sort for determinism (HashMap iteration order is randomised).
        kept.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Vocabulary::from_id_tokens(kept.into_iter().map(|(token, _)| token).collect())
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Look up a token id.
    pub fn id(&self, token: &str) -> Option<usize> {
        self.token_to_id.get(token).copied()
    }

    /// Look up a token by id.
    pub fn token(&self, id: usize) -> Option<&str> {
        self.id_to_token.get(id).map(String::as_str)
    }

    /// Encode a document into known token ids (unknown tokens are dropped).
    pub fn encode(&self, text: &str) -> Vec<usize> {
        tokenize(text)
            .into_iter()
            .filter_map(|t| self.id(&t))
            .collect()
    }

    /// Append the known-token ids of `text` to `out`, reusing `buf` for the
    /// lower-cased token — the streaming counterpart of [`Self::encode`]
    /// (ids are looked up by `&str`, no per-token `String`).
    ///
    /// Feeding a table's cell values through this one by one yields exactly
    /// the ids [`Self::encode`] produces for the concatenated
    /// `Table::as_document` string, because cell boundaries and whitespace
    /// are both token separators.
    pub fn encode_value_into(&self, text: &str, buf: &mut String, out: &mut Vec<usize>) {
        for_each_token_lower(text, buf, |token| {
            if let Some(&id) = self.token_to_id.get(token) {
                out.push(id);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Warsaw, 1,777,972"),
            vec!["warsaw", "1", "777", "972"]
        );
        assert!(tokenize("--").is_empty());
        let vocab = Vocabulary::build(["Warsaw, 1,777,972"].iter().copied(), 1);
        assert_eq!(vocab.len(), 4);
        assert!(vocab.id("warsaw").is_some());
        assert!(vocab.id("Warsaw").is_none());
    }

    #[test]
    fn streaming_tokenizer_matches_tokenize_bit_for_bit() {
        let cases = [
            "Warsaw, 1,777,972",
            "",
            "--",
            "MiXeD CaSe ALLCAPS",
            "Kelvin \u{212A} \u{00C9}clair na\u{00EF}ve",
            // Greek capital sigma: the one context-sensitive lower-case
            // mapping in Unicode (word-final Σ folds to ς, not σ).
            "ΟΔΟΣ Οδός ΣΟΦΙΑ",
            "3.5 MB $12.50",
        ];
        let mut buf = String::new();
        for text in cases {
            let mut streamed = Vec::new();
            for_each_token_lower(text, &mut buf, |t| streamed.push(t.to_string()));
            assert_eq!(streamed, tokenize(text), "tokens diverged on {text:?}");
        }
    }

    #[test]
    fn build_respects_min_count() {
        let docs = ["rock rock jazz", "rock blues"];
        let vocab = Vocabulary::build(docs.iter().copied(), 2);
        assert!(vocab.id("rock").is_some());
        assert!(vocab.id("jazz").is_none());
        assert!(vocab.id("blues").is_none());
        assert_eq!(vocab.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_round_trip() {
        let docs = ["a b c", "a b", "a"];
        let vocab = Vocabulary::build(docs.iter().copied(), 1);
        assert_eq!(vocab.len(), 3);
        for id in 0..vocab.len() {
            let tok = vocab.token(id).unwrap();
            assert_eq!(vocab.id(tok), Some(id));
        }
        // Most frequent token gets id 0.
        assert_eq!(vocab.token(0), Some("a"));
    }

    #[test]
    fn build_is_deterministic() {
        let docs = ["x y z y", "z z q r s"];
        let a = Vocabulary::build(docs.iter().copied(), 1);
        let b = Vocabulary::build(docs.iter().copied(), 1);
        assert_eq!(a.id_to_token, b.id_to_token);
    }

    #[test]
    fn encode_drops_unknown_tokens() {
        let vocab = Vocabulary::build(["warsaw london"].iter().copied(), 1);
        let ids = vocab.encode("Warsaw unknown London");
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn encode_value_into_matches_encode() {
        let vocab = Vocabulary::build(["warsaw london 12 οδος rock"].iter().copied(), 1);
        let mut buf = String::new();
        for text in ["Warsaw unknown London", "ΟΔΟΣ 12, rock&roll", ""] {
            let mut streamed = Vec::new();
            vocab.encode_value_into(text, &mut buf, &mut streamed);
            assert_eq!(streamed, vocab.encode(text), "ids diverged on {text:?}");
        }
        // Value-by-value streaming equals encoding the joined document.
        let values = ["Warsaw", "", "rock London"];
        let mut streamed = Vec::new();
        for v in values {
            vocab.encode_value_into(v, &mut buf, &mut streamed);
        }
        assert_eq!(streamed, vocab.encode("Warsaw rock London"));
    }

    #[test]
    fn empty_vocabulary() {
        let vocab = Vocabulary::build(std::iter::empty(), 1);
        assert!(vocab.is_empty());
        assert!(vocab.encode("anything").is_empty());
    }
}
