//! The token table: one tokenizer pass per column feeds the Word and Para
//! feature groups and the table-topic encoder.
//!
//! Every lower-cased token of a micro-batch is interned once. Each distinct
//! token stores its bytes in an arena, its seeded-FNV Para hash, its Word
//! n-gram vector (hashed once) and its topic-vocabulary id (looked up once
//! through a caller-supplied closure, so this crate does not depend on the
//! topic model). Interning a column also records its token occurrences in
//! order and its distinct tokens with their term frequencies:
//!
//! * **Word** adds the cached vectors occurrence by occurrence, in the order
//!   the per-token loop of [`crate::reference::word_features`] adds them;
//! * **Para** drains the column's distinct tokens in sorted byte order, the
//!   order of [`crate::reference::para_features`];
//! * **Topic** reads the occurrences' vocabulary ids in order
//!   ([`TokenTable::column_vocab_ids`]), the sequence
//!   `TableIntentEstimator::encode_cells` produces for the same cells.
//!
//! So all three stay bit-for-bit identical to their oracles. The table is
//! cleared at the start of every batch, so it holds
//! at most one batch's distinct tokens. Each costs its bytes, a 40-byte
//! entry, a map slot and `4 * word_dim` bytes of Word vector. With the
//! default 50-float vectors, the capacity of the table's buffers peaked at
//! 1.14 MB at training set-up, whose 400 tables (1,093 columns, 4,085
//! distinct tokens) fill one batch, and at 0.57–1.06 MB while serving
//! 256-column batches (1,817–2,096 distinct tokens), in satobench runs of
//! all three workloads.

use crate::hashing::hash_token_into;
use crate::para_embed::PARA_EMBED_SEED;
use crate::word_embed::WORD_EMBED_SEED;
use sato_tabular::text::for_each_token_lower;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Probe stride for open addressing on the map key (a 64-bit FNV collision
/// between distinct tokens must not merge them).
const PROBE_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Character n-gram lengths of the Word embedding.
const WORD_NGRAMS: (usize, usize) = (3, 5);

/// The interned tokens of one batch (see the module docs).
///
/// All buffers keep their capacity when a batch starts, so a warm table
/// interns a new batch without allocating while the batch has no more
/// distinct tokens and token bytes than an earlier one.
#[derive(Debug, Clone, Default)]
pub struct TokenTable {
    /// Map key (the Para hash, open-addressed on collision) → entry index.
    /// The keys are already well-mixed 64-bit hashes, so the map uses a
    /// passthrough hasher instead of re-hashing every key through SipHash.
    map: HashMap<u64, u32, BuildHasherDefault<PassthroughHasher>>,
    /// One entry per distinct token, in first-seen order.
    entries: Vec<TokenEntry>,
    /// Lower-cased bytes of all distinct tokens, back to back.
    arena: Vec<u8>,
    /// `entries.len() * word_dim` Word vectors, one per entry.
    word_vecs: Vec<f32>,
    /// Width of the cached Word vectors (0: none are hashed).
    word_dim: usize,
    /// Stamp of the column last interned (1 for a batch's first column).
    column: u32,
    /// Entry index of every token occurrence of the last interned column.
    occurrences: Vec<u32>,
    /// Distinct tokens of the last interned column with their term
    /// frequencies, in first-seen order until [`Self::drain_para`] sorts
    /// them.
    column_terms: Vec<ColumnTerm>,
    /// Reusable lower-cased token buffer of the tokenizer.
    token: String,
    /// Reusable `<token>` character window of the n-gram hasher.
    token_chars: Vec<char>,
}

/// One distinct token of the batch.
#[derive(Debug, Clone, Copy)]
struct TokenEntry {
    /// Byte range of the token in the arena.
    start: u32,
    end: u32,
    /// Seeded FNV-1a hash in the Para space: the embedding bucket and sign.
    para_hash: u64,
    /// Topic-vocabulary id, `None` for out-of-vocabulary tokens.
    vocab_id: Option<usize>,
    /// Stamp of the last column the token occurred in, and its index into
    /// `column_terms` there.
    column: u32,
    term: u32,
}

/// A distinct token of one column and its term frequency.
#[derive(Debug, Clone, Copy)]
struct ColumnTerm {
    entry: u32,
    tf: u32,
}

/// Identity hasher for map keys that are already uniform 64-bit hashes:
/// `write_u64` passes the key straight through.
#[derive(Debug, Clone, Copy, Default)]
struct PassthroughHasher(u64);

impl Hasher for PassthroughHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are expected, but stay total for any input.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl TokenTable {
    /// Start a new batch: forget every token, and cache Word vectors of
    /// width `word_dim` from now on (0 hashes none).
    pub(crate) fn clear(&mut self, word_dim: usize) {
        self.map.clear();
        self.entries.clear();
        self.arena.clear();
        self.word_vecs.clear();
        self.word_dim = word_dim;
        self.column = 0;
        self.occurrences.clear();
        self.column_terms.clear();
    }

    /// Tokenize one column's cells once: intern every lower-cased token
    /// (looking a new token's vocabulary id up through `vocab_id`) and
    /// record the column's occurrences and term frequencies, replacing the
    /// previous column's.
    pub(crate) fn intern_column<'a>(
        &mut self,
        cells: impl Iterator<Item = &'a str>,
        mut vocab_id: impl FnMut(&str) -> Option<usize>,
    ) {
        self.column += 1;
        self.occurrences.clear();
        self.column_terms.clear();
        let column = self.column;
        // The token buffer is taken out for the pass so the visitor can
        // borrow the rest of the table.
        let mut buf = std::mem::take(&mut self.token);
        for cell in cells {
            for_each_token_lower(cell, &mut buf, |token| {
                let hash = sato_kernels::fnv1a64_seeded(token.as_bytes(), PARA_EMBED_SEED);
                let idx = self.intern(token, hash, &mut vocab_id);
                let entry = &mut self.entries[idx as usize];
                if entry.column == column {
                    self.column_terms[entry.term as usize].tf += 1;
                } else {
                    entry.column = column;
                    entry.term = self.column_terms.len() as u32;
                    self.column_terms.push(ColumnTerm { entry: idx, tf: 1 });
                }
                self.occurrences.push(idx);
            });
        }
        self.token = buf;
    }

    /// The entry index of `token`, interning it under map key `hash` when
    /// it is new. On a key collision between distinct tokens, the key steps
    /// by [`PROBE_STRIDE`] until it finds the token or a free key.
    fn intern(
        &mut self,
        token: &str,
        hash: u64,
        vocab_id: &mut impl FnMut(&str) -> Option<usize>,
    ) -> u32 {
        let bytes = token.as_bytes();
        let mut key = hash;
        while let Some(&idx) = self.map.get(&key) {
            let entry = &self.entries[idx as usize];
            if &self.arena[entry.start as usize..entry.end as usize] == bytes {
                return idx;
            }
            key = key.wrapping_add(PROBE_STRIDE);
        }
        let offset = |len: usize| u32::try_from(len).expect("a batch's tokens exceed 4 GiB");
        let idx = offset(self.entries.len());
        let start = offset(self.arena.len());
        self.arena.extend_from_slice(bytes);
        self.map.insert(key, idx);
        self.entries.push(TokenEntry {
            start,
            end: offset(self.arena.len()),
            para_hash: hash,
            vocab_id: vocab_id(token),
            column: 0,
            term: 0,
        });
        if self.word_dim > 0 {
            let at = self.word_vecs.len();
            self.word_vecs.resize(at + self.word_dim, 0.0);
            hash_token_into(
                token,
                WORD_NGRAMS,
                WORD_EMBED_SEED,
                &mut self.token_chars,
                &mut self.word_vecs[at..],
            );
        }
        idx
    }

    /// The Word vectors of the last interned column's token occurrences, in
    /// order.
    pub(crate) fn column_word_vecs(&self) -> impl Iterator<Item = &[f32]> + '_ {
        let dim = self.word_dim;
        self.occurrences
            .iter()
            .map(move |&e| &self.word_vecs[e as usize * dim..(e as usize + 1) * dim])
    }

    /// Width of the cached Word vectors.
    pub(crate) fn word_dim(&self) -> usize {
        self.word_dim
    }

    /// The vocabulary ids of the last interned column's token occurrences,
    /// in order, out-of-vocabulary tokens skipped.
    pub fn column_vocab_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.occurrences
            .iter()
            .filter_map(|&e| self.entries[e as usize].vocab_id)
    }

    /// Visit the last interned column's distinct tokens as
    /// `(para_hash, term_frequency)`, sorted by token bytes.
    pub(crate) fn drain_para(&mut self, mut f: impl FnMut(u64, u32)) {
        let Self {
            entries,
            arena,
            column_terms,
            ..
        } = self;
        let bytes = |t: &ColumnTerm| {
            let entry = &entries[t.entry as usize];
            &arena[entry.start as usize..entry.end as usize]
        };
        column_terms.sort_unstable_by(|a, b| bytes(a).cmp(bytes(b)));
        for term in column_terms.iter() {
            f(entries[term.entry as usize].para_hash, term.tf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_vocab(_: &str) -> Option<usize> {
        None
    }

    #[test]
    fn each_distinct_token_is_interned_once_per_batch() {
        let mut table = TokenTable::default();
        table.clear(8);
        table.intern_column(["Rock jazz", "ROCK"].into_iter(), no_vocab);
        assert_eq!(table.entries.len(), 2);
        assert_eq!(table.occurrences, vec![0, 1, 0]);
        table.intern_column(["jazz blues"].into_iter(), no_vocab);
        assert_eq!(table.entries.len(), 3);
        assert_eq!(table.occurrences, vec![1, 2]);
        assert_eq!(table.word_vecs.len(), 3 * 8);
        table.clear(8);
        assert!(table.entries.is_empty());
    }

    #[test]
    fn term_frequencies_are_per_column() {
        let mut table = TokenTable::default();
        table.clear(0);
        table.intern_column(["b a b", "b"].into_iter(), no_vocab);
        let mut tfs = Vec::new();
        table.drain_para(|_, tf| tfs.push(tf));
        assert_eq!(tfs, vec![1, 3], "sorted by bytes: a, then b");
        table.intern_column(["b"].into_iter(), no_vocab);
        tfs.clear();
        table.drain_para(|_, tf| tfs.push(tf));
        assert_eq!(tfs, vec![1]);
        assert!(table.word_vecs.is_empty(), "word_dim 0 hashes no vectors");
    }

    #[test]
    fn vocabulary_ids_are_looked_up_once_per_distinct_token() {
        let mut table = TokenTable::default();
        table.clear(0);
        let mut lookups = 0;
        let lookup = |t: &str| {
            lookups += 1;
            (t == "known").then_some(7)
        };
        table.intern_column(["known oov KNOWN", "known"].into_iter(), lookup);
        assert_eq!(lookups, 2);
        assert_eq!(table.column_vocab_ids().collect::<Vec<_>>(), vec![7, 7, 7]);
    }

    /// Two distinct tokens under one map key: the second steps to the next
    /// key instead of merging into the first, and both are found again.
    #[test]
    fn colliding_keys_open_address() {
        let mut table = TokenTable::default();
        table.clear(4);
        let mut vocab = no_vocab;
        let alpha = table.intern("alpha", 42, &mut vocab);
        let beta = table.intern("beta", 42, &mut vocab);
        assert_ne!(alpha, beta);
        assert_eq!(table.entries.len(), 2);
        assert_eq!(table.map.len(), 2);
        assert!(table.map.contains_key(&42u64.wrapping_add(PROBE_STRIDE)));
        assert_eq!(table.intern("alpha", 42, &mut vocab), alpha);
        assert_eq!(table.intern("beta", 42, &mut vocab), beta);
        assert_eq!(table.entries.len(), 2);
        // Both keep the hash they were interned under for the Para bucket.
        assert!(table.entries.iter().all(|e| e.para_hash == 42));
    }
}
