//! The table intent estimator (Figure 3b of the paper): a pre-trained LDA
//! model that maps a table's values to a fixed-length *table topic vector*
//! shared by every column of the table.

use crate::lda::{LdaConfig, LdaInferScratch, LdaModel};
use crate::sampler::{SamplerKind, TopicSampler};
use sato_tabular::table::{Corpus, Table, TableCells};

/// Reusable workspace for streaming table-topic estimation: the encoded
/// token ids of one table, the lower-cased token buffer of the streaming
/// encoder, and the Gibbs-inference buffers. One scratch serves any number
/// of tables; warm estimation allocates nothing beyond the caller's output.
#[derive(Debug, Clone, Default)]
pub struct TopicScratch {
    /// Encoded token ids of the table under estimation.
    tokens: Vec<usize>,
    /// Reusable lower-cased token buffer for the streaming encoder.
    token_buf: String,
    /// Gibbs-inference working buffers.
    infer: LdaInferScratch,
}

impl TopicScratch {
    /// A fresh workspace with empty (but growable) buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The table intent estimator: wraps a pre-trained [`LdaModel`] and exposes
/// table-level inference.
#[derive(Debug, Clone)]
pub struct TableIntentEstimator {
    model: LdaModel,
}

impl TableIntentEstimator {
    /// Pre-train the estimator on a corpus of tables. Only the cell values
    /// are used (no headers, no labels), mirroring the unsupervised LDA
    /// pre-training of the paper.
    pub fn fit(corpus: &Corpus, config: LdaConfig) -> Self {
        let documents: Vec<String> = corpus.iter().map(Table::as_document).collect();
        let model = LdaModel::fit(&documents, 2, config);
        TableIntentEstimator { model }
    }

    /// Wrap an already trained LDA model.
    pub fn from_model(model: LdaModel) -> Self {
        TableIntentEstimator { model }
    }

    /// Dimensionality of the topic vectors this estimator produces.
    pub fn num_topics(&self) -> usize {
        self.model.num_topics()
    }

    /// Estimate the topic vector of a table (the paper's "table topic
    /// vector"), shared by all of the table's columns.
    ///
    /// This is the **reference path**: it materializes the table as one
    /// document string ([`Table::as_document`]), re-tokenizes it with
    /// per-token `String`s and allocates fresh inference buffers. It is kept
    /// as the parity oracle (and benchmark baseline) for the streaming
    /// [`Self::estimate_with`] path, like `sato_features::reference`.
    pub fn estimate(&self, table: &Table) -> Vec<f32> {
        self.model.infer(&table.as_document())
    }

    /// Estimate topic vectors for every table of a corpus (reference path;
    /// see [`Self::estimate`]).
    pub fn estimate_corpus(&self, corpus: &Corpus) -> Vec<Vec<f32>> {
        corpus.iter().map(|t| self.estimate(t)).collect()
    }

    /// Build a ready-to-run [`TopicSampler`] for this estimator's model
    /// (see [`LdaModel::sampler`]); `SparseAlias` pre-builds the per-word
    /// alias tables once, when training ends or a predictor is loaded.
    pub fn build_sampler(&self, kind: SamplerKind) -> TopicSampler {
        self.model.sampler(kind)
    }

    /// Estimate the topic vector of a table with an explicit sampling
    /// strategy (allocating convenience over [`Self::estimate_cells_into`]).
    /// With [`TopicSampler::Dense`] the output is bit-identical to
    /// [`Self::estimate`].
    pub fn estimate_sampled(&self, table: &Table, sampler: &TopicSampler) -> Vec<f32> {
        let mut out = vec![0.0f32; self.num_topics()];
        self.estimate_cells_into(table, sampler, &mut TopicScratch::new(), &mut out);
        out
    }

    /// Streaming, allocation-lean estimate: walks the table's cell values
    /// directly (no `as_document` mega-string), encodes tokens by `&str`
    /// lookup (no per-token `String`) and runs Gibbs inference with the
    /// given sampling strategy in the caller's scratch. With
    /// [`TopicSampler::Dense`] the output is **bit-identical** to
    /// [`Self::estimate`].
    pub fn estimate_with(
        &self,
        table: &Table,
        sampler: &TopicSampler,
        scratch: &mut TopicScratch,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; self.num_topics()];
        self.estimate_cells_into(table, sampler, scratch, &mut out);
        out
    }

    /// [`Self::estimate_with`] over any [`TableCells`] source, writing into
    /// a caller-provided slice of length [`Self::num_topics`]: a warm call
    /// performs zero heap allocations for either sampler (rare
    /// exact-case-fold fallback aside). The cells of an in-memory [`Table`]
    /// and of a decoded colstore frame visit in the identical column order,
    /// so the two inputs produce bit-identical topic vectors.
    pub fn estimate_cells_into<T: TableCells + ?Sized>(
        &self,
        table: &T,
        sampler: &TopicSampler,
        scratch: &mut TopicScratch,
        out: &mut [f32],
    ) {
        self.encode_cells(table, scratch);
        let TopicScratch { tokens, infer, .. } = scratch;
        let seed = self.model.default_infer_seed();
        self.model
            .infer_tokens_into(tokens, seed, sampler, infer, out);
    }

    /// The first half of [`Self::estimate_cells_into`]: encode the table's
    /// cells into the scratch's token ids and return them. The estimate is
    /// a function of these ids alone (inference runs from a fixed seed), so
    /// they are an exact content key for caching topic vectors.
    ///
    /// The batched engine gets the same ids from its token table, one
    /// [`Self::token_id`] lookup per distinct token of a batch; this
    /// encoder is their parity oracle.
    pub fn encode_cells<'s, T: TableCells + ?Sized>(
        &self,
        table: &T,
        scratch: &'s mut TopicScratch,
    ) -> &'s [usize] {
        let TopicScratch {
            tokens, token_buf, ..
        } = scratch;
        tokens.clear();
        let vocab = self.model.vocabulary();
        table.for_each_cell(|value| vocab.encode_value_into(value, token_buf, tokens));
        tokens
    }

    /// The vocabulary id of a lower-cased token (`None` when the model does
    /// not know it).
    pub fn token_id(&self, token: &str) -> Option<usize> {
        self.model.vocabulary().id(token)
    }

    /// The second half of [`Self::estimate_cells_into`]: Gibbs inference
    /// over a table's token ids (as [`Self::encode_cells`] returns them),
    /// in the scratch's inference buffers.
    pub fn infer_ids_into(
        &self,
        ids: &[usize],
        sampler: &TopicSampler,
        scratch: &mut TopicScratch,
        out: &mut [f32],
    ) {
        let seed = self.model.default_infer_seed();
        self.model
            .infer_tokens_into(ids, seed, sampler, &mut scratch.infer, out);
    }

    /// Estimate topic vectors for every table of a corpus through one shared
    /// scratch — the corpus-batched counterpart of [`Self::estimate_corpus`],
    /// bit-identical to it under [`TopicSampler::Dense`].
    pub fn estimate_corpus_with(
        &self,
        corpus: &Corpus,
        sampler: &TopicSampler,
        scratch: &mut TopicScratch,
    ) -> Vec<Vec<f32>> {
        corpus
            .iter()
            .map(|t| self.estimate_with(t, sampler, scratch))
            .collect()
    }

    /// Borrow the underlying LDA model (for topic interpretation).
    pub fn model(&self) -> &LdaModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::corpus::{default_corpus, figure1_tables};

    fn estimator() -> TableIntentEstimator {
        let corpus = default_corpus(150, 21);
        TableIntentEstimator::fit(&corpus, LdaConfig::tiny())
    }

    #[test]
    fn topic_vectors_are_normalised_probabilities() {
        let est = estimator();
        let corpus = default_corpus(10, 99);
        for theta in est.estimate_corpus(&corpus) {
            assert_eq!(theta.len(), est.num_topics());
            let s: f32 = theta.iter().sum();
            assert!((s - 1.0).abs() < 1e-3);
            assert!(theta.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn every_column_of_a_table_shares_the_topic_vector() {
        // By construction the estimator works per table; this documents the
        // contract used by the topic-aware model.
        let est = estimator();
        let (a, _) = figure1_tables();
        let t1 = est.estimate(&a);
        let t2 = est.estimate(&a);
        assert_eq!(t1, t2);
    }

    #[test]
    fn streaming_estimate_is_bit_identical_to_reference() {
        use sato_tabular::table::{Column, Table};
        let est = estimator();
        let corpus = default_corpus(12, 5);
        let mut scratch = TopicScratch::new();
        assert_eq!(
            est.estimate_corpus(&corpus),
            est.estimate_corpus_with(&corpus, &TopicSampler::Dense, &mut scratch)
        );
        // Edge cases: empty table, one-token table, OOV-only table.
        let edge_tables = [
            Table::unlabelled(900, vec![]),
            Table::unlabelled(901, vec![Column::new(["Warsaw"])]),
            Table::unlabelled(902, vec![Column::new(["zzzzqq", "xxyyzz"])]),
            Table::unlabelled(903, vec![Column::new(["", "  "]), Column::new(["ΟΔΟΣ"])]),
        ];
        for table in &edge_tables {
            assert_eq!(
                est.estimate(table),
                est.estimate_with(table, &TopicSampler::Dense, &mut scratch),
                "streaming estimate diverged on table {}",
                table.id
            );
            assert_eq!(
                est.estimate(table),
                est.estimate_sampled(table, &TopicSampler::Dense),
                "allocating sampled estimate diverged on table {}",
                table.id
            );
        }
    }

    /// The sparse/alias sampler produces valid, deterministic topic
    /// vectors at the estimator level (the serving entry point).
    #[test]
    fn sparse_sampler_estimates_are_valid_and_deterministic() {
        use sato_tabular::table::{Column, Table};
        let est = estimator();
        let sampler = est.build_sampler(SamplerKind::SparseAlias);
        assert_eq!(sampler.kind(), SamplerKind::SparseAlias);
        let mut scratch = TopicScratch::new();
        let corpus = default_corpus(10, 31);
        for table in corpus.iter() {
            let a = est.estimate_with(table, &sampler, &mut scratch);
            let b = est.estimate_with(table, &sampler, &mut scratch);
            assert_eq!(a, b, "sparse estimate not deterministic");
            assert_eq!(a, est.estimate_sampled(table, &sampler));
            let sum: f32 = a.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3);
            assert!(a.iter().all(|&x| x >= 0.0));
        }
        // Empty and OOV-only tables behave exactly like the dense sampler
        // (no tokens → uniform, before any sampling happens).
        let empty = Table::unlabelled(900, vec![]);
        let oov = Table::unlabelled(901, vec![Column::new(["zzzzqq", "xxyyzz"])]);
        for table in [&empty, &oov] {
            assert_eq!(
                est.estimate(table),
                est.estimate_with(table, &sampler, &mut scratch)
            );
        }
    }

    #[test]
    fn different_intents_produce_different_vectors() {
        let est = estimator();
        let (a, b) = figure1_tables();
        let ta = est.estimate(&a);
        let tb = est.estimate(&b);
        let l1: f32 = ta.iter().zip(&tb).map(|(x, y)| (x - y).abs()).sum();
        assert!(
            l1 > 1e-3,
            "biography and city tables got identical topic vectors"
        );
    }
}
