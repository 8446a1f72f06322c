//! The frozen serving artifact: [`SatoPredictor`], an immutable,
//! `Send + Sync` snapshot of a trained [`SatoModel`](crate::SatoModel).
//!
//! Training and serving have different needs — training mutates (optimiser
//! state, activation caches for backprop, RNG streams), serving must share
//! one set of weights across many threads. `SatoPredictor` is the
//! read-optimised side of that split: it owns the column-wise network
//! weights (with BatchNorm running statistics), the optional CRF layer and
//! the configuration, exposes every prediction entry point by `&self`,
//! round-trips through the `SATOART1` binary artifact (see
//! [`crate::artifact`]), and fans a corpus out over scoped threads with
//! [`SatoPredictor::predict_corpus_parallel_batched`].
//!
//! Every entry point runs on one batched engine behind one batch former
//! (see the [crate docs](crate)).
//!
//! ```no_run
//! use sato::{SatoConfig, SatoModel, SatoVariant};
//! use sato_tabular::corpus::default_corpus;
//!
//! let corpus = default_corpus(200, 42);
//! let model = SatoModel::train(&corpus, SatoConfig::fast(), SatoVariant::Full);
//! let predictor = model.into_predictor(); // frozen, Send + Sync
//! let bytes = predictor.to_bytes(); // deployable SATOART1 artifact
//! let served = sato::SatoPredictor::from_bytes(&bytes).unwrap();
//! assert_eq!(
//!     served.predict(&corpus.tables[0]),
//!     predictor.predict(&corpus.tables[0])
//! );
//! ```

use crate::columnwise::{
    matrix_rows, types_from_rows, ColumnwiseInference, FrozenColumnwise, ServingScratch,
};
use crate::config::SatoConfig;
use crate::model::{SatoVariant, TablePrediction};
use crate::structured::StructuredLayer;
use sato_crf::LinearChainCrf;
use sato_tabular::colstore::{ColStoreError, ColStoreReader, TableBuf};
use sato_tabular::table::{Corpus, Table, TableCells};
use sato_tabular::types::SemanticType;
use sato_topic::SamplerKind;
use std::convert::Infallible;

/// Stable identity of a serving artifact, reported by
/// [`SatoPredictor::artifact_meta`]: what hot-swap observability (the
/// `sato-serve` service, dashboards, response tagging) needs to name *which*
/// artifact served a request without holding the artifact itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// FNV-1a 64 over the artifact's canonical `SATOART1` byte stream (see
    /// [`SatoPredictor::content_hash`]).
    pub content_hash: u64,
    /// The variant the source model was trained as.
    pub variant: SatoVariant,
    /// The serving-time topic estimator: always the fold-in. Only the
    /// benchmark crate still reads it.
    pub sampler: SamplerKind,
    /// Whether the artifact consumes the table topic vector.
    pub uses_topic: bool,
    /// Whether the artifact carries a CRF structured layer.
    pub has_crf: bool,
}

/// An immutable, thread-safe (`Send + Sync`) serving artifact frozen from a
/// trained [`SatoModel`](crate::SatoModel).
///
/// Obtain one with [`SatoModel::into_predictor`](crate::SatoModel::into_predictor)
/// (consuming, zero-copy) or [`SatoModel::predictor`](crate::SatoModel::predictor)
/// (snapshot). Every prediction method takes `&self`, so one predictor can
/// be shared by reference across any number of threads — no locks, no
/// interior mutability, no training-time state.
pub struct SatoPredictor {
    variant: SatoVariant,
    config: SatoConfig,
    columnwise: FrozenColumnwise,
    structured: Option<StructuredLayer>,
    /// FNV-1a 64 over the `SATOART1` byte form, fixed at freeze/load time.
    content_hash: u64,
}

impl SatoPredictor {
    pub(crate) fn from_parts(
        variant: SatoVariant,
        config: SatoConfig,
        columnwise: FrozenColumnwise,
        structured: Option<StructuredLayer>,
    ) -> Self {
        let mut predictor = Self::from_parts_hashed(variant, config, columnwise, structured, 0);
        predictor.content_hash = predictor.canonical_hash();
        predictor
    }

    /// [`Self::from_parts`] with the content hash already computed over the
    /// loaded bytes (the binary-load path, which would otherwise pay a full
    /// re-serialization just to recover the hash of what it just read).
    pub(crate) fn from_parts_hashed(
        variant: SatoVariant,
        config: SatoConfig,
        columnwise: FrozenColumnwise,
        structured: Option<StructuredLayer>,
        content_hash: u64,
    ) -> Self {
        SatoPredictor {
            variant,
            config,
            columnwise,
            structured,
            content_hash,
        }
    }

    /// A copy of this predictor (weights and running statistics copied).
    pub(crate) fn snapshot(&self) -> Self {
        Self::from_parts(
            self.variant,
            self.config.clone(),
            self.columnwise.snapshot(&self.config),
            self.structured.clone(),
        )
    }

    /// The content hash of this predictor's canonical binary form.
    fn canonical_hash(&self) -> u64 {
        crate::artifact::fnv1a64(&self.to_bytes())
    }

    /// FNV-1a 64 over the predictor's `SATOART1` byte stream
    /// ([`Self::to_bytes`]), computed once at freeze/load time.
    ///
    /// The hash is a stable *content* identity: freezing a model and loading
    /// its artifact yield the same hash (the codec is canonical and
    /// round-trip-stable), while any change to the served weights or
    /// serving configuration yields a different one. A loaded artifact
    /// keeps the hash of its bytes, even where `META` names a sampler of an
    /// earlier release. Hot-swap observability is built on it: `sato-serve`
    /// tags every response with the hash of the artifact that served it.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Stable identity snapshot of this artifact (hash, variant, sampler,
    /// layer presence) for hot-swap observability; see [`ArtifactMeta`].
    pub fn artifact_meta(&self) -> ArtifactMeta {
        ArtifactMeta {
            content_hash: self.content_hash,
            variant: self.variant,
            sampler: self.columnwise.sampler_kind(),
            uses_topic: self.columnwise.uses_topic(),
            has_crf: self.structured.is_some(),
        }
    }

    /// The variant the source model was trained as.
    pub fn variant(&self) -> SatoVariant {
        self.variant
    }

    /// The configuration the source model was trained with.
    pub fn config(&self) -> &SatoConfig {
        &self.config
    }

    /// Whether this predictor consumes the table topic vector.
    pub fn uses_topic(&self) -> bool {
        self.columnwise.uses_topic()
    }

    /// The topic estimator this predictor serves: always
    /// [`SamplerKind::FoldIn`]. Only the benchmark crate still names it.
    pub fn sampler_kind(&self) -> SamplerKind {
        self.columnwise.sampler_kind()
    }

    /// The CRF layer, if the frozen variant has one.
    pub fn crf(&self) -> Option<&LinearChainCrf> {
        self.structured.as_ref().map(|s| s.crf())
    }

    /// The structured layer wrapping [`Self::crf`].
    pub(crate) fn structured(&self) -> Option<&StructuredLayer> {
        self.structured.as_ref()
    }

    /// The frozen column-wise inference core.
    pub fn columnwise(&self) -> &FrozenColumnwise {
        &self.columnwise
    }

    /// Width of the column-embedding space (the network's final hidden
    /// dimension) — the `dim` an ANN index over this predictor's
    /// embeddings must be created with.
    pub fn embedding_dim(&self) -> usize {
        self.config.network.hidden_dim
    }

    /// Per-column probability rows from the column-wise stage (before any
    /// structured decoding): a batch of one through the batched engine.
    pub fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        self.columnwise.predict_proba(table)
    }

    /// Predict the semantic type of every column of a table: a batch of one
    /// through the batched engine, decoded with the CRF (or argmax).
    pub fn predict(&self, table: &Table) -> Vec<SemanticType> {
        let mut scratch = ServingScratch::new();
        self.run_batch(&[table], &mut scratch, true);
        let ServingScratch { probs, unary, .. } = &mut scratch;
        self.decode_rows(probs, 0, probs.rows(), unary)
    }

    /// Column embeddings (the final hidden representation before the output
    /// layer; Section 5.6 / Figure 10), one row per column.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        matrix_rows(self.column_embeddings_into(table, &mut ServingScratch::new()))
    }

    /// [`Self::column_embeddings`] through a caller-owned
    /// [`ServingScratch`]: the returned matrix (one row per column,
    /// [`Self::embedding_dim`] wide) borrows the scratch's reusable
    /// embedding buffer, so a warm loop extracts embeddings table after
    /// table with **zero steady-state allocations**. The classification head
    /// never runs.
    pub fn column_embeddings_into<'s>(
        &self,
        table: &Table,
        scratch: &'s mut ServingScratch,
    ) -> &'s sato_nn::Matrix {
        self.run_batch(&[table], scratch, false);
        scratch.embeddings()
    }

    /// Stream the column embeddings of a whole corpus in column
    /// micro-batches (the batch former of every batched entry point, with
    /// the classification head skipped): `on_column` is called once per
    /// column, table after table in corpus order, with the owning table's
    /// id, the column position and the embedding row — the feed an ANN
    /// index build consumes without materializing a `Vec` per column.
    pub fn embed_corpus_batched_with(
        &self,
        corpus: &Corpus,
        batch_cols: usize,
        scratch: &mut ServingScratch,
        mut on_column: impl FnMut(u64, u32, &[f32]),
    ) {
        let Ok(()) = self.form_batches(
            batch_cols,
            corpus.tables.len(),
            scratch,
            false,
            borrowed(&corpus.tables),
            |batch, scratch| {
                let mut row = 0usize;
                for table in batch {
                    for c in 0..table.num_columns() {
                        on_column(table.id, c as u32, scratch.embedding.row(row));
                        row += 1;
                    }
                }
            },
        );
    }

    /// Predict every table of a corpus, one table per micro-batch (see
    /// [`TablePrediction::gold`] for the empty-gold convention).
    pub fn predict_corpus(&self, corpus: &Corpus) -> Vec<TablePrediction> {
        self.predict_corpus_batched(corpus, 1)
    }

    /// Predict every table of a corpus in **column micro-batches** (fresh
    /// scratch); see [`Self::predict_tables_batched`].
    pub fn predict_corpus_batched(
        &self,
        corpus: &Corpus,
        batch_cols: usize,
    ) -> Vec<TablePrediction> {
        self.predict_tables_batched(
            &corpus.tables,
            batch_cols,
            &mut ServingScratch::new(),
            |_, _| {},
        )
    }

    /// Predict `tables` in **column micro-batches**: tables accumulate until
    /// they carry at least `batch_cols` columns (clamped to 1), each batch
    /// runs through the network in one forward pass, and its probability rows
    /// are split back per table for decoding — one [`TablePrediction`] per
    /// table, in order. Every eval-mode stage is row-independent, so the
    /// output is the same bits at any `batch_cols`.
    ///
    /// This is the seam for *external batchers* such as `sato-serve`, which
    /// coalesces tables from different requests: `tables` is any iterator
    /// of table references, a warm `scratch` (optionally with a topic memo)
    /// pays zero steady-state buffer allocations, and `on_batch` sees every
    /// batch after it ran, its column embeddings still in
    /// [`ServingScratch::embeddings`].
    pub fn predict_tables_batched<'a, T: TableCells + ?Sized + 'a>(
        &self,
        tables: impl IntoIterator<Item = &'a T>,
        batch_cols: usize,
        scratch: &mut ServingScratch,
        mut on_batch: impl FnMut(&[&'a T], &ServingScratch),
    ) -> Vec<TablePrediction> {
        let mut out = Vec::new();
        let tables = tables.into_iter();
        // A source with no upper bound (a serve round's `flat_map` over its
        // requests) may fill a whole batch.
        let (_, most) = tables.size_hint();
        let Ok(()) = self.form_batches(
            batch_cols,
            most.unwrap_or(usize::MAX),
            scratch,
            true,
            borrowed(tables),
            |batch, scratch| {
                self.decode_batch(batch, scratch, &mut out);
                on_batch(batch, scratch);
            },
        );
        out
    }

    /// Serve a `SATOCOL1` corpus **straight off its columnar form**: frames
    /// are decoded one at a time into recycled [`TableBuf`]s (the column
    /// pool and string arena warm up once), formed into the same column
    /// micro-batches as [`Self::predict_tables_batched`] and fed to the
    /// network without ever materializing a [`Table`] — so the output is,
    /// bit for bit, what the in-memory path produces on the decoded corpus.
    pub fn predict_colstore_bytes(
        &self,
        bytes: &[u8],
        batch_cols: usize,
    ) -> Result<Vec<TablePrediction>, ColStoreError> {
        let mut reader = ColStoreReader::new(bytes)?;
        let mut out = Vec::new();
        // Every frame takes at least 16 bytes: its length and checksum.
        self.form_batches(
            batch_cols,
            bytes.len() / 16,
            &mut ServingScratch::new(),
            true,
            |pool: &mut Vec<TableBuf>, at| {
                if at == pool.len() {
                    pool.push(TableBuf::new());
                }
                reader.read_into(&mut pool[at])
            },
            |batch, scratch| self.decode_batch(batch, scratch, &mut out),
        )?;
        Ok(out)
    }

    /// Batched prediction sharded over `n_threads` scoped OS threads
    /// sharing `self` by reference: each thread serves a contiguous chunk
    /// of the corpus with [`Self::predict_tables_batched`] and its own
    /// scratch. Output is bit-identical to every other entry point, in
    /// corpus order. `n_threads` is clamped to at least 1.
    pub fn predict_corpus_parallel_batched(
        &self,
        corpus: &Corpus,
        batch_cols: usize,
        n_threads: usize,
    ) -> Vec<TablePrediction> {
        let n_threads = n_threads.max(1);
        let tables = &corpus.tables;
        if n_threads == 1 || tables.len() < 2 {
            return self.predict_corpus_batched(corpus, batch_cols);
        }
        // Contiguous chunks keep the output order: chunk i's results are
        // appended before chunk i+1's.
        let chunk_size = tables.len().div_ceil(n_threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = tables
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || {
                        self.predict_tables_batched(
                            chunk,
                            batch_cols,
                            &mut ServingScratch::new(),
                            |_, _| {},
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("prediction thread panicked"))
                .collect()
        })
    }

    /// The one batch former behind every batched entry point. `next` loads
    /// the next table into `pool[at]` (growing the pool when
    /// `at == pool.len()`) and returns `false` once the source is
    /// exhausted. Tables accumulate until the pending batch carries at
    /// least `batch_cols` columns (clamped to 1), with a final partial
    /// batch; each batch makes one engine call — running the classification
    /// head only for predict sinks (`head`) — and is then handed to `sink`
    /// together with the scratch.
    ///
    /// `max_tables` bounds how many tables the source yields (`usize::MAX`
    /// when unknown). The pool is reserved once, for the most tables a
    /// batch can hold when every table has a column, so a call allocates it
    /// once; a reservation too large to satisfy (a huge `batch_cols` over
    /// an unbounded source) is skipped and the pool grows as tables arrive.
    fn form_batches<S: TableCells, E>(
        &self,
        batch_cols: usize,
        max_tables: usize,
        scratch: &mut ServingScratch,
        head: bool,
        mut next: impl FnMut(&mut Vec<S>, usize) -> Result<bool, E>,
        mut sink: impl FnMut(&[S], &mut ServingScratch),
    ) -> Result<(), E> {
        let batch_cols = batch_cols.max(1);
        let mut flush = |batch: &[S], scratch: &mut ServingScratch| {
            self.run_batch(batch, scratch, head);
            sink(batch, scratch);
        };
        // `pool[..pending]` is the batch being formed; slots past it are
        // spares a decoding source recycles.
        let mut pool = Vec::new();
        let _ = pool.try_reserve(batch_cols.min(max_tables));
        let (mut pending, mut cols) = (0usize, 0usize);
        while next(&mut pool, pending)? {
            cols += pool[pending].cell_columns();
            pending += 1;
            if cols >= batch_cols {
                flush(&pool[..pending], scratch);
                (pending, cols) = (0, 0);
            }
        }
        if pending > 0 {
            flush(&pool[..pending], scratch);
        }
        Ok(())
    }

    /// The engine call: one forward pass over every column of `batch`,
    /// through the classification head only when `head` is set.
    fn run_batch<S: TableCells>(&self, batch: &[S], scratch: &mut ServingScratch, head: bool) {
        // A scratch's topic memo caches *this predictor's* topic vectors; if
        // the scratch last served a different artifact (hot-swap, or a
        // caller sharing one scratch across predictors), its entries are
        // stale and must not be replayed.
        scratch.bind_artifact(self.content_hash);
        self.columnwise.run_batch(batch, scratch, head);
    }

    /// The predict sink: split a batch's probability rows back per table
    /// and decode each one. [`TableCells::gold_labels`] reproduces the
    /// empty-gold convention of [`TablePrediction::gold`] for every source.
    fn decode_batch<S: TableCells>(
        &self,
        batch: &[S],
        scratch: &mut ServingScratch,
        out: &mut Vec<TablePrediction>,
    ) {
        let ServingScratch { probs, unary, .. } = scratch;
        let mut row = 0usize;
        for table in batch {
            let end = row + table.cell_columns();
            out.push(TablePrediction {
                table_id: table.table_id(),
                gold: table.gold_labels().to_vec(),
                predicted: self.decode_rows(probs, row, end, unary),
            });
            row = end;
        }
    }

    /// Decode one table's probability rows `[start, end)`: CRF Viterbi when
    /// the variant has the structured layer, row-wise argmax otherwise.
    fn decode_rows(
        &self,
        probs: &sato_nn::Matrix,
        start: usize,
        end: usize,
        unary: &mut Vec<f64>,
    ) -> Vec<SemanticType> {
        match &self.structured {
            Some(layer) => layer.decode_rows(probs, start, end, unary),
            None => types_from_rows(probs, start, end),
        }
    }
}

/// A batch-former source over borrowed tables (see
/// [`SatoPredictor::form_batches`]).
fn borrowed<'a, T: ?Sized + 'a>(
    tables: impl IntoIterator<Item = &'a T>,
) -> impl FnMut(&mut Vec<&'a T>, usize) -> Result<bool, Infallible> {
    let mut tables = tables.into_iter();
    move |pool, at| {
        pool.truncate(at);
        Ok(tables.next().map(|t| pool.push(t)).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests as artifact_tests;
    use crate::artifact::PredictorError;
    use crate::model::SatoModel;
    use sato_tabular::corpus::default_corpus;

    /// Compile-time proof that the frozen artifact is shareable across
    /// threads; this is part of the public API contract.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SatoPredictor>();
    };

    fn tiny_config() -> SatoConfig {
        let mut config = SatoConfig::fast();
        config.network.epochs = 6;
        config.lda.train_iterations = 20;
        config.crf.epochs = 3;
        config
    }

    /// Batched prediction of a whole corpus through a caller-owned scratch.
    fn batched_with(
        predictor: &SatoPredictor,
        corpus: &Corpus,
        scratch: &mut ServingScratch,
    ) -> Vec<TablePrediction> {
        predictor.predict_tables_batched(&corpus.tables, 64, scratch, |_, _| {})
    }

    #[test]
    fn frozen_predictor_matches_source_model() {
        let corpus = default_corpus(40, 3);
        let model = SatoModel::train(&corpus, tiny_config(), SatoVariant::Full);
        // Both serve the topic estimator the network was trained with.
        let by_snapshot = model.predictor();
        let model_preds: Vec<_> = corpus.iter().take(8).map(|t| model.predict(t)).collect();
        let by_move = model.into_predictor();
        assert_eq!(by_move.sampler_kind(), SamplerKind::FoldIn);
        assert_eq!(by_snapshot.content_hash(), by_move.content_hash());
        for (i, table) in corpus.iter().take(8).enumerate() {
            assert_eq!(by_snapshot.predict(table), model_preds[i]);
            assert_eq!(by_move.predict(table), model_preds[i]);
            assert_eq!(
                by_snapshot.predict_proba(table),
                by_move.predict_proba(table)
            );
        }
        assert_eq!(by_move.variant(), SatoVariant::Full);
        assert!(by_move.crf().is_some());
        assert!(by_move.uses_topic());
    }

    /// Text is not an artifact: under 16 bytes it cannot hold a header,
    /// longer it lacks the magic. A JSON artifact of an earlier release is
    /// such text.
    #[test]
    fn corrupted_artifacts_are_rejected() {
        assert!(matches!(
            SatoPredictor::from_bytes(b"not json at all"),
            Err(PredictorError::Truncated(_))
        ));
        assert!(matches!(
            SatoPredictor::from_bytes(b"{\"format_version\": 1}"),
            Err(PredictorError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = artifact_tests::full_predictor().to_bytes();
        // The `u32` format version follows the 8-byte magic.
        assert_eq!(bytes[8..12], crate::ARTIFACT_VERSION.to_le_bytes());
        bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            SatoPredictor::from_bytes(&bytes),
            Err(PredictorError::UnsupportedVersion(999))
        ));
    }

    /// A frame-valid artifact whose parts disagree must fail at load time,
    /// not panic at predict time.
    #[test]
    fn inconsistent_artifacts_are_rejected_not_panicking() {
        let bytes = artifact_tests::full_predictor().to_bytes();
        // A topic-aware artifact whose `META` disowns its topic input: one
        // more group width than a topic-free model has groups.
        let no_topic = artifact_tests::with_section(&bytes, *b"META", |meta| {
            let meta = std::str::from_utf8(meta).unwrap();
            assert!(meta.contains("\"use_topic\":true"));
            meta.replacen("\"use_topic\":true", "\"use_topic\":false", 1)
                .into_bytes()
        });
        assert!(matches!(
            SatoPredictor::from_bytes(&no_topic),
            Err(PredictorError::Inconsistent(_))
        ));
        // The output head's weight stored transposed: same data length,
        // wrong shape. Its `rows | cols` header follows the `u32` tensor
        // count.
        let transposed = artifact_tests::with_section(&bytes, *b"HEAD", |head| {
            let mut out = head.to_vec();
            assert_ne!(out[4..8], out[8..12], "first head tensor is square");
            out[4..12].rotate_left(4);
            out
        });
        assert!(matches!(
            SatoPredictor::from_bytes(&transposed),
            Err(PredictorError::State(
                sato_nn::LoadError::ShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn batched_prediction_handles_degenerate_corpora() {
        use sato_tabular::table::Column;
        let corpus = default_corpus(20, 12);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        // Zero-column and single-column tables mixed between normal ones.
        let ragged = Corpus::new(vec![
            Table::unlabelled(900, vec![]),
            corpus.tables[0].clone(),
            Table::unlabelled(901, vec![Column::new(["Warsaw", "London"])]),
            Table::unlabelled(902, vec![]),
            corpus.tables[1].clone(),
        ]);
        let sequential = predictor.predict_corpus(&ragged);
        // One warm caller-owned scratch across every batch width.
        let mut scratch = ServingScratch::new();
        for batch_cols in [1, 2, 1000] {
            let warm = predictor.predict_tables_batched(
                &ragged.tables,
                batch_cols,
                &mut scratch,
                |_, _| {},
            );
            assert_eq!(sequential, warm, "warm-scratch batch_cols {batch_cols}");
        }
        // A source with no upper bound (as a serve round's) and a batch
        // width no pool can reserve: one batch, no capacity overflow.
        let unbounded = [&ragged.tables].into_iter().flatten();
        assert_eq!(unbounded.size_hint().1, None);
        let whole =
            predictor.predict_tables_batched(unbounded, usize::MAX, &mut scratch, |_, _| {});
        assert_eq!(sequential, whole);
        assert!(sequential[0].predicted.is_empty());
        assert!(sequential[0].gold.is_empty());
        // An entirely empty corpus also works, on every path.
        let empty = Corpus::new(vec![]);
        assert!(predictor.predict_corpus_batched(&empty, 8).is_empty());
        assert!(predictor
            .predict_colstore_bytes(&sato_tabular::colstore::corpus_to_bytes(&empty), 8)
            .unwrap()
            .is_empty());
        assert!(predictor
            .predict_corpus_parallel_batched(&empty, 8, 4)
            .is_empty());
    }

    #[test]
    fn batched_embeddings_match_per_table_path_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let corpus = default_corpus(20, 9);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        assert_eq!(predictor.embedding_dim(), tiny_config().network.hidden_dim);
        let mut scratch = ServingScratch::new();
        // Per-table into-path parity, twice (cold buffers, then warm).
        for pass in 0..2 {
            for table in corpus.iter().take(8) {
                let reference = predictor.column_embeddings(table);
                let into = predictor.column_embeddings_into(table, &mut scratch);
                assert_eq!(into.rows(), reference.len());
                assert_eq!(into.cols(), predictor.embedding_dim());
                for (r, want) in reference.iter().enumerate() {
                    assert_eq!(
                        bits(into.row(r)),
                        bits(want),
                        "pass {pass} table {} row {r}",
                        table.id
                    );
                }
            }
        }
        // Corpus streaming in micro-batches: identical rows in identical
        // (table, column) order at every batch width, ragged shapes
        // included.
        let ragged = {
            use sato_tabular::table::{Column, Table};
            let mut tables = vec![
                Table::unlabelled(900, vec![]),
                Table::unlabelled(901, vec![Column::new(["Warsaw", "London"])]),
            ];
            tables.extend(corpus.tables.iter().cloned());
            Corpus::new(tables)
        };
        let reference: Vec<(u64, u32, Vec<f32>)> = ragged
            .iter()
            .flat_map(|t| {
                predictor
                    .column_embeddings(t)
                    .into_iter()
                    .enumerate()
                    .map(|(c, e)| (t.id, c as u32, e))
                    .collect::<Vec<_>>()
            })
            .collect();
        for batch_cols in [1, 7, 64, 100_000] {
            let mut streamed = Vec::new();
            predictor.embed_corpus_batched_with(&ragged, batch_cols, &mut scratch, |id, c, row| {
                streamed.push((id, c, row.to_vec()));
            });
            assert_eq!(streamed.len(), reference.len(), "batch_cols {batch_cols}");
            for (got, want) in streamed.iter().zip(&reference) {
                assert_eq!(
                    (got.0, got.1),
                    (want.0, want.1),
                    "batch_cols {batch_cols} column identity"
                );
                assert_eq!(bits(&got.2), bits(&want.2), "batch_cols {batch_cols}");
            }
        }
        // A zero-column table yields a 0-row matrix (and stays well-defined).
        let none = Table::unlabelled(902, vec![]);
        assert_eq!(
            predictor.column_embeddings_into(&none, &mut scratch).rows(),
            0
        );
    }

    #[test]
    fn topic_memo_preserves_batched_parity_across_repeated_serves() {
        let corpus = default_corpus(20, 8);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let sequential = predictor.predict_corpus(&corpus);
        let mut scratch = ServingScratch::new().with_topic_memo();
        assert_eq!(scratch.topic_memo_len(), 0);
        assert_eq!(
            scratch.topic_memo_capacity(),
            crate::columnwise::DEFAULT_TOPIC_MEMO_CAPACITY
        );
        // First serve fills the memo, later serves hit it — output must stay
        // bit-identical to batches of one every time.
        for pass in 0..3 {
            assert_eq!(
                sequential,
                batched_with(&predictor, &corpus, &mut scratch),
                "memoised serve diverged on pass {pass}"
            );
        }
        assert_eq!(scratch.topic_memo_len(), corpus.len());
    }

    /// The topic memo is bounded: with capacity `c`, serving any number of
    /// distinct tables keeps at most `c` entries (oldest-inserted tables
    /// evicted first), and eviction never affects correctness — an evicted
    /// table is simply re-estimated on its next serve.
    #[test]
    fn topic_memo_capacity_bounds_growth_and_evicts_oldest() {
        let corpus = default_corpus(12, 8);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let sequential = predictor.predict_corpus(&corpus);
        let mut scratch = ServingScratch::new().with_topic_memo_capacity(3);
        assert_eq!(scratch.topic_memo_capacity(), 3);
        for pass in 0..3 {
            assert_eq!(
                sequential,
                batched_with(&predictor, &corpus, &mut scratch),
                "bounded-memo serve diverged on pass {pass}"
            );
            assert_eq!(
                scratch.topic_memo_len(),
                3,
                "memo exceeded its capacity on pass {pass}"
            );
        }
        // Capacity clamps to at least one entry.
        let mut tiny = ServingScratch::new().with_topic_memo_capacity(0);
        assert_eq!(tiny.topic_memo_capacity(), 1);
        assert_eq!(sequential, batched_with(&predictor, &corpus, &mut tiny));
        assert_eq!(tiny.topic_memo_len(), 1);
    }

    /// The memo is keyed by table content, not table id: two different
    /// tables sent under one id must each get their own topic vector, so
    /// their types match the trained model and their embeddings the
    /// per-table oracle.
    #[test]
    fn topic_memo_is_keyed_by_content_not_table_id() {
        let corpus = default_corpus(20, 8);
        let model = SatoModel::train(&corpus, tiny_config(), SatoVariant::Full);
        let predictor = model.predictor();
        let reused_id = |t: &Table| Table { id: 7, ..t.clone() };
        let pair = [reused_id(&corpus.tables[0]), reused_id(&corpus.tables[1])];
        let mut scratch = ServingScratch::new().with_topic_memo();
        for pass in 0..2 {
            let mut embeddings = Vec::new();
            let served = predictor.predict_tables_batched(&pair, 1, &mut scratch, |_, s| {
                embeddings.push(matrix_rows(s.embeddings()))
            });
            for ((got, rows), table) in served.iter().zip(&embeddings).zip(&pair) {
                assert_eq!(got.predicted, model.predict(table), "pass {pass}");
                let oracle = model.columnwise();
                let want = oracle.column_embeddings_from_inputs(&oracle.extract_inputs(table));
                assert_eq!(*rows, want, "pass {pass}");
            }
        }
        assert_eq!(scratch.topic_memo_len(), 2);
    }

    /// The content hash is a stable identity — freezing and the artifact
    /// round trip agree — and it tracks the artifact's content
    /// (differently-trained weights hash differently).
    #[test]
    fn content_hash_is_consistent_across_load_paths_and_tracks_content() {
        let corpus = default_corpus(30, 6);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let frozen_hash = predictor.content_hash();
        let loaded = SatoPredictor::from_bytes(&predictor.to_bytes()).unwrap();
        assert_eq!(frozen_hash, loaded.content_hash());
        // The meta snapshot carries the same identity.
        let meta = predictor.artifact_meta();
        assert_eq!(meta.content_hash, frozen_hash);
        assert_eq!(meta.variant, SatoVariant::Full);
        assert_eq!(meta.sampler, SamplerKind::FoldIn);
        assert!(meta.uses_topic);
        assert!(meta.has_crf);
        assert_eq!(meta, loaded.artifact_meta());
        // Differently-trained weights hash differently.
        let other = SatoModel::train(&corpus, tiny_config(), SatoVariant::Base).into_predictor();
        assert_ne!(other.content_hash(), frozen_hash);
    }

    /// Satellite regression: the topic memo must not survive an artifact
    /// swap. One warm scratch serves predictor A (filling the memo), then
    /// serves the same table ids through predictor B — B's output must be
    /// B's fresh predictions, not A's cached topic vectors replayed into
    /// B's network.
    #[test]
    fn topic_memo_is_invalidated_across_artifact_swap() {
        let corpus = default_corpus(18, 8);
        let a = SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let b = {
            let mut config = tiny_config();
            config.seed = 777; // different weights AND a different topic model
            SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor()
        };
        assert_ne!(a.content_hash(), b.content_hash());
        let mut scratch = ServingScratch::new().with_topic_memo();
        let served_a = batched_with(&a, &corpus, &mut scratch);
        assert_eq!(served_a, a.predict_corpus(&corpus));
        assert_eq!(scratch.topic_memo_len(), corpus.len());
        // Swap: serving even one table through B must clear A's cached
        // entries first — the memo ends up holding exactly B's one entry,
        // not A's entries plus one.
        let first = Corpus::new(vec![corpus.tables[0].clone()]);
        assert_eq!(
            batched_with(&b, &first, &mut scratch),
            b.predict_corpus(&first)
        );
        assert_eq!(
            scratch.topic_memo_len(),
            1,
            "memo entries from the old artifact survived the swap"
        );
        // The full corpus under B is B's fresh predictions, end to end.
        assert_eq!(
            batched_with(&b, &corpus, &mut scratch),
            b.predict_corpus(&corpus)
        );
        // Swapping back re-estimates under A again (the memo was rebound).
        assert_eq!(batched_with(&a, &corpus, &mut scratch), served_a);
        assert_eq!(scratch.topic_memo_len(), corpus.len());
    }

    #[test]
    fn parallel_prediction_matches_sequential_exactly() {
        let corpus = default_corpus(30, 7);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        let sequential = predictor.predict_corpus(&corpus);
        // 64 threads: more threads than tables must also work.
        for n_threads in [1, 2, 3, 8, 64] {
            let parallel = predictor.predict_corpus_parallel_batched(&corpus, 16, n_threads);
            assert_eq!(sequential, parallel, "n_threads={n_threads}");
        }
    }

    /// Every predictor serves the fold-in, the kind the legacy
    /// `SparseAlias` default now names, and a loaded artifact says so and
    /// predicts like the saved one.
    #[test]
    fn sampler_kind_round_trips_and_defaults_to_sparse_alias() {
        let corpus = default_corpus(30, 6);
        let predictor =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full).into_predictor();
        assert_eq!(predictor.sampler_kind(), SamplerKind::FoldIn);
        assert_eq!(predictor.sampler_kind(), SamplerKind::SparseAlias);
        let loaded = SatoPredictor::from_bytes(&predictor.to_bytes()).unwrap();
        assert_eq!(loaded.sampler_kind(), SamplerKind::FoldIn);
        for table in corpus.iter().take(5) {
            assert_eq!(predictor.predict(table), loaded.predict(table));
        }
    }
}
