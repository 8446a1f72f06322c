//! # sato
//!
//! A from-scratch Rust reproduction of **Sato: Contextual Semantic Type
//! Detection in Tables** (Zhang et al., VLDB 2020).
//!
//! Sato predicts the semantic type (`city`, `birthPlace`, `sales`, … — 78
//! types in total) of every column of a relational table from the cell
//! values alone. It combines three signals:
//!
//! 1. a **single-column deep model** (Sherlock-style multi-input network over
//!    Char/Word/Para/Stat features) — [`ColumnwiseModel::base`],
//! 2. **global table context** via an LDA *table intent* topic vector fed to
//!    an extra subnetwork — [`ColumnwiseModel::topic_aware`],
//! 3. **local table context** via a linear-chain CRF over the columns of a
//!    table — [`StructuredLayer`].
//!
//! The [`SatoModel`] facade trains and runs the four variants evaluated in
//! the paper (`Base`, `Sato_noStruct`, `Sato_noTopic`, full `Sato`), and
//! [`BertLikeModel`] reproduces the Section 6 "featurisation-free"
//! single-column alternative.
//!
//! ## Train → freeze → serve
//!
//! The API splits the model lifecycle in two, like the write- and
//! read-optimised sides of an HTAP store:
//!
//! * **Training** is mutable: [`SatoModel::train`] (or the
//!   [`ColumnwiseTrainer`] trait for pluggable single-column models) fits
//!   weights, optimiser state and activation caches behind `&mut self`.
//!   Its training rows come out of the batched engine's fill stage, with
//!   the topic vectors the model will serve, and it ends in a
//!   [`FrozenColumnwise`]: the trained model predicts — and produces the
//!   CRF's unary potentials — through the same engine as every frozen
//!   predictor, so the network is served exactly the inputs it trained on.
//! * **Serving** is immutable: a trained model **freezes** into a
//!   [`SatoPredictor`] — via [`SatoModel::into_predictor`] (consuming,
//!   zero-copy) or [`SatoModel::predictor`] (snapshot) — whose entry points
//!   all take `&self`. Training and serving estimate table topics with one
//!   deterministic estimator, the LDA fold-in of `sato_topic::lda`, which
//!   needs no RNG, no seed and no state beyond the frozen model.
//!
//! `SatoPredictor` is `Send + Sync` by construction (no RNG, no caches, no
//! interior mutability), so one frozen artifact can serve any number of
//! threads concurrently, and it round-trips through the `SATOART1`
//! artifact ([`SatoPredictor::to_bytes`] / [`SatoPredictor::from_bytes`],
//! or [`SatoPredictor::save`] / [`SatoPredictor::load`] for files; see
//! [`artifact`]), which reproduces the saved predictions bit for bit.
//!
//! Every entry point runs on **one batched engine**: a single batch former
//! groups tables — a [`Corpus`](sato_tabular::table::Corpus), any table
//! references ([`SatoPredictor::predict_tables_batched`], the `sato-serve`
//! seam) or `SATOCOL1` bytes — into micro-batches of at least `batch_cols`
//! columns, each run in one forward pass and then decoded per table (CRF or
//! argmax) or read out as column embeddings. `predict`, `predict_proba` and
//! `column_embeddings` are batches of one. Batching is exact, so every entry
//! point returns the same bits at any `batch_cols`.
//!
//! ```no_run
//! use sato::{SatoConfig, SatoModel, SatoPredictor, SatoVariant};
//! use sato_tabular::corpus::default_corpus;
//! use sato_tabular::split::train_test_split;
//!
//! // Train (mutable phase) ...
//! let corpus = default_corpus(500, 42);
//! let split = train_test_split(&corpus, 0.2, 0);
//! let model = SatoModel::train(&split.train, SatoConfig::default(), SatoVariant::Full);
//!
//! // ... freeze into an immutable, Send + Sync artifact ...
//! let predictor = model.into_predictor();
//! predictor.save("sato_full.satoart").unwrap();
//!
//! // ... and serve: one table at a time, in column micro-batches, or from
//! // many threads at once — all with the same output.
//! let served = SatoPredictor::load("sato_full.satoart").unwrap();
//! for table in split.test.iter().take(3) {
//!     println!("table {} -> {:?}", table.id, served.predict(table));
//! }
//! let predictions = served.predict_corpus_batched(&split.test, 256);
//! assert_eq!(predictions, served.predict_corpus(&split.test));
//! assert_eq!(
//!     predictions,
//!     served.predict_corpus_parallel_batched(&split.test, 256, 8)
//! );
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod bert_like;
pub mod columnwise;
pub mod config;
pub mod dataset;
pub mod model;
pub mod predictor;
pub mod structured;

pub use artifact::{PredictorError, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use bert_like::{BertLikeConfig, BertLikeModel};
pub use columnwise::{
    types_from_proba, ColumnwiseInference, ColumnwiseModel, ColumnwiseTrainer, FrozenColumnwise,
    ServingScratch, DEFAULT_TOPIC_MEMO_CAPACITY,
};
pub use config::{CrfTrainParams, NetworkConfig, SatoConfig};
pub use dataset::{InputGroup, TableInputs, TrainingData};
pub use model::{SatoModel, SatoVariant, TablePrediction, TrainTimings};
pub use predictor::{ArtifactMeta, SatoPredictor};
pub use structured::{unary_from_proba, StructuredLayer};

// The names the end-to-end benchmark crate gives the topic estimator
// (`SatoPredictor::sampler_kind`, `FrozenColumnwise::sampler`); only it
// still uses them.
pub use sato_topic::{SamplerKind, TopicSampler};
