//! # sato-tabular
//!
//! Table data substrate for the Rust reproduction of *Sato: Contextual
//! Semantic Type Detection in Tables* (VLDB 2020).
//!
//! This crate provides everything the models need to know about tables:
//!
//! * the registry of the paper's 78 [`SemanticType`]s ([`types`]),
//! * header canonicalization as described in Section 4.1 ([`canonical`]),
//! * the [`Table`]/[`Column`]/[`Corpus`] data model ([`table`]),
//! * a deterministic synthetic WebTables-style corpus generator that stands
//!   in for the VizNet corpus ([`values`], [`intents`], [`corpus`]),
//! * co-occurrence statistics used for Figure 6 and for initialising the CRF
//!   pairwise potentials ([`cooccurrence`]),
//! * table-level train/test splitting and k-fold cross-validation ([`split`]),
//! * small CSV import/export utilities ([`csv`]),
//! * the one tokenizer every consumer of cell text uses: alphanumeric runs,
//!   lower-cased ([`text`]).
//!
//! ## Quickstart
//!
//! ```
//! use sato_tabular::corpus::default_corpus;
//! use sato_tabular::types::SemanticType;
//!
//! let corpus = default_corpus(100, 42);
//! assert_eq!(corpus.len(), 100);
//! let counts = corpus.type_counts();
//! assert_eq!(counts.len(), SemanticType::ALL.len());
//! ```

#![warn(missing_docs)]

pub mod canonical;
pub mod colstore;
pub mod cooccurrence;
pub mod corpus;
pub mod csv;
pub mod hierarchy;
pub mod intents;
pub mod split;
pub mod table;
pub mod text;
pub mod types;
pub mod values;

pub use colstore::{ColStoreError, ColStoreReader, ColStoreWriter, TableBuf};
pub use cooccurrence::CooccurrenceMatrix;
pub use corpus::{CorpusConfig, CorpusGenerator};
pub use split::{k_fold, train_test_split, Split};
pub use table::{CellSource, Column, Corpus, Table, TableCells};
pub use types::{SemanticType, NUM_TYPES};
