//! # sato-features
//!
//! Sherlock-style column feature extraction for the Sato reproduction: the
//! four per-column feature groups the paper's single-column model consumes —
//! character distributions (**Char**), aggregated word embeddings (**Word**),
//! paragraph embeddings (**Para**) and 27 global statistics (**Stat**).
//!
//! The pre-trained GloVe/doc2vec artefacts used by the original Sherlock are
//! replaced with deterministic hashed character-n-gram embeddings (see the
//! module docs of [`hashing`] and DESIGN.md §2 for the substitution
//! rationale).
//!
//! ```
//! use sato_features::{FeatureConfig, FeatureExtractor};
//! use sato_tabular::table::Column;
//!
//! let extractor = FeatureExtractor::new(FeatureConfig::default());
//! let column = Column::new(["Florence", "Warsaw", "London"]);
//! let features = extractor.extract_column(&column);
//! assert_eq!(features.total_dim(), extractor.total_dim());
//! ```

#![warn(missing_docs)]

pub mod char_dist;
pub mod extractor;
pub mod hashing;
pub mod para_embed;
pub mod reference;
pub mod scratch;
pub mod stats;
pub mod tokens;
pub mod word_embed;

pub use extractor::{ColumnFeatures, FeatureConfig, FeatureExtractor, FeatureGroup};
pub use scratch::FeatureScratch;
pub use tokens::TokenTable;
