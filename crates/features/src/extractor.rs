//! The column feature extractor `Φ`: assembles the four Sherlock feature
//! groups (**Char**, **Word**, **Para**, **Stat**) into per-column feature
//! vectors for whole tables, in the layout the Sato models consume.

use crate::char_dist::{char_features_from_scan, CHAR_FEATURE_DIM};
use crate::para_embed::para_features_from_table;
use crate::scratch::FeatureScratch;
use crate::stats::{stat_features_from_scan, STAT_FEATURE_DIM};
use crate::word_embed::word_features_from_table;
use sato_tabular::table::{CellSource, Column, Table};
use serde::{Deserialize, Serialize};

/// The four Sherlock feature groups (plus, at the model level, the Topic
/// group added by Sato).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureGroup {
    /// Character distribution statistics.
    Char,
    /// Aggregated word embeddings.
    Word,
    /// Paragraph (whole-column) embedding.
    Para,
    /// 27 global column statistics.
    Stat,
}

impl FeatureGroup {
    /// All column-level groups, in the concatenation order used by
    /// [`ColumnFeatures::concatenated`].
    pub const ALL: [FeatureGroup; 4] = [
        FeatureGroup::Char,
        FeatureGroup::Word,
        FeatureGroup::Para,
        FeatureGroup::Stat,
    ];

    /// Lower-case display name (matches the labels in Figure 9).
    pub fn name(self) -> &'static str {
        match self {
            FeatureGroup::Char => "char",
            FeatureGroup::Word => "word",
            FeatureGroup::Para => "par",
            FeatureGroup::Stat => "rest",
        }
    }
}

/// Configuration of the feature extractor (group widths).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Width of the per-token word embedding (the Word group is `2 *
    /// word_dim` wide).
    pub word_dim: usize,
    /// Width of the paragraph embedding.
    pub para_dim: usize,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            word_dim: 50,
            para_dim: 100,
        }
    }
}

impl FeatureConfig {
    /// A smaller configuration for fast unit tests.
    pub fn small() -> Self {
        FeatureConfig {
            word_dim: 16,
            para_dim: 32,
        }
    }
}

/// The extracted features of one column, kept per group so the models can
/// route each group through its own subnetwork and so the permutation
/// importance experiment (Figure 9) can shuffle one group at a time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnFeatures {
    /// Char group.
    pub char: Vec<f32>,
    /// Word group.
    pub word: Vec<f32>,
    /// Para group.
    pub para: Vec<f32>,
    /// Stat group.
    pub stat: Vec<f32>,
}

impl ColumnFeatures {
    /// Borrow a group by tag.
    pub fn group(&self, g: FeatureGroup) -> &[f32] {
        match g {
            FeatureGroup::Char => &self.char,
            FeatureGroup::Word => &self.word,
            FeatureGroup::Para => &self.para,
            FeatureGroup::Stat => &self.stat,
        }
    }

    /// Mutably borrow a group by tag.
    pub fn group_mut(&mut self, g: FeatureGroup) -> &mut Vec<f32> {
        match g {
            FeatureGroup::Char => &mut self.char,
            FeatureGroup::Word => &mut self.word,
            FeatureGroup::Para => &mut self.para,
            FeatureGroup::Stat => &mut self.stat,
        }
    }

    /// Concatenate all groups in [`FeatureGroup::ALL`] order.
    pub fn concatenated(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(
            self.char.len() + self.word.len() + self.para.len() + self.stat.len(),
        );
        out.extend_from_slice(&self.char);
        out.extend_from_slice(&self.word);
        out.extend_from_slice(&self.para);
        out.extend_from_slice(&self.stat);
        out
    }

    /// Total feature dimensionality.
    pub fn total_dim(&self) -> usize {
        self.char.len() + self.word.len() + self.para.len() + self.stat.len()
    }
}

/// The feature extractor `Φ` of the paper's problem formulation.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    config: FeatureConfig,
}

impl FeatureExtractor {
    /// Create an extractor with the given widths.
    pub fn new(config: FeatureConfig) -> Self {
        FeatureExtractor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Width of each group, in [`FeatureGroup::ALL`] order.
    pub fn group_dims(&self) -> Vec<(FeatureGroup, usize)> {
        vec![
            (FeatureGroup::Char, CHAR_FEATURE_DIM),
            (FeatureGroup::Word, 2 * self.config.word_dim),
            (FeatureGroup::Para, self.config.para_dim),
            (FeatureGroup::Stat, STAT_FEATURE_DIM),
        ]
    }

    /// Total per-column feature dimensionality.
    pub fn total_dim(&self) -> usize {
        self.group_dims().iter().map(|(_, d)| d).sum()
    }

    /// Extract the features of one column.
    ///
    /// Allocates a fresh [`FeatureScratch`] per call; loops over many
    /// columns should use [`Self::extract_column_with`] or
    /// [`Self::extract_table_with`] to reuse one.
    pub fn extract_column(&self, column: &Column) -> ColumnFeatures {
        self.extract_column_with(column, &mut FeatureScratch::new())
    }

    /// Extract the features of one column, reusing `scratch` for every
    /// intermediate buffer (one pass over the cells for Char + Stat, one
    /// tokenizer pass for Word + Para).
    pub fn extract_column_with<C: CellSource + ?Sized>(
        &self,
        column: &C,
        scratch: &mut FeatureScratch,
    ) -> ColumnFeatures {
        let mut features = ColumnFeatures {
            char: vec![0.0; CHAR_FEATURE_DIM],
            word: vec![0.0; 2 * self.config.word_dim],
            para: vec![0.0; self.config.para_dim],
            stat: vec![0.0; STAT_FEATURE_DIM],
        };
        self.extract_column_into(
            column,
            scratch,
            &mut features.char,
            &mut features.word,
            &mut features.para,
            &mut features.stat,
        );
        features
    }

    /// Extract all four groups of one column directly into caller-provided
    /// slices (e.g. rows of a pre-allocated batch matrix). Slice lengths
    /// must match [`Self::group_dims`].
    ///
    /// The column is a batch of its own: this is [`Self::begin_batch`]
    /// followed by [`Self::extract_batch_column_into`].
    pub fn extract_column_into<C: CellSource + ?Sized>(
        &self,
        column: &C,
        scratch: &mut FeatureScratch,
        char_out: &mut [f32],
        word_out: &mut [f32],
        para_out: &mut [f32],
        stat_out: &mut [f32],
    ) {
        self.begin_batch(scratch);
        self.extract_batch_column_into(
            column,
            scratch,
            |_| None,
            char_out,
            word_out,
            para_out,
            stat_out,
        );
    }

    /// Start a micro-batch: clear `scratch`'s token table, so the columns
    /// extracted next share one table (each distinct token is hashed once
    /// per batch).
    pub fn begin_batch(&self, scratch: &mut FeatureScratch) {
        scratch.tokens.clear(self.config.word_dim);
    }

    /// Extract one column of the batch begun by [`Self::begin_batch`] — the
    /// zero-copy entry point of the batched serving path. One pass over
    /// the cells feeds Char and Stat, and one tokenizer pass interns the
    /// column's tokens into the token table (looking new tokens' vocabulary
    /// ids up through `vocab_id`) for Word and Para. The column's
    /// vocabulary ids are then readable through
    /// [`FeatureScratch::tokens`].
    ///
    /// Generic over [`CellSource`]: the batched server feeds it in-memory
    /// [`Column`]s and the colstore path feeds it dictionary-encoded pages,
    /// both through the identical cell-visit order (so the two paths stay
    /// bit-for-bit identical).
    #[allow(clippy::too_many_arguments)]
    pub fn extract_batch_column_into<C: CellSource + ?Sized>(
        &self,
        column: &C,
        scratch: &mut FeatureScratch,
        vocab_id: impl FnMut(&str) -> Option<usize>,
        char_out: &mut [f32],
        word_out: &mut [f32],
        para_out: &mut [f32],
        stat_out: &mut [f32],
    ) {
        assert_eq!(para_out.len(), self.config.para_dim, "Para width mismatch");
        scratch.scan(column);
        char_features_from_scan(scratch, char_out);
        stat_features_from_scan(column, scratch, stat_out);
        let tokens = &mut scratch.tokens;
        tokens.intern_column((0..column.num_cells()).map(|i| column.cell(i)), vocab_id);
        word_features_from_table(tokens, word_out);
        para_features_from_table(tokens, para_out);
    }

    /// Extract the features of every column of a table.
    ///
    /// Allocates a fresh [`FeatureScratch`] for the table; corpus loops
    /// should use [`Self::extract_table_with`] to reuse one across tables.
    pub fn extract_table(&self, table: &Table) -> Vec<ColumnFeatures> {
        self.extract_table_with(table, &mut FeatureScratch::new())
    }

    /// Extract the features of every column of a table, reusing `scratch`
    /// across the columns.
    pub fn extract_table_with(
        &self,
        table: &Table,
        scratch: &mut FeatureScratch,
    ) -> Vec<ColumnFeatures> {
        table
            .columns
            .iter()
            .map(|c| self.extract_column_with(c, scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::corpus::default_corpus;

    #[test]
    fn group_dims_sum_to_total() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let dims = ex.group_dims();
        assert_eq!(dims.len(), 4);
        assert_eq!(ex.total_dim(), dims.iter().map(|(_, d)| d).sum::<usize>());
    }

    #[test]
    fn extracted_features_match_declared_dims() {
        let ex = FeatureExtractor::new(FeatureConfig::small());
        let col = Column::new(["Warsaw", "London", "Paris"]);
        let f = ex.extract_column(&col);
        let dims = ex.group_dims();
        assert_eq!(f.char.len(), dims[0].1);
        assert_eq!(f.word.len(), dims[1].1);
        assert_eq!(f.para.len(), dims[2].1);
        assert_eq!(f.stat.len(), dims[3].1);
        assert_eq!(f.total_dim(), ex.total_dim());
        assert_eq!(f.concatenated().len(), ex.total_dim());
    }

    #[test]
    fn extraction_is_deterministic() {
        let ex = FeatureExtractor::new(FeatureConfig::small());
        let col = Column::new(["3.5 MB", "4.0 MB"]);
        assert_eq!(ex.extract_column(&col), ex.extract_column(&col));
    }

    #[test]
    fn group_accessors_round_trip() {
        let ex = FeatureExtractor::new(FeatureConfig::small());
        let mut f = ex.extract_column(&Column::new(["42", "43"]));
        for g in FeatureGroup::ALL {
            assert_eq!(f.group(g).len(), f.group_mut(g).len());
        }
        f.group_mut(FeatureGroup::Stat)[0] = 99.0;
        assert_eq!(f.stat[0], 99.0);
    }

    #[test]
    fn table_extraction_yields_one_vector_per_column() {
        let ex = FeatureExtractor::new(FeatureConfig::small());
        let corpus = default_corpus(5, 1);
        for table in corpus.iter() {
            let feats = ex.extract_table(table);
            assert_eq!(feats.len(), table.num_columns());
        }
    }

    #[test]
    fn all_features_are_finite() {
        let ex = FeatureExtractor::new(FeatureConfig::default());
        let corpus = default_corpus(20, 2);
        for table in corpus.iter() {
            for f in ex.extract_table(table) {
                assert!(f.concatenated().iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn group_names_match_figure9_labels() {
        assert_eq!(FeatureGroup::Char.name(), "char");
        assert_eq!(FeatureGroup::Word.name(), "word");
        assert_eq!(FeatureGroup::Para.name(), "par");
        assert_eq!(FeatureGroup::Stat.name(), "rest");
    }
}
