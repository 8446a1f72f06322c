//! Conversion of labelled table corpora into the per-group feature matrices
//! the column-wise networks train on.
//!
//! Every *column* of every table is one training row. The rows of a table
//! share that table's topic vector (the global context of Section 3.2), and
//! the `table_of_row` index lets table-level consumers (the CRF layer,
//! permutation-importance analysis) recover which rows belong together.

use crate::columnwise::{fill_batch_groups, ServingScratch};
use sato_features::{ColumnFeatures, FeatureExtractor, FeatureGroup};
use sato_nn::Matrix;
use sato_tabular::table::{Corpus, Table};
use sato_topic::TableIntentEstimator;

/// The input groups of the column-wise network, in branch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputGroup {
    /// A Sherlock feature group.
    Feature(FeatureGroup),
    /// The Sato table-topic vector.
    Topic,
}

impl InputGroup {
    /// Branch order used by the column-wise networks: Char, Word, Para, Stat
    /// and (for topic-aware models) Topic last.
    pub fn order(include_topic: bool) -> Vec<InputGroup> {
        let mut order: Vec<InputGroup> = FeatureGroup::ALL
            .iter()
            .map(|g| InputGroup::Feature(*g))
            .collect();
        if include_topic {
            order.push(InputGroup::Topic);
        }
        order
    }

    /// Display name (Figure 9 labels: word/char/par/rest/topic).
    pub fn name(self) -> &'static str {
        match self {
            InputGroup::Feature(g) => g.name(),
            InputGroup::Topic => "topic",
        }
    }
}

/// The extracted inputs of a single table: per-column Sherlock features plus
/// the (optional) shared table topic vector.
#[derive(Debug, Clone)]
pub struct TableInputs {
    /// Per-column feature groups.
    pub columns: Vec<ColumnFeatures>,
    /// Shared topic vector (present for topic-aware models).
    pub topic: Option<Vec<f32>>,
}

impl TableInputs {
    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Build the per-group input matrices for these columns, in
    /// [`InputGroup::order`] order.
    pub fn to_matrices(&self, include_topic: bool) -> Vec<Matrix> {
        let rows = self.columns.len();
        let mut out = Vec::new();
        for group in FeatureGroup::ALL {
            let width = self.columns.first().map_or(0, |c| c.group(group).len());
            let mut m = Matrix::zeros(rows, width);
            for (r, col) in self.columns.iter().enumerate() {
                m.row_mut(r).copy_from_slice(col.group(group));
            }
            out.push(m);
        }
        if include_topic {
            let topic = self
                .topic
                .as_ref()
                .expect("topic vector required for a topic-aware model");
            let mut m = Matrix::zeros(rows, topic.len());
            for r in 0..rows {
                m.row_mut(r).copy_from_slice(topic);
            }
            out.push(m);
        }
        out
    }
}

/// Per-feature standardisation (zero mean, unit variance) fitted on training
/// data and re-applied at prediction time.
///
/// Sherlock standardises its features before training; without it the
/// unbounded Stat features (sales figures in the millions, ISBN-scale
/// numbers) dominate the network inputs and stall optimisation.
#[derive(Debug, Clone)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fit a standardizer to the columns of a matrix.
    pub fn fit(data: &Matrix) -> Self {
        let rows = data.rows().max(1) as f32;
        let cols = data.cols();
        let mut mean = vec![0.0f32; cols];
        let mut std = vec![0.0f32; cols];
        for r in 0..data.rows() {
            for (c, &v) in data.row(r).iter().enumerate() {
                mean[c] += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= rows);
        for r in 0..data.rows() {
            for (c, &v) in data.row(r).iter().enumerate() {
                let d = v - mean[c];
                std[c] += d * d;
            }
        }
        for s in std.iter_mut() {
            *s = (*s / rows).sqrt();
            if *s < 1e-6 {
                *s = 1.0; // constant feature: leave it centred but unscaled
            }
        }
        Standardizer { mean, std }
    }

    /// Standardise a matrix (column count must match the fitted data).
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let mut out = data.clone();
        self.transform_in_place(&mut out);
        out
    }

    /// Standardise a matrix in place — the allocation-free counterpart of
    /// [`Self::transform`], used by the batched serving path on matrices it
    /// built itself.
    pub fn transform_in_place(&self, data: &mut Matrix) {
        assert_eq!(data.cols(), self.mean.len(), "feature width mismatch");
        for r in 0..data.rows() {
            let row = data.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v = (*v - self.mean[c]) / self.std[c];
            }
        }
    }

    /// The fitted per-feature moments as `(mean, std)` slices of equal
    /// length (the feature width), in feature order — the flat buffers the
    /// binary artifact serializes directly.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.mean, &self.std)
    }

    /// Rebuild a standardizer from stored moments. Returns `None` when the
    /// vectors disagree in length or any standard deviation is not a finite
    /// positive number (which would produce NaN/Inf features at transform
    /// time) — loaders turn that into an error instead of panicking later.
    pub fn from_moments(mean: Vec<f32>, std: Vec<f32>) -> Option<Self> {
        if mean.len() != std.len() {
            return None;
        }
        if mean.iter().any(|m| !m.is_finite()) {
            return None;
        }
        if std.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return None;
        }
        Some(Standardizer { mean, std })
    }

    /// Fit one standardizer per input-group matrix.
    pub fn fit_groups(groups: &[Matrix]) -> Vec<Standardizer> {
        groups.iter().map(Standardizer::fit).collect()
    }

    /// Transform each group in place with its own standardizer — the step
    /// after the fill stage on the training and the serving side alike.
    pub fn transform_groups_in_place(scalers: &[Standardizer], groups: &mut [Matrix]) {
        assert_eq!(scalers.len(), groups.len(), "one scaler per group required");
        for (scaler, group) in scalers.iter().zip(groups) {
            scaler.transform_in_place(group);
        }
    }
}

/// A full training set: one row per labelled column across the corpus.
#[derive(Debug, Clone)]
pub struct TrainingData {
    /// One matrix per input group (in [`InputGroup::order`] order), each with
    /// one row per column.
    pub groups: Vec<Matrix>,
    /// Class index (semantic type) of every row.
    pub labels: Vec<usize>,
    /// Index of the table every row came from.
    pub table_of_row: Vec<usize>,
    /// Whether the last group is the topic vector.
    pub has_topic: bool,
}

impl TrainingData {
    /// Build training data from a labelled corpus: the labelled tables run
    /// through the batched engine's fill stage in one batch. When `topic`
    /// names an estimator, its topic vectors are that estimator's fold-in,
    /// which the trained model then serves, so the network trains on the
    /// topic inputs it is served. The rows are not standardized.
    pub fn build(
        corpus: &Corpus,
        extractor: &FeatureExtractor,
        topic: Option<&TableIntentEstimator>,
    ) -> Self {
        let (table_ids, tables): (Vec<usize>, Vec<&Table>) = corpus
            .iter()
            .enumerate()
            .filter(|(_, table)| table.is_labelled())
            .unzip();
        let mut widths: Vec<usize> = extractor.group_dims().iter().map(|&(_, w)| w).collect();
        widths.extend(topic.map(TableIntentEstimator::num_topics));
        let mut scratch = ServingScratch::new();
        fill_batch_groups(extractor, topic, &widths, &tables, &mut scratch);
        let mut labels = Vec::new();
        let mut table_of_row = Vec::new();
        for (&t_idx, table) in table_ids.iter().zip(&tables) {
            for label in &table.labels {
                labels.push(label.index());
                table_of_row.push(t_idx);
            }
        }
        TrainingData {
            groups: scratch.groups,
            labels,
            table_of_row,
            has_topic: topic.is_some(),
        }
    }

    /// Number of training rows (columns).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the training set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Width of every input group.
    pub fn group_widths(&self) -> Vec<usize> {
        self.groups.iter().map(Matrix::cols).collect()
    }

    /// Gather a mini-batch of rows.
    pub fn batch(&self, indices: &[usize]) -> (Vec<Matrix>, Vec<usize>) {
        let groups = self.groups.iter().map(|g| g.select_rows(indices)).collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (groups, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_features::FeatureConfig;
    use sato_tabular::corpus::default_corpus;
    use sato_topic::LdaConfig;

    fn small_setup() -> (Corpus, FeatureExtractor, TableIntentEstimator) {
        let corpus = default_corpus(40, 3);
        let extractor = FeatureExtractor::new(FeatureConfig::small());
        let intent = TableIntentEstimator::fit(&corpus, LdaConfig::tiny());
        (corpus, extractor, intent)
    }

    #[test]
    fn input_group_order_with_and_without_topic() {
        assert_eq!(InputGroup::order(false).len(), 4);
        let with = InputGroup::order(true);
        assert_eq!(with.len(), 5);
        assert_eq!(with.last().unwrap().name(), "topic");
    }

    #[test]
    fn table_inputs_have_one_feature_set_per_column() {
        let (corpus, extractor, intent) = small_setup();
        let table = &corpus.tables[0];
        let inputs = TableInputs {
            columns: extractor.extract_table(table),
            topic: Some(intent.estimate(table)),
        };
        assert_eq!(inputs.num_columns(), table.num_columns());
        assert!(inputs.topic.is_some());
        let matrices = inputs.to_matrices(true);
        assert_eq!(matrices.len(), 5);
        assert!(matrices.iter().all(|m| m.rows() == table.num_columns()));
    }

    #[test]
    #[should_panic(expected = "topic vector required")]
    fn topic_matrices_require_topic_vector() {
        let (corpus, extractor, _) = small_setup();
        let inputs = TableInputs {
            columns: extractor.extract_table(&corpus.tables[0]),
            topic: None,
        };
        inputs.to_matrices(true);
    }

    #[test]
    fn training_data_row_count_equals_labelled_columns() {
        let (corpus, extractor, intent) = small_setup();
        let data = TrainingData::build(&corpus, &extractor, Some(&intent));
        assert_eq!(data.len(), corpus.num_columns());
        assert_eq!(data.groups.len(), 5);
        assert!(data.has_topic);
        assert!(data.groups.iter().all(|g| g.rows() == data.len()));
        assert_eq!(data.table_of_row.len(), data.len());
    }

    #[test]
    fn training_data_without_topic_has_four_groups() {
        let (corpus, extractor, _) = small_setup();
        let data = TrainingData::build(&corpus, &extractor, None);
        assert_eq!(data.groups.len(), 4);
        assert!(!data.has_topic);
    }

    #[test]
    fn rows_of_one_table_share_their_topic_vector() {
        let (corpus, extractor, intent) = small_setup();
        let data = TrainingData::build(&corpus, &extractor, Some(&intent));
        let topic_matrix = data.groups.last().unwrap();
        // Find a table with more than one column and compare its rows.
        let mut by_table: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for (row, &t) in data.table_of_row.iter().enumerate() {
            by_table.entry(t).or_default().push(row);
        }
        let multi = by_table.values().find(|rows| rows.len() > 1).unwrap();
        let first = topic_matrix.row(multi[0]).to_vec();
        for &r in &multi[1..] {
            assert_eq!(topic_matrix.row(r), &first[..]);
        }
    }

    #[test]
    fn standardizer_centres_and_scales() {
        let data = Matrix::from_rows(&[vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]]);
        let scaler = Standardizer::fit(&data);
        let t = scaler.transform(&data);
        for c in 0..2 {
            let mean: f32 = (0..3).map(|r| t.get(r, c)).sum::<f32>() / 3.0;
            let var: f32 = (0..3).map(|r| (t.get(r, c) - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn standardizer_leaves_constant_features_finite() {
        let data = Matrix::from_rows(&[vec![7.0], vec![7.0]]);
        let scaler = Standardizer::fit(&data);
        let t = scaler.transform(&data);
        assert!(t.data().iter().all(|x| x.is_finite()));
        assert!(t.data().iter().all(|&x| x.abs() < 1e-5));
    }

    #[test]
    fn group_standardisation_round_trip() {
        let (corpus, extractor, _) = small_setup();
        let data = TrainingData::build(&corpus, &extractor, None);
        let scalers = Standardizer::fit_groups(&data.groups);
        let mut transformed = data.groups.clone();
        Standardizer::transform_groups_in_place(&scalers, &mut transformed);
        assert_eq!(transformed.len(), data.groups.len());
        for (t, g) in transformed.iter().zip(&data.groups) {
            assert_eq!(t.shape(), g.shape());
            assert!(t.data().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn batch_selects_requested_rows() {
        let (corpus, extractor, _) = small_setup();
        let data = TrainingData::build(&corpus, &extractor, None);
        let (groups, labels) = data.batch(&[0, 2, 5]);
        assert_eq!(labels.len(), 3);
        assert!(groups.iter().all(|g| g.rows() == 3));
        assert_eq!(labels[0], data.labels[0]);
        assert_eq!(labels[2], data.labels[5]);
        assert_eq!(groups[0].row(1), data.groups[0].row(2));
    }
}
