//! The Sato model facade: the four evaluated variants of the paper
//! (Table 1) behind a single train/predict API.
//!
//! | Variant | Topic-aware (global context) | Structured (local context) |
//! |---|---|---|
//! | `Base` (Sherlock)      | no  | no  |
//! | `SatoNoStruct`         | yes | no  |
//! | `SatoNoTopic`          | no  | yes |
//! | `Full` (Sato)          | yes | yes |

use crate::columnwise::{ColumnwiseModel, FrozenColumnwise};
use crate::config::SatoConfig;
use crate::predictor::SatoPredictor;
use crate::structured::StructuredLayer;
use sato_tabular::table::{Corpus, Table};
use sato_tabular::types::SemanticType;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The model variants evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SatoVariant {
    /// Single-column Sherlock baseline (no table context).
    Base,
    /// Topic-aware prediction only (no CRF), `Sato_noStruct` in the paper.
    SatoNoStruct,
    /// Structured prediction on Base outputs (no topic), `Sato_noTopic`.
    SatoNoTopic,
    /// The full Sato model: topic-aware + structured prediction.
    Full,
}

impl SatoVariant {
    /// All variants, in the row order of Table 1.
    pub const ALL: [SatoVariant; 4] = [
        SatoVariant::Base,
        SatoVariant::Full,
        SatoVariant::SatoNoStruct,
        SatoVariant::SatoNoTopic,
    ];

    /// Whether the variant feeds the table topic vector to the column-wise
    /// network.
    pub fn uses_topic(self) -> bool {
        matches!(self, SatoVariant::SatoNoStruct | SatoVariant::Full)
    }

    /// Whether the variant runs CRF structured prediction.
    pub fn uses_structure(self) -> bool {
        matches!(self, SatoVariant::SatoNoTopic | SatoVariant::Full)
    }

    /// The display name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SatoVariant::Base => "Base",
            SatoVariant::SatoNoStruct => "Sato_noStruct",
            SatoVariant::SatoNoTopic => "Sato_noTopic",
            SatoVariant::Full => "Sato",
        }
    }
}

/// Wall-clock training cost, reported separately for the column-wise model
/// ("Features" in Table 2) and the CRF layer ("Structured").
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TrainTimings {
    /// Seconds spent training the column-wise network (plus the LDA model
    /// for topic-aware variants).
    pub columnwise_secs: f64,
    /// Seconds spent training the CRF layer (0 for unstructured variants).
    pub crf_secs: f64,
}

/// A trained Sato model (one of the four variants): the frozen predictor
/// that training ends in, plus the training cost.
pub struct SatoModel {
    predictor: SatoPredictor,
    timings: TrainTimings,
}

/// Predictions for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TablePrediction {
    /// The table's id.
    pub table_id: u64,
    /// Gold labels, cloned from the table **only when it is fully labelled**
    /// (one label per column).
    ///
    /// *Empty-gold convention*: for unlabelled (or partially labelled)
    /// tables this vector is empty — it does **not** mean the table has zero
    /// columns. Consumers must treat an empty `gold` as "no ground truth
    /// available" and skip the table when computing metrics; `predicted`
    /// always has one entry per column.
    pub gold: Vec<SemanticType>,
    /// Predicted labels, parallel to the table's columns.
    pub predicted: Vec<SemanticType>,
}

impl SatoModel {
    /// Train the requested variant on a labelled corpus.
    pub fn train(corpus: &Corpus, config: SatoConfig, variant: SatoVariant) -> Self {
        let start = Instant::now();
        let mut columnwise = if variant.uses_topic() {
            ColumnwiseModel::topic_aware(config.clone())
        } else {
            ColumnwiseModel::base(config.clone())
        };
        let data = columnwise.fit_rows(corpus);
        let trained = columnwise.into_frozen();
        let columnwise_secs = start.elapsed().as_secs_f64();

        // The CRF unaries are the trained network's probabilities for its
        // own training rows.
        let start = Instant::now();
        let structured = variant
            .uses_structure()
            .then(|| StructuredLayer::fit_from_rows(&trained, data, corpus, &config));
        let crf_secs = structured
            .as_ref()
            .map_or(0.0, |_| start.elapsed().as_secs_f64());

        SatoModel {
            predictor: SatoPredictor::from_parts(variant, config, trained, structured),
            timings: TrainTimings {
                columnwise_secs,
                crf_secs,
            },
        }
    }

    /// The variant this model was trained as.
    pub fn variant(&self) -> SatoVariant {
        self.predictor.variant()
    }

    /// The configuration used for training.
    pub fn config(&self) -> &SatoConfig {
        self.predictor.config()
    }

    /// Wall-clock training cost breakdown (Table 2).
    pub fn timings(&self) -> TrainTimings {
        self.timings
    }

    /// Borrow the trained column-wise model (e.g. for the per-table oracle
    /// of the permutation-importance analysis). All inference entry points
    /// take `&self`; mutable access is deliberately not exposed.
    pub fn columnwise(&self) -> &FrozenColumnwise {
        self.predictor.columnwise()
    }

    /// Borrow the CRF layer, if the variant has one.
    pub fn structured(&self) -> Option<&StructuredLayer> {
        self.predictor.structured()
    }

    /// Per-column probability rows from the column-wise stage (before any
    /// structured decoding).
    pub fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        self.predictor.predict_proba(table)
    }

    /// Predict the semantic type of every column of a table.
    pub fn predict(&self, table: &Table) -> Vec<SemanticType> {
        self.predictor.predict(table)
    }

    /// Column embeddings (the final hidden representation before the output
    /// layer; Section 5.6 / Figure 10), one row per column.
    pub fn column_embeddings(&self, table: &Table) -> Vec<Vec<f32>> {
        self.predictor.column_embeddings(table)
    }

    /// Predict every table of a corpus, pairing predictions with gold labels
    /// (see [`TablePrediction::gold`] for the empty-gold convention).
    pub fn predict_corpus(&self, corpus: &Corpus) -> Vec<TablePrediction> {
        self.predictor.predict_corpus(corpus)
    }

    /// Freeze this trained model into an immutable, `Send + Sync`
    /// [`SatoPredictor`] serving artifact, consuming the model (the weights
    /// are moved, not copied). It predicts exactly as this model does.
    pub fn into_predictor(self) -> SatoPredictor {
        self.predictor
    }

    /// Snapshot this trained model into a [`SatoPredictor`] without
    /// consuming it (weights and running statistics are copied), e.g. to
    /// keep training while a frozen snapshot serves traffic. It predicts
    /// exactly as this model does.
    pub fn predictor(&self) -> SatoPredictor {
        self.predictor.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnwise::ColumnwiseInference;
    use sato_tabular::corpus::default_corpus;
    use sato_tabular::split::train_test_split;

    #[test]
    fn variant_flags_match_the_paper() {
        assert!(!SatoVariant::Base.uses_topic() && !SatoVariant::Base.uses_structure());
        assert!(
            SatoVariant::SatoNoStruct.uses_topic() && !SatoVariant::SatoNoStruct.uses_structure()
        );
        assert!(
            !SatoVariant::SatoNoTopic.uses_topic() && SatoVariant::SatoNoTopic.uses_structure()
        );
        assert!(SatoVariant::Full.uses_topic() && SatoVariant::Full.uses_structure());
        assert_eq!(SatoVariant::Full.name(), "Sato");
        assert_eq!(SatoVariant::ALL.len(), 4);
    }

    #[test]
    fn base_variant_trains_and_predicts() {
        let corpus = default_corpus(50, 2);
        let split = train_test_split(&corpus, 0.2, 1);
        let model = SatoModel::train(&split.train, SatoConfig::fast(), SatoVariant::Base);
        assert_eq!(model.variant(), SatoVariant::Base);
        assert!(model.structured().is_none());
        assert!(model.timings().columnwise_secs > 0.0);
        assert_eq!(model.timings().crf_secs, 0.0);

        let preds = model.predict_corpus(&split.test);
        assert_eq!(preds.len(), split.test.len());
        for (p, t) in preds.iter().zip(split.test.iter()) {
            assert_eq!(p.predicted.len(), t.num_columns());
            assert_eq!(p.gold, t.labels);
        }
    }

    #[test]
    fn full_variant_has_structured_layer_and_crf_timing() {
        let corpus = default_corpus(40, 4);
        let model = SatoModel::train(&corpus, SatoConfig::fast(), SatoVariant::Full);
        assert!(model.structured().is_some());
        assert!(model.timings().crf_secs > 0.0);
        let table = &corpus.tables[0];
        let pred = model.predict(table);
        assert_eq!(pred.len(), table.num_columns());
    }

    #[test]
    fn structured_and_unstructured_predictions_share_columnwise_scores() {
        // For a single-column table the CRF cannot change anything: the MAP
        // label equals the column-wise argmax.
        let corpus = default_corpus(40, 6);
        let model = SatoModel::train(&corpus, SatoConfig::fast(), SatoVariant::SatoNoTopic);
        let singleton = corpus
            .iter()
            .find(|t| t.num_columns() == 1)
            .expect("corpus contains singleton tables");
        let structured = model.predict(singleton);
        let columnwise = model.columnwise().predict_types(singleton);
        assert_eq!(structured, columnwise);
    }

    #[test]
    fn unlabelled_tables_get_empty_gold_without_cloning() {
        use sato_tabular::table::{Column, Table};
        let corpus = default_corpus(40, 8);
        let model = SatoModel::train(&corpus, SatoConfig::fast(), SatoVariant::Base);
        let lake = Corpus::new(vec![
            Table::unlabelled(1, vec![Column::new(["Warsaw", "London"])]),
            corpus.tables[0].clone(),
        ]);
        let preds = model.predict_corpus(&lake);
        assert!(preds[0].gold.is_empty(), "unlabelled table: empty gold");
        assert_eq!(preds[0].predicted.len(), 1, "predictions still per-column");
        assert_eq!(preds[1].gold, corpus.tables[0].labels);
    }

    /// Training is deterministic down to the bit: every variant trained on
    /// a fixed corpus and configuration freezes to the same artifact. A
    /// change to how training rows, CRF unaries or weights are computed
    /// shows up here.
    ///
    /// The variants without topics train nothing the topic estimator
    /// touches, so with `META` naming the Gibbs sampler of an earlier
    /// release their artifacts are byte for byte the ones that release
    /// froze, whose hashes are pinned as `legacy`.
    #[test]
    fn trained_artifact_hashes_are_pinned() {
        use crate::artifact::tests::with_sampler_name;
        let mut config = SatoConfig::fast();
        config.network.epochs = 5;
        config.lda.train_iterations = 15;
        config.crf.epochs = 3;
        let corpus = default_corpus(30, 41);
        for (variant, served, legacy) in [
            (
                SatoVariant::Base,
                0xdfbf34b435d2d82a,
                Some((0x3cefe5e47ef20f82, 0xa7b61d0a8396cca5)),
            ),
            (SatoVariant::Full, 0xdfb36f93bea18bbd, None),
            (SatoVariant::SatoNoStruct, 0x40bfe41cbfd5af2e, None),
            (
                SatoVariant::SatoNoTopic,
                0x82c2a4f3b27a1f82,
                Some((0xe7d141ee9d8c4e15, 0x71100e3a59959e21)),
            ),
        ] {
            let frozen = SatoModel::train(&corpus, config.clone(), variant).into_predictor();
            assert_eq!(frozen.content_hash(), served, "{} served", variant.name());
            if let Some((sparse_alias, dense)) = legacy {
                let bytes = frozen.to_bytes();
                for (name, hash) in [("SparseAlias", sparse_alias), ("Dense", dense)] {
                    let legacy_bytes = with_sampler_name(&bytes, name);
                    assert_eq!(
                        crate::artifact::fnv1a64(&legacy_bytes),
                        hash,
                        "{} as {name}",
                        variant.name()
                    );
                }
            }
        }
    }
}
