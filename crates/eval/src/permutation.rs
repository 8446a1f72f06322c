//! Permutation feature importance (Section 5.4 / Figure 9).
//!
//! For a fitted model and a specific feature group, the input tables are
//! "shuffled" by swapping that group's features with those of randomly
//! selected columns from other tables. The resulting drop in macro / weighted
//! F1, averaged over several random trials, is the group's importance score.

use crate::metrics::Evaluation;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sato::dataset::TableInputs;
use sato::{types_from_proba, InputGroup, SatoModel};
use sato_features::FeatureGroup;
use sato_tabular::table::{Corpus, TableCells};
use sato_tabular::types::SemanticType;
use serde::{Deserialize, Serialize};

/// Importance of one input group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupImportance {
    /// Display name of the group ("char", "word", "par", "rest", "topic").
    pub group: String,
    /// Drop in macro-average F1 caused by permuting the group (mean over trials).
    pub macro_f1_drop: f64,
    /// Drop in support-weighted F1 caused by permuting the group.
    pub weighted_f1_drop: f64,
}

/// The full permutation-importance analysis of one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImportanceReport {
    /// Baseline (unpermuted) evaluation.
    pub baseline_macro_f1: f64,
    /// Baseline support-weighted F1.
    pub baseline_weighted_f1: f64,
    /// One entry per input group, in [`InputGroup::order`] order.
    pub groups: Vec<GroupImportance>,
}

/// Evaluate the model on pre-extracted inputs, optionally permuting one group.
fn evaluate_with_inputs(
    model: &SatoModel,
    inputs: &[TableInputs],
    gold: &[Vec<SemanticType>],
) -> Evaluation {
    let mut gold_flat = Vec::new();
    let mut pred_flat = Vec::new();
    for (table_inputs, gold_labels) in inputs.iter().zip(gold) {
        let proba = model.columnwise().predict_proba_from_inputs(table_inputs);
        let pred: Vec<SemanticType> = match model.structured() {
            Some(layer) => layer.decode_proba(&proba),
            None => types_from_proba(&proba),
        };
        gold_flat.extend_from_slice(gold_labels);
        pred_flat.extend(pred);
    }
    Evaluation::from_pairs(&gold_flat, &pred_flat)
}

/// Permute one group across all columns of all tables (in place on a copy).
fn permute_group(inputs: &[TableInputs], group: InputGroup, rng: &mut StdRng) -> Vec<TableInputs> {
    let mut permuted = inputs.to_vec();
    match group {
        InputGroup::Feature(g) => {
            // Collect every column's group vector, shuffle, and write back.
            let mut pool: Vec<Vec<f32>> = permuted
                .iter()
                .flat_map(|t| t.columns.iter().map(|c| c.group(g).to_vec()))
                .collect();
            pool.shuffle(rng);
            let mut cursor = 0usize;
            for table in &mut permuted {
                for col in &mut table.columns {
                    *col.group_mut(g) = pool[cursor].clone();
                    cursor += 1;
                }
            }
        }
        InputGroup::Topic => {
            let mut pool: Vec<Option<Vec<f32>>> =
                permuted.iter().map(|t| t.topic.clone()).collect();
            pool.shuffle(rng);
            for (table, topic) in permuted.iter_mut().zip(pool) {
                table.topic = topic;
            }
        }
    }
    permuted
}

/// Run the permutation-importance analysis of a trained model on a test
/// corpus with `trials` random shuffles per group. Tables without gold
/// labels are skipped (the empty-gold convention of
/// [`TablePrediction::gold`](sato::TablePrediction::gold)).
pub fn permutation_importance(
    model: &SatoModel,
    test: &Corpus,
    trials: usize,
    seed: u64,
) -> ImportanceReport {
    let uses_topic = model.columnwise().uses_topic();
    let (inputs, gold): (Vec<TableInputs>, Vec<Vec<SemanticType>>) = test
        .iter()
        .filter(|t| !t.gold_labels().is_empty())
        .map(|t| (model.columnwise().extract_inputs(t), t.labels.clone()))
        .unzip();

    let baseline = evaluate_with_inputs(model, &inputs, &gold);
    let groups = InputGroup::order(uses_topic)
        .into_iter()
        .map(|group| {
            let mut macro_drops = Vec::with_capacity(trials);
            let mut weighted_drops = Vec::with_capacity(trials);
            for trial in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed ^ (trial as u64) << 8 ^ hash_group(group));
                let permuted = permute_group(&inputs, group, &mut rng);
                let eval = evaluate_with_inputs(model, &permuted, &gold);
                macro_drops.push((baseline.macro_f1 - eval.macro_f1).max(0.0));
                weighted_drops.push((baseline.weighted_f1 - eval.weighted_f1).max(0.0));
            }
            GroupImportance {
                group: group.name().to_string(),
                macro_f1_drop: mean(&macro_drops),
                weighted_f1_drop: mean(&weighted_drops),
            }
        })
        .collect();

    ImportanceReport {
        baseline_macro_f1: baseline.macro_f1,
        baseline_weighted_f1: baseline.weighted_f1,
        groups,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn hash_group(group: InputGroup) -> u64 {
    match group {
        InputGroup::Feature(FeatureGroup::Char) => 1,
        InputGroup::Feature(FeatureGroup::Word) => 2,
        InputGroup::Feature(FeatureGroup::Para) => 3,
        InputGroup::Feature(FeatureGroup::Stat) => 4,
        InputGroup::Topic => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato::{SatoConfig, SatoVariant};
    use sato_tabular::corpus::default_corpus;
    use sato_tabular::split::train_test_split;

    #[test]
    fn importance_report_covers_all_groups() {
        let corpus = default_corpus(60, 23);
        let split = train_test_split(&corpus, 0.3, 1);
        let model = SatoModel::train(&split.train, SatoConfig::fast(), SatoVariant::Base);
        let report = permutation_importance(&model, &split.test, 2, 9);
        assert_eq!(report.groups.len(), 4);
        assert!(report.baseline_weighted_f1 > 0.0);
        for g in &report.groups {
            assert!(g.macro_f1_drop >= 0.0);
            assert!(g.weighted_f1_drop >= 0.0);
            assert!(g.macro_f1_drop <= 1.0);
        }
    }

    #[test]
    fn unlabelled_tables_leave_the_report_unchanged() {
        use sato_tabular::table::{Column, Table};
        let corpus = default_corpus(60, 23);
        let split = train_test_split(&corpus, 0.3, 1);
        let model = SatoModel::train(&split.train, SatoConfig::fast(), SatoVariant::Base);
        let report = permutation_importance(&model, &split.test, 2, 9);
        let mut lake = split.test.clone();
        lake.tables.push(Table::unlabelled(
            9_999,
            vec![Column::new(["Warsaw", "London"])],
        ));
        let with_unlabelled = permutation_importance(&model, &lake, 2, 9);
        assert_eq!(format!("{with_unlabelled:?}"), format!("{report:?}"));
    }

    #[test]
    fn topic_group_appears_for_topic_aware_models() {
        let corpus = default_corpus(50, 24);
        let split = train_test_split(&corpus, 0.3, 2);
        let model = SatoModel::train(&split.train, SatoConfig::fast(), SatoVariant::SatoNoStruct);
        let report = permutation_importance(&model, &split.test, 1, 3);
        assert_eq!(report.groups.len(), 5);
        assert!(report.groups.iter().any(|g| g.group == "topic"));
    }

    #[test]
    fn permuting_features_hurts_more_than_not_permuting() {
        // Sanity: at least one feature group should have a measurable impact
        // on the weighted F1 (the model relies on its inputs).
        let corpus = default_corpus(70, 25);
        let split = train_test_split(&corpus, 0.3, 4);
        let model = SatoModel::train(&split.train, SatoConfig::fast(), SatoVariant::Base);
        let report = permutation_importance(&model, &split.test, 2, 11);
        let max_drop = report
            .groups
            .iter()
            .map(|g| g.weighted_f1_drop)
            .fold(0.0f64, f64::max);
        assert!(max_drop > 0.01, "no feature group mattered: {report:?}");
    }
}
