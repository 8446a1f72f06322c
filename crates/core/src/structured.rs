//! The structured prediction module (Section 3.3): a linear-chain CRF on top
//! of a column-wise predictor's scores.
//!
//! Unary potentials are the log of the column-wise model's normalised
//! prediction scores; pairwise potentials are initialised from the
//! adjacent-column co-occurrence matrix of the training corpus (Section 4.3)
//! and then trained by maximising the table-level conditional log-likelihood.

use crate::columnwise::{ColumnwiseInference, FrozenColumnwise};
use crate::config::SatoConfig;
use crate::dataset::TrainingData;
use sato_crf::{train_crf, CrfExample, LinearChainCrf};
use sato_nn::Matrix;
use sato_tabular::cooccurrence::CooccurrenceMatrix;
use sato_tabular::table::{Corpus, Table};
use sato_tabular::types::{SemanticType, NUM_TYPES};

/// Floor applied before taking logs of prediction scores.
const PROB_FLOOR: f64 = 1e-8;

/// Convert a column-wise probability row into unary (log) potentials.
pub fn unary_from_proba(proba: &[f32]) -> Vec<f64> {
    proba
        .iter()
        .map(|&p| (f64::from(p).max(PROB_FLOOR)).ln())
        .collect()
}

/// The CRF layer of Sato, holding the trained pairwise potential matrix.
#[derive(Debug, Clone)]
pub struct StructuredLayer {
    crf: LinearChainCrf,
    /// Mean log-likelihood per CRF training epoch.
    pub training_history: Vec<f64>,
}

impl StructuredLayer {
    /// Train the CRF layer.
    ///
    /// * `predictor` provides the (already trained) column-wise scores used
    ///   as unary potentials,
    /// * `corpus` is the training corpus,
    /// * pairwise potentials start from the log adjacent-column
    ///   co-occurrence counts of that corpus.
    pub fn fit<P: ColumnwiseInference>(
        predictor: &P,
        corpus: &Corpus,
        config: &SatoConfig,
    ) -> Self {
        let examples = crf_examples(corpus, |_, table| {
            let proba = predictor.predict_proba(table);
            proba.iter().map(|p| unary_from_proba(p)).collect()
        });
        Self::fit_examples(corpus, &examples, config)
    }

    /// Train the CRF layer on the probabilities `trained` gives the
    /// standardised rows it was trained on, `data`: equal to [`Self::fit`]
    /// with `trained` as the predictor, without extracting features and
    /// inferring topics per table a second time. The rows are dropped
    /// before the CRF epochs.
    pub(crate) fn fit_from_rows(
        trained: &FrozenColumnwise,
        data: TrainingData,
        corpus: &Corpus,
        config: &SatoConfig,
    ) -> Self {
        // A table's rows are contiguous, in corpus order.
        let mut first_row = vec![usize::MAX; corpus.len()];
        for (row, &t) in data.table_of_row.iter().enumerate().rev() {
            first_row[t] = row;
        }
        let examples = crf_examples(corpus, |t, table| {
            let start = first_row[t];
            assert_ne!(start, usize::MAX, "table {t} has no training rows");
            let rows: Vec<usize> = (start..start + table.num_columns()).collect();
            let groups: Vec<Matrix> = data.groups.iter().map(|g| g.select_rows(&rows)).collect();
            let proba = trained.infer_standardized(&groups, true);
            (0..proba.rows())
                .map(|r| unary_from_proba(proba.row(r)))
                .collect()
        });
        drop(data);
        Self::fit_examples(corpus, &examples, config)
    }

    /// Train the CRF on `examples`, its pairwise potentials starting from
    /// the adjacent-column co-occurrence counts of `corpus`.
    fn fit_examples(corpus: &Corpus, examples: &[CrfExample], config: &SatoConfig) -> Self {
        let cooc = CooccurrenceMatrix::adjacent_columns(corpus);
        // Scale the log-co-occurrence initialisation down so unary scores
        // dominate at the start of training (the CRF then learns how much
        // coupling to apply).
        let init: Vec<f64> = cooc.log_matrix().iter().map(|v| 0.1 * v).collect();
        let initial = LinearChainCrf::with_pairwise(NUM_TYPES, init);
        let (crf, history) = train_crf(
            initial,
            examples,
            &config.crf.to_crf_config(config.seed ^ 0xc0f),
        );
        StructuredLayer {
            crf,
            training_history: history,
        }
    }

    /// A structured layer with untrained (zero) pairwise potentials, which
    /// makes the CRF equivalent to independent per-column argmax. Useful as
    /// an explicit ablation.
    pub fn identity() -> Self {
        StructuredLayer {
            crf: LinearChainCrf::new(NUM_TYPES),
            training_history: Vec::new(),
        }
    }

    /// Wrap an already-trained CRF (e.g. one deserialized from a frozen
    /// predictor artifact). The training history is empty.
    pub fn from_crf(crf: LinearChainCrf) -> Self {
        StructuredLayer {
            crf,
            training_history: Vec::new(),
        }
    }

    /// Borrow the underlying CRF.
    pub fn crf(&self) -> &LinearChainCrf {
        &self.crf
    }

    /// Consume the layer into its underlying CRF (the only state a frozen
    /// serving artifact needs).
    pub fn into_crf(self) -> LinearChainCrf {
        self.crf
    }

    /// Joint MAP decoding of a table from column-wise probabilities.
    pub fn decode_proba(&self, proba: &[Vec<f32>]) -> Vec<SemanticType> {
        if proba.is_empty() {
            return Vec::new();
        }
        let unary: Vec<Vec<f64>> = proba.iter().map(|p| unary_from_proba(p)).collect();
        self.crf
            .viterbi(&unary)
            .into_iter()
            .map(|i| SemanticType::from_index(i).expect("state index in range"))
            .collect()
    }

    /// Joint MAP decoding of one table's row range `[start, end)` of a flat
    /// probability matrix, reusing `unary_scratch` for the log potentials —
    /// the batched-serving counterpart of [`Self::decode_proba`], bit
    /// identical to it.
    pub fn decode_rows(
        &self,
        proba: &sato_nn::Matrix,
        start: usize,
        end: usize,
        unary_scratch: &mut Vec<f64>,
    ) -> Vec<SemanticType> {
        if start == end {
            return Vec::new();
        }
        unary_scratch.clear();
        for r in start..end {
            unary_scratch.extend(
                proba
                    .row(r)
                    .iter()
                    .map(|&p| (f64::from(p).max(PROB_FLOOR)).ln()),
            );
        }
        self.crf
            .viterbi_flat(unary_scratch)
            .into_iter()
            .map(|i| SemanticType::from_index(i).expect("state index in range"))
            .collect()
    }

    /// Predict the types of a table: column-wise scores followed by Viterbi.
    pub fn predict<P: ColumnwiseInference>(
        &self,
        predictor: &P,
        table: &Table,
    ) -> Vec<SemanticType> {
        let proba = predictor.predict_proba(table);
        self.decode_proba(&proba)
    }
}

/// One CRF example per labelled table of at least two columns, in corpus
/// order; `unary_of(index, table)` gives a table's unary potentials.
fn crf_examples(
    corpus: &Corpus,
    mut unary_of: impl FnMut(usize, &Table) -> Vec<Vec<f64>>,
) -> Vec<CrfExample> {
    corpus
        .iter()
        .enumerate()
        .filter(|(_, table)| table.is_labelled() && table.num_columns() >= 2)
        .map(|(t, table)| CrfExample {
            unary: unary_of(t, table),
            labels: table.labels.iter().map(|l| l.index()).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake column-wise predictor that returns pre-set
    /// probability rows, letting the tests isolate the CRF behaviour. The
    /// inference trait takes `&self`, so the advancing cursor lives in a
    /// `Cell`.
    struct FakePredictor {
        rows_per_table: Vec<Vec<Vec<f32>>>,
        cursor: std::cell::Cell<usize>,
    }

    impl FakePredictor {
        fn new(rows_per_table: Vec<Vec<Vec<f32>>>) -> Self {
            FakePredictor {
                rows_per_table,
                cursor: std::cell::Cell::new(0),
            }
        }

        fn uniform_with_peaks(peaks: &[(usize, f32)]) -> Vec<f32> {
            let mut row = vec![
                (1.0 - peaks.iter().map(|(_, p)| p).sum::<f32>()) / NUM_TYPES as f32;
                NUM_TYPES
            ];
            for &(idx, p) in peaks {
                row[idx] += p;
            }
            row
        }
    }

    impl ColumnwiseInference for FakePredictor {
        fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
            let cursor = self.cursor.get();
            let out = self.rows_per_table[cursor % self.rows_per_table.len()].clone();
            self.cursor.set(cursor + 1);
            assert_eq!(out.len(), table.num_columns());
            out
        }
    }

    #[test]
    fn unary_conversion_is_monotone_and_floored() {
        let u = unary_from_proba(&[0.5, 0.0, 0.25]);
        assert!(u[0] > u[2]);
        assert!(u[1].is_finite());
        assert!(u[1] <= (PROB_FLOOR).ln() + 1e-9);
    }

    #[test]
    fn identity_layer_decodes_to_argmax() {
        let layer = StructuredLayer::identity();
        let city = SemanticType::City.index();
        let country = SemanticType::Country.index();
        let proba = vec![
            FakePredictor::uniform_with_peaks(&[(city, 0.6)]),
            FakePredictor::uniform_with_peaks(&[(country, 0.6)]),
        ];
        let decoded = layer.decode_proba(&proba);
        assert_eq!(decoded, vec![SemanticType::City, SemanticType::Country]);
        assert!(layer.decode_proba(&[]).is_empty());
    }

    #[test]
    fn trained_crf_uses_cooccurrence_to_fix_ambiguous_column() {
        use sato_tabular::table::{Column, Corpus, Table};
        // Training corpus: city-state tables. The fake predictor is certain
        // about "state" columns but torn between city and birthPlace for the
        // first column.
        let city = SemanticType::City.index();
        let birth = SemanticType::BirthPlace.index();
        let state = SemanticType::State.index();

        let tables: Vec<Table> = (0..30)
            .map(|i| {
                Table::labelled(
                    i,
                    vec![Column::new(["Springfield"]), Column::new(["Illinois"])],
                    vec![SemanticType::City, SemanticType::State],
                )
            })
            .collect();
        let corpus = Corpus::new(tables);

        let ambiguous_rows = vec![
            FakePredictor::uniform_with_peaks(&[(city, 0.30), (birth, 0.32)]),
            FakePredictor::uniform_with_peaks(&[(state, 0.8)]),
        ];
        let train_pred = FakePredictor::new(vec![ambiguous_rows.clone()]);
        let mut config = SatoConfig::fast();
        config.crf.epochs = 20;
        let layer = StructuredLayer::fit(&train_pred, &corpus, &config);
        assert!(!layer.training_history.is_empty());

        // Column-wise argmax picks birthPlace (0.32 > 0.30); the CRF should
        // flip it to city because city co-occurs with the adjacent state.
        let test_pred = FakePredictor::new(vec![ambiguous_rows]);
        let table = &corpus.tables[0];
        let structured = layer.predict(&test_pred, table);
        assert_eq!(structured[0], SemanticType::City);
        assert_eq!(structured[1], SemanticType::State);
    }

    #[test]
    fn crf_training_history_is_finite() {
        use sato_tabular::corpus::default_corpus;
        let corpus = default_corpus(20, 5);
        // Predictor that always returns the gold label with high confidence
        // (uses the labels through closure state cheaply).
        struct GoldPredictor;
        impl ColumnwiseInference for GoldPredictor {
            fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
                table
                    .labels
                    .iter()
                    .map(|l| {
                        let mut row = vec![0.001f32; NUM_TYPES];
                        row[l.index()] = 1.0;
                        let s: f32 = row.iter().sum();
                        row.iter_mut().for_each(|x| *x /= s);
                        row
                    })
                    .collect()
            }
        }
        let layer = StructuredLayer::fit(&GoldPredictor, &corpus, &SatoConfig::fast());
        assert!(layer.training_history.iter().all(|x| x.is_finite()));
        // With near-perfect unaries the CRF must keep the gold decoding.
        let gold = GoldPredictor;
        for table in corpus.iter().filter(|t| t.is_multi_column()).take(5) {
            assert_eq!(layer.predict(&gold, table), table.labels);
        }
    }
}
