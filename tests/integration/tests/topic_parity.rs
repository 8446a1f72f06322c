//! Cross-crate parity tests for the allocation-lean topic-estimation path:
//! the streaming scratch/batched estimate (`TableIntentEstimator::
//! estimate_with` / `estimate_corpus_with`, and the serving pipeline built
//! on it) must be **bit-identical** to the reference
//! `TableIntentEstimator::estimate` (mega-string document + per-token
//! `String` encode + fresh inference buffers) — for every model variant and
//! for the edge cases the streaming encoder could plausibly get wrong:
//! empty tables, one-token documents, and documents whose every token is
//! out of vocabulary.

use proptest::prelude::*;
use sato::{SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Column, Corpus, Table};
use sato_topic::{LdaConfig, TableIntentEstimator, TopicScratch};
use std::sync::OnceLock;

fn tiny_config() -> SatoConfig {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// One pre-trained intent estimator shared across the property cases so the
/// LDA training cost is paid once.
fn estimator() -> &'static TableIntentEstimator {
    static ESTIMATOR: OnceLock<TableIntentEstimator> = OnceLock::new();
    ESTIMATOR.get_or_init(|| {
        let corpus = default_corpus(60, 21);
        TableIntentEstimator::fit(&corpus, LdaConfig::tiny())
    })
}

/// Deterministic cell content mixing in-vocabulary words (the synthetic
/// corpus is built from city/country/music-style vocabularies), numerics,
/// multi-token cells, blanks, Unicode case edges and out-of-vocabulary
/// noise the streaming encoder must drop exactly like the reference.
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 14] = [
        "Warsaw",
        "London",
        "Poland",
        "12.5",
        "1,777,972",
        "",
        "  ",
        "Rock",
        "alpha beta gamma",
        "zzzzqq",    // OOV token
        "qqxx yyzz", // OOV-only multi-token cell
        "ΟΔΟΣ",      // word-final capital sigma (exact-fold fallback)
        "Kelvin \u{212A}",
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

/// Build a corpus from per-table column shapes: `shapes[t][c]` is the row
/// count of column `c` of table `t` (an empty inner vec is a zero-column
/// table, i.e. an empty document).
fn ragged_corpus(shapes: &[Vec<usize>], salt: usize) -> Corpus {
    let tables = shapes
        .iter()
        .enumerate()
        .map(|(t, cols)| {
            let columns = cols
                .iter()
                .enumerate()
                .map(|(c, &rows)| {
                    Column::new((0..rows).map(|r| cell_value(salt + t * 31 + c * 7 + r * 3)))
                })
                .collect();
            Table::unlabelled(t as u64, columns)
        })
        .collect();
    Corpus::new(tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming scratch estimate is bit-identical to the reference
    /// estimate over arbitrarily ragged corpora, with one warm scratch
    /// shared across every table (and across property cases within a run).
    #[test]
    fn streaming_topic_estimation_parity_over_ragged_corpora(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 0..5), 1..8),
        salt in 0usize..10_000,
    ) {
        let est = estimator();
        let corpus = ragged_corpus(&shapes, salt);
        let reference = est.estimate_corpus(&corpus);
        let mut scratch = TopicScratch::new();
        let streamed = est.estimate_corpus_with(&corpus, &mut scratch);
        prop_assert_eq!(&reference, &streamed);
        // Per-table entry point agrees too, and every vector has the
        // estimator's dimensionality.
        for (table, theta) in corpus.iter().zip(&reference) {
            prop_assert_eq!(theta.len(), est.num_topics());
            prop_assert_eq!(theta, &est.estimate_with(table, &mut scratch));
        }
    }
}

/// The explicit edge cases the issue calls out, checked directly: an empty
/// table (empty document → uniform distribution), a one-token document, and
/// an out-of-vocabulary-only document (encodes to nothing → uniform).
#[test]
fn streaming_estimate_edge_cases_match_reference() {
    let est = estimator();
    let mut scratch = TopicScratch::new();
    let k = est.num_topics() as f32;
    let empty = Table::unlabelled(0, vec![]);
    let one_token = Table::unlabelled(1, vec![Column::new(["Warsaw"])]);
    let oov_only = Table::unlabelled(2, vec![Column::new(["zzzzqq", "qqxx yyzz"])]);
    for table in [&empty, &one_token, &oov_only] {
        let reference = est.estimate(table);
        assert_eq!(reference, est.estimate_with(table, &mut scratch));
    }
    // Empty and OOV-only documents are the uniform distribution.
    for table in [&empty, &oov_only] {
        let theta = est.estimate_with(table, &mut scratch);
        assert!(theta.iter().all(|&x| (x - 1.0 / k).abs() < 1e-6));
    }
}

/// End to end, for **all four model variants**: the scratch/batched serving
/// path (which runs the streaming topic estimate for topic-aware variants)
/// must reproduce the per-table reference path bit for bit on a corpus laced
/// with the topic edge cases — with and without the topic memo.
#[test]
fn batched_topic_path_parity_all_variants_with_edge_tables() {
    let train = default_corpus(25, 13);
    let mut corpus = default_corpus(8, 99);
    corpus.tables.push(Table::unlabelled(800, vec![]));
    corpus
        .tables
        .push(Table::unlabelled(801, vec![Column::new(["Warsaw"])]));
    corpus.tables.push(Table::unlabelled(
        802,
        vec![Column::new(["zzzzqq"]), Column::new(["qqxx", "yyzz"])],
    ));
    for variant in SatoVariant::ALL {
        let predictor = SatoModel::train(&train, tiny_config(), variant).into_predictor();
        let reference = predictor.predict_corpus(&corpus);
        let mut scratch = ServingScratch::new();
        let mut memo_scratch = ServingScratch::new().with_topic_memo();
        for batch_cols in [1, 7, 1000] {
            assert_eq!(
                reference,
                predictor.predict_tables_batched(
                    &corpus.tables,
                    batch_cols,
                    &mut scratch,
                    |_, _| {}
                ),
                "variant {} batch_cols {batch_cols}",
                variant.name()
            );
            assert_eq!(
                reference,
                predictor.predict_tables_batched(
                    &corpus.tables,
                    batch_cols,
                    &mut memo_scratch,
                    |_, _| {}
                ),
                "variant {} batch_cols {batch_cols} (memoised)",
                variant.name()
            );
        }
        if predictor.uses_topic() {
            // The memo is keyed by content: tables whose cells encode to
            // the same tokens (the empty and OOV-only tables) share one
            // entry.
            let est = predictor.columnwise().intent_estimator().unwrap();
            let mut topic = TopicScratch::new();
            let distinct: std::collections::HashSet<Vec<usize>> = corpus
                .iter()
                .map(|t| est.encode_cells(t, &mut topic).to_vec())
                .collect();
            assert_eq!(memo_scratch.topic_memo_len(), distinct.len());
        } else {
            assert_eq!(memo_scratch.topic_memo_len(), 0);
        }
    }
}
