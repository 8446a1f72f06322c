//! The entry-point contract. Every `SatoPredictor` entry point, the trained
//! `SatoModel` and the `sato-serve` service run the same batch former and
//! batched engine, so on any corpus — tables with zero, one or many
//! columns, empty columns and blank cells — and at any micro-batch width
//! they must all agree with each other and reproduce the per-table oracle
//! bit for bit. The oracle is independent of the engine: the frozen model's
//! `extract_inputs` (per-column feature vectors and the reference topic
//! estimate) followed by `predict_proba_from_inputs` or
//! `column_embeddings_from_inputs` and a per-table decode.

use proptest::prelude::*;
use sato::{
    types_from_proba, FrozenColumnwise, SamplerKind, SatoConfig, SatoModel, SatoPredictor,
    SatoVariant, ServingScratch, StructuredLayer, TablePrediction,
};
use sato_serve::{RequestOptions, SatoService, ServiceConfig};
use sato_tabular::colstore::corpus_to_bytes;
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Column, Corpus, Table, TableCells};
use std::sync::OnceLock;

fn tiny_config() -> SatoConfig {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// One trained model per variant, shared across the property cases so the
/// training cost is paid once.
fn models() -> &'static [SatoModel] {
    static MODELS: OnceLock<Vec<SatoModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let corpus = default_corpus(30, 41);
        SatoVariant::ALL
            .iter()
            .map(|&variant| SatoModel::train(&corpus, tiny_config(), variant))
            .collect()
    })
}

/// Deterministic cell content for a synthetic ragged corpus: a mix of
/// wordy, numeric, formatted and blank cells.
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 12] = [
        "Warsaw",
        "London",
        "12.5",
        "1,777,972",
        "",
        "Rock",
        "alpha beta",
        "75 kg",
        "-3",
        "  ",
        "Dr. Strange & Co.",
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

/// Build a corpus from per-table column shapes: `shapes[t][c]` is the row
/// count of column `c` of table `t` (an empty inner vec is a zero-column
/// table).
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

type Rows = Vec<Vec<f32>>;

/// Bit patterns, so embeddings compare exactly (and NaN-safely).
fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The per-table oracle of a frozen column-wise model and its optional CRF
/// layer: predictions, probability rows and embedding rows of every table,
/// each through the allocating per-table path rather than the batched
/// engine.
fn per_table_oracle(
    columnwise: &FrozenColumnwise,
    structured: Option<&StructuredLayer>,
    corpus: &Corpus,
) -> (Vec<TablePrediction>, Vec<Rows>, Vec<Rows>) {
    let mut predictions = Vec::new();
    let (mut proba, mut embeddings) = (Vec::new(), Vec::new());
    for table in corpus.iter() {
        let inputs = columnwise.extract_inputs(table);
        let rows = columnwise.predict_proba_from_inputs(&inputs);
        predictions.push(TablePrediction {
            table_id: table.id,
            gold: table.gold_labels().to_vec(),
            predicted: match structured {
                Some(layer) => layer.decode_proba(&rows),
                None => types_from_proba(&rows),
            },
        });
        proba.push(rows);
        embeddings.push(columnwise.column_embeddings_from_inputs(&inputs));
    }
    (predictions, proba, embeddings)
}

/// What every entry point of `predictor` produces on `corpus` at
/// `batch_cols`, checked against each other; returns the batched
/// predictions and the per-table probability and embedding rows.
fn serve_every_way(
    predictor: &SatoPredictor,
    corpus: &Corpus,
    batch_cols: usize,
) -> (Vec<TablePrediction>, Vec<Rows>, Vec<Rows>) {
    let batched = predictor.predict_corpus_batched(corpus, batch_cols);
    let label = |what: &str| format!("{what} at batch_cols {batch_cols}");

    // Batches of one.
    assert_eq!(
        batched,
        predictor.predict_corpus(corpus),
        "{}",
        label("predict_corpus")
    );
    for (table, want) in corpus.iter().zip(&batched) {
        assert_eq!(
            predictor.predict(table),
            want.predicted,
            "{}",
            label("predict")
        );
    }
    let proba: Vec<Rows> = corpus.iter().map(|t| predictor.predict_proba(t)).collect();
    let embeddings: Vec<Rows> = corpus
        .iter()
        .map(|t| predictor.column_embeddings(t))
        .collect();

    // The batched paths, with and without the topic memo (the memo is
    // filled on the first pass and replayed on the second).
    let mut scratch = ServingScratch::new();
    let mut memo = ServingScratch::new().with_topic_memo();
    for pass in 0..2 {
        for scratch in [&mut scratch, &mut memo] {
            let served =
                predictor.predict_tables_batched(&corpus.tables, batch_cols, scratch, |_, _| {});
            assert_eq!(
                served,
                batched,
                "{} pass {pass}",
                label("predict_tables_batched")
            );
        }
    }
    let colstore = predictor
        .predict_colstore_bytes(&corpus_to_bytes(corpus), batch_cols)
        .expect("colstore bytes written by corpus_to_bytes");
    assert_eq!(colstore, batched, "{}", label("predict_colstore_bytes"));
    let parallel = predictor.predict_corpus_parallel_batched(corpus, batch_cols, 3);
    assert_eq!(
        parallel,
        batched,
        "{}",
        label("predict_corpus_parallel_batched")
    );

    // The embedding stream: one row per column, in corpus order.
    let mut streamed: Vec<Rows> = corpus.iter().map(|_| Vec::new()).collect();
    let position = |id: u64| corpus.iter().position(|t| t.id == id).unwrap();
    predictor.embed_corpus_batched_with(corpus, batch_cols, &mut memo, |id, c, row| {
        let table = &mut streamed[position(id)];
        assert_eq!(table.len(), c as usize, "columns stream in order");
        table.push(row.to_vec());
    });
    for (got, want) in streamed.iter().zip(&embeddings) {
        assert_eq!(
            bits(got),
            bits(want),
            "{}",
            label("embed_corpus_batched_with")
        );
    }

    // The service: tables from several requests coalesced into shared
    // micro-batches.
    let copy = SatoPredictor::from_bytes(&predictor.to_bytes()).expect("own artifact loads");
    let service = SatoService::start(
        copy,
        ServiceConfig {
            batch_cols,
            ..ServiceConfig::default()
        },
    );
    service.pause();
    let handles: Vec<_> = corpus
        .tables
        .chunks(3)
        .map(|chunk| {
            service
                .submit(chunk.to_vec(), RequestOptions::default())
                .expect("admitted")
        })
        .collect();
    service.resume();
    let served: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.wait().expect("served").predictions)
        .collect();
    assert_eq!(served, batched, "{}", label("SatoService"));
    service.shutdown();

    (batched, proba, embeddings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every entry point equals the per-table oracle for all four
    /// variants, under the topic estimator the model was trained with.
    #[test]
    fn every_entry_point_matches_the_oracle_on_ragged_corpora(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..6, 0..7), 1..9),
        salt in 0usize..10_000,
    ) {
        let corpus = ragged_corpus(&shapes, salt);
        let total_cols: usize = corpus.iter().map(|t| t.num_columns()).sum();
        let oracle: Vec<_> = models()
            .iter()
            .map(|m| per_table_oracle(m.columnwise(), m.structured(), &corpus))
            .collect();
        for batch_cols in [1, 7, total_cols + 1] {
            for (model, (want, want_proba, want_embeddings)) in models().iter().zip(&oracle) {
                prop_assert_eq!(&model.predict_corpus(&corpus), want, "{}", model.variant().name());
                let trained = model.predictor();
                prop_assert_eq!(trained.sampler_kind(), SamplerKind::FoldIn);
                let (served, proba, embeddings) = serve_every_way(&trained, &corpus, batch_cols);
                prop_assert_eq!(&served, want, "{}", model.variant().name());
                for (i, table) in corpus.iter().enumerate() {
                    prop_assert_eq!(&proba[i], &want_proba[i]);
                    prop_assert_eq!(&model.predict_proba(table), &want_proba[i]);
                    prop_assert_eq!(bits(&embeddings[i]), bits(&want_embeddings[i]));
                }
                for ((prediction, rows), table) in served.iter().zip(&proba).zip(corpus.iter()) {
                    prop_assert_eq!(prediction.predicted.len(), table.num_columns());
                    prop_assert_eq!(rows.len(), table.num_columns());
                }
            }
        }
    }
}

/// The batched path survives an artifact round trip of the predictor: a
/// reloaded artifact serves batched predictions bit-identical to the
/// original.
#[test]
fn batched_parity_after_artifact_round_trip() {
    let corpus = default_corpus(16, 5);
    let predictor =
        SatoModel::train(&corpus, tiny_config(), SatoVariant::SatoNoTopic).into_predictor();
    let reloaded = SatoPredictor::from_bytes(&predictor.to_bytes()).unwrap();
    assert_eq!(
        predictor.predict_corpus(&corpus),
        reloaded.predict_corpus_batched(&corpus, 10)
    );
}
