//! Serving-level tests of the pluggable topic-sampler layer: the
//! sparse/alias sampler must be deterministic, internally consistent
//! across every serving entry point, quantifiably close to the dense
//! parity oracle, and faithfully round-tripped through the predictor
//! artifact (including artifacts that predate the sampler field, which
//! keep serving the dense sweep while fresh predictors serve the
//! sparse/alias default).

use proptest::prelude::*;
use sato::{SamplerKind, SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Column, Corpus, Table};
use sato_topic::{LdaConfig, TableIntentEstimator, TopicSampler, TopicScratch};
use std::sync::OnceLock;

fn tiny_config() -> SatoConfig {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// One pre-trained intent estimator shared across cases (LDA training cost
/// paid once).
fn estimator() -> &'static TableIntentEstimator {
    static ESTIMATOR: OnceLock<TableIntentEstimator> = OnceLock::new();
    ESTIMATOR.get_or_init(|| {
        let corpus = default_corpus(60, 21);
        TableIntentEstimator::fit(&corpus, LdaConfig::tiny())
    })
}

/// Deterministic cell content mixing in-vocabulary words, numerics, blanks
/// and out-of-vocabulary noise (mirrors `topic_parity.rs`).
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 10] = [
        "Warsaw",
        "London",
        "Poland",
        "12.5",
        "",
        "Rock",
        "alpha beta gamma",
        "zzzzqq",    // OOV token
        "qqxx yyzz", // OOV-only multi-token cell
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both samplers yield valid probability distributions (non-negative,
    /// summing to one) over arbitrarily ragged corpora — zero-column
    /// tables, OOV-only documents and one-token documents included — and
    /// the sparse/alias sampler is deterministic across repeated estimates.
    #[test]
    fn all_samplers_yield_valid_distributions_on_ragged_corpora(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 0..5), 1..8),
        salt in 0usize..10_000,
    ) {
        let est = estimator();
        let sparse = est.build_sampler(SamplerKind::SparseAlias);
        let corpus = ragged_corpus(&shapes, salt);
        let mut scratch = TopicScratch::new();
        for table in corpus.iter() {
            for sampler in [&TopicSampler::Dense, &sparse] {
                let theta = est.estimate_with(table, sampler, &mut scratch);
                prop_assert_eq!(theta.len(), est.num_topics());
                let sum: f32 = theta.iter().sum();
                prop_assert!(
                    (sum - 1.0).abs() < 1e-3,
                    "{:?} sampler: theta sums to {} on table {}",
                    sampler.kind(), sum, table.id
                );
                prop_assert!(theta.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
            }
            // Determinism under the fixed serving seed.
            let a = est.estimate_with(table, &sparse, &mut scratch);
            prop_assert_eq!(&a, &est.estimate_with(table, &sparse, &mut scratch));
            prop_assert_eq!(&a, &est.estimate_sampled(table, &sparse));
        }
    }
}

/// The approximation is quantified, not assumed: on a fixed corpus the mean
/// L1 distance between dense and sparse/alias thetas stays under a
/// tolerance comparable to the dense sampler's own seed-to-seed Monte-Carlo
/// noise (both samplers draw from the same per-token conditional; only the
/// RNG consumption pattern differs).
#[test]
fn sparse_sampler_thetas_are_statistically_close_to_dense() {
    let est = estimator();
    let sparse = est.build_sampler(SamplerKind::SparseAlias);
    let corpus = default_corpus(40, 77);
    let mut scratch = TopicScratch::new();
    let dense_thetas = est.estimate_corpus_with(&corpus, &TopicSampler::Dense, &mut scratch);
    let sparse_thetas = est.estimate_corpus_with(&corpus, &sparse, &mut scratch);
    let mean_l1 = dense_thetas
        .iter()
        .zip(&sparse_thetas)
        .map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>())
        .sum::<f32>()
        / corpus.len() as f32;
    assert!(
        mean_l1 < 0.5,
        "sparse sampler drifted from dense: mean L1 = {mean_l1}"
    );
    // Sanity: the thetas genuinely differ (the sampler is not accidentally
    // routing through the dense path).
    assert_ne!(dense_thetas, sparse_thetas);
}

/// Both samplers are *serving modes*: every serving entry point of a
/// `with_sampler(Dense)` or `with_sampler(SparseAlias)` predictor agrees
/// with every other — for all four variants — and repeated serves are
/// deterministic.
#[test]
fn approximate_serving_modes_are_consistent_across_entry_points() {
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
        let mut predictor = SatoModel::train(&train, tiny_config(), variant).into_predictor();
        for kind in [SamplerKind::Dense, SamplerKind::SparseAlias] {
            predictor = predictor.with_sampler(kind);
            assert_eq!(predictor.sampler_kind(), kind);
            let sequential = predictor.predict_corpus(&corpus);
            assert_eq!(
                sequential,
                predictor.predict_corpus(&corpus),
                "variant {} / {}: serving must be deterministic",
                variant.name(),
                kind.name()
            );
            let mut scratch = ServingScratch::new();
            let mut memo_scratch = ServingScratch::new().with_topic_memo();
            for batch_cols in [1, 7, 1000] {
                assert_eq!(
                    sequential,
                    predictor.predict_tables_batched(
                        &corpus.tables,
                        batch_cols,
                        &mut scratch,
                        |_, _| {}
                    ),
                    "variant {} / {} batch_cols {batch_cols}",
                    variant.name(),
                    kind.name()
                );
                assert_eq!(
                    sequential,
                    predictor.predict_tables_batched(
                        &corpus.tables,
                        batch_cols,
                        &mut memo_scratch,
                        |_, _| {}
                    ),
                    "variant {} / {} batch_cols {batch_cols} (memoised)",
                    variant.name(),
                    kind.name()
                );
            }
            assert_eq!(
                sequential,
                predictor.predict_corpus_parallel_batched(&corpus, 8, 3),
                "variant {} / {} parallel batched",
                variant.name(),
                kind.name()
            );
        }
    }
}

/// For a topic-aware variant the sampler choice actually changes the
/// pipeline's topic inputs (it is an axis, not a no-op), while a
/// topic-free variant is unaffected by construction.
#[test]
fn sampler_choice_affects_only_topic_aware_variants() {
    let train = default_corpus(25, 13);
    let corpus = default_corpus(10, 55);
    // Topic-free: identical predictions under any sampler.
    let base = SatoModel::train(&train, tiny_config(), SatoVariant::Base)
        .into_predictor()
        .with_sampler(SamplerKind::Dense);
    let base_dense = base.predict_corpus(&corpus);
    let base_sparse = base.with_sampler(SamplerKind::SparseAlias);
    assert_eq!(base_dense, base_sparse.predict_corpus(&corpus));
    // Topic-aware: the probability rows must differ somewhere (thetas are
    // close but not bit-identical, and the network consumes them).
    let full = SatoModel::train(&train, tiny_config(), SatoVariant::Full)
        .into_predictor()
        .with_sampler(SamplerKind::Dense);
    let dense_probs: Vec<_> = corpus.iter().map(|t| full.predict_proba(t)).collect();
    let full_sparse = full.with_sampler(SamplerKind::SparseAlias);
    let sparse_probs: Vec<_> = corpus
        .iter()
        .map(|t| full_sparse.predict_proba(t))
        .collect();
    assert_ne!(
        dense_probs, sparse_probs,
        "sparse sampler did not change the topic inputs of a topic-aware model"
    );
}

/// Artifact versioning: the sampler kind round-trips through JSON (and the
/// loaded predictor reproduces the saved one bit for bit, alias tables
/// rebuilt at load time); an artifact saved *without* a sampler field — the
/// pre-sampler format — loads as Dense; an unknown sampler name is a clear
/// load error, not a panic or a silent fallback.
#[test]
fn sampler_artifact_versioning() {
    use sato::{PredictorError, SatoPredictor};
    let train = default_corpus(25, 13);
    let predictor = SatoModel::train(&train, tiny_config(), SatoVariant::Full)
        .into_predictor()
        .with_sampler(SamplerKind::SparseAlias);
    let corpus = default_corpus(8, 99);
    let expected = predictor.predict_corpus(&corpus);

    // Round trip preserves the kind and the exact predictions.
    let json = predictor.to_json();
    assert!(json.contains("\"sampler\":\"SparseAlias\""));
    let loaded = SatoPredictor::from_json(&json).unwrap();
    assert_eq!(loaded.sampler_kind(), SamplerKind::SparseAlias);
    assert_eq!(expected, loaded.predict_corpus(&corpus));

    // Pre-sampler-era artifact (no sampler field at all) → Dense.
    let dense = SatoModel::train(&train, tiny_config(), SatoVariant::Full)
        .into_predictor()
        .with_sampler(SamplerKind::Dense);
    let dense_json = dense.to_json();
    let legacy = dense_json.replacen("\"sampler\":\"Dense\",", "", 1);
    assert!(!legacy.contains("\"sampler\""), "field not stripped");
    let loaded = SatoPredictor::from_json(&legacy).unwrap();
    assert_eq!(loaded.sampler_kind(), SamplerKind::Dense);
    assert_eq!(
        dense.predict_corpus(&corpus),
        loaded.predict_corpus(&corpus),
        "legacy artifact must serve bit-identically to its dense author"
    );

    // Unknown sampler kind → descriptive load error. The removed
    // Metropolis–Hastings sampler is unknown too: its old artifacts fail
    // to load instead of being silently served by another sampler.
    for name in ["Turbo", "MetropolisHastings"] {
        let unknown = dense_json.replacen(
            "\"sampler\":\"Dense\"",
            &format!("\"sampler\":\"{name}\""),
            1,
        );
        match SatoPredictor::from_json(&unknown) {
            Err(PredictorError::Json(e)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("unknown SamplerKind variant"),
                    "error should name the bad sampler kind, got: {msg}"
                );
            }
            Err(other) => panic!("expected a JSON load error for {name}, got: {other}"),
            Ok(_) => panic!("unknown sampler kind {name} must fail to load"),
        }
    }
}

/// Bit patterns of per-column probability rows, so they compare exactly.
fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Moving the default to SparseAlias leaves every legacy artifact on the
/// dense sweep: a JSON artifact without a `sampler` key and a `SATOART1`
/// artifact whose `META` names `Dense` both load as Dense and serve bit for
/// bit like `.with_sampler(SamplerKind::Dense)`. A missing key must map to
/// Dense itself, not to `SamplerKind::default()`. Freshly frozen
/// predictors, by contrast, serve the default, which the live model was
/// trained and predicts with.
#[test]
fn legacy_artifacts_serve_dense_and_fresh_predictors_default_to_sparse_alias() {
    use sato::SatoPredictor;
    let train = default_corpus(25, 13);
    let corpus = default_corpus(8, 99);
    let model = SatoModel::train(&train, tiny_config(), SatoVariant::Full);
    let probs = |p: &SatoPredictor| -> Vec<_> {
        corpus.iter().map(|t| bits(&p.predict_proba(t))).collect()
    };
    let live: Vec<_> = corpus
        .iter()
        .map(|t| bits(&model.predict_proba(t)))
        .collect();

    let snapshot = model.predictor();
    assert_eq!(snapshot.sampler_kind(), SamplerKind::SparseAlias);
    let fresh = model.into_predictor();
    assert_eq!(fresh.sampler_kind(), SamplerKind::SparseAlias);
    assert_eq!(probs(&fresh), probs(&snapshot));
    assert_eq!(probs(&fresh), live);

    let dense = fresh.with_sampler(SamplerKind::Dense);
    let oracle = probs(&dense);
    assert_ne!(
        oracle, live,
        "the default must differ from dense for this test to tell them apart"
    );
    let json = dense.to_json();
    let legacy_json = json.replacen("\"sampler\":\"Dense\",", "", 1);
    assert!(!legacy_json.contains("\"sampler\""), "field not stripped");
    let legacy = [
        (
            "JSON without sampler",
            SatoPredictor::from_json(&legacy_json).unwrap(),
        ),
        (
            "SATOART1 naming Dense",
            SatoPredictor::from_bytes(&dense.to_bytes()).unwrap(),
        ),
    ];
    for (format, loaded) in legacy {
        assert_eq!(loaded.sampler_kind(), SamplerKind::Dense, "{format}");
        assert_eq!(loaded.content_hash(), dense.content_hash(), "{format}");
        assert_eq!(probs(&loaded), oracle, "{format}");
        assert_eq!(
            loaded.predict_corpus(&corpus),
            dense.predict_corpus(&corpus),
            "{format}"
        );
    }
}
