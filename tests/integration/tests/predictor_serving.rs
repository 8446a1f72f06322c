//! Integration tests of the train → freeze → serve lifecycle: the
//! `SatoPredictor` artifact must be thread-safe by construction, reproduce
//! the source model bit for bit, round-trip through JSON for every variant,
//! and serve concurrent ad-hoc requests from shared borrows. (The built-in
//! parallel path is covered by the entry-point contract in
//! `batched_serving.rs`.)

use proptest::prelude::*;
use sato::{PredictorError, SamplerKind, SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_tabular::corpus::default_corpus;

/// Compile-time assertion: the frozen serving artifact is `Send + Sync`.
/// If a future change smuggles an `Rc`, `RefCell` or raw RNG back into the
/// inference path, this stops compiling.
const _ASSERT_PREDICTOR_IS_SEND_SYNC: fn() = || {
    fn requires_send_sync<T: Send + Sync>() {}
    requires_send_sync::<SatoPredictor>();
};

/// A deliberately tiny configuration: the round-trip properties hold at any
/// scale, so the tests train the smallest model that exercises every code
/// path (topic subnetwork, BatchNorm statistics, CRF potentials).
fn tiny_config(seed: u64) -> SatoConfig {
    let mut config = SatoConfig::fast().with_seed(seed);
    config.network.epochs = 4;
    config.lda.train_iterations = 15;
    config.lda.infer_iterations = 10;
    config.crf.epochs = 2;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Save → load → bit-identical predictions, for all four variants of
    /// Table 1, on arbitrary corpus/model seeds.
    #[test]
    fn json_round_trip_reproduces_predictions_for_all_variants(seed in 0u64..1000) {
        let corpus = default_corpus(25, seed);
        for variant in SatoVariant::ALL {
            let predictor =
                SatoModel::train(&corpus, tiny_config(seed ^ 0x5a70), variant).into_predictor();
            let loaded = SatoPredictor::from_json(&predictor.to_json())
                .expect("artifact written by to_json must load");
            prop_assert_eq!(loaded.variant(), variant);
            for table in corpus.iter().take(8) {
                prop_assert_eq!(
                    predictor.predict_proba(table),
                    loaded.predict_proba(table),
                    "probabilities drifted through JSON for {:?}",
                    variant
                );
                prop_assert_eq!(
                    predictor.predict(table),
                    loaded.predict(table),
                    "decoded types drifted through JSON for {:?}",
                    variant
                );
            }
        }
    }
}

#[test]
fn corrupted_artifacts_fail_with_errors_not_panics() {
    let corpus = default_corpus(20, 9);
    let predictor = SatoModel::train(&corpus, tiny_config(9), SatoVariant::Base).into_predictor();
    let json = predictor.to_json();

    // Truncations of a valid artifact at various depths.
    for cut in [0, 1, json.len() / 4, json.len() / 2, json.len() - 1] {
        let err = SatoPredictor::from_json(&json[..cut]);
        assert!(
            matches!(err, Err(PredictorError::Json(_))),
            "truncated artifact (cut at {cut}) must be a Json error"
        );
    }
    // Structurally valid JSON of the wrong shape.
    assert!(matches!(
        SatoPredictor::from_json("{\"hello\": [1, 2, 3]}"),
        Err(PredictorError::Json(_))
    ));
    assert!(matches!(
        SatoPredictor::from_json("[]"),
        Err(PredictorError::Json(_))
    ));
}

#[test]
fn frozen_predictor_serves_identically_from_many_threads() {
    let corpus = default_corpus(30, 17);
    let model = SatoModel::train(&corpus, tiny_config(17), SatoVariant::Full);
    let expected: Vec<_> = corpus.iter().map(|t| model.predict(t)).collect();
    // The live model is the dense oracle, so the predictor serves dense too.
    let predictor = model.into_predictor().with_sampler(SamplerKind::Dense);

    // A shared borrow serves concurrent ad-hoc requests with the same
    // answers the mutable-era API produced.
    let shared = &predictor;
    let corpus = &corpus;
    std::thread::scope(|scope| {
        for worker in 0..4 {
            let expected = &expected;
            scope.spawn(move || {
                for (i, table) in corpus.iter().enumerate().skip(worker).step_by(4) {
                    assert_eq!(shared.predict(table), expected[i]);
                }
            });
        }
    });
}

#[test]
fn file_save_load_round_trip() {
    let corpus = default_corpus(20, 23);
    let predictor =
        SatoModel::train(&corpus, tiny_config(23), SatoVariant::SatoNoStruct).into_predictor();
    let path = std::env::temp_dir().join("sato_predictor_roundtrip_test.json");
    predictor.save(&path).expect("save artifact");
    let loaded = SatoPredictor::load(&path).expect("load artifact");
    std::fs::remove_file(&path).ok();
    for table in corpus.iter().take(5) {
        assert_eq!(predictor.predict(table), loaded.predict(table));
    }
    assert!(matches!(
        SatoPredictor::load(std::env::temp_dir().join("sato_no_such_artifact.json")),
        Err(PredictorError::Io(_))
    ));
}
