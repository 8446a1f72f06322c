//! Integration tests of the train → freeze → serve lifecycle: the
//! `SatoPredictor` artifact must be thread-safe by construction, reproduce
//! the source model bit for bit, reject what is not an artifact with a
//! typed error, and serve concurrent ad-hoc requests from shared borrows.
//! (The per-variant and file round trips are in `artifact_formats.rs`, the
//! built-in parallel path in `batched_serving.rs`.)

use sato::{PredictorError, SatoConfig, SatoModel, SatoPredictor, SatoVariant};
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

/// A JSON artifact of an earlier release, or any other text, is not a
/// `SATOART1` file: loading it is a typed error, never a panic.
#[test]
fn corrupted_artifacts_fail_with_errors_not_panics() {
    for text in [
        "",
        "[]",
        "{\"hello\": [1, 2, 3]}",
        "{\"format_version\":1,\"variant\":\"Base\",\"use_topic\":false}",
    ] {
        let err = SatoPredictor::from_bytes(text.as_bytes()).err();
        if text.len() < 16 {
            assert!(
                matches!(err, Some(PredictorError::Truncated(_))),
                "{text:?}: {err:?}"
            );
        } else {
            assert!(
                matches!(err, Some(PredictorError::BadMagic)),
                "{text:?}: {err:?}"
            );
        }
    }
}

#[test]
fn frozen_predictor_serves_identically_from_many_threads() {
    let corpus = default_corpus(30, 17);
    let model = SatoModel::train(&corpus, tiny_config(17), SatoVariant::Full);
    let expected: Vec<_> = corpus.iter().map(|t| model.predict(t)).collect();
    let predictor = model.into_predictor();

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
