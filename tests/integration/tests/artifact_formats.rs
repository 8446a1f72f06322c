//! Integration tests for the two on-disk formats of the serving stack:
//! the `SATOART1` predictor artifact and the `SATOCOL1` columnar corpus.
//! A loaded artifact must describe exactly the model that was saved
//! (bit-identical predictions, byte-identical re-serialization), corrupted
//! inputs of either format must fail with typed errors rather than panics,
//! and streaming annotation straight off colstore bytes must match the
//! in-memory batched path bit for bit.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sato::{PredictorError, SamplerKind, SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_tabular::colstore::{corpus_from_bytes, corpus_to_bytes, ColStoreError};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Column, Corpus, Table};

/// Same deliberately tiny configuration as `predictor_serving.rs`: the
/// format round-trip properties hold at any scale, so train the smallest
/// model that exercises every section of the artifact (scalers, network,
/// head, topic model, CRF potentials).
fn tiny_config(seed: u64) -> SatoConfig {
    let mut config = SatoConfig::fast().with_seed(seed);
    config.network.epochs = 4;
    config.lda.train_iterations = 15;
    config.lda.infer_iterations = 10;
    config.crf.epochs = 2;
    config
}

/// One shared Full-variant predictor for the colstore serving tests, so
/// the proptest cases pay for training once.
fn full_predictor() -> &'static SatoPredictor {
    static FULL: OnceLock<SatoPredictor> = OnceLock::new();
    FULL.get_or_init(|| {
        SatoModel::train(&default_corpus(25, 77), tiny_config(77), SatoVariant::Full)
            .into_predictor()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// `SATOART1` round trip for every Table-1 variant: the reloaded
    /// predictor re-serializes to the exact bytes it was loaded from and
    /// reproduces its predictions bit for bit.
    #[test]
    fn binary_round_trip_is_bit_identical_for_all_variants(seed in 0u64..1000) {
        let corpus = default_corpus(25, seed);
        for variant in SatoVariant::ALL {
            let predictor =
                SatoModel::train(&corpus, tiny_config(seed ^ 0xb1a2), variant).into_predictor();
            let bytes = predictor.to_bytes();
            let loaded = SatoPredictor::from_bytes(&bytes)
                .expect("artifact written by to_bytes must load");
            prop_assert_eq!(loaded.variant(), variant);
            prop_assert_eq!(loaded.sampler_kind(), SamplerKind::FoldIn);
            // The round trip loses nothing the artifact records:
            // bytes -> predictor -> bytes is the identity.
            prop_assert_eq!(
                loaded.to_bytes(),
                bytes,
                "binary round trip changed the artifact for {:?}",
                variant
            );
            for table in corpus.iter().take(6) {
                prop_assert_eq!(
                    predictor.predict_proba(table),
                    loaded.predict_proba(table),
                    "probabilities drifted through the binary artifact for {:?}",
                    variant
                );
                prop_assert_eq!(
                    predictor.predict(table),
                    loaded.predict(table),
                    "decoded types drifted through the binary artifact for {:?}",
                    variant
                );
            }
        }
    }

    /// `SATOCOL1` round trip on arbitrary ragged corpora — empty corpora,
    /// zero-column tables, empty columns, unicode, embedded quotes and
    /// separators — plus streaming-annotation parity: predicting straight
    /// off the colstore bytes matches the in-memory batched path exactly.
    #[test]
    fn colstore_round_trips_and_serves_arbitrary_corpora(seed in 0u64..10_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pool = [
            "", "42", "-1.5", "2020-01-01", "naïve", "ΟΔΟΣ", "café ☕",
            "hello, world", "\"quoted\"", "line\nbreak", "tab\tsep", "repeat",
        ];
        let tables = (0..rng.gen_range(0..8usize))
            .map(|t| {
                let columns = (0..rng.gen_range(0..5usize))
                    .map(|_| {
                        Column::new(
                            (0..rng.gen_range(0..7usize))
                                .map(|_| pool[rng.gen_range(0..pool.len())]),
                        )
                    })
                    .collect();
                Table::unlabelled(seed * 100 + t as u64, columns)
            })
            .collect();
        let corpus = Corpus::new(tables);
        let bytes = corpus_to_bytes(&corpus);

        let back = corpus_from_bytes(&bytes).expect("colstore written by corpus_to_bytes");
        prop_assert_eq!(&back.tables, &corpus.tables);

        let predictor = full_predictor();
        for batch_cols in [1usize, 256] {
            let streamed = predictor
                .predict_colstore_bytes(&bytes, batch_cols)
                .expect("serving off valid colstore bytes");
            prop_assert_eq!(
                streamed,
                predictor.predict_corpus_batched(&corpus, batch_cols),
                "colstore streaming drifted from the in-memory path at batch {}",
                batch_cols
            );
        }
    }
}

#[test]
fn corrupted_binary_artifacts_fail_with_typed_errors_not_panics() {
    let corpus = default_corpus(20, 11);
    let predictor = SatoModel::train(&corpus, tiny_config(11), SatoVariant::Base).into_predictor();
    let bytes = predictor.to_bytes();

    // Truncations at every depth: inside the magic, inside the header,
    // inside the section table, and inside a payload.
    for cut in [0, 4, 15, bytes.len() / 3, bytes.len() - 1] {
        let err = SatoPredictor::from_bytes(&bytes[..cut]).err();
        assert!(
            matches!(
                err,
                Some(PredictorError::Truncated(_)) | Some(PredictorError::Checksum(_))
            ),
            "truncated artifact (cut at {cut}) must be a Truncated/Checksum error, got {err:?}"
        );
    }

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        SatoPredictor::from_bytes(&bad_magic),
        Err(PredictorError::BadMagic)
    ));

    let mut future = bytes.clone();
    future[8] = 99; // version field is little-endian at offset 8
    assert!(matches!(
        SatoPredictor::from_bytes(&future),
        Err(PredictorError::UnsupportedVersion(99))
    ));

    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert!(matches!(
        SatoPredictor::from_bytes(&flipped),
        Err(PredictorError::Checksum(_))
    ));
}

#[test]
fn corrupted_colstore_streams_fail_with_typed_errors_not_panics() {
    let corpus = default_corpus(5, 3);
    let bytes = corpus_to_bytes(&corpus);
    let predictor = full_predictor();

    // Cutting into the final frame must surface as an error, not a short
    // silent read.
    let err = predictor
        .predict_colstore_bytes(&bytes[..bytes.len() - 1], 256)
        .err();
    assert!(
        matches!(
            err,
            Some(ColStoreError::Truncated { .. }) | Some(ColStoreError::Checksum { .. })
        ),
        "truncated colstore must be a Truncated/Checksum error, got {err:?}"
    );

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        predictor.predict_colstore_bytes(&bad_magic, 256),
        Err(ColStoreError::BadMagic)
    ));

    // A bit flip inside the first frame's payload (16-byte header + 8-byte
    // frame length, then payload) is caught by the frame checksum.
    let mut flipped = bytes.clone();
    flipped[16 + 8 + 2] ^= 0x01;
    assert!(matches!(
        predictor.predict_colstore_bytes(&flipped, 256),
        Err(ColStoreError::Checksum { table_index: 0 })
    ));
}

/// `save` → `load` through a file reproduces `predict` for a variant
/// without and one with the CRF, and a missing path is a typed I/O error.
/// File names carry the process id, so concurrent test runs do not share
/// them.
#[test]
fn binary_file_round_trip_and_missing_file_error() {
    let no_struct = SatoModel::train(
        &default_corpus(20, 23),
        tiny_config(23),
        SatoVariant::SatoNoStruct,
    )
    .into_predictor();
    let corpus = default_corpus(10, 78);
    for (name, predictor) in [("no_struct", &no_struct), ("full", full_predictor())] {
        let path = std::env::temp_dir().join(format!(
            "sato_integration_roundtrip_{}_{name}.satoart",
            std::process::id()
        ));
        predictor.save(&path).expect("save artifact");
        let loaded = SatoPredictor::load(&path).expect("load artifact");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.variant(), predictor.variant());
        for table in corpus.iter().take(5) {
            assert_eq!(predictor.predict(table), loaded.predict(table), "{name}");
        }
    }
    let missing = std::env::temp_dir().join(format!(
        "sato_no_such_artifact_{}.satoart",
        std::process::id()
    ));
    assert!(matches!(
        SatoPredictor::load(missing),
        Err(PredictorError::Io(_))
    ));
}
