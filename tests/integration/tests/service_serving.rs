//! Serving-exactness suite for the always-on annotation service
//! (`sato-serve`): concurrent submissions under arbitrary interleavings,
//! batch widths and mid-stream artifact hot-swaps must return responses
//! **bit-identical** to a sequential `predict_corpus_batched` pass on
//! whichever artifact the service says served them — for all four model
//! variants. Plus direct regressions for the
//! queue's failure modes: admission-control rejection, deadline expiry, and
//! colstore submissions.

use proptest::prelude::*;
use sato::{SatoConfig, SatoModel, SatoPredictor, SatoVariant, TablePrediction};
use sato_serve::{RequestOptions, SatoService, ServeError, ServiceConfig};
use sato_tabular::colstore;
use sato_tabular::table::{Column, Corpus, Table};
use std::sync::OnceLock;
use std::time::Duration;

fn tiny_config() -> SatoConfig {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 3;
    config
}

/// Per-variant fixture: two model generations (trained on different
/// corpora, so their content hashes differ) as canonical artifact bytes —
/// predictors are rebuilt per test via `from_bytes`, which is also the
/// hot-swap load path.
struct VariantFixture {
    generation_a: Vec<u8>,
    generation_b: Vec<u8>,
}

fn fixtures() -> &'static [VariantFixture; 4] {
    static FIXTURES: OnceLock<[VariantFixture; 4]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        SatoVariant::ALL.map(|variant| {
            let train = |seed: u64| {
                SatoModel::train(
                    &sato_tabular::corpus::default_corpus(20, seed),
                    tiny_config(),
                    variant,
                )
                .into_predictor()
                .to_bytes()
            };
            let fixture = VariantFixture {
                generation_a: train(7),
                generation_b: train(8),
            };
            assert_ne!(
                fixture.generation_a,
                fixture.generation_b,
                "the two generations of {} must differ",
                variant.name()
            );
            fixture
        })
    })
}

/// Rebuild one generation of one variant.
fn predictor(variant_idx: usize, second_generation: bool) -> SatoPredictor {
    let fixture = &fixtures()[variant_idx];
    let bytes = if second_generation {
        &fixture.generation_b
    } else {
        &fixture.generation_a
    };
    SatoPredictor::from_bytes(bytes).expect("fixture artifact loads")
}

/// Deterministic cell pool mixing in-vocabulary words, numerics, blanks and
/// out-of-vocabulary noise (same shape as the topic-parity suite).
fn cell_value(entropy: usize) -> &'static str {
    const POOL: [&str; 10] = [
        "Warsaw",
        "London",
        "Poland",
        "Rock",
        "12.5",
        "1,777,972",
        "",
        "alpha beta gamma",
        "zzzzqq",
        "2020-11-05",
    ];
    POOL[entropy % POOL.len()]
}

/// Build one request's tables from per-table column counts; `first_id`
/// keeps ids unique across the requests of a case (the id is the topic-memo
/// key within an artifact).
fn request_tables(col_counts: &[usize], first_id: u64, salt: usize) -> Vec<Table> {
    col_counts
        .iter()
        .enumerate()
        .map(|(t, &cols)| {
            let columns = (0..cols)
                .map(|c| {
                    let rows = 1 + (salt + t * 5 + c * 3) % 4;
                    Column::new((0..rows).map(|r| cell_value(salt + t * 31 + c * 7 + r)))
                })
                .collect();
            Table::unlabelled(first_id + t as u64, columns)
        })
        .collect()
}

/// The sequential oracle the tentpole promises: `predict_corpus_batched` on
/// the request's own tables, on a specific artifact.
fn oracle(p: &SatoPredictor, tables: &[Table], batch_cols: usize) -> Vec<TablePrediction> {
    p.predict_corpus_batched(&Corpus::new(tables.to_vec()), batch_cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Requests submitted concurrently from two client threads — arbitrary
    /// per-request shapes, arbitrary service batch width, arbitrary
    /// topic-memo capacity, and a hot-swap racing the submissions at an
    /// arbitrary point — every response must be bit-identical to the
    /// sequential batched oracle of the artifact whose hash tagged it.
    #[test]
    fn concurrent_interleavings_with_racing_hot_swap_serve_bit_identically(
        variant_idx in 0usize..4,
        batch_cols in 1usize..48,
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 0..4), 2..8),
        salt in 0usize..10_000,
        swap_after in 0usize..8,
        memo in 0usize..2,
    ) {
        let a = predictor(variant_idx, false);
        let b = predictor(variant_idx, true);
        prop_assert_ne!(a.content_hash(), b.content_hash());

        let requests: Vec<Vec<Table>> = shapes
            .iter()
            .enumerate()
            .map(|(r, cols)| request_tables(cols, (r * 100) as u64, salt + r))
            .collect();

        let service = SatoService::start(
            predictor(variant_idx, false),
            ServiceConfig {
                batch_cols,
                topic_memo_capacity: if memo == 1 { 32 } else { 0 },
                ..ServiceConfig::default()
            },
        );
        let swap_after = swap_after.min(requests.len());
        let responses = std::thread::scope(|scope| {
            // Two client threads interleave their submissions while the
            // main thread swaps the artifact: which artifact serves which
            // request is a genuine race, resolved by each response's tag.
            let clients: Vec<_> = (0..2)
                .map(|parity| {
                    let service = &service;
                    let requests = &requests;
                    scope.spawn(move || {
                        requests
                            .iter()
                            .enumerate()
                            .filter(|(r, _)| r % 2 == parity)
                            .map(|(r, tables)| {
                                if r == swap_after {
                                    service.swap_predictor(predictor(variant_idx, true));
                                }
                                let handle = service
                                    .submit(tables.clone(), RequestOptions::default())
                                    .expect("queue never fills in this test");
                                (r, handle.wait().expect("request serves"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        });

        prop_assert_eq!(responses.len(), requests.len());
        for (r, response) in responses {
            let served_by = if response.artifact_hash == a.content_hash() {
                &a
            } else {
                prop_assert_eq!(
                    response.artifact_hash,
                    b.content_hash(),
                    "response tagged with an unknown artifact"
                );
                &b
            };
            prop_assert_eq!(
                &response.predictions,
                &oracle(served_by, &requests[r], batch_cols),
                "request {} ({} tables, batch {})",
                r,
                requests[r].len(),
                batch_cols
            );
        }
        service.shutdown();
    }
}

/// The full matrix, deterministically: for every variant, queued
/// requests coalesced into shared micro-batches before AND after a
/// mid-stream hot-swap reproduce each artifact's sequential batched oracle
/// bit for bit — with the topic memo enabled, so a stale memo entry
/// surviving the swap would surface here as a theta drift.
#[test]
fn all_variants_and_samplers_serve_bit_identically_across_a_hot_swap() {
    let batch_cols = 7;
    for variant_idx in 0..4 {
        let a = predictor(variant_idx, false);
        let b = predictor(variant_idx, true);
        let requests: Vec<Vec<Table>> = (0..4)
            .map(|r| request_tables(&[3, 1, 0, 2][..=r.min(3)], (r * 100) as u64, r))
            .collect();

        let service = SatoService::start(
            predictor(variant_idx, false),
            ServiceConfig {
                batch_cols,
                topic_memo_capacity: 32,
                ..ServiceConfig::default()
            },
        );
        // Phase 1: all requests queue while paused, then drain together
        // (coalesced across requests) on generation A.
        service.pause();
        let handles: Vec<_> = requests
            .iter()
            .map(|tables| {
                service
                    .submit(tables.clone(), RequestOptions::default())
                    .expect("admitted")
            })
            .collect();
        service.resume();
        for (r, handle) in handles.into_iter().enumerate() {
            let response = handle.wait().expect("served");
            assert_eq!(
                response.artifact_hash,
                a.content_hash(),
                "phase 1 serves on generation A"
            );
            assert_eq!(
                response.predictions,
                oracle(&a, &requests[r], batch_cols),
                "variant {variant_idx} phase 1 request {r}"
            );
        }
        // Phase 2: hot-swap, then serve the *same tables* again. The
        // worker's topic memo is warm with generation-A thetas for
        // exactly these table ids; the artifact tag on the memo must
        // invalidate them, or topic-aware variants would reply with
        // generation-A topics under generation B's hash.
        service.swap_predictor(predictor(variant_idx, true));
        let handles: Vec<_> = requests
            .iter()
            .map(|tables| {
                service
                    .submit(tables.clone(), RequestOptions::default())
                    .expect("admitted")
            })
            .collect();
        for (r, handle) in handles.into_iter().enumerate() {
            let response = handle.wait().expect("served");
            assert_eq!(
                response.artifact_hash,
                b.content_hash(),
                "phase 2 serves on generation B"
            );
            assert_eq!(
                response.predictions,
                oracle(&b, &requests[r], batch_cols),
                "variant {variant_idx} phase 2 request {r}"
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.completed, 2 * requests.len() as u64);
    }
}

/// A colstore byte stream submitted to the service is decoded at submission
/// and served exactly like the equivalent in-memory corpus request.
#[test]
fn colstore_submissions_serve_bit_identically() {
    let a = predictor(1, false); // Full variant
    let tables = request_tables(&[2, 3, 1], 0, 5);
    let corpus = Corpus::new(tables.clone());
    let bytes = colstore::corpus_to_bytes(&corpus);

    let service = SatoService::start(predictor(1, false), ServiceConfig::default());
    let response = service
        .submit_colstore_bytes(&bytes, RequestOptions::default())
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(response.predictions, oracle(&a, &tables, 64));

    // Garbage bytes are rejected at submission, not in the worker.
    assert!(matches!(
        service.submit_colstore_bytes(b"not a colstore", RequestOptions::default()),
        Err(ServeError::Corpus(_))
    ));
    service.shutdown();
}

/// Admission control and deadlines, exercised deterministically through the
/// pause seam: the queue rejects beyond its depth, and an expired request
/// is answered with `Expired` without ever being batched.
#[test]
fn overload_and_deadline_failure_modes() {
    let service = SatoService::start(
        predictor(0, false), // Base variant: cheapest
        ServiceConfig {
            queue_depth: 2,
            ..ServiceConfig::default()
        },
    );
    service.pause();
    let keep_a = service
        .submit(request_tables(&[1], 0, 0), RequestOptions::default())
        .expect("admitted");
    let doomed = service
        .submit(
            request_tables(&[1], 10, 1),
            RequestOptions {
                deadline: Some(Duration::ZERO),
            },
        )
        .expect("admitted");
    let rejected = service.submit(request_tables(&[1], 20, 2), RequestOptions::default());
    assert!(matches!(
        rejected,
        Err(ServeError::Overloaded { queued: 2 })
    ));
    service.resume();

    assert!(keep_a.wait().is_ok());
    assert!(matches!(doomed.wait(), Err(ServeError::Expired)));
    let stats = service.shutdown();
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.latency.count(), 1);
}
