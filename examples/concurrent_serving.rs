//! Concurrent serving: one frozen `SatoPredictor` shared by reference across
//! many threads — the deployment shape the train/freeze/serve API split
//! exists for. A single set of weights serves every thread with no locks,
//! no cloning and no interior mutability, because the predictor is
//! `Send + Sync` and every prediction method takes `&self`.
//!
//! The example verifies that (a) concurrent serving produces bit-for-bit
//! the same predictions as a sequential pass, and (b) throughput scales
//! with the thread count.
//!
//! Run with:
//! ```text
//! cargo run --release --example concurrent_serving
//! ```

use sato::{SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_tabular::corpus::default_corpus;
use sato_tabular::split::train_test_split;
use std::time::Instant;

/// The `Send + Sync` guarantee, checked at compile time: if `SatoPredictor`
/// ever lost it, this example would stop compiling.
fn assert_shareable<T: Send + Sync>(value: &T) -> &T {
    value
}

fn main() {
    println!("training a full Sato model ...");
    let corpus = default_corpus(300, 21);
    let split = train_test_split(&corpus, 0.3, 5);
    let config = SatoConfig::fast().with_epochs(25);
    let model = SatoModel::train(&split.train, config, SatoVariant::Full);

    // Freeze the trained model into the immutable serving artifact.
    let predictor = model.into_predictor();
    let predictor = assert_shareable(&predictor);

    // Sequential baseline.
    let start = Instant::now();
    let sequential = predictor.predict_corpus(&split.test);
    let sequential_secs = start.elapsed().as_secs_f64();
    println!(
        "sequential: {} tables in {:.2}s ({:.0} tables/s)",
        sequential.len(),
        sequential_secs,
        sequential.len() as f64 / sequential_secs
    );

    // Corpus-batched serving: micro-batches of columns share one forward
    // pass per batch. Batching is exact, so the output is bit-identical.
    for batch_cols in [64, 256] {
        let start = Instant::now();
        let batched = predictor.predict_corpus_batched(&split.test, batch_cols);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            sequential, batched,
            "batched serving must be bit-for-bit identical to sequential"
        );
        println!(
            "batched({batch_cols}): {} tables in {:.2}s ({:.0} tables/s, {:.2}x)",
            batched.len(),
            secs,
            batched.len() as f64 / secs,
            sequential_secs / secs
        );
    }

    // Batching composes with thread sharding: each thread serves a
    // contiguous chunk in micro-batches with its own scratch. Same output,
    // more threads.
    for n_threads in [2, 4, 8] {
        let start = Instant::now();
        let parallel = predictor.predict_corpus_parallel_batched(&split.test, 128, n_threads);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            sequential, parallel,
            "parallel serving must be bit-for-bit identical to sequential"
        );
        println!(
            "{n_threads} threads:  {} tables in {:.2}s ({:.0} tables/s, {:.1}x)",
            parallel.len(),
            secs,
            parallel.len() as f64 / secs,
            sequential_secs / secs
        );
    }

    // Hand-rolled serving loop: independent worker threads borrowing the
    // same predictor, as an HTTP handler pool would. `std::thread::scope`
    // lets every worker borrow `predictor` directly.
    println!("\nhand-rolled worker pool (4 workers, interleaved tables):");
    let workers = 4;
    let test = &split.test;
    let answers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    test.iter()
                        .skip(w)
                        .step_by(workers)
                        .map(|t| (t.id, predictor.predict(t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    println!("workers annotated {} tables", answers.len());
    for (id, types) in answers.iter().take(3) {
        println!("  table {id}: {types:?}");
    }

    // The artifact round-trips through its SATOART1 bytes, so a serving
    // fleet can load the exact same weights from disk.
    let bytes = predictor.to_bytes();
    let reloaded = SatoPredictor::from_bytes(&bytes).expect("artifact round-trip");
    assert_eq!(
        reloaded.predict_corpus(&split.test),
        sequential,
        "a reloaded artifact reproduces predictions bit for bit"
    );
    println!(
        "\nartifact: {} KiB; reloaded predictor reproduces all {} predictions exactly",
        bytes.len() / 1024,
        sequential.len()
    );
}
