//! Allocation-count regression test for the warm embedding-extraction path.
//!
//! The ANN index build feeds on `SatoPredictor::column_embeddings_into` /
//! `embed_corpus_batched_with`, both run by the batched engine; the
//! contract is that once a `ServingScratch` is warm, extracting the
//! embeddings of already-seen table shapes performs **zero** heap
//! allocations per batch — features, topic estimation and the network trunk
//! all run through reused buffers, and the result matrix is borrowed, not
//! built. A counting global allocator makes that a hard assertion, and the
//! same pass re-checks bit-parity with the allocating
//! `column_embeddings` path.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrent test would pollute the window between
//! the two counter reads (same convention as `sato-nn`'s
//! `alloc_free_infer`).

use sato::{SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Corpus;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_embedding_extraction_allocates_nothing() {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 2;
    let corpus = default_corpus(16, 21);
    let predictor = SatoModel::train(&corpus, config, SatoVariant::Full).into_predictor();

    // The allocating reference rows, captured up front.
    let reference: Vec<Vec<Vec<f32>>> = corpus
        .iter()
        .map(|t| predictor.column_embeddings(t))
        .collect();

    let mut scratch = ServingScratch::new();
    // Warm-up: two passes size every buffer (feature scratch, topic Gibbs
    // buffers, group matrices, the network ping-pong pair) for every table
    // shape in the corpus.
    for _ in 0..2 {
        for table in corpus.iter() {
            predictor.column_embeddings_into(table, &mut scratch);
        }
    }

    let before = allocation_count();
    for (table, want_rows) in corpus.iter().zip(&reference) {
        let embeddings = predictor.column_embeddings_into(table, &mut scratch);
        assert_eq!(embeddings.rows(), want_rows.len());
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm column_embeddings_into must not allocate (got {} allocations over {} tables)",
        after - before,
        corpus.tables.len()
    );

    // Same contract through the batch former, one micro-batch per table
    // here: no batch allocates. The only allocation of a call is the
    // former's list of pending table references, reserved once per call.
    let mut rows = 0usize;
    let mut embed = |scratch: &mut ServingScratch| {
        predictor.embed_corpus_batched_with(&corpus, 1, scratch, |_, _, _| rows += 1)
    };
    embed(&mut scratch);
    let before = allocation_count();
    for _ in 0..5 {
        embed(&mut scratch);
    }
    let after = allocation_count();
    assert!(
        after - before <= 5,
        "warm embed_corpus_batched_with must not allocate per batch (got {} allocations \
         over 5 calls of {} batches)",
        after - before,
        corpus.tables.len()
    );
    assert_eq!(rows, 6 * corpus.num_columns());

    // Twelve tables in one micro-batch: the list of pending references is
    // still reserved once, not grown table by table.
    let twelve = Corpus::new(corpus.tables[..12].to_vec());
    let batch_cols = twelve.num_columns();
    let mut tables = 0usize;
    let mut embed = |scratch: &mut ServingScratch| {
        predictor.embed_corpus_batched_with(&twelve, batch_cols, scratch, |_, c, _| {
            tables += usize::from(c == 0);
        })
    };
    embed(&mut scratch);
    let before = allocation_count();
    for _ in 0..5 {
        embed(&mut scratch);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        5,
        "a warm embed_corpus_batched_with call over one 12-table batch allocates once"
    );
    assert_eq!(tables, 6 * 12);

    // A serve round feeds the batch former a `flat_map` over its requests'
    // tables, whose size hint has no upper bound. Its list of pending
    // references is still reserved once, so a warm call over two requests
    // allocates no more than the same call over one slice.
    let requests = [corpus.tables[..6].to_vec(), corpus.tables[6..12].to_vec()];
    let predict_allocations = |flat: bool, scratch: &mut ServingScratch| {
        let before = allocation_count();
        let served = if flat {
            let tables = requests.iter().flat_map(|r| r.iter());
            predictor.predict_tables_batched(tables, batch_cols, scratch, |_, _| {})
        } else {
            predictor.predict_tables_batched(&twelve.tables, batch_cols, scratch, |_, _| {})
        };
        let allocations = allocation_count() - before;
        assert_eq!(served.len(), 12);
        allocations
    };
    predict_allocations(false, &mut scratch);
    predict_allocations(true, &mut scratch);
    let over_slice = predict_allocations(false, &mut scratch);
    let over_requests = predict_allocations(true, &mut scratch);
    assert!(
        over_requests <= over_slice,
        "a warm call over two requests allocates {over_requests} times, over one slice \
         {over_slice}"
    );

    // The warm rows are still bit-identical to the allocating path.
    for (table, want_rows) in corpus.iter().zip(&reference) {
        let embeddings = predictor.column_embeddings_into(table, &mut scratch);
        for (r, want) in want_rows.iter().enumerate() {
            assert_eq!(
                embeddings
                    .row(r)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "table {} row {r}",
                table.id
            );
        }
    }
}
