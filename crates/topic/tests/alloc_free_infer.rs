//! Allocation-count regression test for warm LDA topic inference.
//!
//! The serving hot path relies on `LdaModel::infer_tokens_into` (and the
//! streaming `TableIntentEstimator::estimate_cells_into` built on it) performing
//! **zero** heap allocations once the scratch buffers are warm — no fresh
//! sorted-id, word-count or `r` buffer per table (the sort is in place), no
//! `as_document` mega-string, no per-token `String`. A counting global allocator makes
//! that a hard assertion rather than a code-review convention, mirroring
//! `crates/nn/tests/alloc_free_infer.rs`.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrent test would pollute the window between
//! the two counter reads.

use sato_tabular::table::{Column, Table};
use sato_topic::{
    LdaConfig, LdaInferScratch, LdaModel, TableIntentEstimator, TopicSampler, TopicScratch,
};
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
fn warm_topic_inference_allocates_nothing() {
    let docs: Vec<String> = (0..30)
        .map(|i| {
            if i % 2 == 0 {
                "rock jazz blues album artist guitar song melody".to_string()
            } else {
                "warsaw london paris city country europe capital river".to_string()
            }
        })
        .collect();
    let model = LdaModel::fit(&docs, 1, LdaConfig::tiny());

    // Raw token-level inference: a warm `infer_tokens_into` must not
    // allocate. The document repeats words, so the run-length count has
    // work to do.
    let tokens = model
        .vocabulary()
        .encode("rock jazz blues artist album city rock city rock");
    let mut scratch = LdaInferScratch::new();
    let mut out = vec![0.0f32; model.num_topics()];
    // Warm-up: the first call sizes every buffer.
    model.infer_tokens_into(&tokens, &mut scratch, &mut out);
    let expected = model.infer_tokens(&tokens);
    assert_eq!(out, expected, "scratch path must match the allocating path");

    let before = allocation_count();
    for _ in 0..20 {
        model.infer_tokens_into(&tokens, &mut scratch, &mut out);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm LdaModel::infer_tokens_into must not allocate (got {} allocations over 20 calls)",
        after - before
    );
    assert_eq!(out, expected);

    // Same contract one level up: the streaming table estimate (visitor over
    // cell values + `&str` vocabulary lookups + scratch inference).
    let estimator = TableIntentEstimator::from_model(model);
    let table = Table::unlabelled(
        1,
        vec![
            Column::new(["rock", "jazz blues", "artist"]),
            Column::new(["warsaw", "london", "unknown-token"]),
        ],
    );
    let mut topic_scratch = TopicScratch::new();
    let mut theta = vec![0.0f32; estimator.num_topics()];
    estimator.estimate_cells_into(&table, &TopicSampler, &mut topic_scratch, &mut theta);
    let reference = estimator.estimate(&table);
    assert_eq!(theta, reference, "streaming estimate must match the oracle");

    let before = allocation_count();
    for _ in 0..20 {
        estimator.estimate_cells_into(&table, &TopicSampler, &mut topic_scratch, &mut theta);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm TableIntentEstimator::estimate_cells_into must not allocate (got {} allocations over 20 calls)",
        after - before
    );
    assert_eq!(theta, reference);
}
