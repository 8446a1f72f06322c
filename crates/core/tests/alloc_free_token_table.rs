//! Allocation-count regression test for the batched engine's token table.
//!
//! Every engine call clears the token table and interns the tokens of its
//! own batch, so a long-lived `ServingScratch` sees the table's contents
//! turn over completely from one batch to the next. The contract: once the
//! scratch is warm, a batch whose tokens differ from the previous batch's
//! performs **zero** heap allocations, because the table's map, arena,
//! entries and Word vectors keep their capacity across the clear. A
//! counting global allocator makes that a hard assertion, and the warm rows
//! are re-checked bit for bit against the allocating path.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrent test would pollute the window between
//! the two counter reads (same convention as `alloc_free_embed.rs`).

use sato::{SatoConfig, SatoModel, SatoVariant, ServingScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Corpus, Table};
use sato_tabular::text::tokenize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
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

fn tokens_of(corpus: &Corpus) -> HashSet<String> {
    let mut tokens = HashSet::new();
    for table in corpus.iter() {
        table.for_each_value(|value| tokens.extend(tokenize(value)));
    }
    tokens
}

fn one_table(corpus: Corpus) -> Corpus {
    let columns = corpus.tables.into_iter().flat_map(|t| t.columns).collect();
    Corpus::new(vec![Table::unlabelled(0, columns)])
}

#[test]
fn warm_batch_with_new_tokens_allocates_nothing() {
    let mut config = SatoConfig::fast();
    config.network.epochs = 5;
    config.lda.train_iterations = 15;
    config.crf.epochs = 2;
    let predictor =
        SatoModel::train(&default_corpus(16, 21), config, SatoVariant::Full).into_predictor();

    // Two batches whose tokens differ: each the columns of a generated
    // corpus as one wide table, so the batch former's list of pending
    // tables holds one entry.
    let first = one_table(default_corpus(12, 501));
    let second = one_table(default_corpus(12, 502));
    let new_tokens = tokens_of(&second).difference(&tokens_of(&first)).count();
    assert!(
        new_tokens > 0,
        "the second batch must bring tokens of its own"
    );
    let batch_cols = first.num_columns().max(second.num_columns());

    let reference: Vec<Vec<Vec<f32>>> = second
        .iter()
        .map(|t| predictor.column_embeddings(t))
        .collect();

    let mut scratch = ServingScratch::new();
    let mut rows = Vec::new();
    let embed = |corpus: &Corpus, scratch: &mut ServingScratch, rows: &mut Vec<u32>| {
        predictor.embed_corpus_batched_with(corpus, batch_cols, scratch, |_, _, row| {
            rows.extend(row.iter().map(|v| v.to_bits()));
        })
    };
    // Warm-up: both batches once, so every buffer has seen both shapes.
    embed(&first, &mut scratch, &mut rows);
    embed(&second, &mut scratch, &mut rows);
    rows.clear();
    embed(&first, &mut scratch, &mut rows);
    rows.clear();
    rows.reserve(second.num_columns() * predictor.embedding_dim());

    // The second batch replaces every token the first one interned. Its
    // call's one allocation is the batch former's list of pending table
    // references; the batch itself allocates nothing.
    let before = allocation_count();
    embed(&second, &mut scratch, &mut rows);
    let after = allocation_count();
    assert!(
        after - before <= 1,
        "a warm batch with new tokens must not allocate (got {} allocations)",
        after - before
    );

    let want: Vec<u32> = reference
        .iter()
        .flatten()
        .flatten()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(rows, want, "warm rows diverged from the allocating path");
}
