//! Allocation-count regression test for the eval-mode forward pass.
//!
//! The serving hot path relies on `Sequential::infer_with` /
//! `MultiInputNetwork::infer_with` performing **zero** heap allocations once
//! their scratch buffers are warm (no per-layer clones, no per-call
//! temporaries). A counting global allocator makes that a hard assertion
//! rather than a code-review convention.
//!
//! This file deliberately contains a single `#[test]`: the counter is
//! process-global, and a concurrent test would pollute the window between
//! the two counter reads.

use sato_nn::layers::{BatchNorm, Dense, Dropout, ReLU};
use sato_nn::network::{InferScratch, MultiInferScratch, MultiInputNetwork, Sequential};
use sato_nn::Matrix;
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
fn warm_eval_forward_allocates_nothing() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(11);

    // A stack with every layer kind the Sato networks use.
    let mut stack = Sequential::new()
        .push(Dense::new(6, 16, &mut rng))
        .push(ReLU::new())
        .push(BatchNorm::new(16))
        .push(Dropout::new(0.3, StdRng::seed_from_u64(5)))
        .push(Dense::new(16, 4, &mut rng));
    let x = Matrix::from_rows(&[
        vec![0.5, -1.0, 2.0, 0.1, 0.0, 1.0],
        vec![1.0, 0.3, -0.7, 0.9, 2.0, -1.0],
        vec![0.0, 0.0, 1.0, -1.0, 0.5, 0.5],
    ]);
    // Move the BatchNorm running statistics off their initialisation.
    for _ in 0..5 {
        stack.forward(&x);
    }

    let mut scratch = InferScratch::new();
    let mut out = Matrix::default();
    // Warm-up: the first calls size every buffer.
    stack.infer_with(&x, &mut scratch, &mut out);
    stack.infer_with(&x, &mut scratch, &mut out);
    let mut expected = Matrix::default();
    stack.infer_with(&x, &mut InferScratch::new(), &mut expected);
    assert_eq!(out, expected, "a warm scratch must match a fresh one");

    let before = allocation_count();
    for _ in 0..20 {
        stack.infer_with(&x, &mut scratch, &mut out);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm Sequential::infer_with must not allocate (got {} allocations over 20 calls)",
        after - before
    );
    assert_eq!(out, expected);

    // Same contract for the multi-input container (branches + concat +
    // primary trunk).
    let branches = vec![
        Sequential::new()
            .push(Dense::new(3, 8, &mut rng))
            .push(ReLU::new())
            .push(Dropout::new(0.2, StdRng::seed_from_u64(6))),
        Sequential::new(), // identity branch, like the Stat group
    ];
    let primary = Sequential::new()
        .push(Dense::new(8 + 2, 8, &mut rng))
        .push(ReLU::new())
        .push(BatchNorm::new(8))
        .push(Dense::new(8, 5, &mut rng));
    let net = MultiInputNetwork::new(branches, primary);
    let inputs = [
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]),
        Matrix::from_rows(&[vec![0.5, -0.5], vec![1.0, 1.0]]),
    ];

    let mut multi_scratch = MultiInferScratch::new();
    let mut multi_out = Matrix::default();
    net.infer_with(&inputs, &mut multi_scratch, &mut multi_out);
    net.infer_with(&inputs, &mut multi_scratch, &mut multi_out);
    let mut multi_expected = Matrix::default();
    net.infer_with(&inputs, &mut MultiInferScratch::new(), &mut multi_expected);
    assert_eq!(multi_out, multi_expected);

    let before = allocation_count();
    for _ in 0..20 {
        net.infer_with(&inputs, &mut multi_scratch, &mut multi_out);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm MultiInputNetwork::infer_with must not allocate (got {} allocations over 20 calls)",
        after - before
    );
    assert_eq!(multi_out, multi_expected);
}
