//! Allocation accounting for the HNSW hot paths, through a counting global
//! allocator: after warm-up, `insert` allocates only when one of the
//! index's node arrays grows (amortised doubling), and `search_knn_with`
//! on a warm `HnswScratch` allocates nothing.

use sato_index::{ColumnRef, HnswConfig, HnswIndex, HnswScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on their own threads).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Deterministic vectors in [-0.5, 0.5) (splitmix64 bits).
fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
}

fn key(i: usize) -> ColumnRef {
    ColumnRef {
        table_id: i as u64 / 3,
        col_idx: (i % 3) as u32,
    }
}

/// Arrays that grow with the node count by amortised doubling:
/// embeddings, keys, levels, the key map, the level-0 page table,
/// upper-level links, upper-level slots, and the insert scratch's visited
/// bitmap and its dirty-word list.
const NODE_ARRAYS: usize = 9;

/// Nodes per level-0 adjacency page; each new page is one allocation.
const PAGE_NODES: usize = 256;

#[test]
fn warm_inserts_allocate_only_when_node_arrays_grow() {
    const WARM: usize = 256;
    const TOTAL: usize = 2048;
    let data = vectors(TOTAL, 24, 5);
    let mut index = HnswIndex::new(24, 1, HnswConfig::default());
    for (i, v) in data[..WARM].iter().enumerate() {
        assert!(index.insert(key(i), v));
    }
    let mut total = 0;
    let mut allocating_inserts = 0;
    for (i, v) in data.iter().enumerate().skip(WARM) {
        let n = allocations_in(|| assert!(index.insert(key(i), v)));
        total += n;
        allocating_inserts += usize::from(n > 0);
    }
    // Growing 8x, a doubling array reallocates three times; one more for
    // a capacity that sat just below a power of two at warm-up, and one
    // for an array (the key map, the dirty-word list) whose growth point
    // is not a power of two of the node count. Level-0 links add a page
    // every PAGE_NODES nodes.
    let bound =
        NODE_ARRAYS * ((TOTAL / WARM).ilog2() as usize + 2) + (TOTAL - WARM).div_ceil(PAGE_NODES);
    assert!(
        total <= bound,
        "{total} allocations over {} warm inserts (bound {bound}, {allocating_inserts} inserts allocated)",
        TOTAL - WARM
    );
}

#[test]
fn warm_searches_allocate_nothing() {
    let data = vectors(2000, 24, 9);
    let mut index = HnswIndex::new(24, 1, HnswConfig::default());
    for (i, v) in data.iter().enumerate() {
        index.insert(key(i), v);
    }
    let queries = vectors(96, 24, 77);
    let (warm_up, measured) = queries.split_at(16);
    let mut scratch = HnswScratch::new();
    for q in warm_up {
        index.search_knn_with(q, 10, 64, &mut scratch);
    }
    let mut answered = 0;
    let n = allocations_in(|| {
        for q in measured {
            answered += index.search_knn_with(q, 10, 64, &mut scratch).len();
        }
    });
    assert_eq!(n, 0, "warm searches allocated {n} times");
    assert_eq!(answered, 10 * measured.len());
    // The scratch form answers exactly what the allocating form does.
    for q in measured {
        assert_eq!(
            index.search_knn_with(q, 10, 64, &mut scratch),
            index.search_knn_with_ef(q, 10, 64).as_slice()
        );
    }
}
