//! The HNSW graph: deterministic construction, incremental insert, beam
//! search, and the exact brute-force oracle.
//!
//! Memory layout: the graph lives in flat arrays. Level 0 is one `u32`
//! array with a fixed stride of `1 + 2m` per node (a count, then the ids);
//! upper levels are `1 + m` blocks, one per level above 0, reached through
//! a per-node slot. Searches and inserts run in an [`HnswScratch`] (the
//! visited set, the beam and the neighbour-selection buffers), so a warm
//! insert only allocates when a node array grows and a warm search with
//! [`HnswIndex::search_knn_with`] allocates nothing.

use std::collections::{BinaryHeap, HashMap};

/// Identity of an indexed column: which table, which column position.
///
/// This is the unit the annotation service serves and the unit data
/// discovery returns — a search result is "column 2 of table 917".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColumnRef {
    /// The owning table's id (`Table::id` / `TableCells::table_id`).
    pub table_id: u64,
    /// Zero-based column position within the table.
    pub col_idx: u32,
}

/// One search result: an indexed column and its squared-L2 distance from
/// the query embedding (ascending = more similar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The matched column.
    pub key: ColumnRef,
    /// Squared Euclidean distance from the query.
    pub distance: f32,
}

/// HNSW construction and search knobs.
///
/// The defaults are tuned for the serving embedding widths (48–128 dims)
/// at 10⁵–10⁷ columns: recall@10 ≥ 0.9 against the exact oracle at an
/// order of magnitude fewer distance evaluations than a scan. Raise
/// `ef_search` for recall, lower it for speed; `m`/`ef_construction`
/// trade build time and memory for graph quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max links per node on levels above 0 (level 0 keeps `2 * m`).
    /// At most [`HnswIndex::MAX_M`]: every node reserves room for a full
    /// list on each of its levels.
    pub m: usize,
    /// Beam width while building: candidate pool per inserted node.
    pub ef_construction: usize,
    /// Default beam width while searching ([`HnswIndex::search_knn`]
    /// widens it to `k` when `k` is larger).
    pub ef_search: usize,
    /// Seed of the internal level sampler — fixes the graph byte-for-byte
    /// for a given insert sequence.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 128,
            ef_search: 64,
            seed: 0x5a70_1d45,
        }
    }
}

/// Candidate with a *total* deterministic order: distance first
/// (`f32::total_cmp`), node id as the tie-break. The tie-break is what
/// makes equal-distance neighborhoods reproducible across builds and
/// makes ANN-vs-exact recall comparisons fair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    dist: f32,
    node: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One beam slot: a candidate and whether its links have been expanded.
#[derive(Debug, Clone, Copy)]
struct BeamEntry {
    cand: Cand,
    expanded: bool,
}

/// Reusable visited set: a bitmap plus the words a pass has dirtied, so
/// clearing it costs in proportion to the nodes touched, not to the index
/// size.
#[derive(Debug, Default)]
pub(crate) struct Visited {
    words: Vec<u64>,
    dirty: Vec<u32>,
}

impl Visited {
    /// Unmark everything and make room for nodes `0..n`.
    pub(crate) fn reset(&mut self, n: usize) {
        for &w in &self.dirty {
            self.words[w as usize] = 0;
        }
        self.dirty.clear();
        let words = n.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    /// Mark `i`; returns `true` if it was not yet marked.
    pub(crate) fn insert(&mut self, i: u32) -> bool {
        let (word, bit) = ((i / 64) as usize, i % 64);
        let w = &mut self.words[word];
        if *w & (1 << bit) != 0 {
            return false;
        }
        if *w == 0 {
            self.dirty.push(word as u32);
        }
        *w |= 1 << bit;
        true
    }
}

/// Working memory of HNSW searches and inserts: the visited set, the
/// beam, and the neighbour-selection buffers.
///
/// [`HnswIndex`] owns one for its inserts. A search caller that keeps one
/// across [`HnswIndex::search_knn_with`] calls searches without
/// allocating once the buffers have grown to the index and the beam
/// width. One scratch may serve any number of indexes, one search at a
/// time.
#[derive(Debug, Default)]
pub struct HnswScratch {
    visited: Visited,
    /// Ascending by [`Cand`]; at most `ef` entries.
    beam: Vec<BeamEntry>,
    /// The unvisited links of the node being expanded, or a full
    /// neighbour list plus the link that overflowed it.
    cands: Vec<Cand>,
    selected: Vec<Cand>,
    pruned: Vec<Cand>,
    results: Vec<Neighbor>,
}

impl HnswScratch {
    /// An empty scratch; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Nodes per level-0 page. Pages never move, so growing the graph never
/// copies the adjacency, and a dropped index frees same-sized blocks that
/// the next one reuses.
const PAGE_NODES: usize = 256;

/// Fixed-stride adjacency. A list is a count followed by `cap` id slots:
/// `1 + 2m` words per node on level 0 (in pages of [`PAGE_NODES`] nodes),
/// and one `1 + m` block per node and level above 0, the node's blocks
/// consecutive from `upper_at[node]`.
#[derive(Debug)]
pub(crate) struct Adjacency {
    m: usize,
    level0: Vec<Box<[u32]>>,
    upper: Vec<u32>,
    /// First upper block of each node (unused for level-0 nodes).
    upper_at: Vec<u32>,
}

impl Adjacency {
    pub(crate) fn new(m: usize) -> Self {
        Adjacency {
            m,
            level0: Vec::new(),
            upper: Vec::new(),
            upper_at: Vec::new(),
        }
    }

    /// Max links kept per node at `level`.
    pub(crate) fn cap(&self, level: usize) -> usize {
        if level == 0 {
            2 * self.m
        } else {
            self.m
        }
    }

    /// The words holding `node`'s list at `level`, and the offset of its
    /// count slot in them.
    fn slot(&self, node: u32, level: usize) -> (&[u32], usize) {
        let node = node as usize;
        if level == 0 {
            let page = &self.level0[node / PAGE_NODES];
            (page, node % PAGE_NODES * (1 + 2 * self.m))
        } else {
            let block = self.upper_at[node] as usize + level - 1;
            (&self.upper, block * (1 + self.m))
        }
    }

    fn slot_mut(&mut self, node: u32, level: usize) -> (&mut [u32], usize) {
        let node = node as usize;
        if level == 0 {
            let page = &mut self.level0[node / PAGE_NODES];
            (page, node % PAGE_NODES * (1 + 2 * self.m))
        } else {
            let block = self.upper_at[node] as usize + level - 1;
            (&mut self.upper, block * (1 + self.m))
        }
    }

    /// Append a node living on levels `0..=top`, with empty lists.
    pub(crate) fn push_node(&mut self, top: usize) {
        if self.upper_at.len() % PAGE_NODES == 0 {
            let words = PAGE_NODES * (1 + 2 * self.m);
            self.level0.push(vec![0; words].into_boxed_slice());
        }
        let blocks = self.upper.len() / (1 + self.m);
        self.upper_at
            .push(u32::try_from(blocks).expect("upper-level blocks are counted in u32"));
        self.upper.resize(self.upper.len() + top * (1 + self.m), 0);
    }

    /// `node`'s neighbours at `level`.
    pub(crate) fn list(&self, node: u32, level: usize) -> &[u32] {
        let (words, at) = self.slot(node, level);
        &words[at + 1..at + 1 + words[at] as usize]
    }

    /// Append `id` to `node`'s list at `level`; `false` (and no change)
    /// when the list is full.
    pub(crate) fn push(&mut self, node: u32, level: usize, id: u32) -> bool {
        let cap = self.cap(level);
        let (words, at) = self.slot_mut(node, level);
        let len = words[at] as usize;
        if len == cap {
            return false;
        }
        words[at + 1 + len] = id;
        words[at] += 1;
        true
    }

    /// Replace `node`'s list at `level` with `ids` (at most the cap).
    fn set(&mut self, node: u32, level: usize, ids: impl Iterator<Item = u32>) {
        let cap = self.cap(level);
        let (words, at) = self.slot_mut(node, level);
        let mut len = 0;
        for (slot, id) in words[at + 1..at + 1 + cap].iter_mut().zip(ids) {
            *slot = id;
            len += 1;
        }
        words[at] = len;
    }
}

/// Ask the cache to start loading `v`; the beam scores a node's fresh
/// neighbours only after every one of their rows is in flight.
#[inline(always)]
fn prefetch(v: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for line in v.chunks(16) {
        // SAFETY: SSE is part of the x86_64 baseline, and a prefetch is a
        // hint that never faults, whatever the address.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                line.as_ptr().cast(),
            )
        };
    }
}

/// Levels are geometrically distributed; 31 caps the graph height far
/// above anything reachable at billions of nodes (p ≈ m⁻³¹).
const MAX_LEVEL: usize = 31;

/// An HNSW index over fixed-width `f32` embeddings, keyed by
/// [`ColumnRef`] and stamped with the predictor artifact
/// (`SatoPredictor::content_hash`) whose embedding space it indexes.
///
/// See the [crate docs](crate) for the contract; see
/// [`crate::IndexError`] and [`HnswIndex::load_sidecar`] for the
/// `SATOIDX1` sidecar behavior.
pub struct HnswIndex {
    pub(crate) dim: usize,
    pub(crate) config: HnswConfig,
    pub(crate) artifact_hash: u64,
    /// splitmix64 state of the level sampler (serialized: resuming
    /// inserts after a round-trip continues the same stream).
    pub(crate) rng_state: u64,
    /// Row-major `len × dim` embedding storage.
    pub(crate) vectors: Vec<f32>,
    pub(crate) keys: Vec<ColumnRef>,
    /// Top level of each node.
    pub(crate) levels: Vec<u8>,
    /// Neighbour lists of every node on every level it lives on.
    pub(crate) links: Adjacency,
    pub(crate) entry: Option<u32>,
    pub(crate) max_level: u8,
    pub(crate) by_key: HashMap<ColumnRef, u32>,
    /// Working memory of [`Self::insert`].
    pub(crate) scratch: HnswScratch,
}

/// Summary form: the full adjacency is megabytes at lake scale and never
/// what a debug line wants.
impl std::fmt::Debug for HnswIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnswIndex")
            .field("dim", &self.dim)
            .field("len", &self.keys.len())
            .field("max_level", &self.max_level)
            .field("config", &self.config)
            .field(
                "artifact_hash",
                &format_args!("{:#018x}", self.artifact_hash),
            )
            .finish_non_exhaustive()
    }
}

impl HnswIndex {
    /// Largest accepted [`HnswConfig::m`], four times the default. Every
    /// node reserves `1 + 2m` link words on level 0 and `1 + m` on each
    /// level above, so this bounds the memory a node costs. It also bounds
    /// the link memory a frame-valid sidecar can make [`Self::from_bytes`]
    /// fill: each node takes at least 21 file bytes (key, level, one
    /// float, one list length) for 516 bytes of level-0 list, and each
    /// upper level 4 file bytes for 260, so at most 65 times the file size
    /// plus one page of 256 level-0 lists (132 KB). The upper-level
    /// array grows by doubling, so its capacity may be up to twice that.
    pub const MAX_M: usize = 64;

    /// Create an empty index over `dim`-wide embeddings of the predictor
    /// artifact whose `content_hash` is `artifact_hash`.
    ///
    /// # Panics
    /// If `dim == 0`, `config.m` is outside `2..=MAX_M` or a beam width is
    /// 0 — these are build-time configuration bugs, not data errors.
    pub fn new(dim: usize, artifact_hash: u64, config: HnswConfig) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(config.m >= 2, "HNSW m must be at least 2");
        assert!(config.m <= Self::MAX_M, "HNSW m must be at most MAX_M");
        assert!(config.ef_construction >= 1, "ef_construction must be >= 1");
        assert!(config.ef_search >= 1, "ef_search must be >= 1");
        HnswIndex {
            dim,
            config,
            artifact_hash,
            rng_state: config.seed,
            vectors: Vec::new(),
            keys: Vec::new(),
            levels: Vec::new(),
            links: Adjacency::new(config.m),
            entry: None,
            max_level: 0,
            by_key: HashMap::new(),
            scratch: HnswScratch::new(),
        }
    }

    /// Number of indexed columns.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been indexed yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Embedding width this index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The construction/search knobs this index was built with.
    pub fn config(&self) -> HnswConfig {
        self.config
    }

    /// `content_hash` of the predictor artifact whose embeddings are
    /// indexed here.
    pub fn artifact_hash(&self) -> u64 {
        self.artifact_hash
    }

    /// True if `key` has already been inserted.
    pub fn contains(&self, key: ColumnRef) -> bool {
        self.by_key.contains_key(&key)
    }

    /// The stored embedding of an indexed column, if present.
    pub fn vector_of(&self, key: ColumnRef) -> Option<&[f32]> {
        self.by_key.get(&key).map(|&n| self.vector(n))
    }

    /// Iterate over the indexed column identities, in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = ColumnRef> + '_ {
        self.keys.iter().copied()
    }

    /// Height of the layer hierarchy (top level of the entry node).
    pub fn top_level(&self) -> usize {
        if self.entry.is_some() {
            self.max_level as usize
        } else {
            0
        }
    }

    fn vector(&self, node: u32) -> &[f32] {
        let at = node as usize * self.dim;
        &self.vectors[at..at + self.dim]
    }

    fn dist_to(&self, query: &[f32], node: u32) -> f32 {
        sato_kernels::squared_l2(query, self.vector(node))
    }

    /// The vectors of the first four candidates of `quad`.
    fn quad_vectors(&self, quad: &[Cand]) -> [&[f32]; 4] {
        [
            self.vector(quad[0].node),
            self.vector(quad[1].node),
            self.vector(quad[2].node),
            self.vector(quad[3].node),
        ]
    }

    /// Set every candidate's distance from `query`, four rows at a time
    /// (bit-identical to [`Self::dist_to`] per candidate).
    fn score(&self, query: &[f32], cands: &mut [Cand]) {
        let mut quads = cands.chunks_exact_mut(4);
        for q in &mut quads {
            let d = sato_kernels::squared_l2_x4(query, self.quad_vectors(q));
            for (c, d) in q.iter_mut().zip(d) {
                c.dist = d;
            }
        }
        for c in quads.into_remainder() {
            c.dist = self.dist_to(query, c.node);
        }
    }

    fn sample_level(&mut self) -> usize {
        // splitmix64: tiny, seedable, and ours — determinism does not
        // hinge on an external RNG crate's stream stability.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let x = z ^ (z >> 31);
        // Uniform in (0, 1]; u = 1 maps to level 0.
        let u = ((x >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64);
        let ml = 1.0 / (self.config.m as f64).ln();
        ((-u.ln() * ml) as usize).min(MAX_LEVEL)
    }

    /// Index one column. Returns `false` (and changes nothing, not even
    /// the level sampler) when `key` is already present — re-annotating a
    /// table or replaying a quarantined round must not duplicate nodes.
    ///
    /// # Panics
    /// If `vector.len() != self.dim()`.
    pub fn insert(&mut self, key: ColumnRef, vector: &[f32]) -> bool {
        assert_eq!(
            vector.len(),
            self.dim,
            "embedding width does not match the index"
        );
        if self.by_key.contains_key(&key) {
            return false;
        }
        // Named injection point `index.insert` (chaos builds only), keyed
        // by the owning table so a chaos test can poison one table's
        // indexing without touching the rest of the round.
        #[cfg(feature = "faults")]
        sato_faults::fire_panic("index.insert", key.table_id);

        let level = self.sample_level();
        let node = self.keys.len() as u32;
        self.vectors.extend_from_slice(vector);
        self.keys.push(key);
        self.levels.push(level as u8);
        self.links.push_node(level);
        self.by_key.insert(key, node);

        let Some(entry) = self.entry else {
            self.entry = Some(node);
            self.max_level = level as u8;
            return true;
        };

        // Taken out for the insert so the graph can change while the
        // buffers are borrowed.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut ep = Cand {
            dist: self.dist_to(vector, entry),
            node: entry,
        };
        // Greedy descent through the levels above the new node's.
        for l in ((level + 1)..=(self.max_level as usize)).rev() {
            ep = self.search_layer(vector, ep, 1, l, &mut scratch);
        }
        // Link on every level the new node lives on.
        for l in (0..=level.min(self.max_level as usize)).rev() {
            ep = self.search_layer(vector, ep, self.config.ef_construction, l, &mut scratch);
            // New nodes start with m links on every level; only overflow
            // growth at level 0 may use the roomier 2m cap.
            let HnswScratch {
                beam,
                selected,
                pruned,
                ..
            } = &mut scratch;
            self.select_neighbors(beam.iter().map(|e| e.cand), self.config.m, selected, pruned);
            self.links.set(node, l, selected.iter().map(|c| c.node));
            let linked = selected.len();
            for i in 0..linked {
                let nb = self.links.list(node, l)[i];
                self.link_back(nb, l, node, &mut scratch);
            }
        }
        self.scratch = scratch;
        if level > self.max_level as usize {
            self.max_level = level as u8;
            self.entry = Some(node);
        }
        true
    }

    /// Beam search one layer from `ep`: leaves up to `ef` candidates in
    /// `scratch.beam`, ascending by `(distance, node)`, and returns the
    /// nearest.
    ///
    /// The beam is one sorted array with an expanded flag per entry; the
    /// nearest unexpanded entry is expanded next, and the search ends when
    /// none is left. This is exactly the two-heap formulation: a candidate
    /// evicted from a full beam is farther than every entry left in it,
    /// so the heap loop stops the moment it would expand one.
    fn search_layer(
        &self,
        query: &[f32],
        ep: Cand,
        ef: usize,
        level: usize,
        scratch: &mut HnswScratch,
    ) -> Cand {
        let HnswScratch {
            visited,
            beam,
            cands,
            ..
        } = scratch;
        visited.reset(self.keys.len());
        visited.insert(ep.node);
        beam.clear();
        beam.push(BeamEntry {
            cand: ep,
            expanded: false,
        });
        // Every entry before `next` has been expanded.
        let mut next = 0;
        while next < beam.len() {
            beam[next].expanded = true;
            cands.clear();
            cands.extend(
                self.links
                    .list(beam[next].cand.node, level)
                    .iter()
                    .filter(|&&nb| visited.insert(nb))
                    .map(|&node| {
                        prefetch(self.vector(node));
                        Cand { dist: 0.0, node }
                    }),
            );
            self.score(query, cands);
            let mut lowest = next + 1;
            for &cand in cands.iter() {
                let full = beam.len() >= ef;
                if full && cand >= beam[beam.len() - 1].cand {
                    continue;
                }
                let at = beam.partition_point(|e| e.cand < cand);
                if full {
                    beam.pop();
                }
                beam.insert(
                    at,
                    BeamEntry {
                        cand,
                        expanded: false,
                    },
                );
                lowest = lowest.min(at);
            }
            next = beam[lowest..]
                .iter()
                .position(|e| !e.expanded)
                .map_or(beam.len(), |i| lowest + i);
        }
        beam[0].cand
    }

    /// The HNSW paper's neighbor-selection heuristic: walk candidates in
    /// ascending distance and keep one only if it is closer to the query
    /// than to every neighbor already kept — this spreads links across
    /// clusters instead of saturating them inside one, which is what keeps
    /// the graph navigable (and recall high) on clustered embeddings like
    /// per-semantic-type columns. Slots left over are backfilled with the
    /// nearest pruned candidates so nodes keep their full degree. The
    /// kept candidates end up in `selected`.
    fn select_neighbors(
        &self,
        candidates: impl Iterator<Item = Cand>,
        m: usize,
        selected: &mut Vec<Cand>,
        pruned: &mut Vec<Cand>,
    ) {
        selected.clear();
        pruned.clear();
        for c in candidates {
            if selected.len() >= m {
                break;
            }
            if self.is_diverse(c, selected) {
                selected.push(c);
            } else {
                pruned.push(c);
            }
        }
        let room = m - selected.len();
        selected.extend(pruned.iter().take(room));
    }

    /// Whether `c` is at least as far from every kept neighbour as from the
    /// query (`>=`, so a NaN distance is not diverse), four kept rows per
    /// [`sato_kernels::squared_l2_x4`] call, then the rest one at a time.
    /// Distances computed past the first failure are ignored, so the
    /// answer is the one-at-a-time check's.
    fn is_diverse(&self, c: Cand, selected: &[Cand]) -> bool {
        let cv = self.vector(c.node);
        let mut quads = selected.chunks_exact(4);
        for quad in &mut quads {
            let d = sato_kernels::squared_l2_x4(cv, self.quad_vectors(quad));
            if !d.iter().all(|&d| d >= c.dist) {
                return false;
            }
        }
        quads
            .remainder()
            .iter()
            .all(|s| self.dist_to(cv, s.node) >= c.dist)
    }

    /// Add the link `node → new` at `level`. A full list is re-selected
    /// from its links plus `new`, with the same diversity heuristic
    /// relative to `node`'s own vector.
    fn link_back(&mut self, node: u32, level: usize, new: u32, scratch: &mut HnswScratch) {
        if self.links.push(node, level, new) {
            return;
        }
        let HnswScratch {
            cands,
            selected,
            pruned,
            ..
        } = scratch;
        cands.clear();
        cands.extend(
            self.links
                .list(node, level)
                .iter()
                .chain([&new])
                .map(|&node| {
                    prefetch(self.vector(node));
                    Cand { dist: 0.0, node }
                }),
        );
        self.score(self.vector(node), cands);
        cands.sort_unstable();
        self.select_neighbors(
            cands.iter().copied(),
            self.links.cap(level),
            selected,
            pruned,
        );
        self.links.set(node, level, selected.iter().map(|c| c.node));
    }

    /// Approximate k-nearest-neighbor search with the configured
    /// `ef_search` beam (widened to `k` when `k` is larger). Results are
    /// ascending by distance; fewer than `k` when the index is smaller.
    ///
    /// # Panics
    /// If `query.len() != self.dim()`.
    pub fn search_knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.search_knn_with_ef(query, k, self.config.ef_search)
    }

    /// [`Self::search_knn`] with an explicit beam width — the
    /// recall-vs-latency knob, per query.
    pub fn search_knn_with_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        let mut scratch = HnswScratch::new();
        self.search_knn_with(query, k, ef, &mut scratch);
        scratch.results
    }

    /// [`Self::search_knn_with_ef`] in caller-owned working memory: the
    /// answer borrows `scratch`, and a warm scratch makes the search
    /// allocation-free. Answers are identical to the allocating forms.
    ///
    /// # Panics
    /// If `query.len() != self.dim()`.
    pub fn search_knn_with<'s>(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        scratch: &'s mut HnswScratch,
    ) -> &'s [Neighbor] {
        assert_eq!(
            query.len(),
            self.dim,
            "query width does not match the index"
        );
        scratch.results.clear();
        let Some(entry) = self.entry.filter(|_| k > 0) else {
            return &scratch.results;
        };
        let mut ep = Cand {
            dist: self.dist_to(query, entry),
            node: entry,
        };
        for l in (1..=(self.max_level as usize)).rev() {
            ep = self.search_layer(query, ep, 1, l, scratch);
        }
        self.search_layer(query, ep, ef.max(k), 0, scratch);
        let HnswScratch { beam, results, .. } = scratch;
        results.extend(beam.iter().take(k).map(|e| Neighbor {
            key: self.keys[e.cand.node as usize],
            distance: e.cand.dist,
        }));
        results
    }

    /// Exact k-nearest-neighbor search by brute-force scan — the recall
    /// oracle and the baseline every speedup is measured against. Same
    /// distance kernel, same `(distance, node)` tie-break as the graph
    /// search, so the two differ only by traversal.
    pub fn search_exact(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.dim,
            "query width does not match the index"
        );
        if k == 0 {
            return Vec::new();
        }
        let mut best: BinaryHeap<Cand> = BinaryHeap::with_capacity(k + 1);
        for node in 0..self.keys.len() as u32 {
            let cand = Cand {
                dist: self.dist_to(query, node),
                node,
            };
            if best.len() < k {
                best.push(cand);
            } else if cand < *best.peek().expect("non-empty") {
                best.push(cand);
                best.pop();
            }
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|c| Neighbor {
                key: self.keys[c.node as usize],
                distance: c.dist,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random test vectors (splitmix64-driven, no
    /// dev-dependency on an RNG crate).
    fn test_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| (next() >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
                    .collect()
            })
            .collect()
    }

    fn key(i: usize) -> ColumnRef {
        ColumnRef {
            table_id: i as u64 / 4,
            col_idx: (i % 4) as u32,
        }
    }

    fn build(vectors: &[Vec<f32>], config: HnswConfig) -> HnswIndex {
        let mut index = HnswIndex::new(vectors[0].len(), 0xabc, config);
        for (i, v) in vectors.iter().enumerate() {
            assert!(index.insert(key(i), v));
        }
        index
    }

    #[test]
    fn empty_and_tiny_indexes_search_safely() {
        let index = HnswIndex::new(8, 1, HnswConfig::default());
        assert!(index.is_empty());
        assert_eq!(index.search_knn(&[0.0; 8], 5), vec![]);
        assert_eq!(index.search_exact(&[0.0; 8], 5), vec![]);

        let mut one = HnswIndex::new(2, 1, HnswConfig::default());
        one.insert(key(0), &[1.0, 2.0]);
        let hits = one.search_knn(&[1.0, 2.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, key(0));
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(one.search_knn(&[1.0, 2.0], 0), vec![]);
    }

    #[test]
    fn insert_is_idempotent_per_key() {
        let vectors = test_vectors(50, 6, 7);
        let mut index = build(&vectors, HnswConfig::default());
        let before = index.len();
        assert!(!index.insert(key(3), &vectors[3]));
        assert_eq!(index.len(), before);
        assert!(index.contains(key(3)));
        assert_eq!(index.vector_of(key(3)).unwrap(), &vectors[3][..]);
        assert_eq!(index.vector_of(key(999)), None);
    }

    #[test]
    fn self_queries_return_themselves_first() {
        let vectors = test_vectors(120, 12, 11);
        let index = build(&vectors, HnswConfig::default());
        for (i, v) in vectors.iter().enumerate() {
            let hits = index.search_knn(v, 1);
            assert_eq!(hits[0].key, key(i), "query {i}");
            assert_eq!(hits[0].distance, 0.0);
        }
    }

    #[test]
    fn recall_at_10_is_high_on_random_clouds() {
        let vectors = test_vectors(400, 16, 23);
        let queries = test_vectors(40, 16, 99);
        let index = build(&vectors, HnswConfig::default());
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let exact: Vec<_> = index.search_exact(q, 10).iter().map(|n| n.key).collect();
            let ann = index.search_knn(q, 10);
            total += exact.len();
            hit += ann.iter().filter(|n| exact.contains(&n.key)).count();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn same_seed_same_build_different_seed_still_searches() {
        let vectors = test_vectors(150, 8, 31);
        let a = build(&vectors, HnswConfig::default());
        let b = build(&vectors, HnswConfig::default());
        assert_eq!(
            a.to_bytes(),
            b.to_bytes(),
            "same seed must be byte-identical"
        );
        let other = build(
            &vectors,
            HnswConfig {
                seed: 777,
                ..HnswConfig::default()
            },
        );
        let q = &vectors[17];
        assert_eq!(other.search_knn(q, 1)[0].key, key(17));
    }

    /// Tight clusters around a few random centres: many near-ties, the
    /// shape of per-semantic-type column embeddings.
    fn clustered_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let centres = test_vectors(6, dim, seed ^ 0xc1);
        test_vectors(n, dim, seed)
            .into_iter()
            .enumerate()
            .map(|(i, noise)| {
                let c = &centres[i % centres.len()];
                c.iter()
                    .zip(&noise)
                    .map(|(c, e)| 4.0 * c + 0.05 * e)
                    .collect()
            })
            .collect()
    }

    /// FNV-1a over the `(table, column, distance bits)` of every answer.
    fn answers_digest(index: &HnswIndex, queries: &[Vec<f32>]) -> u64 {
        let mut bytes = Vec::new();
        for q in queries {
            for ef in [1, 16, 64] {
                for hit in index.search_knn_with_ef(q, 10, ef) {
                    bytes.extend_from_slice(&hit.key.table_id.to_le_bytes());
                    bytes.extend_from_slice(&hit.key.col_idx.to_le_bytes());
                    bytes.extend_from_slice(&hit.distance.to_bits().to_le_bytes());
                }
            }
        }
        sato_kernels::fnv1a64(&bytes)
    }

    /// Graph bytes and search answers of fixed builds, pinned as digests
    /// measured on the reference implementation. Any change to the
    /// traversal, the neighbour selection, the shrink order or the
    /// adjacency layout that alters a single link or answer shows here;
    /// the determinism tests elsewhere only compare two builds of the
    /// same code. The small-`m` configurations overflow and shrink every
    /// level; the last case saves and reloads half-way through the build.
    #[test]
    fn built_graphs_are_pinned() {
        let small = |m, ef_construction| HnswConfig {
            m,
            ef_construction,
            ef_search: 8,
            seed: 0x9e11 + m as u64,
        };
        let configs = [
            ("default", HnswConfig::default()),
            ("m2", small(2, 3)),
            ("m3", small(3, 5)),
            ("m4", small(4, 8)),
        ];
        let mut got = Vec::new();
        for dim in [5, 48, 128] {
            for (cloud, vectors) in [
                ("random", test_vectors(260, dim, 41 + dim as u64)),
                ("clustered", clustered_vectors(260, dim, 43 + dim as u64)),
            ] {
                let queries = test_vectors(12, dim, 7 + dim as u64);
                for (name, config) in configs {
                    let index = build(&vectors, config);
                    got.push((
                        format!("{cloud}/{dim}/{name}"),
                        sato_kernels::fnv1a64(&index.to_bytes()),
                        answers_digest(&index, &queries),
                    ));
                }
            }
        }
        let vectors = clustered_vectors(300, 48, 5);
        let config = small(3, 6);
        let mut index = build(&vectors[..150], config);
        index = HnswIndex::from_bytes(&index.to_bytes()).unwrap();
        for (i, v) in vectors.iter().enumerate().skip(150) {
            assert!(index.insert(key(i), v));
        }
        got.push((
            "resumed/48/m3".to_string(),
            sato_kernels::fnv1a64(&index.to_bytes()),
            answers_digest(&index, &test_vectors(12, 48, 8)),
        ));

        let want: &[(&str, u64, u64)] = &[
            ("random/5/default", 0x1ba1e4874db18079, 0xa19be37dbfdc7d9c),
            ("random/5/m2", 0xb6c9f8147a4f9291, 0xc4d186ca4b035252),
            ("random/5/m3", 0x2ae7ffb448db6330, 0xb55f9b10371d5cef),
            ("random/5/m4", 0x11905c0137b061d3, 0x7f5d707d018a30df),
            (
                "clustered/5/default",
                0x8016ace13082a395,
                0x1709679777beead9,
            ),
            ("clustered/5/m2", 0x79d0e7bd19c25878, 0xb46e1c1928a2cae3),
            ("clustered/5/m3", 0xda09f256afd49a9d, 0xeabe54444ea09063),
            ("clustered/5/m4", 0xae8bd651796cb053, 0xb20d8823df1356f9),
            ("random/48/default", 0x3e1ebc901058cedc, 0x3e6510b8ac9753c9),
            ("random/48/m2", 0x45b880f024eb5958, 0x8e25838453ef9908),
            ("random/48/m3", 0x43dd76fa62c9eed4, 0xc1e77a4be9085bfe),
            ("random/48/m4", 0xf892cad963291466, 0x180768427d3f32c2),
            (
                "clustered/48/default",
                0x39ac936bc054d2c8,
                0x70173405123752b7,
            ),
            ("clustered/48/m2", 0xabda4ba1dfb09fa7, 0x3fc5e13cc211fd0d),
            ("clustered/48/m3", 0x8675e5c6c9fda6f8, 0x95db2e13eb83f33a),
            ("clustered/48/m4", 0x3837e06c816c43e6, 0x5e91641545039f2e),
            ("random/128/default", 0x9e5513814617c3ff, 0xcfc30cdac406cbaf),
            ("random/128/m2", 0x7118cbc5246293cf, 0x8da124dd023a9a3b),
            ("random/128/m3", 0x00c60bf557f21ff3, 0x8c49b25e0d324223),
            ("random/128/m4", 0xb0e07af6e9c4dfe0, 0x08a53458fd871aab),
            (
                "clustered/128/default",
                0x0d32bac6dba39cba,
                0xe20d2ed52fd289e2,
            ),
            ("clustered/128/m2", 0x39a75b73720bf3a5, 0xe650bc5c3f42a8fa),
            ("clustered/128/m3", 0x55b446bbde22b5c3, 0xe7a63a2826cedf30),
            ("clustered/128/m4", 0x884038258124f33e, 0xa08212491e6f7c0b),
            ("resumed/48/m3", 0x4359bff8c27ea2d7, 0x44ae2893f8dfb01f),
        ];
        let got: Vec<(&str, u64, u64)> = got.iter().map(|(n, g, a)| (n.as_str(), *g, *a)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn exact_oracle_matches_a_naive_scan() {
        let vectors = test_vectors(90, 5, 3);
        let index = build(&vectors, HnswConfig::default());
        let q = test_vectors(1, 5, 1234).pop().unwrap();
        let mut naive: Vec<(f32, usize)> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (sato_kernels::squared_l2(&q, v), i))
            .collect();
        naive.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let exact = index.search_exact(&q, 7);
        for (got, want) in exact.iter().zip(naive.iter()) {
            assert_eq!(got.key, key(want.1));
            assert_eq!(got.distance, want.0);
        }
    }

    /// The one-at-a-time form of `select_neighbors`, one `squared_l2` per
    /// kept neighbour until the first that is closer than the query. Also
    /// returns how many candidates it pruned against four or more kept
    /// neighbours, where the four-row check runs.
    fn select_neighbors_oracle(
        index: &HnswIndex,
        candidates: &[Cand],
        m: usize,
    ) -> (Vec<Cand>, usize) {
        let (mut selected, mut pruned, mut wide) = (Vec::new(), Vec::new(), 0);
        for &c in candidates {
            if selected.len() >= m {
                break;
            }
            let cv = index.vector(c.node);
            let diverse = selected
                .iter()
                .all(|s: &Cand| sato_kernels::squared_l2(cv, index.vector(s.node)) >= c.dist);
            if diverse {
                selected.push(c);
            } else {
                wide += usize::from(selected.len() >= 4);
                pruned.push(c);
            }
        }
        let room = m - selected.len();
        selected.extend(pruned.iter().take(room));
        (selected, wide)
    }

    /// `select_neighbors` keeps the candidates the one-at-a-time check
    /// keeps, in the same order. The cloud is clustered, every fifth
    /// vector repeats an earlier one (distances tie exactly, and a query
    /// that is itself a node ties its candidates' distances to it), and
    /// one vector holds a NaN, so every distance to it is NaN. Candidates
    /// come nearest first, as `insert` and `link_back` pass them, and
    /// farthest first, so the NaN row is also kept first and checked
    /// against.
    #[test]
    fn selection_matches_one_at_a_time_oracle() {
        let mut vectors = clustered_vectors(120, 12, 17);
        for i in (5..vectors.len()).step_by(5) {
            vectors[i] = vectors[i / 3].clone();
        }
        vectors[33][4] = f32::NAN;
        let index = build(&vectors, HnswConfig::default());
        // A NaN distance is not equal to itself, so compare bits.
        let bits = |cands: &[Cand]| -> Vec<(u32, u32)> {
            cands.iter().map(|c| (c.node, c.dist.to_bits())).collect()
        };
        let (mut selected, mut pruned) = (Vec::new(), Vec::new());
        let mut wide = 0;
        for q in (0..vectors.len()).step_by(3) {
            let qv = index.vector(q as u32);
            let mut cands: Vec<Cand> = (0..vectors.len() as u32)
                .filter(|&node| node != q as u32)
                .map(|node| Cand {
                    dist: sato_kernels::squared_l2(qv, index.vector(node)),
                    node,
                })
                .collect();
            cands.sort_unstable();
            for nearest_first in [true, false] {
                if !nearest_first {
                    cands.reverse();
                }
                for m in [1, 3, 4, 5, 8, 16, 48] {
                    let (want, pruned_wide) = select_neighbors_oracle(&index, &cands, m);
                    wide += pruned_wide;
                    index.select_neighbors(cands.iter().copied(), m, &mut selected, &mut pruned);
                    assert_eq!(
                        bits(&selected),
                        bits(&want),
                        "query {q}, m {m}, nearest first: {nearest_first}"
                    );
                }
            }
        }
        assert!(wide > 0, "no candidate was pruned by the four-row check");
    }
}
