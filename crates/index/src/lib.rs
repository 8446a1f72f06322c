//! HNSW approximate-nearest-neighbor index over Sato column embeddings.
//!
//! `examples/data_discovery.rs` motivated the workload: once every column
//! in a data lake carries a fixed-length embedding
//! (`SatoPredictor::column_embeddings`), joinable- and similar-column
//! queries are nearest-neighbor searches in that space. A linear scan is
//! O(N) in repository size; this crate makes it sublinear with a
//! Hierarchical Navigable Small World graph ([Malkov & Yashunin 2018],
//! the index family DeepJoin-style systems deploy at data-lake scale).
//!
//! Design points, in the order the rest of the workspace relies on them:
//!
//! * **Deterministic under seed.** Level assignment draws from an internal
//!   splitmix64 stream seeded by [`HnswConfig::seed`]; neighbor selection
//!   breaks distance ties by node id. Two builds over the same insert
//!   sequence are byte-identical, and the sampler state is serialized so
//!   *resuming* inserts after a save/load continues the same stream.
//! * **Incremental.** [`HnswIndex::insert`] indexes one column at a time,
//!   so the `sato-serve` batcher can feed embeddings into the index as
//!   corpora are annotated. Re-inserting an already-indexed
//!   [`ColumnRef`] is a no-op (idempotent), which is what crash-replay
//!   and quarantine re-serves in the service need.
//! * **Exact oracle.** [`HnswIndex::search_exact`] is the brute-force
//!   scan over the same distance kernel ([`sato_kernels::squared_l2`])
//!   with the same tie-break, so recall@k is measured against an oracle
//!   that differs only in graph traversal, not arithmetic.
//! * **Sidecar artifact.** [`HnswIndex::to_bytes`] writes the `SATOIDX1`
//!   binary format — the same magic/version/section-table/FNV-checksum
//!   framing as the `SATOART1` predictor artifact — stamped with the
//!   `SatoPredictor::content_hash` of the predictor whose embeddings it
//!   indexes. [`HnswIndex::load_sidecar`] rejects an index whose stamp
//!   does not match the artifact it is deployed next to: embeddings from
//!   different artifacts are different spaces, and serving across them
//!   silently returns garbage neighbors.
//!
//! [Malkov & Yashunin 2018]: https://arxiv.org/abs/1603.09320
//!
//! # Quick start
//!
//! ```
//! use sato_index::{ColumnRef, HnswConfig, HnswIndex};
//!
//! let mut index = HnswIndex::new(4, 0xfeed, HnswConfig::default());
//! for i in 0..100u64 {
//!     let v = [i as f32, (i % 7) as f32, 0.5, -(i as f32)];
//!     index.insert(ColumnRef { table_id: i, col_idx: 0 }, &v);
//! }
//! let hits = index.search_knn(&[3.0, 3.0, 0.5, -3.0], 5);
//! assert_eq!(hits.len(), 5);
//! assert_eq!(hits[0].key.table_id, 3); // its own neighborhood
//! let bytes = index.to_bytes();
//! let reloaded = HnswIndex::from_bytes(&bytes).unwrap();
//! assert_eq!(reloaded.search_knn(&[3.0, 3.0, 0.5, -3.0], 5), hits);
//! ```

#![warn(missing_docs)]

mod format;
mod hnsw;

pub use format::{INDEX_MAGIC, INDEX_VERSION};
pub use hnsw::{ColumnRef, HnswConfig, HnswIndex, HnswScratch, Neighbor};

/// Typed errors for the `SATOIDX1` sidecar codec — never panics on
/// attacker-shaped bytes; every structural defect maps to a variant.
#[derive(Debug)]
pub enum IndexError {
    /// Reading or writing the sidecar file failed.
    Io(std::io::Error),
    /// The buffer ends before the named structure is complete.
    Truncated(&'static str),
    /// The buffer does not open with the `SATOIDX1` magic.
    BadMagic,
    /// The format version is not one this build can read.
    UnsupportedVersion(u32),
    /// The named section's payload does not match its stored checksum.
    Checksum(&'static str),
    /// A required section is absent from the section table.
    MissingSection(&'static str),
    /// The frame is valid but the decoded structure is not.
    Corrupt(String),
    /// The index was built over a different predictor artifact's
    /// embeddings than the one it is being loaded next to.
    ArtifactMismatch {
        /// The `content_hash` of the artifact being served.
        expected: u64,
        /// The `content_hash` stamped into the index sidecar.
        found: u64,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index I/O error: {e}"),
            IndexError::Truncated(what) => write!(f, "index truncated at {what}"),
            IndexError::BadMagic => write!(f, "not a SATOIDX1 index (bad magic)"),
            IndexError::UnsupportedVersion(v) => {
                write!(f, "unsupported index format version {v}")
            }
            IndexError::Checksum(section) => {
                write!(f, "index section {section} failed its checksum")
            }
            IndexError::MissingSection(section) => {
                write!(f, "index is missing required section {section}")
            }
            IndexError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
            IndexError::ArtifactMismatch { expected, found } => write!(
                f,
                "index was built for artifact {found:016x}, not the served artifact {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io(e)
    }
}
