//! The `SATOIDX1` sidecar binary format.
//!
//! Same framing as the `SATOART1` predictor artifact (one codec idiom
//! across the workspace's binary formats; deliberately duplicated per
//! crate — any fix here must be mirrored in `sato::artifact` and
//! `sato_tabular::colstore`):
//!
//! ```text
//! header   : magic "SATOIDX1" (8) | version u32 | section_count u32
//! table    : section_count × { id [u8;4] | offset u64 | len u64 | checksum u64 }
//! payloads : each section's bytes, 8-byte aligned, zero-padded gaps
//! ```
//!
//! `checksum` is FNV-1a 64 (the shared `sato_kernels::fnv1a64`) over the
//! payload, verified before any decoding. Sections:
//!
//! | id     | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `META` | dim, M, ef knobs, seed, sampler state, artifact hash, entry |
//! | `KEYS` | per node: `table_id u64 \| col_idx u32`                     |
//! | `LVLS` | per node: top level `u8`                                    |
//! | `VECS` | row-major `len × dim` embeddings, `f32`                     |
//! | `LINK` | per node, per level: `len u32 \| neighbor u32 × len`        |
//!
//! The `META` artifact hash is the load-time guard: an index only answers
//! for the predictor artifact whose embeddings it was built from, and
//! [`HnswIndex::load_sidecar`] rejects any other pairing with
//! [`IndexError::ArtifactMismatch`].

use crate::hnsw::{Adjacency, ColumnRef, HnswConfig, HnswIndex, HnswScratch, Visited};
use crate::IndexError;
use std::collections::HashMap;

/// Magic bytes opening every index sidecar.
pub const INDEX_MAGIC: [u8; 8] = *b"SATOIDX1";

/// Current sidecar format version.
pub const INDEX_VERSION: u32 = 1;

/// Bytes per section-table entry: id (4) + offset (8) + len (8) + checksum (8).
const SECTION_ENTRY_LEN: usize = 28;

/// Header length: magic (8) + version (4) + section count (4).
const HEADER_LEN: usize = 16;

const SEC_META: [u8; 4] = *b"META";
const SEC_KEYS: [u8; 4] = *b"KEYS";
const SEC_LVLS: [u8; 4] = *b"LVLS";
const SEC_VECS: [u8; 4] = *b"VECS";
const SEC_LINK: [u8; 4] = *b"LINK";

/// Level values above this are structurally impossible (see
/// `hnsw::MAX_LEVEL`) and rejected as corrupt.
const MAX_LEVEL: u8 = 31;

fn fnv1a64(bytes: &[u8]) -> u64 {
    sato_kernels::fnv1a64(bytes)
}

fn section_name(id: [u8; 4]) -> &'static str {
    match id {
        SEC_META => "META",
        SEC_KEYS => "KEYS",
        SEC_LVLS => "LVLS",
        SEC_VECS => "VECS",
        SEC_LINK => "LINK",
        _ => "unknown section",
    }
}

/// Parsed section table over a borrowed buffer; payload slices are
/// bounds- and checksum-verified before being handed out.
struct Sections<'a> {
    entries: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Sections<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, IndexError> {
        if bytes.len() < HEADER_LEN {
            return Err(IndexError::Truncated("index header"));
        }
        if bytes[..8] != INDEX_MAGIC {
            return Err(IndexError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != INDEX_VERSION {
            return Err(IndexError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_LEN
            + count.checked_mul(SECTION_ENTRY_LEN).ok_or_else(|| {
                IndexError::Corrupt("section count overflows the table size".to_string())
            })?;
        if bytes.len() < table_end {
            return Err(IndexError::Truncated("section table"));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id: [u8; 4] = bytes[at..at + 4].try_into().expect("4 bytes");
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(bytes[at + 20..at + 28].try_into().expect("8 bytes"));
            let start = usize::try_from(offset)
                .ok()
                .filter(|&s| s >= table_end)
                .ok_or_else(|| {
                    IndexError::Corrupt(format!(
                        "section {} has an invalid offset",
                        section_name(id)
                    ))
                })?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|l| start.checked_add(l))
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| IndexError::Truncated(section_name(id)))?;
            let payload = &bytes[start..end];
            if fnv1a64(payload) != checksum {
                return Err(IndexError::Checksum(section_name(id)));
            }
            entries.push((id, payload));
        }
        Ok(Sections { entries })
    }

    fn require(&self, id: [u8; 4]) -> Result<&'a [u8], IndexError> {
        self.entries
            .iter()
            .find(|(entry_id, _)| *entry_id == id)
            .map(|(_, payload)| *payload)
            .ok_or_else(|| IndexError::MissingSection(section_name(id)))
    }
}

/// Little-endian cursor over one section payload.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], IndexError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(IndexError::Truncated(what))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, IndexError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, IndexError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, IndexError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32_vec(&mut self, len: usize, what: &'static str) -> Result<Vec<f32>, IndexError> {
        let raw = self.take(len.checked_mul(4).ok_or(IndexError::Truncated(what))?, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn finish(&self, section: &'static str) -> Result<(), IndexError> {
        if self.pos != self.bytes.len() {
            return Err(IndexError::Corrupt(format!(
                "section {section} has trailing bytes"
            )));
        }
        Ok(())
    }
}

/// Assemble the framed sidecar from `(id, payload)` section bodies.
fn assemble(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
    let total: usize = sections.iter().map(|(_, p)| p.len() + 7).sum();
    let mut out = Vec::with_capacity(table_end + total);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = table_end;
    let mut placed = Vec::with_capacity(sections.len());
    for (id, payload) in sections {
        offset = (offset + 7) & !7;
        placed.push((*id, offset as u64, payload.len() as u64, fnv1a64(payload)));
        offset += payload.len();
    }
    for (id, off, len, sum) in &placed {
        out.extend_from_slice(id);
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
    }
    for ((_, payload), (_, off, _, _)) in sections.iter().zip(&placed) {
        out.resize(*off as usize, 0); // zero padding up to the aligned offset
        out.extend_from_slice(payload);
    }
    out
}

/// Sentinel for "no entry point" (empty index) in the META section.
const NO_ENTRY: u64 = u64::MAX;

impl HnswIndex {
    /// Serialize into the `SATOIDX1` sidecar bytes (see this module's
    /// source header for the layout). Round-trips exactly: the
    /// loaded index is byte-identical when re-serialized, answers every
    /// query identically, and continues the same level-sampler stream if
    /// inserts resume after the round-trip.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::with_capacity(60);
        meta.extend_from_slice(&(self.dim as u32).to_le_bytes());
        meta.extend_from_slice(&(self.config.m as u32).to_le_bytes());
        meta.extend_from_slice(&(self.config.ef_construction as u32).to_le_bytes());
        meta.extend_from_slice(&(self.config.ef_search as u32).to_le_bytes());
        meta.extend_from_slice(&self.config.seed.to_le_bytes());
        meta.extend_from_slice(&self.rng_state.to_le_bytes());
        meta.extend_from_slice(&self.artifact_hash.to_le_bytes());
        meta.extend_from_slice(&(self.keys.len() as u64).to_le_bytes());
        meta.extend_from_slice(&self.entry.map_or(NO_ENTRY, u64::from).to_le_bytes());
        meta.extend_from_slice(&u32::from(self.max_level).to_le_bytes());

        let mut keys = Vec::with_capacity(self.keys.len() * 12);
        for k in &self.keys {
            keys.extend_from_slice(&k.table_id.to_le_bytes());
            keys.extend_from_slice(&k.col_idx.to_le_bytes());
        }
        let lvls = self.levels.clone();
        let mut vecs = Vec::with_capacity(self.vectors.len() * 4);
        for v in &self.vectors {
            vecs.extend_from_slice(&v.to_le_bytes());
        }
        let mut link = Vec::new();
        for (node, &top) in self.levels.iter().enumerate() {
            for level in 0..=top as usize {
                let list = self.links.list(node as u32, level);
                link.extend_from_slice(&(list.len() as u32).to_le_bytes());
                for &nb in list {
                    link.extend_from_slice(&nb.to_le_bytes());
                }
            }
        }
        assemble(&[
            (SEC_META, meta),
            (SEC_KEYS, keys),
            (SEC_LVLS, lvls),
            (SEC_VECS, vecs),
            (SEC_LINK, link),
        ])
    }

    /// Rebuild an index from `SATOIDX1` bytes written by
    /// [`Self::to_bytes`]. Errors are typed, never panics: truncation,
    /// bad magic, version skew, per-section checksum mismatches, missing
    /// sections and structurally invalid graphs all map to their
    /// [`IndexError`] variant — and every graph invariant the search
    /// relies on (in-range neighbor ids, neighbors present at their
    /// level, a valid entry point) is re-validated here so a frame-valid
    /// but hostile sidecar cannot panic a query.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IndexError> {
        let sections = Sections::parse(bytes)?;

        let mut r = ByteReader {
            bytes: sections.require(SEC_META)?,
            pos: 0,
        };
        let dim = r.u32("embedding dim")? as usize;
        let m = r.u32("m")? as usize;
        let ef_construction = r.u32("ef_construction")? as usize;
        let ef_search = r.u32("ef_search")? as usize;
        let seed = r.u64("seed")?;
        let rng_state = r.u64("rng state")?;
        let artifact_hash = r.u64("artifact hash")?;
        let count = usize::try_from(r.u64("node count")?)
            .ok()
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| IndexError::Corrupt("node count is out of range".to_string()))?;
        let entry_raw = r.u64("entry point")?;
        let max_level = r.u32("max level")?;
        r.finish("META")?;
        if dim == 0
            || !(2..=HnswIndex::MAX_M).contains(&m)
            || ef_construction == 0
            || ef_search == 0
        {
            return Err(IndexError::Corrupt(
                "index configuration is out of range".to_string(),
            ));
        }
        if max_level > u32::from(MAX_LEVEL) {
            return Err(IndexError::Corrupt("max level is out of range".to_string()));
        }

        let mut r = ByteReader {
            bytes: sections.require(SEC_KEYS)?,
            pos: 0,
        };
        let mut keys = Vec::with_capacity(count);
        let mut by_key = HashMap::with_capacity(count);
        for node in 0..count {
            let key = ColumnRef {
                table_id: r.u64("key table id")?,
                col_idx: r.u32("key column index")?,
            };
            if by_key.insert(key, node as u32).is_some() {
                return Err(IndexError::Corrupt(format!(
                    "duplicate column key (table {}, column {})",
                    key.table_id, key.col_idx
                )));
            }
            keys.push(key);
        }
        r.finish("KEYS")?;

        let mut r = ByteReader {
            bytes: sections.require(SEC_LVLS)?,
            pos: 0,
        };
        let mut levels = Vec::with_capacity(count);
        for _ in 0..count {
            let level = r.u8("node level")?;
            if level > MAX_LEVEL {
                return Err(IndexError::Corrupt(
                    "node level is out of range".to_string(),
                ));
            }
            levels.push(level);
        }
        r.finish("LVLS")?;

        let mut r = ByteReader {
            bytes: sections.require(SEC_VECS)?,
            pos: 0,
        };
        let n_floats = count
            .checked_mul(dim)
            .ok_or(IndexError::Truncated("embedding rows"))?;
        let vectors = r.f32_vec(n_floats, "embedding rows")?;
        r.finish("VECS")?;

        let mut r = ByteReader {
            bytes: sections.require(SEC_LINK)?,
            pos: 0,
        };
        let mut links = Adjacency::new(m);
        let mut seen = Visited::default();
        for node in 0..count as u32 {
            let top = levels[node as usize];
            links.push_node(top as usize);
            for level in 0..=top {
                let len = r.u32("neighbor list length")? as usize;
                if len > links.cap(level as usize) {
                    return Err(IndexError::Corrupt(format!(
                        "node {node} has {len} links at level {level}, over the cap of {}",
                        links.cap(level as usize)
                    )));
                }
                seen.reset(count);
                for _ in 0..len {
                    let nb = r.u32("neighbor id")?;
                    if nb as usize >= count || levels[nb as usize] < level {
                        return Err(IndexError::Corrupt(format!(
                            "node {node} links to {nb}, which does not exist at level {level}"
                        )));
                    }
                    if nb == node {
                        return Err(IndexError::Corrupt(format!(
                            "node {node} links to itself at level {level}"
                        )));
                    }
                    if !seen.insert(nb) {
                        return Err(IndexError::Corrupt(format!(
                            "node {node} links to {nb} twice at level {level}"
                        )));
                    }
                    links.push(node, level as usize, nb);
                }
            }
        }
        r.finish("LINK")?;

        let entry = if entry_raw == NO_ENTRY {
            None
        } else {
            let e = u32::try_from(entry_raw)
                .ok()
                .filter(|&e| (e as usize) < count)
                .ok_or_else(|| IndexError::Corrupt("entry point is out of range".to_string()))?;
            if u32::from(levels[e as usize]) != max_level {
                return Err(IndexError::Corrupt(
                    "entry point does not live on the max level".to_string(),
                ));
            }
            Some(e)
        };
        if entry.is_none() && count != 0 {
            return Err(IndexError::Corrupt(
                "non-empty index without an entry point".to_string(),
            ));
        }

        Ok(HnswIndex {
            dim,
            config: HnswConfig {
                m,
                ef_construction,
                ef_search,
                seed,
            },
            artifact_hash,
            rng_state,
            vectors,
            keys,
            levels,
            links,
            entry,
            max_level: max_level as u8,
            by_key,
            scratch: HnswScratch::new(),
        })
    }

    /// Check that this index was built over `expected`'s embedding space
    /// (the predictor artifact's `content_hash`).
    pub fn verify_artifact(&self, expected: u64) -> Result<(), IndexError> {
        if self.artifact_hash != expected {
            return Err(IndexError::ArtifactMismatch {
                expected,
                found: self.artifact_hash,
            });
        }
        Ok(())
    }

    /// Write the sidecar to a file (see [`Self::to_bytes`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), IndexError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Load an index sidecar from a file (see [`Self::from_bytes`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, IndexError> {
        // Named injection point `index.load` (chaos builds only): an armed
        // Error presents as transient I/O, which is what the serving
        // layer's validated-load rollback path exists for.
        #[cfg(feature = "faults")]
        if sato_faults::fire("index.load", 0) {
            return Err(IndexError::Io(std::io::Error::other(
                "injected fault: index.load",
            )));
        }
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Load an index sidecar *next to its artifact*: reject it with
    /// [`IndexError::ArtifactMismatch`] unless it was built over the
    /// embeddings of the predictor whose `content_hash` is
    /// `expected_artifact`. This is the deployment entry point — serving
    /// neighbors from another artifact's embedding space would be
    /// silently wrong, so the pairing is enforced here.
    pub fn load_sidecar(
        path: impl AsRef<std::path::Path>,
        expected_artifact: u64,
    ) -> Result<Self, IndexError> {
        let index = Self::load(path)?;
        index.verify_artifact(expected_artifact)?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> HnswIndex {
        let mut index = HnswIndex::new(3, 0xdead_beef, HnswConfig::default());
        let mut state = 5u64;
        for i in 0..80u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = [
                (state >> 33) as f32 / 1e9,
                (i % 9) as f32,
                -((i % 4) as f32),
            ];
            index.insert(
                ColumnRef {
                    table_id: i,
                    col_idx: (i % 3) as u32,
                },
                &v,
            );
        }
        index
    }

    #[test]
    fn round_trip_is_byte_identical_and_resumes_the_sampler() {
        let mut index = sample_index();
        let bytes = index.to_bytes();
        let mut loaded = HnswIndex::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes);
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.artifact_hash(), 0xdead_beef);
        let q = [0.1, 4.0, -1.0];
        assert_eq!(loaded.search_knn(&q, 5), index.search_knn(&q, 5));
        // Resuming inserts after the round-trip equals never having saved.
        let extra = ColumnRef {
            table_id: 900,
            col_idx: 0,
        };
        index.insert(extra, &[9.0, 9.0, 9.0]);
        loaded.insert(extra, &[9.0, 9.0, 9.0]);
        assert_eq!(loaded.to_bytes(), index.to_bytes());
    }

    #[test]
    fn empty_index_round_trips() {
        let index = HnswIndex::new(7, 42, HnswConfig::default());
        let loaded = HnswIndex::from_bytes(&index.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.dim(), 7);
        assert_eq!(loaded.search_knn(&[0.0; 7], 3), vec![]);
    }

    #[test]
    fn corrupted_sidecars_are_rejected_with_typed_errors() {
        let bytes = sample_index().to_bytes();
        for cut in [0, 4, 15, 40, bytes.len() - 1] {
            assert!(
                matches!(
                    HnswIndex::from_bytes(&bytes[..cut]),
                    Err(IndexError::Truncated(_) | IndexError::Checksum(_))
                ),
                "prefix of {cut} bytes was not rejected"
            );
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            HnswIndex::from_bytes(&bad),
            Err(IndexError::BadMagic)
        ));
        let mut versioned = bytes.clone();
        versioned[8] = 9;
        assert!(matches!(
            HnswIndex::from_bytes(&versioned),
            Err(IndexError::UnsupportedVersion(9))
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(matches!(
            HnswIndex::from_bytes(&flipped),
            Err(IndexError::Checksum(_))
        ));
    }

    /// Re-frame `bytes` with its `LINK` section rewritten by `edit`, which
    /// sees the adjacency as `links[node][level]`; checksums stay valid,
    /// so only the graph checks can reject the result.
    fn with_links(bytes: &[u8], edit: impl FnOnce(&mut [Vec<Vec<u32>>])) -> Vec<u8> {
        let sections = Sections::parse(bytes).unwrap();
        let mut r = ByteReader {
            bytes: sections.require(SEC_LINK).unwrap(),
            pos: 0,
        };
        let mut links: Vec<Vec<Vec<u32>>> = sections
            .require(SEC_LVLS)
            .unwrap()
            .iter()
            .map(|&top| {
                (0..=top)
                    .map(|_| {
                        let len = r.u32("len").unwrap();
                        (0..len).map(|_| r.u32("id").unwrap()).collect()
                    })
                    .collect()
            })
            .collect();
        edit(&mut links);
        let mut link = Vec::new();
        for list in links.iter().flatten() {
            link.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for nb in list {
                link.extend_from_slice(&nb.to_le_bytes());
            }
        }
        with_section(bytes, SEC_LINK, link)
    }

    /// Re-frame `bytes` with section `id`'s payload replaced by `payload`.
    fn with_section(bytes: &[u8], id: [u8; 4], payload: Vec<u8>) -> Vec<u8> {
        let sections: Vec<_> = Sections::parse(bytes)
            .unwrap()
            .entries
            .iter()
            .map(|&(sid, old)| {
                let new = if sid == id {
                    payload.clone()
                } else {
                    old.to_vec()
                };
                (sid, new)
            })
            .collect();
        assemble(&sections)
    }

    /// An index of 60 nodes with `m = 2`: half of them live on level 1.
    fn small_m_index() -> (HnswIndex, Vec<u8>) {
        let config = HnswConfig {
            m: 2,
            ef_construction: 4,
            ..HnswConfig::default()
        };
        let mut index = HnswIndex::new(2, 7, config);
        for i in 0..60u64 {
            let v = [(i * 37 % 61) as f32, (i % 5) as f32];
            index.insert(
                ColumnRef {
                    table_id: i,
                    col_idx: 0,
                },
                &v,
            );
        }
        let bytes = index.to_bytes();
        (index, bytes)
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        assert!(
            matches!(HnswIndex::from_bytes(bytes), Err(IndexError::Corrupt(_))),
            "{what} was not rejected as corrupt"
        );
    }

    #[test]
    fn overlong_neighbour_lists_are_rejected() {
        // Level 0 holds 2m = 32 links; give node 0 thirty-three.
        let bytes = sample_index().to_bytes();
        assert_eq!(with_links(&bytes, |_| {}), bytes, "re-framing is exact");
        let hostile = with_links(&bytes, |links| links[0][0] = (1..=33).collect());
        assert_corrupt(&hostile, "a level-0 list of 2m + 1 links");

        // Upper levels hold m = 2; give one level-1 list three.
        let (index, bytes) = small_m_index();
        let upper: Vec<u32> = (0..index.len() as u32)
            .filter(|&n| index.levels[n as usize] >= 1)
            .collect();
        let hostile = with_links(&bytes, |links| {
            links[upper[0] as usize][1] = upper[1..4].to_vec();
        });
        assert_corrupt(&hostile, "a level-1 list of m + 1 links");
    }

    #[test]
    fn self_links_are_rejected() {
        let bytes = sample_index().to_bytes();
        let hostile = with_links(&bytes, |links| links[5][0][0] = 5);
        assert_corrupt(&hostile, "a node linking to itself");
    }

    #[test]
    fn duplicate_links_are_rejected() {
        let bytes = sample_index().to_bytes();
        let hostile = with_links(&bytes, |links| links[5][0][1] = links[5][0][0]);
        assert_corrupt(&hostile, "a list naming one neighbour twice");
    }

    #[test]
    fn m_above_the_cap_is_rejected() {
        // `m` is the second word of META. At MAX_M the sample graph still
        // fits every list; one more is refused before any link is read.
        let bytes = sample_index().to_bytes();
        let meta = Sections::parse(&bytes).unwrap().require(SEC_META).unwrap();
        let with_m = |m: usize| {
            let mut meta = meta.to_vec();
            meta[4..8].copy_from_slice(&(m as u32).to_le_bytes());
            with_section(&bytes, SEC_META, meta)
        };
        let at_cap = HnswIndex::from_bytes(&with_m(HnswIndex::MAX_M)).unwrap();
        assert_eq!(at_cap.config().m, HnswIndex::MAX_M);
        assert_corrupt(&with_m(HnswIndex::MAX_M + 1), "m = MAX_M + 1");
    }

    #[test]
    fn artifact_pairing_is_enforced() {
        let index = sample_index();
        assert!(index.verify_artifact(0xdead_beef).is_ok());
        match index.verify_artifact(0x1234) {
            Err(IndexError::ArtifactMismatch { expected, found }) => {
                assert_eq!(expected, 0x1234);
                assert_eq!(found, 0xdead_beef);
            }
            other => panic!("expected ArtifactMismatch, got {other:?}"),
        }
    }

    #[test]
    fn sidecar_file_round_trip_and_pairing() {
        let index = sample_index();
        let dir = std::env::temp_dir().join("sato_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lake.satoidx");
        index.save(&path).unwrap();
        let loaded = HnswIndex::load_sidecar(&path, 0xdead_beef).unwrap();
        assert_eq!(loaded.len(), index.len());
        assert!(matches!(
            HnswIndex::load_sidecar(&path, 0x5678),
            Err(IndexError::ArtifactMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
