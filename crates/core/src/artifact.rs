//! The `SATOART1` predictor artifact, the one format a [`SatoPredictor`] is
//! saved and loaded in, and the only module that knows it.
//!
//! The artifact holds the already-flat buffers a predictor is made of
//! (network weights and running statistics, per-group scaler moments, the
//! LDA topic–word counts and the CRF pairwise table) laid out as
//! little-endian sections behind a header, so loading is section framing
//! plus `memcpy`-shaped bulk reads. Only primary state is stored: the LDA
//! model's `f32` φ table is derived from `LDAM` at every load.
//!
//! ## Layout
//!
//! ```text
//! header   : magic "SATOART1" (8) | version u32 | section_count u32
//! table    : section_count × { id [u8;4] | offset u64 | len u64 | checksum u64 }
//! payloads : each section's bytes, 8-byte aligned, zero-padded gaps
//! ```
//!
//! Offsets are absolute (from the start of the artifact) and every payload
//! starts on an 8-byte boundary, so a memory-mapped artifact presents its
//! `f64`/`u64` arrays aligned. `checksum` is FNV-1a 64 over the payload,
//! verified before any decoding. Unknown section ids are ignored (forward
//! compatibility within a version); *missing* required sections, short
//! buffers, bad magic, checksum mismatches and version skew all surface as
//! typed [`PredictorError`] variants — never panics. A JSON artifact of an
//! earlier release is not a `SATOART1` file: it fails with
//! [`PredictorError::BadMagic`] (or [`PredictorError::Truncated`] when
//! shorter than the 16-byte header).
//!
//! | id     | contents                                                      |
//! |--------|---------------------------------------------------------------|
//! | `META` | small JSON: variant, config, `use_topic`, sampler, group widths |
//! | `SCAL` | per-group standardizer moments (mean/std `f32` rows)          |
//! | `NETW` | multi-input network state dict (`StateDict` byte codec)       |
//! | `HEAD` | classification-head state dict                                |
//! | `LDAM` | LDA model (topic-aware variants only)                         |
//! | `CRFP` | CRF pairwise potentials (structured variants only)            |
//!
//! Artifacts written while a Gibbs sampler's alias tables were persisted
//! may still carry an `ALIA` section; like any unknown id it is ignored.
//! `META`'s `sampler` names the topic estimator, `FoldIn`. The names of the
//! earlier Gibbs samplers, `Dense` and `SparseAlias`, still load, and such
//! an artifact serves the fold-in under the content hash of its bytes.
//!
//! `META` nests the one irregular, schema-shaped piece (the configuration)
//! as JSON inside the binary envelope — artifacts stay self-describing
//! without a binary schema language, and the bulk numeric payloads never
//! touch a JSON tokenizer.

use crate::columnwise::FrozenColumnwise;
use crate::config::SatoConfig;
use crate::dataset::Standardizer;
use crate::model::SatoVariant;
use crate::predictor::SatoPredictor;
use crate::structured::StructuredLayer;
use sato_crf::LinearChainCrf;
use sato_features::FeatureGroup;
use sato_nn::serialize::{LoadError, StateDict};
use sato_topic::{LdaModel, SamplerKind, TableIntentEstimator};
use serde::{Deserialize, Serialize};

/// Magic bytes opening every binary predictor artifact.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"SATOART1";

/// Current binary artifact format version.
pub const ARTIFACT_VERSION: u32 = 1;

/// Bytes per section-table entry: id (4) + offset (8) + len (8) + checksum (8).
const SECTION_ENTRY_LEN: usize = 28;

/// Artifact header length: magic (8) + version (4) + section count (4).
const HEADER_LEN: usize = 16;

const SEC_META: [u8; 4] = *b"META";
const SEC_SCAL: [u8; 4] = *b"SCAL";
const SEC_NETW: [u8; 4] = *b"NETW";
const SEC_HEAD: [u8; 4] = *b"HEAD";
const SEC_LDAM: [u8; 4] = *b"LDAM";
const SEC_CRFP: [u8; 4] = *b"CRFP";

/// FNV-1a 64-bit checksum — the shared kernel-layer implementation
/// (`sato_kernels::fnv1a64`, 8-byte chunked, bit-identical to the
/// byte-at-a-time definition), the same function `sato_tabular::colstore`
/// frames with. Besides the per-section checksums this is also the
/// predictor's *content hash* ([`SatoPredictor::content_hash`]): FNV-1a
/// over the whole `SATOART1` byte stream.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    sato_kernels::fnv1a64(bytes)
}

/// Error raised when loading a `SATOART1` predictor artifact.
#[derive(Debug)]
pub enum PredictorError {
    /// The artifact's `META` section is not valid JSON or does not match
    /// the expected shape.
    Json(serde_json::Error),
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion(u64),
    /// The stored weights do not fit the architecture described by the
    /// stored configuration (count/shape mismatch).
    State(LoadError),
    /// The artifact's fields are mutually inconsistent (e.g. fewer scalers
    /// than input groups), which would panic at predict time if loaded.
    Inconsistent(&'static str),
    /// Reading or writing the artifact file failed.
    Io(std::io::Error),
    /// The artifact ended before the named structure was complete.
    Truncated(&'static str),
    /// The artifact does not start with the `SATOART1` magic bytes (a JSON
    /// artifact of an earlier release fails here).
    BadMagic,
    /// An artifact section's stored checksum does not match its payload
    /// (bit rot, torn write, or mid-file corruption).
    Checksum(&'static str),
    /// The artifact is missing a section the described model requires.
    MissingSection(&'static str),
    /// An artifact section decoded to structurally invalid data.
    Corrupt(String),
}

impl std::fmt::Display for PredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorError::Json(e) => write!(f, "predictor artifact: {e}"),
            PredictorError::UnsupportedVersion(v) => {
                write!(f, "predictor artifact: unsupported format version {v}")
            }
            PredictorError::State(e) => write!(f, "predictor artifact: {e}"),
            PredictorError::Inconsistent(msg) => write!(f, "predictor artifact: {msg}"),
            PredictorError::Io(e) => write!(f, "predictor artifact: {e}"),
            PredictorError::Truncated(what) => {
                write!(f, "predictor artifact: truncated while reading {what}")
            }
            PredictorError::BadMagic => {
                write!(f, "predictor artifact: bad magic (not a SATOART1 file)")
            }
            PredictorError::Checksum(section) => {
                write!(
                    f,
                    "predictor artifact: checksum mismatch in section {section}"
                )
            }
            PredictorError::MissingSection(section) => {
                write!(f, "predictor artifact: missing required section {section}")
            }
            PredictorError::Corrupt(msg) => write!(f, "predictor artifact: {msg}"),
        }
    }
}

impl std::error::Error for PredictorError {}

impl From<sato_topic::TopicBytesError> for PredictorError {
    fn from(e: sato_topic::TopicBytesError) -> Self {
        match e {
            sato_topic::TopicBytesError::Truncated(what) => PredictorError::Truncated(what),
            other => PredictorError::Corrupt(other.to_string()),
        }
    }
}

impl From<sato_nn::serialize::StateBytesError> for PredictorError {
    fn from(e: sato_nn::serialize::StateBytesError) -> Self {
        match e {
            sato_nn::serialize::StateBytesError::Truncated(what) => PredictorError::Truncated(what),
            other => PredictorError::Corrupt(other.to_string()),
        }
    }
}

impl From<serde_json::Error> for PredictorError {
    fn from(e: serde_json::Error) -> Self {
        PredictorError::Json(e)
    }
}

impl From<LoadError> for PredictorError {
    fn from(e: LoadError) -> Self {
        PredictorError::State(e)
    }
}

impl From<std::io::Error> for PredictorError {
    fn from(e: std::io::Error) -> Self {
        PredictorError::Io(e)
    }
}

/// The JSON-shaped `META` section: everything about the predictor that is
/// schema-like rather than bulk-numeric. The numeric payloads it describes
/// live in their own binary sections.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BinaryMeta {
    variant: SatoVariant,
    config: SatoConfig,
    use_topic: bool,
    /// Written as `FoldIn`. A legacy sampler name loads too; the value
    /// changes nothing, since every predictor serves the fold-in.
    sampler: SamplerKind,
    group_widths: Vec<usize>,
}

/// Parsed section table over a borrowed artifact buffer; payload slices are
/// bounds- and checksum-verified before being handed out.
struct Sections<'a> {
    entries: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Sections<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, PredictorError> {
        if bytes.len() < HEADER_LEN {
            return Err(PredictorError::Truncated("artifact header"));
        }
        if bytes[..8] != ARTIFACT_MAGIC {
            return Err(PredictorError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != ARTIFACT_VERSION {
            return Err(PredictorError::UnsupportedVersion(u64::from(version)));
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_LEN
            + count.checked_mul(SECTION_ENTRY_LEN).ok_or_else(|| {
                PredictorError::Corrupt("section count overflows the table size".to_string())
            })?;
        if bytes.len() < table_end {
            return Err(PredictorError::Truncated("section table"));
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
                    PredictorError::Corrupt(format!(
                        "section {} has an invalid offset",
                        section_name(id)
                    ))
                })?;
            let end = usize::try_from(len)
                .ok()
                .and_then(|l| start.checked_add(l))
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| PredictorError::Truncated(section_name(id)))?;
            let payload = &bytes[start..end];
            if fnv1a64(payload) != checksum {
                return Err(PredictorError::Checksum(section_name(id)));
            }
            entries.push((id, payload));
        }
        Ok(Sections { entries })
    }

    fn get(&self, id: [u8; 4]) -> Option<&'a [u8]> {
        self.entries
            .iter()
            .find(|(entry_id, _)| *entry_id == id)
            .map(|(_, payload)| *payload)
    }

    fn require(&self, id: [u8; 4]) -> Result<&'a [u8], PredictorError> {
        self.get(id)
            .ok_or_else(|| PredictorError::MissingSection(section_name(id)))
    }
}

/// Stable display name of a section id (known ids by name, unknown ids as
/// their best-effort ASCII).
fn section_name(id: [u8; 4]) -> &'static str {
    match id {
        SEC_META => "META",
        SEC_SCAL => "SCAL",
        SEC_NETW => "NETW",
        SEC_HEAD => "HEAD",
        SEC_LDAM => "LDAM",
        SEC_CRFP => "CRFP",
        _ => "unknown section",
    }
}

/// Encode the per-group standardizers: `count u32`, then per scaler
/// `width u32 | mean f32×width | std f32×width`.
fn encode_scalers(scalers: &[Standardizer], out: &mut Vec<u8>) {
    out.extend_from_slice(&(scalers.len() as u32).to_le_bytes());
    for scaler in scalers {
        let (mean, std) = scaler.moments();
        out.extend_from_slice(&(mean.len() as u32).to_le_bytes());
        for &m in mean {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for &s in std {
            out.extend_from_slice(&s.to_le_bytes());
        }
    }
}

fn decode_scalers(bytes: &[u8]) -> Result<Vec<Standardizer>, PredictorError> {
    let mut r = ByteReader { bytes, pos: 0 };
    let count = r.u32("scaler count")? as usize;
    let mut scalers = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let width = r.u32("scaler width")? as usize;
        let mean = r.f32_vec(width, "scaler means")?;
        let std = r.f32_vec(width, "scaler stds")?;
        scalers.push(Standardizer::from_moments(mean, std).ok_or_else(|| {
            PredictorError::Corrupt("scaler moments are inconsistent or non-finite".to_string())
        })?);
    }
    r.finish("SCAL")?;
    Ok(scalers)
}

/// Encode the CRF layer: `num_states u64`, then the row-major
/// `num_states²` pairwise potentials as `f64`s.
fn encode_crf(crf: &LinearChainCrf, out: &mut Vec<u8>) {
    out.extend_from_slice(&(crf.num_states() as u64).to_le_bytes());
    for &p in crf.pairwise() {
        out.extend_from_slice(&p.to_le_bytes());
    }
}

fn decode_crf(bytes: &[u8]) -> Result<LinearChainCrf, PredictorError> {
    let mut r = ByteReader { bytes, pos: 0 };
    let num_states = usize::try_from(r.u64("CRF state count")?)
        .ok()
        .filter(|&n| n > 0 && n <= 1 << 16)
        .ok_or_else(|| PredictorError::Corrupt("CRF state count is out of range".to_string()))?;
    let pairwise = r.f64_vec(num_states * num_states, "CRF pairwise potentials")?;
    if pairwise.iter().any(|p| !p.is_finite()) {
        return Err(PredictorError::Corrupt(
            "CRF pairwise potentials contain non-finite values".to_string(),
        ));
    }
    r.finish("CRFP")?;
    Ok(LinearChainCrf::with_pairwise(num_states, pairwise))
}

/// Little-endian cursor over one section payload — deliberately duplicated
/// per crate (see `sato_topic::serialize`); any fix here must be mirrored
/// there and in `sato_nn::serialize`.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], PredictorError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(PredictorError::Truncated(what))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, PredictorError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, PredictorError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32_vec(&mut self, len: usize, what: &'static str) -> Result<Vec<f32>, PredictorError> {
        let raw = self.take(
            len.checked_mul(4).ok_or(PredictorError::Truncated(what))?,
            what,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn f64_vec(&mut self, len: usize, what: &'static str) -> Result<Vec<f64>, PredictorError> {
        let raw = self.take(
            len.checked_mul(8).ok_or(PredictorError::Truncated(what))?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn finish(&self, section: &'static str) -> Result<(), PredictorError> {
        if self.pos != self.bytes.len() {
            return Err(PredictorError::Corrupt(format!(
                "section {section} has trailing bytes"
            )));
        }
        Ok(())
    }
}

/// Assemble the framed artifact from `(id, payload)` section bodies.
fn assemble(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
    let total: usize = sections.iter().map(|(_, p)| p.len() + 7).sum();
    let mut out = Vec::with_capacity(table_end + total);
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    // Lay payloads out back to back on 8-byte boundaries.
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

impl SatoPredictor {
    /// Serialize the predictor into the `SATOART1` artifact (see the
    /// [module docs](self) for the layout). [`Self::from_bytes`] reproduces
    /// the saved predictions bit for bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let columnwise = self.columnwise();
        let meta = BinaryMeta {
            variant: self.variant(),
            config: self.config().clone(),
            use_topic: columnwise.uses_topic(),
            sampler: columnwise.sampler_kind(),
            group_widths: columnwise.group_widths().to_vec(),
        };
        let mut sections: Vec<([u8; 4], Vec<u8>)> = Vec::with_capacity(6);
        sections.push((
            SEC_META,
            serde_json::to_string(&meta)
                .expect("predictor meta serialization cannot fail")
                .into_bytes(),
        ));
        let mut scal = Vec::new();
        encode_scalers(columnwise.scalers(), &mut scal);
        sections.push((SEC_SCAL, scal));
        let mut netw = Vec::new();
        columnwise.net_state().write_bytes(&mut netw);
        sections.push((SEC_NETW, netw));
        let mut head = Vec::new();
        columnwise.head_state().write_bytes(&mut head);
        sections.push((SEC_HEAD, head));
        if let Some(est) = columnwise.intent_estimator() {
            let mut ldam = Vec::new();
            est.model().write_bytes(&mut ldam);
            sections.push((SEC_LDAM, ldam));
        }
        if let Some(crf) = self.crf() {
            let mut crfp = Vec::new();
            encode_crf(crf, &mut crfp);
            sections.push((SEC_CRFP, crfp));
        }
        assemble(&sections)
    }

    /// Rebuild a predictor from a `SATOART1` artifact written by
    /// [`Self::to_bytes`]. The loaded predictor reproduces the predictions
    /// of the saved one bit for bit.
    ///
    /// Errors are typed, never panics: truncation, bad magic, version skew,
    /// per-section checksum mismatches, missing required sections,
    /// structurally invalid payloads and cross-field inconsistencies all
    /// map to their [`PredictorError`] variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PredictorError> {
        let sections = Sections::parse(bytes)?;
        let meta_str = std::str::from_utf8(sections.require(SEC_META)?)
            .map_err(|_| PredictorError::Corrupt("META section is not UTF-8 JSON".to_string()))?;
        let value: serde::Value = serde_json::from_str(meta_str)?;
        let meta = BinaryMeta::from_value(&value).map_err(serde_json::Error::from)?;

        // Cross-field consistency: a frame-valid artifact must not be able
        // to panic at predict time.
        let ldam = if meta.use_topic {
            Some(sections.require(SEC_LDAM)?)
        } else {
            sections.get(SEC_LDAM)
        };
        let expected_groups = FeatureGroup::ALL.len() + usize::from(meta.use_topic);
        if meta.group_widths.len() != expected_groups {
            return Err(PredictorError::Inconsistent(
                "group_widths count does not match the feature groups of the model",
            ));
        }
        let scalers = decode_scalers(sections.require(SEC_SCAL)?)?;
        if scalers.len() != meta.group_widths.len() {
            return Err(PredictorError::Inconsistent(
                "scaler count does not match the input group count",
            ));
        }
        let net_state = StateDict::from_bytes(sections.require(SEC_NETW)?)?;
        let head_state = StateDict::from_bytes(sections.require(SEC_HEAD)?)?;
        let intent = match ldam {
            Some(payload) => Some(TableIntentEstimator::from_model(LdaModel::from_bytes(
                payload,
            )?)),
            None => None,
        };
        let crf = match sections.get(SEC_CRFP) {
            Some(payload) => Some(decode_crf(payload)?),
            None => None,
        };

        let columnwise = FrozenColumnwise::from_state(
            &meta.config,
            meta.use_topic,
            intent,
            scalers,
            meta.group_widths,
            &net_state,
            &head_state,
        )?;
        // The content hash is taken over the exact bytes served from, not a
        // re-serialization: what was loaded is what the hash names.
        Ok(SatoPredictor::from_parts_hashed(
            meta.variant,
            meta.config,
            columnwise,
            crf.map(StructuredLayer::from_crf),
            fnv1a64(bytes),
        ))
    }

    /// Write the artifact to a file (see [`Self::to_bytes`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), PredictorError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Load a predictor from an artifact file (see [`Self::from_bytes`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PredictorError> {
        // Named injection point `core.artifact_load` (chaos builds only):
        // an armed Error presents as transient I/O, which is what the
        // serving layer's retry-with-backoff path exists for.
        #[cfg(feature = "faults")]
        if sato_faults::fire("core.artifact_load", 0) {
            return Err(PredictorError::Io(std::io::Error::other(
                "injected fault: core.artifact_load",
            )));
        }
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::SatoModel;
    use sato_tabular::colstore;
    use sato_tabular::corpus::default_corpus;
    use sato_tabular::table::{Column, Corpus, Table};
    use std::sync::OnceLock;

    fn tiny_config() -> SatoConfig {
        let mut config = SatoConfig::fast();
        config.network.epochs = 6;
        config.lda.train_iterations = 20;
        config.crf.epochs = 3;
        config
    }

    fn corpus() -> Corpus {
        default_corpus(30, 3)
    }

    /// One trained Full predictor shared by every test in this module and
    /// by the predictor's load tests (training dominates test wall-clock).
    pub(crate) fn full_predictor() -> &'static SatoPredictor {
        static CELL: OnceLock<SatoPredictor> = OnceLock::new();
        CELL.get_or_init(|| {
            SatoModel::train(&corpus(), tiny_config(), crate::SatoVariant::Full).into_predictor()
        })
    }

    /// A fresh owned copy of the shared predictor, through the artifact.
    fn fresh_copy() -> SatoPredictor {
        SatoPredictor::from_bytes(&full_predictor().to_bytes()).unwrap()
    }

    /// The `(id, payload)` sections of an artifact, owned, for a test to
    /// edit and reassemble.
    fn sections_of(bytes: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
        Sections::parse(bytes)
            .unwrap()
            .entries
            .iter()
            .map(|(id, payload)| (*id, payload.to_vec()))
            .collect()
    }

    /// `bytes` reassembled with section `id`'s payload replaced by `edit`.
    pub(crate) fn with_section(
        bytes: &[u8],
        id: [u8; 4],
        edit: impl FnOnce(&[u8]) -> Vec<u8>,
    ) -> Vec<u8> {
        let mut sections = sections_of(bytes);
        let (_, payload) = sections.iter_mut().find(|(s, _)| *s == id).unwrap();
        *payload = edit(payload);
        assemble(&sections)
    }

    /// `bytes` reassembled with `META` naming the sampler `name`, as an
    /// artifact of an earlier release does.
    pub(crate) fn with_sampler_name(bytes: &[u8], name: &str) -> Vec<u8> {
        with_section(bytes, SEC_META, |payload| {
            let meta = std::str::from_utf8(payload).unwrap();
            assert!(meta.contains("\"sampler\":\"FoldIn\""));
            let renamed = format!("\"sampler\":\"{name}\"");
            meta.replacen("\"sampler\":\"FoldIn\"", &renamed, 1)
                .into_bytes()
        })
    }

    /// `bytes` reassembled with its `META` changed by `edit`.
    fn with_meta(bytes: &[u8], edit: impl FnOnce(&mut BinaryMeta)) -> Vec<u8> {
        with_section(bytes, SEC_META, |payload| {
            let value = serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap();
            let mut meta = BinaryMeta::from_value(&value).unwrap();
            edit(&mut meta);
            serde_json::to_string(&meta).unwrap().into_bytes()
        })
    }

    #[test]
    fn binary_round_trip_is_bit_identical() {
        let predictor = full_predictor();
        let bytes = predictor.to_bytes();
        let loaded = SatoPredictor::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.variant(), predictor.variant());
        assert_eq!(loaded.sampler_kind(), predictor.sampler_kind());
        for table in corpus().iter().take(8) {
            assert_eq!(predictor.predict_proba(table), loaded.predict_proba(table));
            assert_eq!(predictor.predict(table), loaded.predict(table));
        }
    }

    /// Artifacts written while the alias tables were still persisted carry
    /// an `ALIA` section and name the sparse/alias sampler in `META`.
    /// Loading ignores the section, whatever its payload, and serves the
    /// fold-in from `LDAM`: predictions match the in-memory predictor bit
    /// for bit, and re-serializing drops the section and names `FoldIn`.
    /// Every sampler name's load is checked in the integration suite
    /// (`sampler_serving.rs`).
    #[test]
    fn legacy_alia_section_is_ignored_and_sampler_is_rebuilt() {
        let bits = |proba: Vec<Vec<f32>>| -> Vec<Vec<u32>> {
            proba
                .iter()
                .map(|row| row.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        let fresh = fresh_copy();
        let canonical = fresh.to_bytes();
        let mut sections = sections_of(&with_sampler_name(&canonical, "SparseAlias"));
        assert!(sections.iter().all(|(id, _)| id != b"ALIA"));
        sections.push((*b"ALIA", vec![0xFF; 64 * 1024]));
        let loaded = SatoPredictor::from_bytes(&assemble(&sections)).unwrap();
        assert_eq!(loaded.sampler_kind(), SamplerKind::FoldIn);
        for table in corpus().iter().take(6) {
            assert_eq!(
                bits(fresh.predict_proba(table)),
                bits(loaded.predict_proba(table))
            );
        }
        assert_eq!(loaded.to_bytes(), canonical, "re-serialization");
    }

    /// A `META` naming a sampler this build does not have (the removed
    /// Metropolis–Hastings sampler) is a typed JSON error naming the kind,
    /// not a silent remap onto another sampler.
    #[test]
    fn meta_naming_an_unknown_sampler_is_a_typed_error() {
        let bytes = with_section(&full_predictor().to_bytes(), SEC_META, |payload| {
            let meta = std::str::from_utf8(payload).unwrap();
            let kind = format!("\"sampler\":\"{:?}\"", full_predictor().sampler_kind());
            assert!(meta.contains(&kind), "META does not name its sampler");
            let renamed = meta.replacen(&kind, "\"sampler\":\"MetropolisHastings\"", 1);
            renamed.into_bytes()
        });
        match SatoPredictor::from_bytes(&bytes) {
            Err(PredictorError::Json(e)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("unknown SamplerKind variant"),
                    "error should name the bad sampler kind, got: {msg}"
                );
            }
            Err(other) => panic!("expected a JSON load error, got: {other}"),
            Ok(_) => panic!("an unknown sampler kind must fail to load"),
        }
    }

    #[test]
    fn corrupted_binary_artifacts_are_rejected_with_typed_errors() {
        let bytes = full_predictor().to_bytes();
        // Truncation at every structurally interesting prefix.
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            assert!(
                matches!(
                    SatoPredictor::from_bytes(&bytes[..cut]),
                    Err(PredictorError::Truncated(_) | PredictorError::Checksum(_))
                ),
                "prefix of {cut} bytes was not rejected"
            );
        }
        // Bad magic, and a JSON artifact of an earlier release.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            SatoPredictor::from_bytes(&bad),
            Err(PredictorError::BadMagic)
        ));
        assert!(matches!(
            SatoPredictor::from_bytes(br#"{"format_version":1,"variant":"Full"}"#),
            Err(PredictorError::BadMagic)
        ));
        // Unsupported version.
        let mut versioned = bytes.clone();
        versioned[8] = 99;
        assert!(matches!(
            SatoPredictor::from_bytes(&versioned),
            Err(PredictorError::UnsupportedVersion(99))
        ));
        // A flipped payload byte fails its section checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(matches!(
            SatoPredictor::from_bytes(&flipped),
            Err(PredictorError::Checksum(_))
        ));
        // A missing required section is named.
        let mut without_net = sections_of(&bytes);
        without_net.retain(|(id, _)| *id != SEC_NETW);
        assert!(matches!(
            SatoPredictor::from_bytes(&assemble(&without_net)),
            Err(PredictorError::MissingSection("NETW"))
        ));
        // A `META` that is not UTF-8.
        assert!(matches!(
            SatoPredictor::from_bytes(&with_section(&bytes, SEC_META, |_| vec![0xFF, 0xFE])),
            Err(PredictorError::Corrupt(_))
        ));
        // A Base artifact whose `META` claims the topic input it has no
        // `LDAM` for.
        let base = SatoModel::train(&corpus(), tiny_config(), crate::SatoVariant::Base)
            .into_predictor()
            .to_bytes();
        assert!(matches!(
            SatoPredictor::from_bytes(&with_meta(&base, |meta| meta.use_topic = true)),
            Err(PredictorError::MissingSection("LDAM"))
        ));
        // Group widths, or scalers, one group short.
        assert!(matches!(
            SatoPredictor::from_bytes(&with_meta(&bytes, |meta| {
                meta.group_widths.pop();
            })),
            Err(PredictorError::Inconsistent(_))
        ));
        let short_scal = with_section(&bytes, SEC_SCAL, |payload| {
            let scalers = decode_scalers(payload).unwrap();
            let mut out = Vec::new();
            encode_scalers(&scalers[1..], &mut out);
            out
        });
        assert!(matches!(
            SatoPredictor::from_bytes(&short_scal),
            Err(PredictorError::Inconsistent(_))
        ));
        // A network tensor stored transposed: same data length, wrong shape.
        // Its `rows | cols` header follows the `u32` tensor count.
        let transposed = with_section(&bytes, SEC_NETW, |payload| {
            let mut out = payload.to_vec();
            assert_ne!(out[4..8], out[8..12], "first tensor is square");
            out[4..12].rotate_left(4);
            out
        });
        assert!(matches!(
            SatoPredictor::from_bytes(&transposed),
            Err(PredictorError::State(LoadError::ShapeMismatch { .. }))
        ));
    }

    #[test]
    fn colstore_serving_is_bit_identical_to_in_memory_batched() {
        let predictor = full_predictor();
        let corpus = corpus();
        let colstore_bytes = colstore::corpus_to_bytes(&corpus);
        for batch_cols in [1, 7, 64, 100_000] {
            assert_eq!(
                predictor.predict_corpus_batched(&corpus, batch_cols),
                predictor
                    .predict_colstore_bytes(&colstore_bytes, batch_cols)
                    .unwrap(),
                "batch_cols {batch_cols}"
            );
        }
        // Ragged shapes: empty tables, single columns, unlabelled tables.
        let ragged = Corpus::new(vec![
            Table::unlabelled(900, vec![]),
            corpus.tables[0].clone(),
            Table::unlabelled(901, vec![Column::new(["Warsaw", "London"])]),
            Table::unlabelled(902, vec![]),
            corpus.tables[1].clone(),
        ]);
        let ragged_bytes = colstore::corpus_to_bytes(&ragged);
        for batch_cols in [1, 2, 1000] {
            assert_eq!(
                predictor.predict_corpus_batched(&ragged, batch_cols),
                predictor
                    .predict_colstore_bytes(&ragged_bytes, batch_cols)
                    .unwrap(),
                "ragged batch_cols {batch_cols}"
            );
        }
    }

    #[test]
    fn binary_artifact_file_round_trip() {
        let predictor = full_predictor();
        let dir = std::env::temp_dir().join("sato_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.satoart");
        predictor.save(&path).unwrap();
        let loaded = SatoPredictor::load(&path).unwrap();
        let table = &corpus().tables[0];
        assert_eq!(predictor.predict(table), loaded.predict(table));
        std::fs::remove_file(&path).ok();
    }
}
