//! Flat binary codec for the frozen topic-model state: the [`LdaModel`]
//! (config scalars, vocabulary, topic–word counts). Everything derived from
//! those counts — the φ table and the samplers' per-word alias tables — is
//! rebuilt at load, never persisted.
//!
//! This produces the raw `LDAM` *section payload* of the `sato-core`
//! predictor artifact; the section framing (magic, section table,
//! checksums, alignment) lives there. Everything is little-endian, and the
//! count buffers are laid out exactly as they sit in memory (`u32` runs),
//! so loading is a bounds check plus one pass of `from_le_bytes` per
//! element — no per-token re-hashing beyond rebuilding the vocabulary map.

use crate::lda::{LdaConfig, LdaModel};
use crate::vocab::Vocabulary;
use std::fmt;

/// Typed decode errors of the topic binary codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicBytesError {
    /// The buffer ended before the named field was fully read.
    Truncated(&'static str),
    /// A structurally invalid payload (bad shapes, non-finite priors, …).
    Corrupt(&'static str),
    /// A vocabulary token is not valid UTF-8.
    Utf8,
}

impl fmt::Display for TopicBytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicBytesError::Truncated(what) => {
                write!(f, "topic payload truncated while reading {what}")
            }
            TopicBytesError::Corrupt(what) => write!(f, "corrupt topic payload: {what}"),
            TopicBytesError::Utf8 => write!(f, "vocabulary token is not valid UTF-8"),
        }
    }
}

impl std::error::Error for TopicBytesError {}

/// Little-endian field reader over a byte payload.
///
/// Deliberately the same minimal helper as its siblings in `sato-nn` and
/// `sato-core` (the crates cannot share one without a new dependency
/// edge); keep fixes mirrored.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], TopicBytesError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(TopicBytesError::Truncated(what))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, TopicBytesError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, TopicBytesError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, TopicBytesError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn u32_vec(&mut self, len: usize, what: &'static str) -> Result<Vec<u32>, TopicBytesError> {
        let bytes = self.take(
            len.checked_mul(4).ok_or(TopicBytesError::Corrupt(what))?,
            what,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn finish(self, what: &'static str) -> Result<(), TopicBytesError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(TopicBytesError::Corrupt(what))
        }
    }
}

fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    out.reserve(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

impl LdaModel {
    /// Append the model's flat binary form to `out`: config scalars, the
    /// vocabulary tokens in id order (offset table + one UTF-8 page), the
    /// topic–word counts and the per-topic totals.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        let config = self.config();
        out.extend_from_slice(&(config.num_topics as u64).to_le_bytes());
        out.extend_from_slice(&config.alpha.to_le_bytes());
        out.extend_from_slice(&config.beta.to_le_bytes());
        out.extend_from_slice(&(config.train_iterations as u64).to_le_bytes());
        out.extend_from_slice(&(config.infer_iterations as u64).to_le_bytes());
        out.extend_from_slice(&config.seed.to_le_bytes());
        let vocab = self.vocabulary();
        out.extend_from_slice(&(vocab.len() as u32).to_le_bytes());
        let mut offset = 0u32;
        out.extend_from_slice(&offset.to_le_bytes());
        for id in 0..vocab.len() {
            offset += vocab.token(id).expect("dense vocabulary ids").len() as u32;
            out.extend_from_slice(&offset.to_le_bytes());
        }
        for id in 0..vocab.len() {
            out.extend_from_slice(vocab.token(id).expect("dense vocabulary ids").as_bytes());
        }
        push_u32s(out, self.topic_word_counts());
        push_u32s(out, self.topic_total_counts());
    }

    /// Decode a model written by [`Self::write_bytes`], bit-identical to the
    /// model that was written.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TopicBytesError> {
        let mut r = ByteReader::new(bytes);
        let num_topics = usize::try_from(r.u64("num_topics")?)
            .map_err(|_| TopicBytesError::Corrupt("num_topics"))?;
        let alpha = r.f64("alpha")?;
        let beta = r.f64("beta")?;
        let train_iterations = usize::try_from(r.u64("train_iterations")?)
            .map_err(|_| TopicBytesError::Corrupt("train_iterations"))?;
        let infer_iterations = usize::try_from(r.u64("infer_iterations")?)
            .map_err(|_| TopicBytesError::Corrupt("infer_iterations"))?;
        let seed = r.u64("seed")?;
        if num_topics < 2 || !(alpha.is_finite() && alpha > 0.0 && beta.is_finite() && beta > 0.0) {
            return Err(TopicBytesError::Corrupt("invalid LDA config"));
        }
        let config = LdaConfig {
            num_topics,
            alpha,
            beta,
            train_iterations,
            infer_iterations,
            seed,
        };
        let vocab_len = r.u32("vocabulary length")? as usize;
        let offsets = r.u32_vec(vocab_len + 1, "vocabulary offsets")?;
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(TopicBytesError::Corrupt("vocabulary offsets"));
        }
        let page = r.take(offsets[vocab_len] as usize, "vocabulary page")?;
        let mut tokens = Vec::with_capacity(vocab_len);
        for w in offsets.windows(2) {
            let token = std::str::from_utf8(&page[w[0] as usize..w[1] as usize])
                .map_err(|_| TopicBytesError::Utf8)?;
            tokens.push(token.to_string());
        }
        let vocab = Vocabulary::from_id_tokens(tokens);
        let cells = num_topics
            .checked_mul(vocab.len().max(1))
            .ok_or(TopicBytesError::Corrupt("count shapes"))?;
        let topic_word = r.u32_vec(cells, "topic-word counts")?;
        let topic_totals = r.u32_vec(num_topics, "topic totals")?;
        r.finish("trailing bytes after LDA model")?;
        LdaModel::from_parts(config, vocab, topic_word, topic_totals)
            .ok_or(TopicBytesError::Corrupt("count shapes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn themed_documents() -> Vec<String> {
        (0..30)
            .map(|i| {
                if i % 2 == 0 {
                    "rock jazz blues album artist guitar song melody".to_string()
                } else {
                    "warsaw london paris city country europe capital river".to_string()
                }
            })
            .collect()
    }

    fn trained() -> LdaModel {
        LdaModel::fit(&themed_documents(), 1, LdaConfig::tiny())
    }

    #[test]
    fn lda_model_round_trips_bit_identically() {
        let model = trained();
        let mut bytes = Vec::new();
        model.write_bytes(&mut bytes);
        let back = LdaModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.config(), model.config());
        assert_eq!(back.vocabulary().len(), model.vocabulary().len());
        for id in 0..model.vocabulary().len() {
            assert_eq!(back.vocabulary().token(id), model.vocabulary().token(id));
        }
        assert_eq!(back.topic_word_counts(), model.topic_word_counts());
        assert_eq!(back.topic_total_counts(), model.topic_total_counts());
        // Inference (the serving contract) is bit-identical too.
        assert_eq!(
            back.infer("rock jazz album"),
            model.infer("rock jazz album")
        );
    }

    #[test]
    fn truncation_is_reported_at_every_prefix() {
        let model = trained();
        let mut bytes = Vec::new();
        model.write_bytes(&mut bytes);
        for cut in [0, 7, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    LdaModel::from_bytes(&bytes[..cut]),
                    Err(TopicBytesError::Truncated(_))
                ),
                "cut at {cut} not reported as truncation"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let model = trained();
        let mut bytes = Vec::new();
        model.write_bytes(&mut bytes);
        bytes.push(0);
        assert!(matches!(
            LdaModel::from_bytes(&bytes),
            Err(TopicBytesError::Corrupt(_))
        ));
    }

    #[test]
    fn invalid_config_is_corrupt_not_panic() {
        let model = trained();
        let mut bytes = Vec::new();
        model.write_bytes(&mut bytes);
        // Overwrite alpha (offset 8) with NaN.
        bytes[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            LdaModel::from_bytes(&bytes),
            Err(TopicBytesError::Corrupt(_))
        ));
    }

    /// Regression: a hostile header whose `num_topics × vocabulary` shape
    /// overflows `usize` panicked in debug builds (and wrapped in release)
    /// instead of failing as a corrupt payload.
    #[test]
    fn overflowing_count_shape_header_is_corrupt() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1u64 << 63).to_le_bytes()); // num_topics
        bytes.extend_from_slice(&0.1f64.to_le_bytes()); // alpha
        bytes.extend_from_slice(&0.01f64.to_le_bytes()); // beta
        bytes.extend_from_slice(&0u64.to_le_bytes()); // train_iterations
        bytes.extend_from_slice(&0u64.to_le_bytes()); // infer_iterations
        bytes.extend_from_slice(&0u64.to_le_bytes()); // seed
        bytes.extend_from_slice(&2u32.to_le_bytes()); // vocabulary length
        for offset in [0u32, 1, 2] {
            bytes.extend_from_slice(&offset.to_le_bytes());
        }
        bytes.extend_from_slice(b"ab");
        assert_eq!(
            LdaModel::from_bytes(&bytes).unwrap_err(),
            TopicBytesError::Corrupt("count shapes")
        );
    }
}
