//! A "featurisation-free" single-column predictor, standing in for the BERT
//! fine-tuning experiment of Section 6.
//!
//! The paper's point in that section is architectural: a learned-
//! representation model that consumes raw column text (no hand-crafted
//! Sherlock features) can be plugged into the same single-column slot and
//! reaches accuracy comparable to Sherlock, while still losing to the
//! multi-column Sato model. Fine-tuning an actual BERT checkpoint is outside
//! the scope of an offline Rust reproduction, so this module implements the
//! closest dependency-free analogue: the raw token stream of a column is
//! encoded with hashed character n-grams (no per-group feature engineering)
//! and classified by an MLP trained end to end. Like the paper's BERT
//! baseline it implements [`ColumnwiseTrainer`] + [`ColumnwiseInference`], so
//! it can replace the Sherlock model inside Sato without touching the topic
//! or CRF modules.

use crate::columnwise::{ColumnwiseInference, ColumnwiseTrainer};
use crate::config::SatoConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sato_features::hashing::{hash_token, l2_normalize};
use sato_nn::layers::{Dense, Dropout, ReLU};
use sato_nn::loss::{softmax_cross_entropy, softmax_in_place};
use sato_nn::network::{InferScratch, Sequential};
use sato_nn::optim::Adam;
use sato_nn::Matrix;
use sato_tabular::table::{Column, Corpus, Table};
use sato_tabular::text::tokenize;
use sato_tabular::types::NUM_TYPES;

/// Hash seed of the raw-text encoder (distinct from the Word/Para groups).
const ENCODER_SEED: u64 = 0x6265_7274;

/// Configuration of the BERT-like raw-text predictor.
#[derive(Debug, Clone)]
pub struct BertLikeConfig {
    /// Width of the hashed raw-text encoding.
    pub encoding_dim: usize,
    /// Hidden width of the classifier MLP.
    pub hidden_dim: usize,
    /// Dropout probability.
    pub dropout: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (columns).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for BertLikeConfig {
    fn default() -> Self {
        BertLikeConfig {
            encoding_dim: 256,
            hidden_dim: 128,
            dropout: 0.2,
            epochs: 40,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 77,
        }
    }
}

impl BertLikeConfig {
    /// A small configuration for tests, aligned with [`SatoConfig::fast`].
    pub fn fast() -> Self {
        BertLikeConfig {
            encoding_dim: 96,
            hidden_dim: 48,
            epochs: 30,
            batch_size: 32,
            ..BertLikeConfig::default()
        }
    }

    /// Panic unless the optimiser settings are usable: at least one column
    /// per mini-batch and a positive finite learning rate. The message
    /// names the field.
    pub fn validate(&self) {
        crate::config::validate_minibatch(self.batch_size, self.learning_rate);
    }

    /// Derive a BERT-like configuration from a Sato configuration so the two
    /// models train for comparable budgets in the Section 6 experiment.
    pub fn from_sato(config: &SatoConfig) -> Self {
        BertLikeConfig {
            hidden_dim: config.network.hidden_dim,
            dropout: config.network.dropout,
            epochs: config.network.epochs,
            batch_size: config.network.batch_size,
            learning_rate: config.network.learning_rate,
            seed: config.seed ^ 0xbe27,
            ..BertLikeConfig::default()
        }
    }
}

/// Encode a column's raw token stream into a fixed-width vector.
pub fn encode_column(column: &Column, dim: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    let mut count = 0usize;
    for cell in column.iter() {
        for token in tokenize(cell) {
            let v = hash_token(&token, dim, (2, 4), ENCODER_SEED);
            for i in 0..dim {
                acc[i] += v[i];
            }
            count += 1;
        }
    }
    if count > 0 {
        l2_normalize(&mut acc);
    }
    acc
}

/// The BERT-like raw-text column classifier.
pub struct BertLikeModel {
    config: BertLikeConfig,
    net: Option<Sequential>,
    loss_history: Vec<f32>,
}

impl BertLikeModel {
    /// Create an untrained model.
    pub fn new(config: BertLikeConfig) -> Self {
        BertLikeModel {
            config,
            net: None,
            loss_history: Vec::new(),
        }
    }

    /// Mean training loss per epoch.
    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }

    /// Whether the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.net.is_some()
    }
}

impl ColumnwiseTrainer for BertLikeModel {
    /// Train on a labelled corpus.
    fn fit(&mut self, corpus: &Corpus) -> &[f32] {
        self.config.validate();
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for table in corpus.iter() {
            if !table.is_labelled() {
                continue;
            }
            for (col, label) in table.columns.iter().zip(&table.labels) {
                rows.push(encode_column(col, self.config.encoding_dim));
                labels.push(label.index());
            }
        }
        assert!(!rows.is_empty(), "cannot train on an empty corpus");
        let data = Matrix::from_vec(
            rows.len(),
            self.config.encoding_dim,
            rows.into_iter().flatten().collect(),
        );

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut net = Sequential::new()
            .push(Dense::new(
                self.config.encoding_dim,
                self.config.hidden_dim,
                &mut rng,
            ))
            .push(ReLU::new())
            .push(Dropout::new(
                self.config.dropout,
                StdRng::seed_from_u64(self.config.seed ^ 1),
            ))
            .push(Dense::new(
                self.config.hidden_dim,
                self.config.hidden_dim,
                &mut rng,
            ))
            .push(ReLU::new())
            .push(Dense::new(self.config.hidden_dim, NUM_TYPES, &mut rng));

        let mut adam = Adam::new(self.config.learning_rate, 1e-4);
        let mut indices: Vec<usize> = (0..labels.len()).collect();
        let mut shuffle_rng = StdRng::seed_from_u64(self.config.seed ^ 2);
        self.loss_history.clear();
        for _ in 0..self.config.epochs {
            indices.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in indices.chunks(self.config.batch_size) {
                let x = data.select_rows(chunk);
                let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let logits = net.forward(&x);
                let out = softmax_cross_entropy(&logits, &y);
                net.backward_params(&out.grad_logits);
                adam.step(&mut net.params_mut());
                epoch_loss += out.loss;
                batches += 1;
            }
            self.loss_history.push(epoch_loss / batches.max(1) as f32);
        }
        self.net = Some(net);
        &self.loss_history
    }
}

impl ColumnwiseInference for BertLikeModel {
    fn predict_proba(&self, table: &Table) -> Vec<Vec<f32>> {
        let net = self.net.as_ref().expect("model must be trained first");
        if table.columns.is_empty() {
            return Vec::new();
        }
        let rows: Vec<Vec<f32>> = table
            .columns
            .iter()
            .map(|c| encode_column(c, self.config.encoding_dim))
            .collect();
        let x = Matrix::from_vec(
            rows.len(),
            self.config.encoding_dim,
            rows.into_iter().flatten().collect(),
        );
        let mut probs = Matrix::default();
        net.infer_with(&x, &mut InferScratch::new(), &mut probs);
        softmax_in_place(&mut probs);
        crate::columnwise::matrix_rows(&probs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::corpus::default_corpus;

    #[test]
    fn encoding_is_normalised_and_deterministic() {
        let col = Column::new(["Warsaw", "London"]);
        let a = encode_column(&col, 64);
        let b = encode_column(&col, 64);
        assert_eq!(a, b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
        assert!(encode_column(&Column::new([""]), 64)
            .iter()
            .all(|&x| x == 0.0));
    }

    #[test]
    fn model_trains_and_beats_chance() {
        let corpus = default_corpus(60, 8);
        let mut model = BertLikeModel::new(BertLikeConfig::fast());
        model.fit(&corpus);
        assert!(model.is_trained());
        let history = model.loss_history();
        assert!(history.last().unwrap() < history.first().unwrap());

        let mut correct = 0usize;
        let mut total = 0usize;
        for table in corpus.iter().take(20) {
            let preds = model.predict_types(table);
            correct += preds
                .iter()
                .zip(&table.labels)
                .filter(|(a, b)| a == b)
                .count();
            total += table.labels.len();
        }
        assert!(correct as f32 / total as f32 > 0.2);
    }

    /// Training and prediction are deterministic down to the bit: FNV-1a
    /// digests of the per-epoch losses and of the probabilities over a
    /// held-out corpus. A change to the layers, the loss or the optimiser
    /// that moves any bit shows up here.
    #[test]
    fn trained_model_is_pinned() {
        let config = BertLikeConfig {
            epochs: 6,
            ..BertLikeConfig::fast()
        };
        let mut model = BertLikeModel::new(config);
        model.fit(&default_corpus(40, 21));
        let mut loss = sato_kernels::Fnv1a::new();
        for l in model.loss_history() {
            loss.write(&l.to_bits().to_le_bytes());
        }
        let mut proba = sato_kernels::Fnv1a::new();
        for table in default_corpus(12, 22).iter() {
            for p in model.predict_proba(table).iter().flatten() {
                proba.write(&p.to_bits().to_le_bytes());
            }
        }
        assert_eq!(loss.finish(), 0xde4f6bcfeb18e9d5, "loss history");
        assert_eq!(proba.finish(), 0xc3517053741c8136, "held-out probabilities");
    }

    #[test]
    fn probabilities_are_normalised() {
        let corpus = default_corpus(30, 9);
        let mut model = BertLikeModel::new(BertLikeConfig::fast());
        model.fit(&corpus);
        let probs = model.predict_proba(&corpus.tables[0]);
        for p in probs {
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "trained")]
    fn prediction_requires_training() {
        let corpus = default_corpus(3, 1);
        let model = BertLikeModel::new(BertLikeConfig::fast());
        model.predict_proba(&corpus.tables[0]);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_panics_naming_the_field() {
        let config = BertLikeConfig {
            batch_size: 0,
            ..BertLikeConfig::fast()
        };
        BertLikeModel::new(config).fit(&default_corpus(4, 1));
    }

    #[test]
    fn config_derives_from_sato_config() {
        let sato = SatoConfig::fast();
        let bert = BertLikeConfig::from_sato(&sato);
        assert_eq!(bert.epochs, sato.network.epochs);
        assert_eq!(bert.hidden_dim, sato.network.hidden_dim);
    }
}
