//! Configuration of the Sato models.
//!
//! The defaults follow the paper's hyper-parameters (Section 4.3) scaled to
//! the laptop-sized synthetic corpus: Adam with learning rate 1e-4 and weight
//! decay 1e-4 for the column-wise network, learning rate 1e-2 and batches of
//! 10 tables for the CRF layer, and an LDA table-intent estimator whose topic
//! count defaults to 64 (the paper uses 400 on the 80K-table corpus; the
//! count is configurable and swept in the ablation benches).

use sato_crf::CrfTrainConfig;
use sato_features::FeatureConfig;
use sato_topic::LdaConfig;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the column-wise (Sherlock-style) neural network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Output width of each feature-group compression subnetwork.
    pub subnetwork_dim: usize,
    /// Width of the two fully-connected layers of the primary network.
    pub hidden_dim: usize,
    /// Dropout probability in the primary network.
    pub dropout: f32,
    /// Training epochs (the paper uses 100).
    pub epochs: usize,
    /// Mini-batch size (in columns).
    pub batch_size: usize,
    /// Adam learning rate (the paper uses 1e-4).
    pub learning_rate: f32,
    /// Adam weight decay (the paper uses 1e-4).
    pub weight_decay: f32,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            subnetwork_dim: 64,
            hidden_dim: 128,
            dropout: 0.2,
            epochs: 40,
            batch_size: 64,
            learning_rate: 1e-3,
            weight_decay: 1e-4,
        }
    }
}

impl NetworkConfig {
    /// Panic unless the optimiser settings are usable: at least one column
    /// per mini-batch and a positive finite learning rate. The message
    /// names the field.
    pub fn validate(&self) {
        validate_minibatch(self.batch_size, self.learning_rate);
    }
}

/// Shared check of the network trainers' mini-batch size and Adam learning
/// rate (see [`NetworkConfig::validate`]).
pub(crate) fn validate_minibatch(batch_size: usize, learning_rate: f32) {
    assert!(batch_size >= 1, "batch_size must be at least 1 (got 0)");
    assert!(
        learning_rate.is_finite() && learning_rate > 0.0,
        "learning_rate must be positive and finite (got {learning_rate})"
    );
}

/// Full Sato configuration: feature extraction, topic model, column-wise
/// network and CRF training.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SatoConfig {
    /// Column feature extraction widths.
    pub features: FeatureConfig,
    /// LDA topic model configuration (table intent estimator).
    pub lda: LdaConfig,
    /// Column-wise network hyper-parameters.
    pub network: NetworkConfig,
    /// CRF layer training hyper-parameters.
    pub crf: CrfTrainParams,
    /// Global seed for weight initialisation and shuffling.
    pub seed: u64,
}

/// Serializable mirror of [`sato_crf::CrfTrainConfig`] so the whole Sato
/// configuration can be persisted as one JSON document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrfTrainParams {
    /// Learning rate of the CRF layer (paper: 1e-2).
    pub learning_rate: f64,
    /// Training epochs for the CRF layer (paper: 15).
    pub epochs: usize,
    /// Tables per CRF mini-batch (paper: 10).
    pub batch_size: usize,
    /// L2 regularisation on pairwise potentials.
    pub l2: f64,
}

impl Default for CrfTrainParams {
    fn default() -> Self {
        CrfTrainParams {
            learning_rate: 1e-2,
            epochs: 15,
            batch_size: 10,
            l2: 1e-4,
        }
    }
}

impl CrfTrainParams {
    /// Convert into the `sato-crf` trainer configuration.
    pub fn to_crf_config(&self, seed: u64) -> CrfTrainConfig {
        CrfTrainConfig {
            learning_rate: self.learning_rate,
            epochs: self.epochs,
            batch_size: self.batch_size,
            l2: self.l2,
            seed,
        }
    }
}

impl Default for SatoConfig {
    fn default() -> Self {
        SatoConfig {
            features: FeatureConfig::default(),
            lda: LdaConfig::default(),
            network: NetworkConfig::default(),
            crf: CrfTrainParams::default(),
            seed: 42,
        }
    }
}

impl SatoConfig {
    /// A configuration small enough for unit tests and doc examples: low
    /// feature dimensionality, few topics, few epochs.
    pub fn fast() -> Self {
        SatoConfig {
            features: FeatureConfig::small(),
            lda: LdaConfig {
                // Needs enough topics to separate the corpus's table
                // intents; fewer makes the topic signal noise that *hurts*
                // the topic-aware variants.
                num_topics: 32,
                train_iterations: 60,
                infer_iterations: 25,
                ..LdaConfig::default()
            },
            network: NetworkConfig {
                subnetwork_dim: 24,
                hidden_dim: 48,
                epochs: 30,
                batch_size: 32,
                ..NetworkConfig::default()
            },
            crf: CrfTrainParams {
                epochs: 8,
                ..CrfTrainParams::default()
            },
            seed: 42,
        }
    }

    /// Builder-style: change the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: change the topic count of the LDA model.
    pub fn with_topics(mut self, num_topics: usize) -> Self {
        self.lda.num_topics = num_topics;
        self
    }

    /// Builder-style: change the number of network training epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.network.epochs = epochs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_style_hyperparameters() {
        let cfg = SatoConfig::default();
        assert_eq!(cfg.crf.batch_size, 10);
        assert_eq!(cfg.crf.epochs, 15);
        assert!((cfg.crf.learning_rate - 1e-2).abs() < 1e-12);
        assert!(cfg.network.weight_decay > 0.0);
    }

    #[test]
    fn fast_config_is_smaller_than_default() {
        let fast = SatoConfig::fast();
        let full = SatoConfig::default();
        assert!(fast.lda.num_topics < full.lda.num_topics);
        assert!(fast.network.epochs < full.network.epochs);
    }

    #[test]
    fn builders_update_fields() {
        let cfg = SatoConfig::fast()
            .with_seed(7)
            .with_topics(5)
            .with_epochs(3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.lda.num_topics, 5);
        assert_eq!(cfg.network.epochs, 3);
    }

    #[test]
    fn crf_params_convert_to_trainer_config() {
        let params = CrfTrainParams::default();
        let cfg = params.to_crf_config(99);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.epochs, params.epochs);
        assert_eq!(cfg.batch_size, params.batch_size);
    }

    #[test]
    #[should_panic(expected = "learning_rate")]
    fn nan_network_learning_rate_panics_naming_the_field() {
        NetworkConfig {
            learning_rate: f32::NAN,
            ..NetworkConfig::default()
        }
        .validate();
    }

    #[test]
    fn config_serialises_to_json() {
        let cfg = SatoConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SatoConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.network, cfg.network);
        assert_eq!(back.seed, cfg.seed);
    }
}
