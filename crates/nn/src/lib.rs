//! # sato-nn
//!
//! A minimal, dependency-light dense neural-network library: exactly the
//! building blocks needed to reproduce the Sherlock/Sato multi-input
//! feed-forward classifiers from *Sato: Contextual Semantic Type Detection
//! in Tables* (VLDB 2020) — dense layers, ReLU, BatchNorm, Dropout, softmax
//! cross-entropy, Adam, and save/load of trained parameters.
//!
//! Each layer has one training forward and one evaluation forward.
//! `forward`/`backward` take `&mut self`, always train (dropout masks,
//! batch statistics) and cache activations for backprop. The evaluation
//! forward is [`Layer::infer_into`], run for a whole stack by
//! [`Sequential::infer_with`] and [`MultiInputNetwork::infer_with`] through
//! a reusable scratch: `&self`, dropout as the identity, BatchNorm with
//! running statistics, nothing cached. So a trained network is
//! `Send + Sync` and can serve predictions from many threads at once. A
//! whole network (parameters *and* running statistics) round-trips through
//! [`StateDict`].
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use sato_nn::layers::{Dense, ReLU};
//! use sato_nn::loss::{argmax_rows, softmax_cross_entropy};
//! use sato_nn::matrix::Matrix;
//! use sato_nn::network::{InferScratch, Sequential};
//! use sato_nn::optim::Adam;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new()
//!     .push(Dense::new(2, 8, &mut rng))
//!     .push(ReLU::new())
//!     .push(Dense::new(8, 2, &mut rng));
//! let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
//! let mut adam = Adam::new(0.01, 0.0);
//! for _ in 0..50 {
//!     let logits = net.forward(&x);
//!     let out = softmax_cross_entropy(&logits, &[1, 0]);
//!     net.backward_params(&out.grad_logits);
//!     adam.step(&mut net.params_mut());
//! }
//! let mut logits = Matrix::default();
//! net.infer_with(&x, &mut InferScratch::new(), &mut logits);
//! assert_eq!(argmax_rows(&logits), vec![1, 0]);
//! ```

#![warn(missing_docs)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod network;
pub mod optim;
pub mod serialize;

pub use layers::{BatchNorm, Dense, Dropout, Layer, Param, ReLU};
pub use loss::{argmax_rows, softmax_cross_entropy, softmax_in_place};
pub use matrix::Matrix;
pub use network::{MultiInputNetwork, Sequential};
pub use optim::Adam;
pub use serialize::{LoadError, StateBytesError, StateDict};
