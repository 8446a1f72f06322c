//! Shared numeric kernels for the Sato serving hot paths.
//!
//! Every measured inner loop of the serving pipeline — n-gram feature
//! hashing (`sato-features`), CRF flat-DP decode (`sato-crf`), warm NN
//! forward accumulation (`sato-nn`), artifact/colstore checksums
//! (`sato-core`/`sato-tabular`) — bottoms out in a handful of fixed-width
//! primitives. This crate implements each primitive **once**, in two
//! forms:
//!
//! * a **scalar** reference implementation (`scalar::*`) — the oracle the
//!   chunked form is parity-tested against, and the baseline the benchmarks
//!   measure speedups from;
//! * a **chunked** form (the default export) — restructured into fixed-width
//!   chunks with independent accumulators so the stable autovectorizer can
//!   lift it, without changing the documented exactness contract.
//!
//! # Exactness contract
//!
//! | Kernel | chunked vs scalar |
//! |---|---|
//! | [`fnv1a64`] / [`Fnv1a`] | bit-identical |
//! | [`log_sum_exp`], [`log_sum_exp3`] | bit-identical¹ |
//! | [`max_argmax`], [`relax_max_argmax`], [`max_add_update`], [`exp_sum_update`], [`lse_finish`] | bit-identical¹ |
//! | [`axpy`], [`add_assign`], [`scale`] | bit-identical |
//! | [`dot`] | ULP-bounded (reassociated partial sums) |
//! | [`squared_l2`] | ULP-bounded (reassociated partial sums) |
//! | [`squared_l2_x4`] | bit-identical to [`squared_l2`] per lane |
//! | [`dot_x4`] | bit-identical to [`dot`] per lane (row first) |
//! | [`lut_histogram`] | exact (integer counts) |
//!
//! ¹ for NaN-free inputs; max reductions are reassociated, which is exact
//! for `f64::max` up to the sign of a `±0.0` maximum — and every consumer
//! in this workspace is insensitive to that sign bit (`exp(±0.0) = 1.0`,
//! `x + ±0.0 = x` for the values that can reach it), so parity tests
//! compare bits.
//!
//! The sums inside the log-sum-exp kernels stay in index order (only the
//! max pass is chunked): reassociating a sum of exponentials would change
//! results, and the CRF keeps the dense serving path bit-identical to its
//! historical implementation.

pub mod fnv;
pub mod hist;
pub mod linalg;
pub mod reduce;

pub use fnv::{fnv1a64, fnv1a64_seeded, Fnv1a};
pub use hist::{lut_histogram, HIST_SKIP};
pub use linalg::{add_assign, axpy, dot, dot_x4, scale, squared_l2, squared_l2_x4};
pub use reduce::{
    exp_sum_update, log_sum_exp, log_sum_exp3, lse_finish, max_add_update, max_argmax,
    relax_max_argmax,
};
