//! # vas-eval
//!
//! Evaluation machinery for the VAS reproduction:
//!
//! * [`loss`] — the Monte-Carlo estimator of the visualization loss
//!   `Loss(S) = ∫ 1/Σ κ(x, s) dx` from Section III / VI-B of the paper,
//!   including the `log-loss-ratio` normalization used in Figures 7 and 8.
//! * [`stats`] — summary statistics and the Spearman rank correlation used to
//!   quantify the relationship between loss and user success (the paper
//!   reports ρ ≈ −0.85).
//! * [`similarity`] — a complementary, renderer-centric fidelity measure:
//!   how similar the bitmap produced from a sample is to the bitmap produced
//!   from the full data.
//!
//! Nothing here is needed to *build* a sample; this crate exists to measure
//! how good samples are.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loss;
pub mod similarity;
pub mod stats;

pub use loss::{LossConfig, LossEstimator, LossReport};
pub use stats::{mean, median, pearson, spearman};
