//! Randomized (Monte-Carlo) baselines for DNF probability estimation.
//!
//! This crate implements the `aconf` baseline of the paper's experiments
//! (Section VII.1): the Karp-Luby-Madras unbiased estimator for the
//! probability of a DNF over independent discrete random variables
//! ([`KarpLubyEstimator`]), combined with the Dagum-Karp-Luby-Ross optimal
//! stopping rule for Monte-Carlo estimation ([`aconf`], [`DklrEstimator`]),
//! which yields an (ε, δ)-approximation: with probability at least `1 − δ`
//! the returned estimate is within relative error ε of the true probability.
//!
//! A naive possible-world sampler ([`naive_monte_carlo`]) is included as a
//! second, weaker baseline (it is an *additive* approximation and degrades
//! badly for small probabilities).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dense;
mod dklr;
mod karp_luby;
mod naive;

pub use dklr::{aconf, aconf_view, DklrEstimator, McOptions, McResult};
pub use karp_luby::{EstimatorVariant, KarpLubyEstimator};
pub use naive::{naive_monte_carlo, naive_monte_carlo_view, NaiveOptions};
