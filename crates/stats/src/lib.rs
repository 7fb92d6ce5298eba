//! Statistical distributions, samplers and special functions for `bmf-ams`.
//!
//! Everything here is built from scratch on top of [`rand`]'s uniform
//! generator: Gaussian sampling (Marsaglia polar), Gamma sampling
//! (Marsaglia–Tsang), χ², multivariate normal (Cholesky colouring),
//! **Wishart** (Bartlett decomposition — the paper's conjugate prior needs
//! it and no allowed crate provides it), the joint normal-Wishart
//! distribution of the BMF prior, and the multivariate Student-t that arises
//! as its posterior predictive. Supporting analysis tools: descriptive
//! statistics up to kurtosis ([`descriptive`]) and principal component
//! analysis ([`pca`]).
//!
//! # Example — estimating moments of a sampled Gaussian
//!
//! ```
//! use bmf_linalg::{Matrix, Vector};
//! use bmf_stats::{descriptive, MultivariateNormal};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bmf_stats::StatsError> {
//! let mean = Vector::from_slice(&[1.0, -1.0]);
//! let cov = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
//! let mvn = MultivariateNormal::new(mean.clone(), cov)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let samples = mvn.sample_matrix(&mut rng, 4000);
//! let est = descriptive::mean_vector(&samples)?;
//! assert!((&est - &mean).norm2() < 0.1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Validation deliberately uses `!(x > 0.0)`-style negated comparisons: they
// reject NaN along with out-of-domain values in one test, which is exactly
// the semantics every constructor here wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod descriptive;
mod error;
pub mod exact;
mod mvn;
mod normal_wishart;
pub mod parallel;
pub mod pca;
pub mod special;
mod student_t;
mod univariate;
mod wishart;

pub use error::StatsError;
pub use mvn::MultivariateNormal;
pub use normal_wishart::NormalWishart;
pub use student_t::MultivariateStudentT;
pub use univariate::{sample_chi_squared, sample_gamma, sample_standard_normal, Normal};
pub use wishart::Wishart;

/// Convenience result alias for fallible statistics operations.
pub type Result<T> = std::result::Result<T, StatsError>;
