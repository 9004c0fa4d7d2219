//! Gaussian-process regression for EdgeBOL.
//!
//! EdgeBOL (§5 of the paper) models its cost and constraint functions as
//! samples of Gaussian processes over the joint context–control space
//! `Z = C x X`. This crate provides:
//!
//! * **Anisotropic stationary kernels** ([`Kernel`]): Matérn-3/2 (the
//!   paper's choice, eq. (6)), Matérn-5/2 and squared-exponential, all with
//!   per-dimension (ARD) length-scales implementing the scaled distance of
//!   eq. (5).
//! * **Online exact GP regression** ([`GaussianProcess`]): posterior mean
//!   and standard deviation (eqs. (3)–(4)) maintained with an *incremental*
//!   Cholesky factorization — `O(T^2)` per added observation instead of
//!   `O(T^3)` — plus batched prediction over candidate sets and an optional
//!   sliding observation window for very long runs.
//! * **Hyperparameter fitting** ([`fit_hyperparams`]): length-scales,
//!   signal variance and noise variance maximizing the log-marginal
//!   likelihood via multi-start Nelder–Mead, run once on seed data and then
//!   frozen, exactly as the paper prescribes ("during execution, the
//!   hyperparameters shall remain constant").
//!
//! # Example
//!
//! ```
//! use edgebol_gp::{GaussianProcess, Kernel};
//!
//! let kernel = Kernel::matern32(1.0, vec![0.5]);
//! let mut gp = GaussianProcess::new(kernel, 1e-4);
//! for i in 0..10 {
//!     let x = i as f64 / 9.0;
//!     gp.observe(&[x], (2.0 * x).sin()).unwrap();
//! }
//! let (mean, std) = gp.predict(&[0.5]);
//! assert!((mean - 1.0f64.sin()).abs() < 0.1);
//! assert!(std < 0.2);
//! ```

mod gp;
mod hyperopt;
mod kernel;

pub use gp::{EvictStrategy, GaussianProcess, GpSnapshot, PARALLEL_POSTERIOR_WORK};
pub use hyperopt::{fit_hyperparams, nelder_mead, FitResult, HyperFitConfig, NelderMeadOptions};
pub use kernel::{Kernel, KernelKind};

/// Errors surfaced by the GP layer.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// An observation's input dimensionality differs from earlier ones.
    DimensionMismatch { expected: usize, got: usize },
    /// The kernel matrix could not be factorized even with jitter.
    Numerical(String),
    /// Operation requires at least one observation.
    Empty,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::DimensionMismatch { expected, got } => {
                write!(f, "input dimension mismatch: expected {expected}, got {got}")
            }
            GpError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            GpError::Empty => write!(f, "operation requires observations"),
        }
    }
}

impl std::error::Error for GpError {}
