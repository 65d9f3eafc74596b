//! Dense and sparse linear-algebra kernels used throughout the `rgae`
//! workspace.
//!
//! The workspace deliberately avoids heavyweight BLAS bindings: the models in
//! the reproduced paper are tiny (two graph-convolution layers, hidden sizes
//! of 16–64), so plain, carefully written `f64` loops are both portable and
//! fast enough. Everything here is deterministic given a seed.
//!
//! The two central types are:
//!
//! * [`Mat`] — a dense, row-major `f64` matrix.
//! * [`Csr`] — a compressed-sparse-row matrix, used for graph adjacencies and
//!   the normalised graph filter Ã.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod csr;
mod decoder;
mod mat;
pub mod numerics;
mod rng;

pub use csr::{Csr, Triplet};
pub use decoder::{
    fast_exact_bound, fused_scratch_bytes, gram_bce_fused, gram_bce_fused_with, gram_row_fold,
    gram_row_map, set_decoder_tile, FastExactBound, FusedGramBce, DEFAULT_DECODER_TILE,
};
pub use mat::Mat;
pub use numerics::DecoderNumerics;
pub use rng::{glorot_uniform, standard_normal, uniform, Rng64};

/// Errors produced by shape or numeric validation in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand.
        lhs: (usize, usize),
        /// Shape of the right operand.
        rhs: (usize, usize),
    },
    /// A matrix construction received inconsistent buffer lengths.
    BadConstruction(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in `{op}`: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            Error::BadConstruction(what) => write!(f, "bad construction: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Cosine similarity between two equal-length vectors.
///
/// Returns `0.0` when either vector is (numerically) zero, which is the
/// convention the paper's Λ diagnostics need: a vanished gradient carries no
/// directional information.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine: length mismatch");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = na.sqrt() * nb.sqrt();
    if denom <= f64::EPSILON {
        0.0
    } else {
        dot / denom
    }
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Numerically stable `log(1 + exp(x))`.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basic() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn softplus_stable() {
        assert!((softplus(0.0) - 2f64.ln()).abs() < 1e-12);
        assert!((softplus(100.0) - 100.0).abs() < 1e-9);
        assert!(softplus(-100.0) > 0.0);
        assert!(softplus(-100.0) < 1e-40);
    }

    #[test]
    fn sigmoid_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn euclidean_basic() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
