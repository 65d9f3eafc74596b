//! Tape-based reverse-mode automatic differentiation over dense matrices.
//!
//! This crate is the workspace's replacement for PyTorch autograd. A
//! [`Graph`] is a write-once tape: every operation appends a node holding its
//! dense value and enough information to back-propagate. The models in this
//! workspace rebuild the tape for every training step (define-by-run), which
//! keeps the API tiny and the lifetimes trivial.
//!
//! ```
//! use rgae_autodiff::Graph;
//! use rgae_linalg::Mat;
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Mat::from_vec(1, 2, vec![3.0, -1.0]).unwrap());
//! let y = g.hadamard(x, x).unwrap(); // y = x ∘ x
//! let loss = g.sum(y);
//! g.backward(loss).unwrap();
//! // d(Σ x²)/dx = 2x
//! assert_eq!(g.grad(x).unwrap().as_slice(), &[6.0, -2.0]);
//! ```
//!
//! Scalars are represented as `1×1` matrices; [`Graph::backward`] requires a
//! scalar root. Sparse matrices participate only as constants (graph filters
//! and self-supervision targets), which is exactly how GCN training uses
//! them.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod graph;
mod optim;
pub mod reference;

pub use graph::{Graph, Var};
pub use optim::{arm_grad_poison, disarm_grad_poison, Adam, AdamState};

/// Errors surfaced by tape construction or backward passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Underlying linear-algebra shape error.
    Shape(rgae_linalg::Error),
    /// `backward` called on a non-scalar node.
    NonScalarRoot {
        /// Shape of the offending root node.
        shape: (usize, usize),
    },
    /// Requested gradient of a node that does not track gradients or for
    /// which backward has not produced one.
    NoGradient,
    /// Operation-specific invariant violated (message describes it).
    Invalid(&'static str),
}

impl From<rgae_linalg::Error> for Error {
    fn from(e: rgae_linalg::Error) -> Self {
        Error::Shape(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Shape(e) => write!(f, "shape error: {e}"),
            Error::NonScalarRoot { shape } => {
                write!(f, "backward root must be 1x1, got {}x{}", shape.0, shape.1)
            }
            Error::NoGradient => write!(f, "no gradient recorded for this node"),
            Error::Invalid(m) => write!(f, "invalid operation: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
