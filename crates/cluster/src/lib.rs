//! Clustering algorithms and external evaluation metrics.
//!
//! * [`kmeans`] — k-means++ initialisation plus Lloyd iterations;
//! * [`GaussianMixture`] — diagonal-covariance EM;
//! * [`student_t_assignments`] — the DEC soft-assignment kernel (Eq. 20);
//! * [`gaussian_soft_assignments`] — the Ξ operator's Eq. 15 kernel;
//! * [`hungarian`] — Kuhn–Munkres assignment, used by clustering accuracy;
//! * [`accuracy`], [`nmi`], [`ari`] — the paper's three metrics.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod gmm;
mod hungarian;
mod kmeans;
mod metrics;
mod soft;

pub use gmm::GaussianMixture;
pub use hungarian::hungarian;
pub use kmeans::{kmeans, KMeansResult};
pub use metrics::{accuracy, ari, best_mapping, confusion_matrix, map_predictions_to_labels, nmi};
pub use soft::{
    dec_target_distribution, gaussian_soft_assignments, gaussian_soft_assignments_tempered,
    student_t_assignments,
};

/// Errors produced by the clustering routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Fewer points than clusters, or zero clusters requested.
    BadClusterCount {
        /// Points available.
        points: usize,
        /// Clusters requested.
        clusters: usize,
    },
    /// Input lengths disagree.
    LengthMismatch(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadClusterCount { points, clusters } => {
                write!(f, "cannot form {clusters} clusters from {points} points")
            }
            Error::LengthMismatch(m) => write!(f, "length mismatch: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Points per parallel task for a per-point kernel costing ~`point_cost`
/// flops each. One task (inline execution) when the problem is too small to
/// amortise pool dispatch. The choice never affects results: per-point
/// outputs are independent and scalar reductions go through fixed-width
/// ordered partials.
pub(crate) fn par_point_chunk(n: usize, point_cost: usize) -> usize {
    const MIN_PAR_WORK: usize = 16 * 1024;
    let t = rgae_par::threads();
    if t <= 1 || n.saturating_mul(point_cost.max(1)) < MIN_PAR_WORK {
        n.max(1)
    } else {
        n.div_ceil(t * 4).max(1)
    }
}
