//! The paper's contribution: the sampling operator **Ξ** (a protection
//! mechanism against Feature Randomness), the graph-transforming operator
//! **Υ** (a correction mechanism against Feature Drift), the generic
//! R-trainer that integrates both into any [`rgae_models::GaeModel`], the
//! Λ_FR / Λ_FD gradient-cosine diagnostics, and a numerical verification of
//! the paper's §3 theory.
//!
//! # Quick tour
//!
//! ```no_run
//! use rgae_core::{RConfig, RTrainer};
//! use rgae_datasets::presets::cora_like;
//! use rgae_linalg::Rng64;
//! use rgae_models::{ComposedModel, TrainData};
//!
//! let graph = cora_like(0.25, 7).unwrap();
//! let data = TrainData::from_graph(&graph);
//! let mut rng = Rng64::seed_from_u64(0);
//! let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
//! let report = RTrainer::new(RConfig::for_dataset("cora-like"))
//!     .train(&mut model, &graph, &mut rng)
//!     .unwrap();
//! println!("R-DGAE ACC = {:.3}", report.final_metrics.acc);
//! ```

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod checkpoint;
mod diagnostics;
mod eval;
pub mod theory;
mod trainer;
mod upsilon;
mod xi;

pub use checkpoint::{CheckpointOpts, Phase, TrainerState};
pub use diagnostics::{lambda_fd, lambda_fr, one_hot_targets, one_hot_targets_counted, q_prime};
pub use eval::{evaluate, soft_assignments_or_kmeans, Metrics};
pub use trainer::{
    train_plain, train_plain_ckpt, Arm, EpochRecord, FdMode, RConfig, RReport, RTrainer,
};
pub use upsilon::{upsilon, UpsilonConfig, UpsilonOutcome};
pub use xi::{xi, Omega, XiConfig};
// The guard layer's configuration surface, re-exported so trainer callers
// can fill `RConfig::guard` without depending on `rgae-guard` directly.
pub use rgae_guard::{FaultKind, FaultSpec, GuardConfig};

/// Errors from the R-GAE pipeline.
#[derive(Debug)]
pub enum Error {
    /// Model-layer failure.
    Model(rgae_models::Error),
    /// Clustering-layer failure.
    Cluster(rgae_cluster::Error),
    /// Graph-layer failure.
    Graph(rgae_graph::Error),
    /// Configuration invariant violated.
    Config(&'static str),
    /// Checkpoint store failure (I/O only — corrupt checkpoint *contents*
    /// never error; the loader falls back or starts fresh).
    Checkpoint(String),
    /// The crash-injection hook fired right after a checkpoint save
    /// (`CheckpointOpts::halt_after_saves`). Not a real failure: resuming
    /// from the checkpoint continues the run bit-identically.
    Halted,
}

impl From<rgae_models::Error> for Error {
    fn from(e: rgae_models::Error) -> Self {
        Error::Model(e)
    }
}

impl From<rgae_cluster::Error> for Error {
    fn from(e: rgae_cluster::Error) -> Self {
        Error::Cluster(e)
    }
}

impl From<rgae_graph::Error> for Error {
    fn from(e: rgae_graph::Error) -> Self {
        Error::Graph(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Model(e) => write!(f, "model: {e}"),
            Error::Cluster(e) => write!(f, "cluster: {e}"),
            Error::Graph(e) => write!(f, "graph: {e}"),
            Error::Config(m) => write!(f, "config: {m}"),
            Error::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            Error::Halted => write!(f, "halted after checkpoint save (crash injection)"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
