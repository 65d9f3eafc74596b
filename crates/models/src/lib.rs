//! GAE-family attributed-graph clustering models.
//!
//! Each of the paper's six models is a [`ComposedModel`]: an encoder, an
//! optional adversarial discriminator and a clustering head. In the paper's
//! §2 taxonomy the first group learns the embedding alone and reads
//! clusters out post hoc with k-means; the second group clusters jointly
//! through its head.
//!
//! | constructor                 | model    | encoder     | adversary | head      | group  |
//! |-----------------------------|----------|-------------|-----------|-----------|--------|
//! | [`ComposedModel::gae`]      | GAE      | GCN         | –         | –         | first  |
//! | [`ComposedModel::vgae`]     | VGAE     | variational | –         | –         | first  |
//! | [`ComposedModel::argae`]    | ARGAE    | GCN         | MLP       | –         | first  |
//! | [`ComposedModel::arvgae`]   | ARVGAE   | variational | MLP       | –         | first  |
//! | [`ComposedModel::dgae`]     | DGAE     | GCN         | –         | DEC       | second |
//! | [`ComposedModel::gmm_vgae`] | GMM-VGAE | variational | –         | GMM       | second |
//!
//! [`GaeModel`] is the surface the R-trainer (`rgae-core`) drives:
//! deterministic embedding, soft assignments, a configurable training step
//! whose reconstruction target and clustering scope can be overridden (that
//! is exactly where Ξ and Υ plug in), and raw encoder-gradient accessors for
//! the Λ_FR / Λ_FD diagnostics.
//!
//! [`baselines`] adds the simpler comparison methods used in the paper's
//! Table 17.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

pub mod baselines;
mod data;
mod encoder;
mod models;

pub use data::TrainData;
pub use encoder::{GcnEncoder, Mlp, VarGcnEncoder};
pub use models::ComposedModel;
pub use rgae_ckpt::ModelState;

use rgae_linalg::{Mat, Rng64};
use std::rc::Rc;

/// Errors surfaced by model construction or training.
#[derive(Debug)]
pub enum Error {
    /// Autodiff/tape failure (shape or invariant).
    Autodiff(rgae_autodiff::Error),
    /// Clustering subroutine failure.
    Cluster(rgae_cluster::Error),
    /// Model-specific invariant violated.
    Invalid(&'static str),
}

impl From<rgae_autodiff::Error> for Error {
    fn from(e: rgae_autodiff::Error) -> Self {
        Error::Autodiff(e)
    }
}

impl From<rgae_cluster::Error> for Error {
    fn from(e: rgae_cluster::Error) -> Self {
        Error::Cluster(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Autodiff(e) => write!(f, "autodiff: {e}"),
            Error::Cluster(e) => write!(f, "cluster: {e}"),
            Error::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Clustering part of a [`StepSpec`].
#[derive(Clone, Debug)]
pub struct ClusterStep {
    /// Row-stochastic `N×K` target the model's clustering loss trains
    /// towards (DEC target `Q`, GMM responsibilities, or a one-hot
    /// supervised signal for diagnostics).
    pub target: Mat,
    /// Restrict the clustering loss to these rows (the Ξ operator's Ω).
    /// `None` means all nodes.
    pub omega: Option<Vec<usize>>,
}

/// Everything one optimisation step needs.
#[derive(Clone, Debug)]
pub struct StepSpec {
    /// Self-supervision target. `None` skips the reconstruction term
    /// entirely (the paper's "abrupt elimination" ablation).
    pub recon_target: Option<Rc<rgae_linalg::Csr>>,
    /// Weight γ on the reconstruction term (relative to clustering).
    pub gamma: f64,
    /// Optional clustering term.
    pub cluster: Option<ClusterStep>,
}

impl StepSpec {
    /// Pure reconstruction against the given target with weight one.
    pub fn pretrain(target: Rc<rgae_linalg::Csr>) -> Self {
        StepSpec {
            recon_target: Some(target),
            gamma: 1.0,
            cluster: None,
        }
    }
}

/// The model surface the R-trainer drives.
pub trait GaeModel {
    /// Model name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Clone into a boxed trait object (every model is `Clone`; this makes
    /// the paper's shared-pretraining protocol work through `dyn GaeModel`).
    fn clone_box(&self) -> Box<dyn GaeModel>;

    /// Deterministic embedding `Z` (variational models return the mean).
    fn embed(&self, data: &TrainData) -> Mat;

    /// Soft clustering assignments `P` from the model's own clustering head,
    /// or `None` for first-group models (which have no head).
    fn soft_assignments(&self, data: &TrainData) -> Result<Option<Mat>>;

    /// The soft assignments the Ξ operator should read. Defaults to
    /// [`GaeModel::soft_assignments`]; models whose heads produce saturated
    /// probabilities (GMM responsibilities in a well-separated latent space)
    /// override this with a dimension-tempered variant so the λ scores keep
    /// their discriminative spread. Row-wise argmax is always identical to
    /// `soft_assignments`.
    fn xi_assignments(&self, data: &TrainData) -> Result<Option<Mat>> {
        self.soft_assignments(data)
    }

    /// Initialise the clustering head from the current embeddings (k-means
    /// centroids for DGAE, a fitted GMM for GMM-VGAE). No-op for the first
    /// group.
    fn init_clustering(&mut self, data: &TrainData, rng: &mut Rng64) -> Result<()>;

    /// The model's own pseudo-supervised clustering target (e.g. the DEC
    /// target distribution), or `None` for the first group.
    fn cluster_target(&self, data: &TrainData) -> Result<Option<Mat>>;

    /// One optimisation step; returns the scalar loss before the update.
    fn train_step(&mut self, data: &TrainData, spec: &StepSpec, rng: &mut Rng64) -> Result<f64>;

    /// Flattened gradient of the model's clustering loss (with an explicit
    /// target and optional Ω restriction) w.r.t. the *encoder* parameters θ,
    /// evaluated at the current parameters without updating them. `None` for
    /// first-group models. Used by the Λ_FR diagnostic.
    fn clustering_grad(
        &self,
        data: &TrainData,
        target: &Mat,
        omega: Option<&[usize]>,
    ) -> Result<Option<Vec<f64>>>;

    /// Flattened gradient of the reconstruction loss against an explicit
    /// target w.r.t. the encoder parameters θ. Used by the Λ_FD diagnostic.
    fn recon_grad(&self, data: &TrainData, target: &Rc<rgae_linalg::Csr>) -> Result<Vec<f64>>;

    /// Export every learned quantity (weights, clustering heads, optimiser
    /// moments) into a [`ModelState`] for checkpointing.
    fn export_params(&self) -> ModelState;

    /// Restore a [`ModelState`] produced by [`GaeModel::export_params`] on a
    /// freshly constructed model of the same architecture. Rejects state
    /// saved by a different model or shape with [`Error::Invalid`].
    fn import_params(&mut self, state: &ModelState) -> Result<()>;

    /// Scale every internal optimiser's learning rate by `factor`. The guard
    /// recovery policy uses this for its backoff after a rollback; scales
    /// compound across retries. Adversarial models scale the discriminator's
    /// optimiser too, keeping the GAN balance.
    fn scale_lr(&mut self, factor: f64);

    /// Total optimiser updates skipped because a non-finite gradient reached
    /// `Adam::update`, summed over every internal optimiser. Monotone per
    /// model instance; not persisted across checkpoints.
    fn nonfinite_grad_steps(&self) -> u64;
}

impl Clone for Box<dyn GaeModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
