//! Synthetic attributed-graph generators, calibrated to the statistics of
//! the paper's six benchmarks.
//!
//! The original datasets (Planetoid citation networks, struc2vec air-traffic
//! networks) are not redistributable and unavailable offline, so this crate
//! provides the substitution documented in `DESIGN.md`:
//!
//! * [`citation_like`] — a degree-corrected stochastic block model with
//!   cluster-conditioned sparse binary attributes. It reproduces the
//!   properties GAE clustering is sensitive to: community structure with
//!   clustering-irrelevant inter-cluster links, high sparsity, power-lawish
//!   degrees, and informative-but-noisy bag-of-words features.
//! * [`air_traffic_like`] — a degree-tiered hub-and-spoke graph whose
//!   ground-truth classes are structural activity tiers; features are the
//!   one-hot encoding of node degree, exactly as the paper constructs `X`
//!   for these datasets.
//!
//! [`presets`] exposes one constructor per benchmark (`cora_like`, …), each
//! scaled so the full experimental protocol runs on a laptop; the scale knob
//! is explicit.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod air;
mod citation;
mod corrupt;
mod multiplex;
pub mod presets;

pub use air::{air_traffic_like, AirTrafficSpec};
pub use citation::{citation_like, CitationSpec};
pub use corrupt::{add_feature_noise, add_random_edges, drop_feature_columns, drop_random_edges};
pub use multiplex::{multiplex_like, LayerSpec, MultiplexSpec};

/// Errors from dataset generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Specification parameter out of range (message explains).
    BadSpec(&'static str),
    /// Propagated graph-construction error.
    Graph(rgae_graph::Error),
}

impl From<rgae_graph::Error> for Error {
    fn from(e: rgae_graph::Error) -> Self {
        Error::Graph(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::BadSpec(m) => write!(f, "bad dataset spec: {m}"),
            Error::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
