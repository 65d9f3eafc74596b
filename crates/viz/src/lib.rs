//! Figure tooling: exact t-SNE projections, terminal (ASCII)
//! scatter/line plots, and CSV series writers.
//!
//! The paper's figures are 2-D t-SNE panels (Fig. 10) and training curves
//! (Figs. 5–9, 11–13). This crate regenerates them as CSV series (for
//! external plotting) plus quick ASCII previews printed by the experiment
//! binaries.

// Indexed loops over parallel buffers are the idiom throughout this
// numeric codebase; iterator rewrites obscure the index coupling.
#![allow(clippy::needless_range_loop)]

mod ascii;
mod csv;
mod tsne;

pub use ascii::{ascii_lines, ascii_scatter};
pub use csv::CsvWriter;
pub use tsne::{tsne, TsneConfig};

/// Errors from figure generation.
#[derive(Debug)]
pub enum Error {
    /// Input shape problem.
    Invalid(&'static str),
    /// Filesystem error while writing CSV.
    Io(std::io::Error),
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Invalid(m) => write!(f, "invalid input: {m}"),
            Error::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, Error>;
