//! Evaluation helpers shared by the trainer and the experiment harness.

use rgae_cluster::{
    accuracy, ari, gaussian_soft_assignments, gaussian_soft_assignments_tempered, kmeans_traced,
    nmi,
};
use rgae_linalg::{Mat, Rng64};
use rgae_models::{GaeModel, TrainData};
use rgae_obs::{Recorder, NOOP};

use crate::Result;

/// The paper's three clustering metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Hungarian-matched accuracy.
    pub acc: f64,
    /// Normalised mutual information.
    pub nmi: f64,
    /// Adjusted Rand index.
    pub ari: f64,
}

impl Metrics {
    /// Compute all three from predictions and ground truth.
    pub fn from_predictions(pred: &[usize], truth: &[usize]) -> Self {
        Metrics {
            acc: accuracy(pred, truth),
            nmi: nmi(pred, truth),
            ari: ari(pred, truth),
        }
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ACC {:.1} NMI {:.1} ARI {:.1}",
            self.acc * 100.0,
            self.nmi * 100.0,
            self.ari * 100.0
        )
    }
}

/// Soft assignments for any model: the model's own head when it has one
/// (second group), otherwise k-means hard clusters turned soft through the
/// Ξ operator's Eq. 15 Gaussian kernel (the paper's recipe for hard
/// assignment matrices).
pub fn soft_assignments_or_kmeans(
    model: &dyn GaeModel,
    data: &TrainData,
    rng: &mut Rng64,
) -> Result<Mat> {
    soft_assignments_or_kmeans_traced(model, data, rng, &NOOP)
}

/// [`soft_assignments_or_kmeans`] reporting the k-means fallback (when the
/// model has no head of its own) into a run-log recorder.
pub fn soft_assignments_or_kmeans_traced(
    model: &dyn GaeModel,
    data: &TrainData,
    rng: &mut Rng64,
    rec: &dyn Recorder,
) -> Result<Mat> {
    if let Some(p) = model.soft_assignments(data)? {
        return Ok(p);
    }
    let z = model.embed(data);
    let km = kmeans_traced(&z, data.num_classes, 100, rng, rec)?;
    Ok(gaussian_soft_assignments(
        &z,
        &km.assignments,
        data.num_classes,
    )?)
}

/// Soft assignments as the Ξ operator should see them: the model's own
/// calibrated [`rgae_models::GaeModel::xi_assignments`] when available,
/// otherwise the dimension-tempered Eq. 15 kernel over k-means hard
/// clusters, with the fallback reported into a run-log recorder. Row argmax
/// is identical to [`soft_assignments_or_kmeans`].
pub fn xi_assignments_or_kmeans_traced(
    model: &dyn GaeModel,
    data: &TrainData,
    rng: &mut Rng64,
    rec: &dyn Recorder,
) -> Result<Mat> {
    if let Some(p) = model.xi_assignments(data)? {
        return Ok(p);
    }
    let z = model.embed(data);
    let km = kmeans_traced(&z, data.num_classes, 100, rng, rec)?;
    Ok(gaussian_soft_assignments_tempered(
        &z,
        &km.assignments,
        data.num_classes,
        z.cols() as f64,
    )?)
}

/// Evaluate a model against ground truth: argmax of the soft assignments.
pub fn evaluate(
    model: &dyn GaeModel,
    data: &TrainData,
    truth: &[usize],
    rng: &mut Rng64,
) -> Result<Metrics> {
    evaluate_traced(model, data, truth, rng, &NOOP)
}

/// [`evaluate`] reporting any clustering fallback work into a run-log
/// recorder.
pub fn evaluate_traced(
    model: &dyn GaeModel,
    data: &TrainData,
    truth: &[usize],
    rng: &mut Rng64,
    rec: &dyn Recorder,
) -> Result<Metrics> {
    let p = soft_assignments_or_kmeans_traced(model, data, rng, rec)?;
    Ok(Metrics::from_predictions(&p.row_argmax(), truth))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_from_perfect_prediction() {
        let m = Metrics::from_predictions(&[1, 1, 0, 0], &[0, 0, 1, 1]);
        assert!((m.acc - 1.0).abs() < 1e-12);
        assert!((m.nmi - 1.0).abs() < 1e-12);
        assert!((m.ari - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats_percentages() {
        let m = Metrics {
            acc: 0.767,
            nmi: 0.573,
            ari: 0.579,
        };
        assert_eq!(format!("{m}"), "ACC 76.7 NMI 57.3 ARI 57.9");
    }
}
