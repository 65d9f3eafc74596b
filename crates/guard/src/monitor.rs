//! Per-epoch numerical-health checks.

use crate::{COLLAPSE_FLOOR, OMEGA_FLOOR, SPIKE_FACTOR, SPIKE_MIN_HISTORY, SPIKE_WINDOW};
use rgae_linalg::Mat;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Informational (e.g. a fault injection firing as planned).
    Info,
    /// Suspicious but survivable; training continues on the same state.
    Warn,
    /// The epoch's state is unusable; the recovery policy takes over.
    Trip,
}

impl Severity {
    /// Lower-case tag used in run-log events.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Trip => "trip",
        }
    }
}

/// One health observation.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Stable machine-readable kind (`nonfinite_loss`, `loss_spike`, ...).
    pub kind: &'static str,
    /// How serious it is.
    pub severity: Severity,
    /// Observed value, when the finding is numeric and finite enough to log.
    pub value: Option<f64>,
    /// Threshold the value was compared against, when applicable.
    pub threshold: Option<f64>,
    /// Human-readable context.
    pub detail: String,
}

impl Finding {
    /// Whether this finding should trigger the recovery policy.
    pub fn is_trip(&self) -> bool {
        self.severity == Severity::Trip
    }
}

/// Cheap per-epoch health checks over losses, gradients, parameters,
/// soft assignments, and Ω.
///
/// The monitor only *observes* — it never mutates trainer state and never
/// consumes RNG, which is what keeps guarded fault-free runs bit-identical
/// to unguarded ones.
#[derive(Clone, Debug, Default)]
pub struct HealthMonitor {
    /// Trailing window of healthy (finite, non-spiking) losses.
    losses: Vec<f64>,
}

impl HealthMonitor {
    /// Forget all loss history. Called after a rollback so the retry is not
    /// judged against the diverged attempt's trailing window.
    pub fn reset(&mut self) {
        self.losses.clear();
    }

    /// Number of healthy losses currently in the trailing window.
    pub fn history_len(&self) -> usize {
        self.losses.len()
    }

    /// Check one epoch's loss: non-finite values and spikes against the
    /// trailing median both trip. A healthy loss enters the window.
    pub fn observe_loss(&mut self, loss: f64) -> Option<Finding> {
        if !loss.is_finite() {
            return Some(Finding {
                kind: "nonfinite_loss",
                severity: Severity::Trip,
                value: None,
                threshold: None,
                detail: format!("loss is {loss}"),
            });
        }
        if self.losses.len() >= SPIKE_MIN_HISTORY {
            let median = self.trailing_median();
            // Median can legitimately be ~0 on converged objectives; a ratio
            // guard there would trip on noise.
            if median > 0.0 && loss > SPIKE_FACTOR * median {
                return Some(Finding {
                    kind: "loss_spike",
                    severity: Severity::Trip,
                    value: Some(loss),
                    threshold: Some(SPIKE_FACTOR * median),
                    detail: format!(
                        "loss {loss:.6e} exceeds {}x trailing median {median:.6e}",
                        SPIKE_FACTOR
                    ),
                });
            }
        }
        if self.losses.len() == SPIKE_WINDOW {
            self.losses.remove(0);
        }
        self.losses.push(loss);
        None
    }

    /// Check the optimiser's non-finite-gradient counter delta since the
    /// previous epoch: any skipped update this epoch trips.
    pub fn observe_grad_skips(&self, delta: u64) -> Option<Finding> {
        if delta == 0 {
            return None;
        }
        Some(Finding {
            kind: "nonfinite_grad",
            severity: Severity::Trip,
            value: Some(delta as f64),
            threshold: None,
            detail: format!("{delta} optimiser update(s) skipped on non-finite gradients"),
        })
    }

    /// Check a caller-performed parameter scan (weights, biases, optimiser
    /// moments): non-finite parameters trip.
    pub fn observe_param_scan(&self, all_finite: bool) -> Option<Finding> {
        if all_finite {
            return None;
        }
        Some(Finding {
            kind: "nonfinite_param",
            severity: Severity::Trip,
            value: None,
            threshold: None,
            detail: "exported parameter state contains non-finite values".into(),
        })
    }

    /// Check the soft-assignment matrix for collapsed clusters: a column
    /// whose mean mass is below `COLLAPSE_FLOOR × (1/k)` warns.
    pub fn observe_assignments(&self, p: &Mat) -> Option<Finding> {
        let (n, k) = p.shape();
        if n == 0 || k == 0 {
            return None;
        }
        let floor = COLLAPSE_FLOOR / k as f64;
        let masses = p.col_sums();
        let mut collapsed = 0usize;
        let mut min_mass = f64::INFINITY;
        for &m in &masses {
            let mean = m / n as f64;
            min_mass = min_mass.min(mean);
            if mean < floor {
                collapsed += 1;
            }
        }
        if collapsed == 0 {
            return None;
        }
        Some(Finding {
            kind: "cluster_collapse",
            severity: Severity::Warn,
            value: Some(min_mass),
            threshold: Some(floor),
            detail: format!("{collapsed}/{k} soft-assignment column(s) below the mass floor"),
        })
    }

    /// Check Ω coverage: `|Ω| / N` under the floor fraction warns.
    pub fn observe_omega(&self, omega_len: usize, n: usize) -> Option<Finding> {
        if n == 0 {
            return None;
        }
        let frac = omega_len as f64 / n as f64;
        if frac >= OMEGA_FLOOR {
            return None;
        }
        Some(Finding {
            kind: "degenerate_omega",
            severity: Severity::Warn,
            value: Some(frac),
            threshold: Some(OMEGA_FLOOR),
            detail: format!("|Omega| = {omega_len} of {n} nodes is below the floor fraction"),
        })
    }

    fn trailing_median(&self) -> f64 {
        let mut xs = self.losses.clone();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("healthy losses are finite"));
        let mid = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[mid]
        } else {
            0.5 * (xs[mid - 1] + xs[mid])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        HealthMonitor::default()
    }

    #[test]
    fn nan_and_inf_losses_trip_immediately() {
        let mut m = monitor();
        let f = m.observe_loss(f64::NAN).expect("NaN must trip");
        assert_eq!(f.kind, "nonfinite_loss");
        assert!(f.is_trip());
        let f = m.observe_loss(f64::INFINITY).expect("inf must trip");
        assert_eq!(f.kind, "nonfinite_loss");
        assert_eq!(m.history_len(), 0, "tripped losses must not enter history");
    }

    #[test]
    fn spike_needs_history_then_trips_on_factor_over_median() {
        let mut m = monitor();
        // Early wild losses are tolerated while history is short.
        assert!(m.observe_loss(1e9).is_none());
        m.reset();
        for _ in 0..6 {
            assert!(m.observe_loss(1.0).is_none());
        }
        // 25x the median of 1.0 is the default threshold.
        assert!(m.observe_loss(24.0).is_none());
        let f = m.observe_loss(26.0).expect("spike must trip");
        assert_eq!(f.kind, "loss_spike");
        assert!(f.is_trip());
        assert!(f.value.unwrap() > f.threshold.unwrap() - 1e-9);
    }

    #[test]
    fn spike_window_is_bounded_and_reset_clears_it() {
        let mut m = monitor();
        for i in 0..3 * SPIKE_WINDOW {
            assert!(m.observe_loss(1.0 + i as f64 * 0.01).is_none());
        }
        assert_eq!(m.history_len(), SPIKE_WINDOW);
        m.reset();
        assert_eq!(m.history_len(), 0);
        // After reset the spike guard needs fresh history again.
        assert!(m.observe_loss(1e12).is_none());
    }

    #[test]
    fn zero_median_never_divides_into_a_trip() {
        let mut m = monitor();
        for _ in 0..8 {
            assert!(m.observe_loss(0.0).is_none());
        }
        assert!(
            m.observe_loss(5.0).is_none(),
            "ratio guard is off at median 0"
        );
    }

    #[test]
    fn grad_skip_delta_trips_only_when_positive() {
        let m = monitor();
        assert!(m.observe_grad_skips(0).is_none());
        let f = m.observe_grad_skips(3).unwrap();
        assert_eq!(f.kind, "nonfinite_grad");
        assert!(f.is_trip());
        assert_eq!(f.value, Some(3.0));
    }

    #[test]
    fn param_scan_trips_only_on_nonfinite_state() {
        let m = monitor();
        assert!(m.observe_param_scan(true).is_none());
        let f = m.observe_param_scan(false).unwrap();
        assert_eq!(f.kind, "nonfinite_param");
        assert!(f.is_trip());
    }

    #[test]
    fn collapsed_assignment_column_warns() {
        let m = monitor();
        // Column 1 has (essentially) zero mass.
        let p = Mat::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.0, 0.5],
            vec![0.2, 0.0, 0.8],
        ])
        .unwrap();
        let f = m.observe_assignments(&p).expect("collapse must warn");
        assert_eq!(f.kind, "cluster_collapse");
        assert_eq!(f.severity, Severity::Warn);
        let healthy = Mat::full(4, 3, 1.0 / 3.0);
        assert!(m.observe_assignments(&healthy).is_none());
    }

    #[test]
    fn omega_floor_warns_below_fraction() {
        let m = monitor();
        assert!(m.observe_omega(500, 1000).is_none());
        let f = m.observe_omega(3, 1000).expect("0.3% coverage must warn");
        assert_eq!(f.kind, "degenerate_omega");
        assert_eq!(f.severity, Severity::Warn);
    }
}
