//! Numerical-health guards for the rgae trainers.
//!
//! The paper's pipelines are numerically fragile by design: Feature Drift can
//! blow up the embedding space mid-training and the Ξ operator can produce a
//! near-empty Ω under aggressive α₁. This crate supplies the three pieces the
//! trainers use to survive that:
//!
//! * [`HealthMonitor`] — cheap per-epoch checks for non-finite losses,
//!   gradients, and parameters, loss-spike divergence against a trailing
//!   median, collapsed soft-assignment clusters, and a degenerate Ω, each
//!   reported as a typed [`Finding`].
//! * [`RecoveryPolicy`] — bounded retry/backoff bookkeeping: every tripped
//!   guard buys one rollback to the last healthy checkpoint, a learning-rate
//!   backoff, and a deterministic RNG reseed, until retries are exhausted.
//! * [`FaultPlan`] — a deterministic fault-injection layer
//!   (`RGAE_FAULT=nan_grad@epoch:12,...`) so every guard and recovery path is
//!   exercisable in CI.
//!
//! The thresholds are constants ([`SPIKE_FACTOR`], [`SNAPSHOT_EVERY`], ...);
//! a run sets only its retry budget and its fault injections
//! ([`GuardConfig`]).
//!
//! The crate is trainer-agnostic: it observes scalars and matrices handed to
//! it and never touches the RNG stream, so a fault-free guarded run stays
//! bit-identical to an unguarded one.

mod fault;
mod monitor;
mod policy;

pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use monitor::{Finding, HealthMonitor, Severity};
pub use policy::{RecoveryPolicy, RetryPlan};

use rgae_obs::{Event, Recorder};

/// A loss above `SPIKE_FACTOR ×` the trailing median trips the divergence
/// guard.
pub const SPIKE_FACTOR: f64 = 25.0;
/// Trailing window of healthy losses the spike guard's median is taken over.
pub const SPIKE_WINDOW: usize = 11;
/// Healthy losses observed before the spike guard can trip (early-epoch
/// losses are legitimately wild).
pub const SPIKE_MIN_HISTORY: usize = 5;
/// A soft-assignment column whose mean mass falls below this fraction of the
/// uniform share `1/k` counts as a collapsed cluster (warning).
pub const COLLAPSE_FLOOR: f64 = 1e-4;
/// `|Ω| / N` below this fraction counts as a degenerate Ω (warning).
pub const OMEGA_FLOOR: f64 = 0.01;
/// Epoch cadence of the expensive guard work: the parameter scan and the
/// in-memory rollback snapshot (a full state clone). The per-epoch loss and
/// gradient checks are O(1) and always on; this cadence bounds the O(model)
/// work so guard overhead stays a small fraction of the epoch cost. A
/// pending checkpoint save forces a snapshot regardless.
pub const SNAPSHOT_EVERY: usize = 10;
/// Learning-rate multiplier applied on every retry (compounds).
pub const LR_BACKOFF: f64 = 0.5;

/// The guard layer's run-level settings: the retry budget and the fault
/// injections. Every threshold is a constant of this crate.
///
/// `RConfig::guard = None` (the default) disables the whole layer.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardConfig {
    /// Rollback/retry attempts before the run is marked degraded.
    pub max_retries: usize,
    /// Deterministic fault injections (normally parsed from `RGAE_FAULT`).
    pub faults: Vec<FaultSpec>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            max_retries: 2,
            faults: Vec::new(),
        }
    }
}

impl GuardConfig {
    /// Production defaults with the fault list taken from the `RGAE_FAULT`
    /// environment variable (empty when unset).
    ///
    /// # Panics
    /// Panics on a malformed `RGAE_FAULT` value — a typo'd fault spec should
    /// fail loudly, not silently run a clean experiment.
    pub fn from_env() -> Self {
        let faults = match std::env::var("RGAE_FAULT") {
            Ok(s) if !s.trim().is_empty() => FaultSpec::parse_list(&s)
                .unwrap_or_else(|e| panic!("invalid RGAE_FAULT value {s:?}: {e}")),
            _ => Vec::new(),
        };
        GuardConfig {
            faults,
            ..GuardConfig::default()
        }
    }
}

/// Record a [`Finding`] as a typed [`Event::Guard`] on the run log.
pub fn emit_finding(rec: &dyn Recorder, phase: &str, epoch: Option<usize>, f: &Finding) {
    if !rec.enabled() {
        return;
    }
    rec.record(&Event::Guard {
        kind: f.kind.to_string(),
        severity: f.severity.as_str().to_string(),
        phase: phase.to_string(),
        epoch,
        value: f.value.filter(|v| v.is_finite()),
        threshold: f.threshold.filter(|t| t.is_finite()),
        detail: f.detail.clone(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_has_no_faults_and_bounded_retries() {
        let cfg = GuardConfig::default();
        assert!(cfg.faults.is_empty());
        assert!(cfg.max_retries >= 1);
        const {
            assert!(LR_BACKOFF > 0.0 && LR_BACKOFF < 1.0);
            assert!(SPIKE_FACTOR > 1.0);
            assert!(SPIKE_MIN_HISTORY < SPIKE_WINDOW);
        }
    }

    #[test]
    fn emit_finding_drops_nonfinite_values_from_the_event() {
        let sink = rgae_obs::MemorySink::new();
        let f = Finding {
            kind: "nonfinite_loss",
            severity: Severity::Trip,
            value: Some(f64::NAN),
            threshold: None,
            detail: "loss is NaN".into(),
        };
        emit_finding(&sink, "clustering", Some(3), &f);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::Guard {
                kind,
                severity,
                epoch,
                value,
                ..
            } => {
                assert_eq!(kind, "nonfinite_loss");
                assert_eq!(severity, "trip");
                assert_eq!(*epoch, Some(3));
                assert_eq!(*value, None, "NaN must not reach the JSON encoder");
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }
}
