//! The R-trainer: integrates Ξ and Υ into any [`GaeModel`] (the paper's
//! "R-𝒟" recipe), plus the plain trainer used for the un-modified baselines.
//! Both are front doors over one private phase driver: the plain model is
//! the R loop with both operators switched off.
//!
//! Training loop (Section 5.1):
//!
//! 1. pretrain with vanilla reconstruction;
//! 2. initialise the clustering head (k-means / GMM on the embeddings);
//! 3. every `M₁` epochs recompute Ω = Ξ(P′); every `M₂` epochs rebuild the
//!    self-supervision graph `A^self_clus = Υ(A, P, Ω)`;
//! 4. optimise `L_clus(P(Ξ(Z)))` + γ·BCE(Â, A^self_clus) until the
//!    convergence criterion `|Ω| ≥ 0.9·|𝒱|`.
//!
//! The [`RConfig`] switches expose every protocol variation the paper
//! evaluates: Ξ delays (Table 6), single-step protection against FD
//! (Table 7), the α ablations (Table 8), and the add/drop ablations
//! (Table 9).
//!
//! Both trainers report into a [`Recorder`] (default: the no-op recorder):
//! phase spans (`pretrain`, `init_head`, `clustering` with nested
//! `xi`/`upsilon`/`step`/`record` scopes), one [`rgae_obs::Event::Epoch`]
//! per clustering epoch, the `omega_size` gauge, `edges_added`/
//! `edges_dropped`/`label_clamp` counters, a convergence event, and a
//! closing run summary. Wall-clock `train_seconds` comes from the
//! `clustering` span, which measures even when tracing is off.

use std::rc::Rc;

use rgae_autodiff::{arm_grad_poison, disarm_grad_poison};
use rgae_cluster::accuracy;
use rgae_graph::{AttributedGraph, GraphStats};
use rgae_guard::{
    emit_finding, FaultKind, FaultPlan, Finding, GuardConfig, HealthMonitor, RecoveryPolicy,
    RetryPlan, Severity, SNAPSHOT_EVERY,
};
use rgae_linalg::{Csr, Rng64};
use rgae_models::{ClusterStep, GaeModel, ModelState, StepSpec, TrainData};
use rgae_obs::{span, EpochEvent, Event, Recorder, RunSummary, NOOP};

use crate::checkpoint::{CheckpointOpts, Phase, Saver, TrainerState, VARIANT_PLAIN, VARIANT_R};
use crate::diagnostics::{lambda_fd, lambda_fr, one_hot_targets_counted, q_prime};
use crate::eval::{evaluate, soft_assignments_or_kmeans, xi_assignments_or_kmeans, Metrics};
use crate::upsilon::{upsilon, UpsilonConfig};
use crate::xi::{xi, Omega, XiConfig};
use crate::Result;

/// The paper's stop rule: an R run converges once |Ω| ≥ 0.9·N.
const CONVERGENCE: f64 = 0.9;

/// How Υ counters Feature Drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FdMode {
    /// The paper's proposal: gradually rewrite `A` every `M₂` epochs using
    /// the current Ω (a *correction* mechanism).
    GradualCorrection,
    /// Table 7's alternative: transform `A` once, with `Ω = 𝒱`, before the
    /// clustering phase (a *protection* mechanism).
    SingleStepProtection,
}

/// Full configuration of an R-𝒟 run.
#[derive(Clone, Debug)]
pub struct RConfig {
    /// Ξ configuration (α₁, α₂ and their ablation switches). With both
    /// switches off Ξ does not run, Ω = 𝒱 always, and the run never
    /// converges early (Table 8 "ablate both").
    pub xi: XiConfig,
    /// Υ configuration (add/drop ablation switches). With both switches off
    /// Υ does not run and A^self = A always (Table 9 "ablate both").
    pub upsilon: UpsilonConfig,
    /// Ω refresh period M₁ (epochs).
    pub m1: usize,
    /// A^self_clus refresh period M₂ (epochs).
    pub m2: usize,
    /// Reconstruction weight γ.
    pub gamma: f64,
    /// Pretraining epochs (vanilla reconstruction).
    pub pretrain_epochs: usize,
    /// Maximum clustering-phase epochs.
    pub max_epochs: usize,
    /// Minimum clustering-phase epochs before the convergence check.
    pub min_epochs: usize,
    /// Delay (epochs) before Ξ activates; 0 is the paper's protection
    /// strategy, larger values reproduce Table 6's correction variants.
    pub delay_xi: usize,
    /// FD strategy (Table 7).
    pub fd_mode: FdMode,
    /// Record the Λ_FR / Λ_FD diagnostics each epoch (extra backward
    /// passes; needed for Figs. 5–6).
    pub track_diagnostics: bool,
    /// Evaluate clustering metrics every this many epochs (1 = every epoch).
    pub eval_every: usize,
    /// Clustering-phase epochs at which to snapshot the embeddings and the
    /// current self-supervision graph (Figs. 4 and 10).
    pub snapshot_epochs: Vec<usize>,
    /// Worker threads for the `rgae-par` kernels. `None` keeps the process
    /// setting (by default the `RGAE_THREADS` env var, else available
    /// parallelism); `Some(1)` forces the exact serial path. A
    /// `Some` value is applied process-wide when a run starts and stays in
    /// effect for later runs whose config says `None`. Results are
    /// bit-identical at any setting — this knob trades wall time only.
    pub threads: Option<usize>,
    /// Row-tile height for the fused gram+BCE decoder kernel. `None` keeps
    /// the process setting (by default [`rgae_linalg::DEFAULT_DECODER_TILE`]).
    /// A `Some` value is applied process-wide when a run starts and stays in
    /// effect for later runs whose config says `None`. Results are bit-identical at any
    /// setting — the tile bounds peak decoder memory (O(B·N)) only.
    pub decoder_tile: Option<usize>,
    /// Numerical-health monitoring + checkpoint-rollback recovery. `None`
    /// (the default) disables the guard layer entirely; with it enabled a
    /// fault-free run is still bit-identical to a guards-off run — the
    /// checks never consume the RNG stream or reorder any computation.
    pub guard: Option<GuardConfig>,
}

impl Default for RConfig {
    fn default() -> Self {
        RConfig {
            xi: XiConfig::new(0.3),
            upsilon: UpsilonConfig::default(),
            m1: 20,
            m2: 10,
            gamma: 0.001,
            pretrain_epochs: 200,
            max_epochs: 200,
            min_epochs: 30,
            delay_xi: 0,
            fd_mode: FdMode::GradualCorrection,
            track_diagnostics: false,
            eval_every: 1,
            snapshot_epochs: Vec::new(),
            threads: None,
            decoder_tile: None,
            guard: None,
        }
    }
}

impl RConfig {
    /// Appendix-C hyper-parameters (the R-GMM-VGAE rows; per-model
    /// overrides are applied by the experiment harness where they differ).
    pub fn for_dataset(name: &str) -> Self {
        let mut cfg = RConfig::default();
        match name {
            "cora-like" => {
                cfg.xi = XiConfig::new(0.3);
                cfg.m1 = 20;
                cfg.m2 = 10;
            }
            "citeseer-like" => {
                cfg.xi = XiConfig::new(0.2);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            "pubmed-like" => {
                cfg.xi = XiConfig::new(0.4);
                cfg.m1 = 50;
                cfg.m2 = 5;
            }
            "usa-air-like" => {
                cfg.xi = XiConfig::new(0.3);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            "europe-air-like" => {
                cfg.xi = XiConfig::new(0.05);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            "brazil-air-like" => {
                cfg.xi = XiConfig::new(0.25);
                cfg.m1 = 50;
                cfg.m2 = 1;
            }
            _ => {}
        }
        cfg
    }

    /// Whether Ξ runs: at least one of its guideline switches is on.
    fn xi_on(&self) -> bool {
        self.xi.use_alpha1 || self.xi.use_alpha2
    }

    /// Whether Υ runs: at least one of its edits is on.
    fn upsilon_on(&self) -> bool {
        self.upsilon.add_edges || self.upsilon.drop_edges
    }

    /// The full configuration as JSON, for the run manifest. Every switch
    /// the trainer consults appears here so a run log alone is enough to
    /// reproduce the protocol variant.
    pub fn to_json(&self) -> rgae_obs::Json {
        use rgae_obs::Json;
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        obj(vec![
            (
                "xi",
                obj(vec![
                    ("alpha1", Json::Num(self.xi.alpha1)),
                    ("alpha2", Json::Num(self.xi.alpha2)),
                    ("use_alpha1", Json::Bool(self.xi.use_alpha1)),
                    ("use_alpha2", Json::Bool(self.xi.use_alpha2)),
                ]),
            ),
            (
                "upsilon",
                obj(vec![
                    ("add_edges", Json::Bool(self.upsilon.add_edges)),
                    ("drop_edges", Json::Bool(self.upsilon.drop_edges)),
                ]),
            ),
            ("m1", Json::Int(self.m1 as i64)),
            ("m2", Json::Int(self.m2 as i64)),
            ("gamma", Json::Num(self.gamma)),
            ("pretrain_epochs", Json::Int(self.pretrain_epochs as i64)),
            ("max_epochs", Json::Int(self.max_epochs as i64)),
            ("min_epochs", Json::Int(self.min_epochs as i64)),
            ("delay_xi", Json::Int(self.delay_xi as i64)),
            (
                "fd_mode",
                Json::Str(
                    match self.fd_mode {
                        FdMode::GradualCorrection => "gradual_correction",
                        FdMode::SingleStepProtection => "single_step_protection",
                    }
                    .to_owned(),
                ),
            ),
            ("track_diagnostics", Json::Bool(self.track_diagnostics)),
            ("eval_every", Json::Int(self.eval_every as i64)),
            (
                "snapshot_epochs",
                Json::Arr(
                    self.snapshot_epochs
                        .iter()
                        .map(|&e| Json::Int(e as i64))
                        .collect(),
                ),
            ),
            (
                "threads",
                self.threads.map_or(Json::Null, |t| Json::Int(t as i64)),
            ),
            (
                "decoder_tile",
                self.decoder_tile
                    .map_or(Json::Null, |t| Json::Int(t as i64)),
            ),
            (
                "guard",
                self.guard.as_ref().map_or(Json::Null, |g| {
                    obj(vec![
                        ("max_retries", Json::Int(g.max_retries as i64)),
                        (
                            "faults",
                            Json::Arr(g.faults.iter().map(|f| Json::Str(f.to_string())).collect()),
                        ),
                    ])
                }),
            ),
        ])
    }

    /// Shrink epoch counts for smoke tests and `--quick` harness runs.
    pub fn quick(mut self) -> Self {
        self.pretrain_epochs = self.pretrain_epochs.min(60);
        self.max_epochs = self.max_epochs.min(60);
        self.min_epochs = self.min_epochs.min(10);
        self.m1 = self.m1.min(10);
        self.m2 = self.m2.min(5);
        self
    }
}

/// Per-epoch trace of an R run (drives Figs. 4–6 and 9).
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Clustering-phase epoch index.
    pub epoch: usize,
    /// Training loss at this step.
    pub loss: f64,
    /// Clustering metrics over all nodes (only filled on eval epochs).
    pub metrics: Option<Metrics>,
    /// |Ω|.
    pub omega_size: usize,
    /// Accuracy restricted to Ω.
    pub omega_acc: f64,
    /// Accuracy over 𝒱 − Ω.
    pub rest_acc: f64,
    /// Statistics of the current self-supervision graph. Computed only on
    /// eval epochs (and always on the final one) — the O(|E|) scans are
    /// skipped in between.
    pub graph_stats: Option<GraphStats>,
    /// Links present in `A^self_clus` but not in `A`, split by label
    /// agreement: `(true_links, false_links)`. Eval epochs only.
    pub added_links: Option<(usize, usize)>,
    /// Links of `A` missing from `A^self_clus`, split the same way. Eval
    /// epochs only.
    pub dropped_links: Option<(usize, usize)>,
    /// Λ_FR with the Ξ restriction (the R-model's own value).
    pub lambda_fr_restricted: Option<f64>,
    /// Λ_FR without the restriction (the plain model's value at the same θ).
    pub lambda_fr_full: Option<f64>,
    /// Λ_FD of the current self-supervision graph vs Υ(A, Q′, 𝒱).
    pub lambda_fd_current: Option<f64>,
    /// Λ_FD of the vanilla graph `A` vs Υ(A, Q′, 𝒱).
    pub lambda_fd_vanilla: Option<f64>,
}

impl EpochRecord {
    /// The run-log view of this record.
    pub fn to_event(&self) -> EpochEvent {
        EpochEvent {
            epoch: self.epoch,
            loss: self.loss,
            omega_size: self.omega_size,
            omega_acc: self.omega_acc,
            rest_acc: self.rest_acc,
            added_links: self.added_links,
            dropped_links: self.dropped_links,
            acc: self.metrics.as_ref().map(|m| m.acc),
            nmi: self.metrics.as_ref().map(|m| m.nmi),
            ari: self.metrics.as_ref().map(|m| m.ari),
            lambda_fr_restricted: self.lambda_fr_restricted,
            lambda_fr_full: self.lambda_fr_full,
            lambda_fd_current: self.lambda_fd_current,
            lambda_fd_vanilla: self.lambda_fd_vanilla,
        }
    }
}

/// Outcome of a training run, R or plain. A plain run never converges and
/// never rewrites the graph: its `converged_at` is `None`, and its
/// `final_graph` and snapshot graphs are `A` itself.
#[derive(Clone, Debug)]
pub struct RReport {
    /// Metrics after pretraining + head initialisation (the shared starting
    /// point of 𝒟 and R-𝒟).
    pub pretrain_metrics: Metrics,
    /// Final metrics.
    pub final_metrics: Metrics,
    /// Clustering-phase epoch at which |Ω| ≥ 0.9N was reached.
    pub converged_at: Option<usize>,
    /// Per-epoch trace.
    pub epochs: Vec<EpochRecord>,
    /// Wall-clock seconds for the clustering phase (excludes pretraining).
    pub train_seconds: f64,
    /// Final self-supervision graph (for Fig. 4 snapshots).
    pub final_graph: Rc<Csr>,
    /// `(epoch, Z, A^self_clus)` snapshots taken at `snapshot_epochs`.
    pub snapshots: Vec<(usize, rgae_linalg::Mat, Rc<Csr>)>,
    /// The guard layer exhausted its retries and the run finished on the
    /// last-good parameters instead of fully recovering.
    pub degraded: bool,
}

/// Split links into (same-label, cross-label) counts.
fn split_links(links: &[(usize, usize)], labels: &[usize]) -> (usize, usize) {
    let mut t = 0;
    let mut f = 0;
    for &(u, v) in links {
        if labels[u] == labels[v] {
            t += 1;
        } else {
            f += 1;
        }
    }
    (t, f)
}

/// Links in `b` missing from `a` (upper triangle).
fn edge_diff(a: &Csr, b: &Csr) -> Vec<(usize, usize)> {
    b.upper_edges()
        .into_iter()
        .filter(|&(u, v)| !a.contains(u, v))
        .collect()
}

/// The supervised clustering-oriented graph `Υ(A, Q′, 𝒱)` used by Λ_FD.
fn supervised_graph(
    data: &TrainData,
    z: &rgae_linalg::Mat,
    p: &rgae_linalg::Mat,
    truth: &[usize],
    rec: &dyn Recorder,
) -> Result<Rc<Csr>> {
    let pred = p.row_argmax();
    let qp = q_prime(&pred, truth);
    let k = data
        .num_classes
        .max(qp.iter().copied().max().unwrap_or(0) + 1);
    let (one_hot, clamped) = one_hot_targets_counted(&qp, k);
    rec.count("label_clamp", clamped as u64);
    let all: Vec<usize> = (0..data.num_nodes).collect();
    let out = upsilon(
        &data.adjacency,
        &one_hot,
        z,
        &all,
        &UpsilonConfig::default(),
    )?;
    Ok(Rc::new(out.graph))
}

/// Ω = 𝒱: every node decidable (the state while Ξ is inactive, and always
/// for plain runs).
fn full_omega(n: usize) -> Omega {
    Omega {
        indices: (0..n).collect(),
        lambda1: vec![1.0; n],
        lambda2: vec![0.0; n],
    }
}

/// Accuracy restricted to `nodes` (`empty` when there are none).
fn subset_accuracy(nodes: &[usize], pred: &[usize], truth: &[usize], empty: f64) -> f64 {
    if nodes.is_empty() {
        return empty;
    }
    let p: Vec<usize> = nodes.iter().map(|&i| pred[i]).collect();
    let t: Vec<usize> = nodes.iter().map(|&i| truth[i]).collect();
    accuracy(&p, &t)
}

/// The guard layer's verdict on one epoch.
enum Verdict {
    /// Nothing tripped. `snap` marks a snapshot-cadence epoch; `exported`
    /// holds the parameters the scan exported on it (reused for saving).
    Healthy {
        snap: bool,
        exported: Option<ModelState>,
    },
    /// Roll back to this state, apply the retry plan, and re-enter the loop.
    Retry(Box<TrainerState>, RetryPlan),
    /// Retries exhausted (or nothing to restore): finish degraded, on the
    /// carried state's parameters when one is available.
    Degrade(Option<Box<TrainerState>>),
}

/// Per-phase driver for the guard layer: owns the health monitor, the
/// retry/backoff policy, the fault-injection schedule, and an in-memory
/// last-good snapshot (the rollback source when no checkpoint directory is
/// configured). Constructed only when [`RConfig::guard`] is set; no method
/// ever touches the RNG stream or reorders trainer computation, which is
/// what keeps a fault-free guarded run bit-identical to an unguarded one.
struct GuardDriver<'r> {
    monitor: HealthMonitor,
    policy: RecoveryPolicy,
    faults: FaultPlan,
    rec: &'r dyn Recorder,
    /// Checkpoint variant tag of the run (filters rollback candidates).
    variant: u8,
    /// `"pretrain"` or `"clustering"`.
    phase: &'static str,
    /// `nonfinite_grad_steps` baseline; the per-epoch delta is what trips.
    grad_base: u64,
    last_good: Option<TrainerState>,
}

impl<'r> GuardDriver<'r> {
    /// `None` when the config has no guard section. Fault injection is only
    /// armed for the clustering phase (`RGAE_FAULT` epochs are clustering
    /// epochs); the pretrain driver still runs the health checks.
    fn new(
        cfg: Option<&GuardConfig>,
        rec: &'r dyn Recorder,
        model: &dyn GaeModel,
        variant: u8,
        phase: &'static str,
    ) -> Option<Self> {
        let cfg = cfg?;
        let specs = if phase == "clustering" {
            cfg.faults.clone()
        } else {
            Vec::new()
        };
        Some(GuardDriver {
            monitor: HealthMonitor::default(),
            policy: RecoveryPolicy::new(cfg.max_retries),
            faults: FaultPlan::new(specs),
            rec,
            variant,
            phase,
            grad_base: model.nonfinite_grad_steps(),
            last_good: None,
        })
    }

    /// Fire the fault injections scheduled for `epoch`, logging one event
    /// per fault. Each spec fires at most once — the fired flags live in
    /// this driver, outside the epoch loop, so a rollback past the fault
    /// epoch does not re-inject it.
    fn faults_due(&mut self, epoch: usize) -> Vec<FaultKind> {
        let due = self.faults.take_due(epoch);
        for kind in &due {
            emit_finding(
                self.rec,
                self.phase,
                Some(epoch),
                &Finding {
                    kind: "fault_injected",
                    severity: Severity::Info,
                    value: None,
                    threshold: None,
                    detail: format!("injecting {} at epoch {epoch}", kind.as_str()),
                },
            );
        }
        due
    }

    /// The per-epoch guard pass. Trip checks: loss health and the
    /// skipped-gradient delta (both O(1)), plus — on snapshot epochs (the
    /// configured cadence, or a pending save) — the O(model) parameter scan.
    /// Every state that later becomes a rollback target passes through the
    /// scan first, so a healthy snapshot is never poisoned. On a trip, the
    /// recovery decision.
    fn check_epoch(
        &mut self,
        saver: Option<&Saver<'_>>,
        epoch: usize,
        loss: f64,
        model: &dyn GaeModel,
        save_pending: bool,
    ) -> Verdict {
        let snap = save_pending || (epoch + 1).is_multiple_of(SNAPSHOT_EVERY);
        let mut tripped = false;
        if let Some(f) = self.monitor.observe_loss(loss) {
            tripped |= f.is_trip();
            emit_finding(self.rec, self.phase, Some(epoch), &f);
        }
        let now = model.nonfinite_grad_steps();
        let delta = now.saturating_sub(self.grad_base);
        self.grad_base = now;
        if let Some(f) = self.monitor.observe_grad_skips(delta) {
            tripped |= f.is_trip();
            emit_finding(self.rec, self.phase, Some(epoch), &f);
        }
        let exported = snap.then(|| model.export_params());
        if let Some(exported) = &exported {
            if let Some(f) = self.monitor.observe_param_scan(exported.all_finite()) {
                tripped |= f.is_trip();
                emit_finding(self.rec, self.phase, Some(epoch), &f);
            }
        }
        if tripped {
            self.recover(saver, epoch)
        } else {
            Verdict::Healthy { snap, exported }
        }
    }

    /// The advisory (warn-level) checks: soft-assignment cluster collapse
    /// and a degenerate |Ω|. Never trip — they only annotate the run log.
    fn warn_checks(&mut self, epoch: usize, p: &rgae_linalg::Mat, omega_len: usize, n: usize) {
        let findings = [
            self.monitor.observe_assignments(p),
            self.monitor.observe_omega(omega_len, n),
        ];
        for f in findings.iter().flatten() {
            emit_finding(self.rec, self.phase, Some(epoch), f);
        }
    }

    fn emit_recovery(&self, action: &str, epoch: usize, attempt: usize, detail: String) {
        if self.rec.enabled() {
            self.rec.record(&Event::Recovery {
                action: action.into(),
                phase: self.phase.into(),
                epoch: Some(epoch),
                attempt,
                lr_scale: self.policy.lr_scale(),
                detail,
            });
        }
    }

    /// Decide what to do about a tripped epoch: pick a rollback source (the
    /// newest readable on-disk generation of this phase, else the in-memory
    /// last-good), consume a retry from the policy, and log the decision.
    fn recover(&mut self, saver: Option<&Saver<'_>>, epoch: usize) -> Verdict {
        let from_disk = saver
            .and_then(|s| s.load_for_rollback(self.variant))
            .filter(|st| st.phase.name() == self.phase);
        let source = if from_disk.is_some() {
            "checkpoint"
        } else {
            "memory"
        };
        let Some(state) = from_disk.or_else(|| self.last_good.clone()) else {
            self.emit_recovery(
                "degraded",
                epoch,
                self.policy.attempts(),
                "no healthy state to roll back to; finishing on current parameters".to_owned(),
            );
            return Verdict::Degrade(None);
        };
        match self.policy.next_retry() {
            Some(plan) => {
                let resume_at = state.phase.next_epoch().unwrap_or(0);
                self.emit_recovery(
                    "rollback",
                    epoch,
                    plan.attempt,
                    format!(
                        "rolled back to {source} state at {} epoch {resume_at}",
                        state.phase.name()
                    ),
                );
                self.emit_recovery(
                    "retry",
                    epoch,
                    plan.attempt,
                    format!(
                        "retrying from epoch {resume_at}: lr scaled to {:.3e} of base, RNG reseeded",
                        self.policy.lr_scale()
                    ),
                );
                self.monitor.reset();
                Verdict::Retry(Box::new(state), plan)
            }
            None => {
                self.emit_recovery(
                    "degraded",
                    epoch,
                    self.policy.attempts(),
                    format!("retries exhausted; finishing on last-good {source} state"),
                );
                Verdict::Degrade(Some(Box::new(state)))
            }
        }
    }
}

/// The guard verdict for an epoch; always healthy when guards are off.
fn guard_verdict(
    guard: Option<&mut GuardDriver<'_>>,
    saver: Option<&Saver<'_>>,
    epoch: usize,
    loss: f64,
    model: &dyn GaeModel,
    save_pending: bool,
) -> Verdict {
    match guard {
        Some(g) => g.check_epoch(saver, epoch, loss, model, save_pending),
        None => Verdict::Healthy {
            snap: false,
            exported: None,
        },
    }
}

/// A healthy epoch's save point: persist `st` when a periodic save is due
/// (tagged healthy under guards, since the guard scan just vetted it), and
/// keep it as the guard's in-memory rollback target.
fn save_point(
    saver: &mut Option<Saver<'_>>,
    guard: Option<&mut GuardDriver<'_>>,
    st: TrainerState,
    due_save: bool,
) -> Result<()> {
    if due_save {
        if let Some(s) = saver.as_mut() {
            s.save(&st)?;
            if guard.is_some() {
                s.mark_healthy(&st)?;
            }
        }
    }
    if let Some(g) = guard {
        g.last_good = Some(st);
    }
    Ok(())
}

/// Log an Ω-degeneracy guard event. Emitted whether or not the guard layer
/// is enabled — these are structural conditions of the Ξ operator, and
/// logging them does not perturb any computation.
fn emit_omega_guard(rec: &dyn Recorder, kind: &str, epoch: usize, detail: &str) {
    if rec.enabled() {
        rec.record(&Event::Guard {
            kind: kind.to_owned(),
            severity: "warn".to_owned(),
            phase: "clustering".to_owned(),
            epoch: Some(epoch),
            value: Some(0.0),
            threshold: None,
            detail: detail.to_owned(),
        });
    }
}

/// Which model an [`RTrainer`] trains: the un-modified 𝒟 or R-𝒟. Plain 𝒟
/// is the R-𝒟 loop with both operators off (the paper's drop-in claim,
/// §5.1); the arm decides only what differs:
///
/// - R refreshes Ω (every M₁) and A^self_clus (every M₂) and checks
///   convergence; plain keeps Ω = 𝒱 and A^self_clus = A for the whole run;
/// - plain records leave `omega_acc`/`rest_acc` at 0.0;
/// - plain diagnostics compare against the Ω and Υ graph the R model would
///   use right now (extra Ξ assignments, so they consume the RNG stream);
/// - R checkpoints carry Ω and the graphs (A^self_clus, snapshot graphs);
/// - the checkpoint variant tag (plain or R), which keeps the two arms from
///   resuming or rolling back into each other's checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// The un-modified model 𝒟.
    Plain,
    /// R-𝒟: Ξ and Υ switched on.
    R,
}

impl Arm {
    /// Run-name prefix and checkpoint key: `plain` or `r`.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Plain => "plain",
            Arm::R => "r",
        }
    }
}

/// The mutable inputs of the clustering loop besides the model and the RNG:
/// what a checkpoint captures and a resume or rollback restores.
struct LoopState {
    omega: Omega,
    a_self: Rc<Csr>,
    epochs: Vec<EpochRecord>,
    snapshots: Vec<(usize, rgae_linalg::Mat, Rc<Csr>)>,
    converged_at: Option<usize>,
    pretrain_metrics: Metrics,
}

/// The one pretrain loop and the one clustering loop behind both trainers:
/// resume and Done fast-forward, guard seeding, trip/rollback, fault
/// injection, and the periodic, phase-boundary and end-of-run saves.
struct PhaseDriver<'c> {
    cfg: &'c RConfig,
    rec: &'c dyn Recorder,
    arm: Arm,
}

impl PhaseDriver<'_> {
    fn tag(&self) -> u8 {
        match self.arm {
            Arm::Plain => VARIANT_PLAIN,
            Arm::R => VARIANT_R,
        }
    }

    /// The newest readable checkpoint of this arm, when resuming. A
    /// finished state missing its metrics is unusable and counts as none.
    fn load_resume(&self, saver: Option<&Saver<'_>>) -> Option<TrainerState> {
        saver?.load_for_resume(self.tag()).filter(|st| {
            st.phase != Phase::Done || (st.pretrain_metrics.is_some() && st.final_metrics.is_some())
        })
    }

    /// Pretraining (vanilla reconstruction) then head initialisation and the
    /// phase-boundary save. A mid-pretraining `resumed` state re-enters the
    /// loop; a later one means pretraining already finished, and is handed
    /// back for the clustering phase. The phase-boundary state itself is
    /// also imported here, so the model and RNG leave this phase pretrained
    /// even when no clustering phase follows on this checkpoint directory.
    fn pretrain(
        &self,
        model: &mut dyn GaeModel,
        data: &TrainData,
        rng: &mut Rng64,
        saver: &mut Option<Saver<'_>>,
        resumed: Option<TrainerState>,
    ) -> Result<Option<TrainerState>> {
        let mut epoch = match resumed {
            None => 0,
            Some(st) => match st.phase {
                Phase::Pretrain { next_epoch } => {
                    model.import_params(&st.model)?;
                    *rng = st.rng();
                    next_epoch
                }
                Phase::Clustering { next_epoch: 0 } => {
                    model.import_params(&st.model)?;
                    *rng = st.rng();
                    return Ok(Some(st));
                }
                Phase::Clustering { .. } | Phase::Done => return Ok(Some(st)),
            },
        };
        let total = self.cfg.pretrain_epochs;
        let spec = StepSpec::pretrain(Rc::clone(&data.adjacency));
        let mut guard = GuardDriver::new(
            self.cfg.guard.as_ref(),
            self.rec,
            model,
            self.tag(),
            "pretrain",
        );
        // Phase-entry seed: a trip before the first snapshot-cadence epoch
        // rolls back to the initial weights instead of degrading.
        if let Some(g) = guard.as_mut() {
            g.last_good = Some(TrainerState::new(
                self.tag(),
                Phase::Pretrain { next_epoch: epoch },
                model.export_params(),
                rng,
            ));
        }
        {
            let _pretrain = span(self.rec, "pretrain");
            while epoch < total {
                let loss = model.train_step(data, &spec, rng)?;
                let next = epoch + 1;
                let due_save = saver.as_ref().is_some_and(|s| s.due(next) && next < total);
                let verdict =
                    guard_verdict(guard.as_mut(), saver.as_ref(), epoch, loss, model, due_save);
                let (snap, exported) = match verdict {
                    Verdict::Healthy { snap, exported } => (snap, exported),
                    Verdict::Retry(st, plan) => {
                        model.import_params(&st.model)?;
                        model.scale_lr(plan.lr_scale);
                        *rng = st.rng();
                        rng.reseed_with(plan.reseed_salt);
                        epoch = st.phase.next_epoch().unwrap_or(0);
                        continue;
                    }
                    Verdict::Degrade(st) => {
                        // Not terminal for the run: restore the last-good
                        // weights (when any) and move on to head init —
                        // the clustering phase may still recover.
                        if let Some(st) = st {
                            model.import_params(&st.model)?;
                            *rng = st.rng();
                        }
                        break;
                    }
                };
                if snap || due_save {
                    let st = TrainerState::new(
                        self.tag(),
                        Phase::Pretrain { next_epoch: next },
                        exported.unwrap_or_else(|| model.export_params()),
                        rng,
                    );
                    save_point(saver, guard.as_mut(), st, due_save)?;
                }
                epoch = next;
            }
        }
        {
            let _init = span(self.rec, "init_head");
            model.init_clustering(data, rng)?;
        }
        // Phase-boundary save: pretraining + head init are the expensive
        // prefix shared by every resume, so always persist them.
        if let Some(s) = saver.as_mut() {
            s.save(&TrainerState::new(
                self.tag(),
                Phase::Clustering { next_epoch: 0 },
                model.export_params(),
                rng,
            ))?;
        }
        Ok(None)
    }

    /// The checkpoint view of the clustering loop at `phase`.
    fn loop_state(
        &self,
        phase: Phase,
        params: ModelState,
        rng: &Rng64,
        ls: &LoopState,
        elapsed_seconds: f64,
    ) -> TrainerState {
        let r = self.arm == Arm::R;
        let mut st = TrainerState::new(self.tag(), phase, params, rng);
        if r {
            // A finished run resumes nothing, so its state carries no Ω.
            st.omega = (phase != Phase::Done).then(|| ls.omega.clone());
            st.a_self = Some((*ls.a_self).clone());
        }
        st.converged_at = ls.converged_at;
        st.pretrain_metrics = Some(ls.pretrain_metrics);
        st.epochs = ls.epochs.clone();
        st.snapshots = ls
            .snapshots
            .iter()
            .map(|(e, z, a)| (*e, z.clone(), r.then(|| (**a).clone())))
            .collect();
        st.elapsed_seconds = elapsed_seconds;
        st
    }

    /// Restore the model, the RNG and the loop state from a checkpoint.
    fn restore(
        &self,
        model: &mut dyn GaeModel,
        rng: &mut Rng64,
        data: &TrainData,
        st: &TrainerState,
        ls: &mut LoopState,
    ) -> Result<()> {
        model.import_params(&st.model)?;
        *rng = st.rng();
        ls.a_self = st
            .a_self
            .as_ref()
            .map_or_else(|| Rc::clone(&data.adjacency), |a| Rc::new(a.clone()));
        ls.snapshots = st.r_snapshots(&ls.a_self);
        ls.omega = st
            .omega
            .clone()
            .unwrap_or_else(|| full_omega(data.num_nodes));
        ls.converged_at = st.converged_at;
        ls.epochs = st.epochs.clone();
        Ok(())
    }

    /// Re-emit stored epoch (and convergence) events, so a resumed run log
    /// is still complete.
    fn replay(&self, epochs: &[EpochRecord], converged_at: Option<usize>) {
        if self.rec.enabled() {
            for e in epochs {
                self.rec.record(&Event::Epoch(e.to_event()));
                self.rec
                    .gauge("omega_size", Some(e.epoch), e.omega_size as f64);
            }
            if let Some(epoch) = converged_at {
                self.rec.record(&Event::Convergence { epoch });
            }
        }
    }

    fn run_end(&self, summary: RunSummary) {
        if self.rec.enabled() {
            self.rec.record(&Event::RunEnd(summary));
        }
    }

    /// The clustering phase (pretraining already ran), resuming from a
    /// mid-clustering `resumed` state or fast-forwarding a finished one.
    fn clustering(
        &self,
        model: &mut dyn GaeModel,
        graph: &AttributedGraph,
        data: &TrainData,
        rng: &mut Rng64,
        saver: &mut Option<Saver<'_>>,
        resumed: Option<TrainerState>,
    ) -> Result<RReport> {
        let (cfg, rec) = (self.cfg, self.rec);
        let truth = graph.labels();
        let n = data.num_nodes;
        let mut ls = LoopState {
            omega: full_omega(n),
            a_self: Rc::clone(&data.adjacency),
            epochs: Vec::new(),
            snapshots: Vec::new(),
            converged_at: None,
            pretrain_metrics: Metrics::default(),
        };
        let mut epoch = 0usize;
        let mut elapsed_base = 0.0;
        let mut restored_pretrain_metrics = None;
        match resumed {
            Some(st) if st.phase == Phase::Done => {
                return self.fast_forward(model, data, rng, &st, &mut ls)
            }
            Some(st) if matches!(st.phase, Phase::Clustering { .. }) => {
                self.restore(model, rng, data, &st, &mut ls)?;
                self.replay(&ls.epochs, ls.converged_at);
                restored_pretrain_metrics = st.pretrain_metrics;
                elapsed_base = st.elapsed_seconds;
                epoch = st.phase.next_epoch().unwrap_or(0);
            }
            // A mid-pretraining state belongs to `pretrain`; reaching here
            // with one means the caller skipped resuming that phase, so the
            // clustering phase starts fresh.
            _ => {}
        }

        // The phase-boundary checkpoint precedes this evaluation, so a
        // resume from it re-consumes the RNG stream exactly like a fresh
        // run; mid-clustering checkpoints carry the metrics instead.
        ls.pretrain_metrics = match restored_pretrain_metrics {
            Some(m) => m,
            None => {
                let _eval = span(rec, "eval");
                evaluate(model, data, truth, rng, rec)?
            }
        };

        let clustering = span(rec, "clustering");
        let phase_start = std::time::Instant::now();
        let mut guard = GuardDriver::new(cfg.guard.as_ref(), rec, model, self.tag(), "clustering");
        let mut degraded = false;

        // Table 7 protection variant: one-shot Υ(A, P, 𝒱) before training.
        // Mid-clustering resumes restore the transformed graph instead.
        if self.arm == Arm::R
            && epoch == 0
            && cfg.upsilon_on()
            && cfg.fd_mode == FdMode::SingleStepProtection
        {
            let _upsilon = span(rec, "upsilon");
            let p = soft_assignments_or_kmeans(model, data, rng, rec)?;
            let z = model.embed(data);
            let out = upsilon(&data.adjacency, &p, &z, &ls.omega.indices, &cfg.upsilon)?;
            rec.count("edges_added", out.added.len() as u64);
            rec.count("edges_dropped", out.dropped.len() as u64);
            ls.a_self = Rc::new(out.graph);
        }

        // Phase-entry seed for the in-memory rollback target, so a trip
        // before the first snapshot-cadence epoch still has somewhere safe
        // to land. (Placed after the one-shot Υ above: that transform runs
        // once per run, so a rollback must not precede it.)
        if let Some(g) = guard.as_mut() {
            let params = model.export_params();
            let phase = Phase::Clustering { next_epoch: epoch };
            g.last_good = Some(self.loop_state(phase, params, rng, &ls, elapsed_base));
        }

        while epoch < cfg.max_epochs {
            if cfg.snapshot_epochs.contains(&epoch) {
                ls.snapshots
                    .push((epoch, model.embed(data), Rc::clone(&ls.a_self)));
            }
            if self.arm == Arm::R {
                self.refresh_operators(model, data, rng, epoch, &mut ls)?;
            }

            // One optimisation step, with any scheduled fault injections.
            let due_faults = guard
                .as_mut()
                .map_or_else(Vec::new, |g| g.faults_due(epoch));
            let step_t = span(rec, "step");
            let cluster = match model.cluster_target(data)? {
                // |Ω| = 0 would make the clustering loss an empty-set
                // reduction; skip the term this epoch instead.
                Some(_) if ls.omega.is_empty() => {
                    emit_omega_guard(
                        rec,
                        "empty_omega",
                        epoch,
                        "|Omega| = 0: skipping the clustering-loss term this epoch",
                    );
                    None
                }
                Some(target) => Some(ClusterStep {
                    target,
                    omega: (ls.omega.len() < n).then(|| ls.omega.indices.clone()),
                }),
                None => None,
            };
            let spec = StepSpec {
                recon_target: Some(Rc::clone(&ls.a_self)),
                gamma: cfg.gamma,
                cluster,
            };
            let poison = due_faults.contains(&FaultKind::NanGrad);
            if poison {
                arm_grad_poison();
            }
            let step_result = model.train_step(data, &spec, rng);
            if poison {
                disarm_grad_poison();
            }
            let mut loss = step_result?;
            step_t.stop();
            for kind in &due_faults {
                match kind {
                    FaultKind::InfLoss => loss = f64::INFINITY,
                    FaultKind::NanLoss => loss = f64::NAN,
                    FaultKind::CorruptCkpt => {
                        if let Some(s) = saver.as_ref() {
                            s.corrupt_latest(epoch as u64)?;
                        }
                    }
                    FaultKind::NanGrad => {}
                }
            }

            // Trip checks run before any bookkeeping: a tripped epoch
            // contributes no record, no convergence, and no save.
            let save_next = saver.as_ref().is_some_and(|s| s.due(epoch + 1));
            let verdict = guard_verdict(
                guard.as_mut(),
                saver.as_ref(),
                epoch,
                loss,
                model,
                save_next,
            );
            let (snap, exported) = match verdict {
                Verdict::Healthy { snap, exported } => (snap, exported),
                Verdict::Retry(st, plan) => {
                    self.restore(model, rng, data, &st, &mut ls)?;
                    model.scale_lr(plan.lr_scale);
                    rng.reseed_with(plan.reseed_salt);
                    epoch = st.phase.next_epoch().unwrap_or(0);
                    continue;
                }
                Verdict::Degrade(st) => {
                    if let Some(st) = st {
                        self.restore(model, rng, data, &st, &mut ls)?;
                    }
                    degraded = true;
                    break;
                }
            };

            // This epoch ends the run either by convergence (|Ω| ≥ 0.9N,
            // checked on the Ω that drove the step) or by exhausting the
            // budget; both force a full evaluation so the last record
            // always carries metrics regardless of `eval_every`. Only a
            // run whose Ξ selects Ω can converge: with Ξ ablated Ω = 𝒱
            // always, and the run goes to `max_epochs` like a plain one.
            let converging = self.arm == Arm::R
                && cfg.xi_on()
                && ls.converged_at.is_none()
                && epoch >= cfg.min_epochs
                && ls.omega.coverage(n) >= CONVERGENCE;
            let last_epoch = converging || epoch + 1 == cfg.max_epochs;

            let (record, p) = {
                let _record = span(rec, "record");
                self.record_epoch(model, data, truth, epoch, loss, &ls, rng, last_epoch)?
            };
            if rec.enabled() {
                rec.record(&Event::Epoch(record.to_event()));
                rec.gauge("omega_size", Some(epoch), record.omega_size as f64);
            }
            ls.epochs.push(record);
            if let Some(g) = guard.as_mut() {
                g.warn_checks(epoch, &p, ls.omega.len(), n);
            }

            if converging {
                ls.converged_at = Some(epoch);
                if rec.enabled() {
                    rec.record(&Event::Convergence { epoch });
                }
            }

            let due_save = !last_epoch && save_next;
            if snap || due_save {
                let st = self.loop_state(
                    Phase::Clustering {
                        next_epoch: epoch + 1,
                    },
                    exported.unwrap_or_else(|| model.export_params()),
                    rng,
                    &ls,
                    elapsed_base + phase_start.elapsed().as_secs_f64(),
                );
                save_point(saver, guard.as_mut(), st, due_save)?;
            }

            if converging {
                break;
            }
            epoch += 1;
        }
        let train_seconds = elapsed_base + clustering.stop();
        // Requested snapshots at or past the end of the run collapse into
        // one final snapshot labelled with the actual epoch count — on early
        // convergence that is the convergence epoch + 1, not `max_epochs`.
        let end_epoch = ls.epochs.last().map_or(0, |e| e.epoch + 1);
        if cfg.snapshot_epochs.iter().any(|&e| e >= end_epoch)
            && !ls.snapshots.iter().any(|s| s.0 == end_epoch)
        {
            ls.snapshots
                .push((end_epoch, model.embed(data), Rc::clone(&ls.a_self)));
        }
        let final_metrics = {
            let _eval = span(rec, "eval");
            evaluate(model, data, truth, rng, rec)?
        };
        if rec.enabled() {
            self.run_end(RunSummary {
                train_seconds,
                converged_at: ls.converged_at,
                epochs_run: ls.epochs.len(),
                final_acc: final_metrics.acc,
                final_nmi: final_metrics.nmi,
                final_ari: final_metrics.ari,
                degraded,
            });
            flush_kernel_stats(rec);
        }
        if let Some(s) = saver.as_mut() {
            let mut st =
                self.loop_state(Phase::Done, model.export_params(), rng, &ls, train_seconds);
            st.final_metrics = Some(final_metrics);
            st.degraded = degraded;
            s.save(&st)?;
        }
        Ok(RReport {
            pretrain_metrics: ls.pretrain_metrics,
            final_metrics,
            converged_at: ls.converged_at,
            epochs: ls.epochs,
            train_seconds,
            final_graph: ls.a_self,
            snapshots: ls.snapshots,
            degraded,
        })
    }

    /// Fast-forward: the stored run already finished. Rebuild its report and
    /// replay its events so a resumed log is still complete.
    fn fast_forward(
        &self,
        model: &mut dyn GaeModel,
        data: &TrainData,
        rng: &mut Rng64,
        st: &TrainerState,
        ls: &mut LoopState,
    ) -> Result<RReport> {
        self.restore(model, rng, data, st, ls)?;
        let (Some(pretrain_metrics), Some(final_metrics)) = (st.pretrain_metrics, st.final_metrics)
        else {
            unreachable!("load_resume drops finished states without metrics");
        };
        self.replay(&ls.epochs, st.converged_at);
        self.run_end(RunSummary {
            train_seconds: st.elapsed_seconds,
            converged_at: st.converged_at,
            epochs_run: st.epochs.len(),
            final_acc: final_metrics.acc,
            final_nmi: final_metrics.nmi,
            final_ari: final_metrics.ari,
            degraded: st.degraded,
        });
        Ok(RReport {
            pretrain_metrics,
            final_metrics,
            converged_at: st.converged_at,
            epochs: std::mem::take(&mut ls.epochs),
            train_seconds: st.elapsed_seconds,
            final_graph: Rc::clone(&ls.a_self),
            snapshots: std::mem::take(&mut ls.snapshots),
            degraded: st.degraded,
        })
    }

    /// Refresh Ω every M₁ epochs (Ω = 𝒱 while Ξ is inactive) and, under
    /// gradual correction, A^self_clus every M₂ epochs.
    fn refresh_operators(
        &self,
        model: &dyn GaeModel,
        data: &TrainData,
        rng: &mut Rng64,
        epoch: usize,
        ls: &mut LoopState,
    ) -> Result<()> {
        let (cfg, rec) = (self.cfg, self.rec);
        if epoch.is_multiple_of(cfg.m1) {
            if cfg.xi_on() && epoch >= cfg.delay_xi {
                let _xi = span(rec, "xi");
                let p = xi_assignments_or_kmeans(model, data, rng, rec)?;
                let candidate = xi(&p, &cfg.xi)?;
                if candidate.is_empty() {
                    emit_omega_guard(
                        rec,
                        "degenerate_omega",
                        epoch,
                        "Xi returned an empty Omega; keeping the previous one",
                    );
                } else {
                    ls.omega = candidate;
                }
            } else {
                ls.omega = full_omega(data.num_nodes);
            }
        }
        if cfg.upsilon_on()
            && cfg.fd_mode == FdMode::GradualCorrection
            && epoch.is_multiple_of(cfg.m2)
        {
            let _upsilon = span(rec, "upsilon");
            let p = soft_assignments_or_kmeans(model, data, rng, rec)?;
            let z = model.embed(data);
            let out = upsilon(&data.adjacency, &p, &z, &ls.omega.indices, &cfg.upsilon)?;
            rec.count("edges_added", out.added.len() as u64);
            rec.count("edges_dropped", out.dropped.len() as u64);
            ls.a_self = Rc::new(out.graph);
        }
        Ok(())
    }

    /// Per-epoch bookkeeping. Also returns the soft assignments `P` it
    /// computed, so the guard layer can run its cluster-collapse check
    /// without consuming the RNG stream again.
    #[allow(clippy::too_many_arguments)]
    fn record_epoch(
        &self,
        model: &dyn GaeModel,
        data: &TrainData,
        truth: &[usize],
        epoch: usize,
        loss: f64,
        ls: &LoopState,
        rng: &mut Rng64,
        force_eval: bool,
    ) -> Result<(EpochRecord, rgae_linalg::Mat)> {
        let (cfg, rec) = (self.cfg, self.rec);
        let r = self.arm == Arm::R;
        let (omega, a_self) = (&ls.omega, &ls.a_self);

        let eval_t = span(rec, "eval");
        let p = soft_assignments_or_kmeans(model, data, rng, rec)?;
        let pred = p.row_argmax();
        let eval_now = force_eval || epoch.is_multiple_of(cfg.eval_every);
        let metrics = eval_now.then(|| Metrics::from_predictions(&pred, truth));
        let (omega_acc, rest_acc) = if r {
            (
                subset_accuracy(&omega.indices, &pred, truth, 0.0),
                subset_accuracy(&omega.complement(data.num_nodes), &pred, truth, 1.0),
            )
        } else {
            (0.0, 0.0)
        };
        // The graph scans are O(|E|) and purely diagnostic; skip them on
        // non-eval epochs, and the diffs while A^self_clus is still A.
        let (graph_stats, added_links, dropped_links) = if !eval_now {
            (None, None, None)
        } else if Rc::ptr_eq(a_self, &data.adjacency) {
            (
                Some(GraphStats::compute(a_self, truth)),
                Some((0, 0)),
                Some((0, 0)),
            )
        } else {
            let added = edge_diff(&data.adjacency, a_self);
            let dropped = edge_diff(a_self, &data.adjacency);
            (
                Some(GraphStats::compute(a_self, truth)),
                Some(split_links(&added, truth)),
                Some(split_links(&dropped, truth)),
            )
        };
        eval_t.stop();

        let (mut fr_r, mut fr_full, mut fd_cur, mut fd_van) = (None, None, None, None);
        let mut omega_size = omega.len();
        if cfg.track_diagnostics {
            let _diag = span(rec, "diagnostics");
            // A plain run has no Ω of its own: compare against the one Ξ
            // would select at the plain model's θ right now.
            let hypothetical;
            let diag_omega = if r {
                omega
            } else {
                let p_xi = xi_assignments_or_kmeans(model, data, rng, rec)?;
                hypothetical = xi(&p_xi, &cfg.xi)?;
                omega_size = hypothetical.len();
                &hypothetical
            };
            let z = model.embed(data);
            if let Some(target) = model.cluster_target(data)? {
                if !diag_omega.is_empty() {
                    fr_r = lambda_fr(model, data, &target, Some(&diag_omega.indices), truth, rec)?;
                }
                fr_full = lambda_fr(model, data, &target, None, truth, rec)?;
            }
            let sup = supervised_graph(data, &z, &p, truth, rec)?;
            if !diag_omega.is_empty() {
                // For a plain run: the Υ-transformed graph the R model would
                // use right now.
                let current = if r {
                    Rc::clone(a_self)
                } else {
                    let out = upsilon(&data.adjacency, &p, &z, &diag_omega.indices, &cfg.upsilon)?;
                    Rc::new(out.graph)
                };
                fd_cur = Some(lambda_fd(model, data, &current, &sup)?);
            }
            fd_van = Some(lambda_fd(model, data, &data.adjacency, &sup)?);
        }

        Ok((
            EpochRecord {
                epoch,
                loss,
                metrics,
                omega_size,
                omega_acc,
                rest_acc,
                graph_stats,
                added_links,
                dropped_links,
                lambda_fr_restricted: fr_r,
                lambda_fr_full: fr_full,
                lambda_fd_current: fd_cur,
                lambda_fd_vanilla: fd_van,
            },
            p,
        ))
    }
}

/// The generic trainer: R-𝒟 by default, plain 𝒟 with [`RTrainer::with_arm`].
pub struct RTrainer<'a> {
    cfg: RConfig,
    rec: &'a dyn Recorder,
    ckpt: Option<CheckpointOpts>,
    arm: Arm,
}

impl RTrainer<'static> {
    /// Build from a configuration, with the no-op recorder.
    pub fn new(cfg: RConfig) -> Self {
        RTrainer {
            cfg,
            rec: &NOOP,
            ckpt: None,
            arm: Arm::R,
        }
    }
}

impl<'a> RTrainer<'a> {
    /// Build from a configuration and a run-log recorder.
    pub fn with_recorder(cfg: RConfig, rec: &'a dyn Recorder) -> Self {
        RTrainer {
            cfg,
            rec,
            ckpt: None,
            arm: Arm::R,
        }
    }

    /// Train `arm` instead of R-𝒟. A plain trainer runs the same phases
    /// with Ξ and Υ off, and tags its checkpoints as plain.
    pub fn with_arm(mut self, arm: Arm) -> Self {
        self.arm = arm;
        self
    }

    /// Enable crash-safe checkpointing. Saves land in `opts.dir` every
    /// `opts.every` epochs (plus at phase boundaries and at the end); with
    /// `opts.resume` the trainer re-enters mid-phase from the newest
    /// readable checkpoint and finishes bit-identically to an uninterrupted
    /// run.
    pub fn with_checkpoints(mut self, opts: CheckpointOpts) -> Self {
        self.ckpt = Some(opts);
        self
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &RConfig {
        &self.cfg
    }

    /// The recorder this trainer reports into.
    pub fn recorder(&self) -> &'a dyn Recorder {
        self.rec
    }

    fn driver(&self) -> PhaseDriver<'_> {
        PhaseDriver {
            cfg: &self.cfg,
            rec: self.rec,
            arm: self.arm,
        }
    }

    /// Pretrain only (vanilla reconstruction + head initialisation). Useful
    /// when several arms must share the same pretrained weights. Resuming
    /// from a finished pretrain (its phase-boundary checkpoint) imports the
    /// pretrained parameters and RNG instead of re-running the phase.
    pub fn pretrain(
        &self,
        model: &mut dyn GaeModel,
        data: &TrainData,
        rng: &mut Rng64,
    ) -> Result<()> {
        apply_thread_config(&self.cfg);
        let driver = self.driver();
        let mut saver = Saver::open(self.ckpt.as_ref(), self.rec)?;
        let resumed = driver.load_resume(saver.as_ref());
        // A later-phase state restores itself in the clustering phase.
        driver.pretrain(model, data, rng, &mut saver, resumed)?;
        Ok(())
    }

    /// Full run: pretraining, then the clustering phase.
    pub fn train(
        &self,
        model: &mut dyn GaeModel,
        graph: &AttributedGraph,
        rng: &mut Rng64,
    ) -> Result<RReport> {
        let data = TrainData::from_graph(graph);
        self.pretrain(model, &data, rng)?;
        self.train_clustering_phase(model, graph, &data, rng)
    }

    /// The clustering phase alone (assumes pretraining already ran).
    pub fn train_clustering_phase(
        &self,
        model: &mut dyn GaeModel,
        graph: &AttributedGraph,
        data: &TrainData,
        rng: &mut Rng64,
    ) -> Result<RReport> {
        apply_thread_config(&self.cfg);
        reset_kernel_stats(self.rec);
        let driver = self.driver();
        let mut saver = Saver::open(self.ckpt.as_ref(), self.rec)?;
        let resumed = driver.load_resume(saver.as_ref());
        driver.clustering(model, graph, data, rng, &mut saver, resumed)
    }
}

/// Apply the run's thread override to the `rgae-par` pool and its decoder
/// tile override to the fused gram+BCE kernel (no-op when the config leaves
/// the process defaults in place).
fn apply_thread_config(cfg: &RConfig) {
    if let Some(t) = cfg.threads {
        rgae_par::set_threads(Some(t));
    }
    if cfg.decoder_tile.is_some() {
        rgae_linalg::set_decoder_tile(cfg.decoder_tile);
    }
}

/// Start the kernel timing table afresh for the phase (or run) about to
/// train, so [`flush_kernel_stats`] reports only its own work: nothing from
/// an earlier pretrain or run.
fn reset_kernel_stats(rec: &dyn Recorder) {
    if rec.enabled() {
        let _ = rgae_par::take_kernel_stats();
    }
}

/// Drain the `rgae-par` per-kernel timing registry into the recorder:
/// `par_<kernel>_calls` counters and `par_<kernel>_seconds` gauges, plus the
/// effective `par_threads` count. Timings are inclusive — a kernel invoked
/// from inside another timed kernel is charged to both.
fn flush_kernel_stats(rec: &dyn Recorder) {
    for (name, stat) in rgae_par::take_kernel_stats() {
        rec.count(&format!("par_{name}_calls"), stat.calls);
        rec.gauge(&format!("par_{name}_seconds"), None, stat.seconds);
    }
    rec.gauge("par_threads", None, rgae_par::threads() as f64);
}

/// Train the un-modified model 𝒟: pretraining, head initialisation, then
/// `max_epochs` of its own joint loss against the static graph `A` (or
/// pure reconstruction for first-group models). Diagnostics are recorded
/// when `track_diagnostics` is set (using `cfg.xi` and `cfg.upsilon` only to
/// compute the hypothetical Ω and Υ graph for the Λ comparisons).
///
/// Reports into `rec` (spans, epoch events, and the closing run summary,
/// mirroring the R trainer's trace; pass [`NOOP`] for no run log) and, when
/// `ckpt` is given, checkpoints crash-safely: periodic saves in both phases
/// plus phase-boundary and end-of-run saves, and (with `opts.resume`)
/// bit-identical mid-phase re-entry — the plain counterpart of
/// [`RTrainer::with_checkpoints`].
pub fn train_plain_ckpt(
    model: &mut dyn GaeModel,
    graph: &AttributedGraph,
    cfg: &RConfig,
    rng: &mut Rng64,
    rec: &dyn Recorder,
    ckpt: Option<&CheckpointOpts>,
) -> Result<RReport> {
    apply_thread_config(cfg);
    reset_kernel_stats(rec);
    let data = TrainData::from_graph(graph);
    let driver = PhaseDriver {
        cfg,
        rec,
        arm: Arm::Plain,
    };
    let mut saver = Saver::open(ckpt, rec)?;
    let resumed = driver.load_resume(saver.as_ref());
    let resumed = driver.pretrain(model, &data, rng, &mut saver, resumed)?;
    driver.clustering(model, graph, &data, rng, &mut saver, resumed)
}
