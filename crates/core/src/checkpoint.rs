//! Crash-safe checkpoint/resume for the trainers.
//!
//! The byte format, CRC framing, and rotating store live in `rgae-ckpt`;
//! this module owns the trainer-level [`TrainerState`] (phase, Ω,
//! A^self_clus, epoch records, …) because those types belong to this crate.
//!
//! Resume contract: a run checkpointed at any epoch and resumed produces
//! **bit-identical** losses, Ω trajectories, and final metrics to the
//! uninterrupted run, because the state captures every mutable input of the
//! loop — model parameters, Adam moments, the RNG stream position, Ω,
//! A^self_clus, and the accumulated records — at an exact epoch boundary.
//! Corrupt or truncated checkpoints are detected by CRC (or by decode
//! validation) and the loader falls back to the previous good generation;
//! with no readable checkpoint the trainer silently starts fresh. Every
//! save/load/fallback/corrupt interaction is surfaced as an
//! [`Event::Checkpoint`] in the run log.

use std::path::{Path, PathBuf};
use std::rc::Rc;

use rgae_ckpt::codec::{ByteReader, ByteWriter};
use rgae_ckpt::state::{get_csr, get_mat, put_csr, put_mat};
use rgae_ckpt::{CheckpointStore, ModelState};
use rgae_graph::GraphStats;
use rgae_linalg::{Csr, Mat, Rng64};
use rgae_obs::{Event, Recorder};

use crate::eval::Metrics;
use crate::trainer::EpochRecord;
use crate::xi::Omega;
use crate::{Error, Result};

/// Trainer-state variant tag: plain (un-modified 𝒟) runs.
pub(crate) const VARIANT_PLAIN: u8 = 0;
/// Trainer-state variant tag: R-𝒟 runs.
pub(crate) const VARIANT_R: u8 = 1;

/// Where the trainer stands, and where a resume would re-enter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Mid-pretraining; resume runs pretrain epochs `next_epoch..`.
    Pretrain {
        /// First pretraining epoch still to run.
        next_epoch: usize,
    },
    /// Mid-clustering; resume runs clustering epochs `next_epoch..`.
    Clustering {
        /// First clustering epoch still to run.
        next_epoch: usize,
    },
    /// Training finished; resume replays the stored report.
    Done,
}

impl Phase {
    /// Stable name for run-log events.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Pretrain { .. } => "pretrain",
            Phase::Clustering { .. } => "clustering",
            Phase::Done => "done",
        }
    }

    /// The epoch a resume would continue at, when mid-phase.
    pub fn next_epoch(&self) -> Option<usize> {
        match self {
            Phase::Pretrain { next_epoch } | Phase::Clustering { next_epoch } => Some(*next_epoch),
            Phase::Done => None,
        }
    }
}

/// Checkpointing knobs for a trainer run.
#[derive(Clone, Debug)]
pub struct CheckpointOpts {
    /// Directory holding this run's checkpoint files (`state.rgck` +
    /// `state.prev.rgck`). One directory per (experiment, model, dataset,
    /// variant, seed) — the trainer rejects state from a different setup
    /// only by model architecture, not by provenance.
    pub dir: PathBuf,
    /// Save every `every` epochs (in both phases). `0` disables periodic
    /// saves; phase-boundary and end-of-run saves still happen.
    pub every: usize,
    /// Load and continue from the newest readable checkpoint in `dir`.
    /// When `false`, existing files are ignored (and overwritten).
    pub resume: bool,
    /// Testing hook: return [`Error::Halted`] right after the Nth
    /// successful save *of the current trainer entry* (pretrain and the
    /// clustering phase each count their own saves). Simulates a crash at a
    /// deterministic point.
    pub halt_after_saves: Option<usize>,
}

impl CheckpointOpts {
    /// Checkpoints in `dir`, saving every 25 epochs, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOpts {
            dir: dir.into(),
            every: 25,
            resume: false,
            halt_after_saves: None,
        }
    }

    /// Set the save period (epochs).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }

    /// Enable resuming from the newest readable checkpoint.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Halt (with [`Error::Halted`]) after N saves — deterministic
    /// crash-injection for tests.
    pub fn halt_after_saves(mut self, n: usize) -> Self {
        self.halt_after_saves = Some(n);
        self
    }
}

/// Everything a trainer needs to re-enter its loop mid-phase.
#[derive(Clone, Debug)]
pub struct TrainerState {
    /// [`VARIANT_PLAIN`] or [`VARIANT_R`].
    pub(crate) variant: u8,
    /// Where to re-enter.
    pub(crate) phase: Phase,
    /// Model parameters + optimiser moments.
    pub(crate) model: ModelState,
    /// RNG stream position at the save point.
    pub(crate) rng_words: [u64; 4],
    /// Cached Box–Muller spare at the save point.
    pub(crate) rng_spare: Option<f64>,
    /// Current Ω (clustering phase only).
    pub(crate) omega: Option<Omega>,
    /// Current A^self_clus (clustering phase only).
    pub(crate) a_self: Option<Csr>,
    /// Convergence epoch, if already reached.
    pub(crate) converged_at: Option<usize>,
    /// Metrics after pretraining, once evaluated.
    pub(crate) pretrain_metrics: Option<Metrics>,
    /// Final metrics (phase `Done` only).
    pub(crate) final_metrics: Option<Metrics>,
    /// Epoch records accumulated so far.
    pub(crate) epochs: Vec<EpochRecord>,
    /// `(epoch, Z, A^self_clus)` snapshots so far (`None` graph for plain
    /// runs).
    pub(crate) snapshots: Vec<(usize, Mat, Option<Csr>)>,
    /// Clustering-phase wall-clock seconds accumulated before the save.
    pub(crate) elapsed_seconds: f64,
    /// The guard recovery policy ran out of retries and the run finished on
    /// last-good parameters (phase `Done` only).
    pub(crate) degraded: bool,
}

impl TrainerState {
    pub(crate) fn new(variant: u8, phase: Phase, model: ModelState, rng: &Rng64) -> Self {
        let (rng_words, rng_spare) = rng.state();
        TrainerState {
            variant,
            phase,
            model,
            rng_words,
            rng_spare,
            omega: None,
            a_self: None,
            converged_at: None,
            pretrain_metrics: None,
            final_metrics: None,
            epochs: Vec::new(),
            snapshots: Vec::new(),
            elapsed_seconds: 0.0,
            degraded: false,
        }
    }

    /// Rebuild the RNG at the saved stream position.
    pub(crate) fn rng(&self) -> Rng64 {
        Rng64::from_state(self.rng_words, self.rng_spare)
    }

    /// Serialise to checkpoint payload bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(self.variant);
        match self.phase {
            Phase::Pretrain { next_epoch } => {
                w.put_u8(0);
                w.put_usize(next_epoch);
            }
            Phase::Clustering { next_epoch } => {
                w.put_u8(1);
                w.put_usize(next_epoch);
            }
            Phase::Done => w.put_u8(2),
        }
        self.model.encode(&mut w);
        for word in self.rng_words {
            w.put_u64(word);
        }
        w.put_opt_f64(self.rng_spare);
        match &self.omega {
            Some(o) => {
                w.put_bool(true);
                put_omega(&mut w, o);
            }
            None => w.put_bool(false),
        }
        match &self.a_self {
            Some(a) => {
                w.put_bool(true);
                put_csr(&mut w, a);
            }
            None => w.put_bool(false),
        }
        w.put_opt_usize(self.converged_at);
        put_opt_metrics(&mut w, self.pretrain_metrics.as_ref());
        put_opt_metrics(&mut w, self.final_metrics.as_ref());
        w.put_usize(self.epochs.len());
        for e in &self.epochs {
            put_epoch_record(&mut w, e);
        }
        w.put_usize(self.snapshots.len());
        for (epoch, z, a) in &self.snapshots {
            w.put_usize(*epoch);
            put_mat(&mut w, z);
            match a {
                Some(a) => {
                    w.put_bool(true);
                    put_csr(&mut w, a);
                }
                None => w.put_bool(false),
            }
        }
        w.put_f64(self.elapsed_seconds);
        w.put_bool(self.degraded);
        w.into_bytes()
    }

    /// Deserialise from checkpoint payload bytes.
    pub(crate) fn decode(bytes: &[u8]) -> rgae_ckpt::Result<TrainerState> {
        use rgae_ckpt::Error as CkptError;
        let r = &mut ByteReader::new(bytes);
        let variant = r.get_u8()?;
        if variant != VARIANT_PLAIN && variant != VARIANT_R {
            return Err(CkptError::Corrupt("unknown trainer variant"));
        }
        let phase = match r.get_u8()? {
            0 => Phase::Pretrain {
                next_epoch: r.get_usize()?,
            },
            1 => Phase::Clustering {
                next_epoch: r.get_usize()?,
            },
            2 => Phase::Done,
            _ => return Err(CkptError::Corrupt("unknown trainer phase")),
        };
        let model = ModelState::decode(r)?;
        let rng_words = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        let rng_spare = r.get_opt_f64()?;
        let omega = if r.get_bool()? {
            Some(get_omega(r)?)
        } else {
            None
        };
        let a_self = if r.get_bool()? {
            Some(get_csr(r)?)
        } else {
            None
        };
        let converged_at = r.get_opt_usize()?;
        let pretrain_metrics = get_opt_metrics(r)?;
        let final_metrics = get_opt_metrics(r)?;
        let n = r.get_len(8)?;
        let mut epochs = Vec::with_capacity(n);
        for _ in 0..n {
            epochs.push(get_epoch_record(r)?);
        }
        let n = r.get_len(8)?;
        let mut snapshots = Vec::with_capacity(n);
        for _ in 0..n {
            let epoch = r.get_usize()?;
            let z = get_mat(r)?;
            let a = if r.get_bool()? {
                Some(get_csr(r)?)
            } else {
                None
            };
            snapshots.push((epoch, z, a));
        }
        let elapsed_seconds = r.get_f64()?;
        let degraded = r.get_bool()?;
        if !r.is_done() {
            return Err(CkptError::Corrupt("trailing bytes after trainer state"));
        }
        Ok(TrainerState {
            variant,
            phase,
            model,
            rng_words,
            rng_spare,
            omega,
            a_self,
            converged_at,
            pretrain_metrics,
            final_metrics,
            epochs,
            snapshots,
            elapsed_seconds,
            degraded,
        })
    }

    /// The stored snapshots in the R-report shape (graphs defaulting to
    /// `fallback` when a snapshot carries none).
    pub(crate) fn r_snapshots(&self, fallback: &Rc<Csr>) -> Vec<(usize, Mat, Rc<Csr>)> {
        self.snapshots
            .iter()
            .map(|(e, z, a)| {
                let graph = a
                    .as_ref()
                    .map_or_else(|| Rc::clone(fallback), |a| Rc::new(a.clone()));
                (*e, z.clone(), graph)
            })
            .collect()
    }
}

fn put_omega(w: &mut ByteWriter, o: &Omega) {
    w.put_usizes(&o.indices);
    w.put_f64s(&o.lambda1);
    w.put_f64s(&o.lambda2);
}

fn get_omega(r: &mut ByteReader) -> rgae_ckpt::Result<Omega> {
    Ok(Omega {
        indices: r.get_usizes()?,
        lambda1: r.get_f64s()?,
        lambda2: r.get_f64s()?,
    })
}

fn put_opt_metrics(w: &mut ByteWriter, m: Option<&Metrics>) {
    match m {
        Some(m) => {
            w.put_bool(true);
            w.put_f64(m.acc);
            w.put_f64(m.nmi);
            w.put_f64(m.ari);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_metrics(r: &mut ByteReader) -> rgae_ckpt::Result<Option<Metrics>> {
    Ok(if r.get_bool()? {
        Some(Metrics {
            acc: r.get_f64()?,
            nmi: r.get_f64()?,
            ari: r.get_f64()?,
        })
    } else {
        None
    })
}

fn put_opt_pair(w: &mut ByteWriter, p: Option<(usize, usize)>) {
    match p {
        Some((a, b)) => {
            w.put_bool(true);
            w.put_usize(a);
            w.put_usize(b);
        }
        None => w.put_bool(false),
    }
}

fn get_opt_pair(r: &mut ByteReader) -> rgae_ckpt::Result<Option<(usize, usize)>> {
    Ok(if r.get_bool()? {
        Some((r.get_usize()?, r.get_usize()?))
    } else {
        None
    })
}

fn put_epoch_record(w: &mut ByteWriter, e: &EpochRecord) {
    w.put_usize(e.epoch);
    w.put_f64(e.loss);
    put_opt_metrics(w, e.metrics.as_ref());
    w.put_usize(e.omega_size);
    w.put_f64(e.omega_acc);
    w.put_f64(e.rest_acc);
    match &e.graph_stats {
        Some(s) => {
            w.put_bool(true);
            w.put_usize(s.num_edges);
            w.put_usize(s.true_links);
            w.put_usize(s.false_links);
            w.put_f64(s.mean_degree);
            w.put_usize(s.max_degree);
            w.put_usize(s.isolated);
        }
        None => w.put_bool(false),
    }
    put_opt_pair(w, e.added_links);
    put_opt_pair(w, e.dropped_links);
    w.put_opt_f64(e.lambda_fr_restricted);
    w.put_opt_f64(e.lambda_fr_full);
    w.put_opt_f64(e.lambda_fd_current);
    w.put_opt_f64(e.lambda_fd_vanilla);
}

fn get_epoch_record(r: &mut ByteReader) -> rgae_ckpt::Result<EpochRecord> {
    Ok(EpochRecord {
        epoch: r.get_usize()?,
        loss: r.get_f64()?,
        metrics: get_opt_metrics(r)?,
        omega_size: r.get_usize()?,
        omega_acc: r.get_f64()?,
        rest_acc: r.get_f64()?,
        graph_stats: if r.get_bool()? {
            Some(GraphStats {
                num_edges: r.get_usize()?,
                true_links: r.get_usize()?,
                false_links: r.get_usize()?,
                mean_degree: r.get_f64()?,
                max_degree: r.get_usize()?,
                isolated: r.get_usize()?,
            })
        } else {
            None
        },
        added_links: get_opt_pair(r)?,
        dropped_links: get_opt_pair(r)?,
        lambda_fr_restricted: r.get_opt_f64()?,
        lambda_fr_full: r.get_opt_f64()?,
        lambda_fd_current: r.get_opt_f64()?,
        lambda_fd_vanilla: r.get_opt_f64()?,
    })
}

/// The trainers' handle on a checkpoint directory: periodic saves with
/// rotation, resume loading with CRC fallback, and run-log events for every
/// interaction.
pub(crate) struct Saver<'a> {
    opts: &'a CheckpointOpts,
    store: CheckpointStore,
    rec: &'a dyn Recorder,
    saves: usize,
}

impl<'a> Saver<'a> {
    /// Open the store when checkpointing is configured.
    pub fn open(
        opts: Option<&'a CheckpointOpts>,
        rec: &'a dyn Recorder,
    ) -> Result<Option<Saver<'a>>> {
        let Some(opts) = opts else { return Ok(None) };
        let store = CheckpointStore::open(&opts.dir)
            .map_err(|e| Error::Checkpoint(format!("open {}: {e}", opts.dir.display())))?;
        Ok(Some(Saver {
            opts,
            store,
            rec,
            saves: 0,
        }))
    }

    /// Should a periodic save happen before running `next_epoch`?
    pub fn due(&self, next_epoch: usize) -> bool {
        self.opts.every > 0 && next_epoch.is_multiple_of(self.opts.every)
    }

    fn emit(&self, action: &str, path: &Path, phase: &str, epoch: Option<usize>) {
        if self.rec.enabled() {
            self.rec.record(&Event::Checkpoint {
                action: action.into(),
                path: path.display().to_string(),
                phase: phase.into(),
                epoch,
            });
        }
    }

    /// Save (rotating latest → prev). Returns [`Error::Halted`] right after
    /// the configured Nth save when crash injection is armed.
    pub fn save(&mut self, state: &TrainerState) -> Result<()> {
        let payload = state.encode();
        let path = self
            .store
            .save(&payload)
            .map_err(|e| Error::Checkpoint(format!("save: {e}")))?;
        self.emit("saved", &path, state.phase.name(), state.phase.next_epoch());
        self.saves += 1;
        if let Some(n) = self.opts.halt_after_saves {
            if self.saves >= n {
                return Err(Error::Halted);
            }
        }
        Ok(())
    }

    /// Load the newest readable checkpoint of the expected variant, falling
    /// back across generations on CRC or decode failure. `None` when resume
    /// is off, nothing is readable, or the stored variant does not match —
    /// the trainer then starts fresh. Never returns an error for corrupt
    /// data: corruption is survivable by design.
    pub fn load_for_resume(&self, variant: u8) -> Option<TrainerState> {
        if !self.opts.resume {
            return None;
        }
        self.load_candidates(&self.store.candidates(), variant, "loaded")
    }

    /// Tag the just-written latest generation as healthy: the guard layer
    /// verified the saved state before calling [`Saver::save`], so this copy
    /// survives later rotations as a rollback target even if newer saves are
    /// corrupted on disk.
    pub fn mark_healthy(&self, state: &TrainerState) -> Result<()> {
        let path = self
            .store
            .tag_healthy()
            .map_err(|e| Error::Checkpoint(format!("tag healthy: {e}")))?;
        self.emit(
            "healthy",
            &path,
            state.phase.name(),
            state.phase.next_epoch(),
        );
        Ok(())
    }

    /// Load the best state for a guard rollback, regardless of the resume
    /// flag: the latest save first (rollback targets are only ever written
    /// on healthy epochs), then the healthy-tagged generation, then the
    /// previous one. `None` when nothing usable is on disk — the trainer
    /// then falls back to its in-memory last-good snapshot.
    pub fn load_for_rollback(&self, variant: u8) -> Option<TrainerState> {
        self.load_candidates(&self.store.recovery_candidates(), variant, "rollback")
    }

    fn load_candidates(
        &self,
        candidates: &[PathBuf],
        variant: u8,
        first_action: &str,
    ) -> Option<TrainerState> {
        let mut rejected = 0;
        for path in candidates {
            if !path.exists() {
                continue;
            }
            let state =
                rgae_ckpt::read_checkpoint(path).and_then(|payload| TrainerState::decode(&payload));
            match state {
                Ok(st) if st.variant == variant => {
                    let action = if rejected == 0 {
                        first_action
                    } else {
                        "fallback"
                    };
                    self.emit(action, path, st.phase.name(), st.phase.next_epoch());
                    return Some(st);
                }
                Ok(_) | Err(_) => {
                    self.emit("corrupt", path, "unknown", None);
                    rejected += 1;
                }
            }
        }
        None
    }

    /// Fault injection: flip one byte of the latest on-disk generation, at
    /// an offset derived deterministically from `salt` via [`Rng64`].
    /// Returns whether a file was actually damaged (there may be none yet).
    pub fn corrupt_latest(&self, salt: u64) -> Result<bool> {
        let path = self.store.latest_path();
        if !path.exists() {
            return Ok(false);
        }
        let io = |e: std::io::Error| Error::Checkpoint(format!("corrupt fault: {e}"));
        let mut bytes = std::fs::read(&path).map_err(io)?;
        if bytes.is_empty() {
            return Ok(false);
        }
        let mut rng = Rng64::seed_from_u64(salt ^ 0xFA_17_FA_17);
        let offset = rng.index(bytes.len());
        bytes[offset] ^= 0xFF;
        // Deliberately a plain in-place write: this simulates bit rot on a
        // fully-written file, not a torn write.
        std::fs::write(&path, &bytes).map_err(io)?;
        Ok(true)
    }
}
