//! The three workloads and one pass over a workload: build its inputs from
//! the seed, then run its training jobs back to back through the public
//! trainer API, timing every call from the outside.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rgae_ckpt::CheckpointStore;
use rgae_core::{train_plain_ckpt, CheckpointOpts, GuardConfig, Metrics, RConfig, RTrainer};
use rgae_graph::AttributedGraph;
use rgae_linalg::Rng64;
use rgae_models::{GaeModel, TrainData};
use rgae_obs::{Recorder, NOOP};
use rgae_xp::{rconfig_for, DatasetKind, ModelKind};

use crate::trace::{merge, take_kernels, KernelTable, TraceRecorder};

/// Checkpoint period in epochs, as `run_all.sh` passes it.
pub const CKPT_EVERY: usize = 25;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1–2 protocol on cora-like at the harness default scale.
    CoraSweep,
    /// R-GMM-VGAE on a full-scale pubmed-like graph.
    PubmedLarge,
    /// Table 3–4 protocol on the three air presets.
    AirSmall,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::CoraSweep,
        Workload::PubmedLarge,
        Workload::AirSmall,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoraSweep => "cora-sweep",
            Workload::PubmedLarge => "pubmed-large",
            Workload::AirSmall => "air-small",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct instances a run cycles through, pass after pass. Each draws
    /// its own graph and initialisation, so the run's medians rest on
    /// several draws rather than on one draw's convergence epoch.
    pub const INSTANCES: u64 = 4;

    /// The training jobs of one instance, in run order.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let jobs: Vec<Job> = match self {
            // One model of each group: GAE runs k-means in every clustering
            // epoch, GMM-VGAE clusters jointly.
            Workload::CoraSweep => [ModelKind::Gae, ModelKind::GmmVgae]
                .into_iter()
                .map(|model| Job::pair(model, DatasetKind::CoraLike, 0.35))
                .collect(),
            // The R run alone, its clustering phase run to the full budget:
            // the same work on every seed, so train_s follows the per-epoch
            // (decoder) cost this workload exists to measure.
            Workload::PubmedLarge => vec![Job {
                pair: false,
                to_budget: true,
                ..Job::pair(ModelKind::GmmVgae, DatasetKind::PubmedLike, 1.0)
            }],
            Workload::AirSmall => DatasetKind::air()
                .into_iter()
                .flat_map(|dataset| {
                    [ModelKind::Dgae, ModelKind::GmmVgae]
                        .into_iter()
                        .map(move |model| Job::pair(model, dataset, 1.0))
                })
                .collect(),
        };
        jobs.into_iter().map(|j| Job { seed, ..j }).collect()
    }
}

/// Seed of instance `i` of a run: the workload seed itself for the first,
/// well-separated derivations of it for the rest.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One model on one dataset preset.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Model.
    pub model: ModelKind,
    /// Dataset preset.
    pub dataset: DatasetKind,
    /// Node-count scale of the preset.
    pub scale: f64,
    /// Run the plain/R pair from one initialisation (`run_pair`); else the
    /// R run alone.
    pub pair: bool,
    /// Run the clustering phase to `max_epochs` (no convergence stop).
    pub to_budget: bool,
    /// Seed of the graph, the initialisation and the training RNG streams.
    pub seed: u64,
}

impl Job {
    fn pair(model: ModelKind, dataset: DatasetKind, scale: f64) -> Job {
        Job {
            model,
            dataset,
            scale,
            pair: true,
            to_budget: false,
            seed: 0,
        }
    }
}

/// Rows per tile of the fused decoder, pinned so `RGAE_DECODER_TILE` cannot
/// change it.
pub const DECODER_TILE: usize = rgae_linalg::DEFAULT_DECODER_TILE;

/// The trainer configuration of a job: the harness's Appendix-C settings
/// under its `--quick` epoch budget (60 pretraining, at most 60 clustering
/// epochs; the full budget leaves too few passes per run to take medians
/// over), plus the production flags (`--guard`) and the pinned pool.
pub fn config(job: &Job, threads: usize) -> RConfig {
    let mut cfg = rconfig_for(job.model, job.dataset, true);
    if job.to_budget {
        cfg.min_epochs = cfg.max_epochs;
    }
    cfg.guard = Some(GuardConfig::default());
    cfg.threads = Some(threads);
    cfg.decoder_tile = Some(DECODER_TILE);
    cfg
}

/// What one training run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// `dataset/model/variant`.
    pub label: String,
    /// Nodes N of the graph.
    pub nodes: usize,
    /// Classes K of the graph.
    pub classes: usize,
    /// Final metrics (default when the run errored).
    pub metrics: Metrics,
    /// Clustering-phase losses, one per epoch.
    pub losses: Vec<f64>,
    /// Pretraining epochs run.
    pub pretrain_epochs: usize,
    /// The run finished `degraded`.
    pub degraded: bool,
    /// Final |Ω| / N (R runs only).
    pub omega_coverage: Option<f64>,
    /// `rgae-par` kernel calls and seconds charged to the run.
    pub kernels: KernelTable,
    /// Wall seconds of the run's training calls.
    pub train_s: f64,
    /// Error text when a training call failed.
    pub error: Option<String>,
    /// Guard trips seen (traced passes only).
    pub guard_trips: u64,
    /// Latent width d of the model (traced passes only; 0 otherwise).
    pub latent: usize,
}

impl RunResult {
    /// Optimisation steps: pretraining plus clustering epochs.
    pub fn steps(&self) -> usize {
        self.pretrain_epochs + self.losses.len()
    }

    /// Why the run fails the correctness gate, if it does.
    pub fn failure(&self) -> Option<String> {
        let m = &self.metrics;
        if let Some(e) = &self.error {
            Some(format!("error: {e}"))
        } else if self.losses.iter().any(|l| !l.is_finite()) {
            Some("non-finite loss".into())
        } else if ![m.acc, m.nmi, m.ari].iter().all(|x| x.is_finite()) {
            Some("non-finite final metric".into())
        } else if self.degraded {
            Some("finished degraded".into())
        } else if self.guard_trips > 0 {
            Some(format!("{} guard trip(s)", self.guard_trips))
        } else if m.acc < 1.0 / self.classes as f64 {
            Some(format!(
                "ACC {:.4} below the 1/K chance level {:.4}",
                m.acc,
                1.0 / self.classes as f64
            ))
        } else {
            None
        }
    }

    /// Everything that must repeat bit for bit between two passes of the
    /// same code on the same seed: final metrics, per-epoch losses, epoch
    /// counts, and every kernel's call count.
    pub fn signature(&self) -> Vec<u64> {
        let m = &self.metrics;
        let mut sig = vec![
            m.acc.to_bits(),
            m.nmi.to_bits(),
            m.ari.to_bits(),
            self.pretrain_epochs as u64,
            self.losses.len() as u64,
        ];
        sig.extend(self.losses.iter().map(|l| l.to_bits()));
        for (name, k) in &self.kernels {
            sig.extend(name.bytes().map(u64::from));
            sig.push(k.calls);
        }
        sig
    }
}

/// Seconds spent in a checkpoint-store call on a run's real payload.
#[derive(Clone, Copy, Debug)]
pub struct CkptTiming {
    /// `CheckpointStore::save` milliseconds.
    pub save_ms: f64,
    /// `CheckpointStore::load_best` milliseconds.
    pub load_ms: f64,
}

/// One pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Which of the run's instances this pass ran.
    pub instance: u64,
    /// Everything before the first training step.
    pub setup_s: f64,
    /// Preset generation, part of `setup_s`.
    pub generate_s: f64,
    /// `TrainData::from_graph` and model construction, part of `setup_s`.
    pub prep_s: f64,
    /// Wall seconds of the training calls.
    pub train_s: f64,
    /// The training runs, in order.
    pub runs: Vec<RunResult>,
    /// Checkpoint save/load timings (traced passes only).
    pub ckpt: Vec<CkptTiming>,
}

impl Pass {
    /// Optimisation steps of every run.
    pub fn steps(&self) -> usize {
        self.runs.iter().map(RunResult::steps).sum()
    }
}

/// A job with its inputs built.
struct Prepared {
    job: Job,
    graph: usize,
    data: TrainData,
    /// The plain and R twins, identical at construction.
    models: (Box<dyn GaeModel>, Box<dyn GaeModel>),
    dir: PathBuf,
}

/// The inputs of one pass, built from the seed.
pub struct Setup {
    graphs: Vec<((DatasetKind, u64), AttributedGraph)>,
    jobs: Vec<Prepared>,
    /// Wall seconds of the whole set-up.
    pub setup_s: f64,
    /// Preset generation seconds.
    pub generate_s: f64,
    /// `TrainData::from_graph` and model construction seconds.
    pub prep_s: f64,
}

/// Build a pass's inputs: generate each preset once, then per job the
/// training data, the twin models, and fresh checkpoint directories under
/// `dir`.
pub fn setup(jobs: Vec<Job>, dir: &Path) -> std::io::Result<Setup> {
    let start = Instant::now();
    let mut graphs: Vec<((DatasetKind, u64), AttributedGraph)> = Vec::new();
    let mut prepared = Vec::new();
    let (mut generate_s, mut prep_s) = (0.0, 0.0);
    for (i, job) in jobs.into_iter().enumerate() {
        let key = (job.dataset, job.seed);
        let graph = match graphs.iter().position(|(k, _)| *k == key) {
            Some(g) => g,
            None => {
                let t = Instant::now();
                graphs.push((key, job.dataset.build(job.scale, job.seed)));
                generate_s += t.elapsed().as_secs_f64();
                graphs.len() - 1
            }
        };
        let g = &graphs[graph].1;
        let t = Instant::now();
        let data = TrainData::from_graph(g);
        let mut rng = Rng64::seed_from_u64(job.seed);
        let models = job
            .model
            .build_pair(data.num_features(), g.num_classes(), &mut rng);
        prep_s += t.elapsed().as_secs_f64();
        let run_dir = dir.join(format!("{i}-{}-{}", job.dataset.name(), job.model.name()));
        std::fs::create_dir_all(run_dir.join("plain"))?;
        std::fs::create_dir_all(run_dir.join("r"))?;
        prepared.push(Prepared {
            job,
            graph,
            data,
            models,
            dir: run_dir,
        });
    }
    Ok(Setup {
        graphs,
        jobs: prepared,
        setup_s: start.elapsed().as_secs_f64(),
        generate_s,
        prep_s,
    })
}

/// Run every job of a set-up: for a pair, the plain run and then the R run
/// from the same initialisation and RNG stream (`rgae_xp::run_pair`'s
/// protocol, with each trainer call timed on its own). `trace` selects the
/// traced pass.
pub fn train(setup: Setup, threads: usize, trace: Option<&TraceRecorder>) -> Pass {
    let rec: &dyn Recorder = match trace {
        Some(t) => t,
        None => &NOOP,
    };
    let mut pass = Pass {
        setup_s: setup.setup_s,
        generate_s: setup.generate_s,
        prep_s: setup.prep_s,
        ..Pass::default()
    };
    // Kernel calls made during set-up are not training work.
    let _ = take_kernels();
    for p in setup.jobs {
        let graph = &setup.graphs[p.graph].1;
        let cfg = config(&p.job, threads);
        let (mut plain, mut r) = p.models;
        let blank = |variant: &str| RunResult {
            label: format!(
                "{}/{}/{variant}/seed-{}",
                p.job.dataset.name(),
                p.job.model.name(),
                p.job.seed
            ),
            nodes: graph.num_nodes(),
            classes: graph.num_classes(),
            metrics: Metrics::default(),
            losses: Vec::new(),
            pretrain_epochs: cfg.pretrain_epochs,
            degraded: false,
            omega_coverage: None,
            kernels: KernelTable::new(),
            train_s: 0.0,
            error: None,
            guard_trips: 0,
            latent: 0,
        };
        if p.job.pair {
            let mut run = blank("plain");
            let dir = p.dir.join("plain");
            let ckpt = CheckpointOpts::new(&dir).every(CKPT_EVERY);
            let trips = trace.map_or(0, TraceRecorder::guard_trips);
            let mut rng = Rng64::seed_from_u64(p.job.seed ^ 0x5151);
            let t = Instant::now();
            let out = train_plain_ckpt(plain.as_mut(), graph, &cfg, &mut rng, rec, Some(&ckpt));
            run.train_s = t.elapsed().as_secs_f64();
            match out {
                Ok(rep) => {
                    run.metrics = rep.final_metrics;
                    run.losses = rep.epochs.iter().map(|e| e.loss).collect();
                    run.degraded = rep.degraded;
                }
                Err(e) => run.error = Some(e.to_string()),
            }
            finish_run(run, trace, trips, &p.data, plain.as_ref(), &dir, &mut pass);
        }
        let mut run = blank("r");
        let dir = p.dir.join("r");
        let trainer = RTrainer::with_recorder(cfg.clone(), rec)
            .with_checkpoints(CheckpointOpts::new(&dir).every(CKPT_EVERY));
        let trips = trace.map_or(0, TraceRecorder::guard_trips);
        let mut rng = Rng64::seed_from_u64(p.job.seed ^ 0x5151);
        let t = Instant::now();
        let pretrained = trainer.pretrain(r.as_mut(), &p.data, &mut rng);
        run.train_s = t.elapsed().as_secs_f64();
        // The traced clustering phase re-scopes the kernel registry to
        // itself; collect the pretraining kernels first.
        run.kernels = take_kernels();
        let t = Instant::now();
        let out = pretrained
            .and_then(|()| trainer.train_clustering_phase(r.as_mut(), graph, &p.data, &mut rng));
        run.train_s += t.elapsed().as_secs_f64();
        match out {
            Ok(rep) => {
                run.metrics = rep.final_metrics;
                run.losses = rep.epochs.iter().map(|e| e.loss).collect();
                run.degraded = rep.degraded;
                run.omega_coverage = rep
                    .epochs
                    .last()
                    .map(|e| e.omega_size as f64 / run.nodes as f64);
            }
            Err(e) => run.error = Some(e.to_string()),
        }
        finish_run(run, trace, trips, &p.data, r.as_ref(), &dir, &mut pass);
    }
    pass.train_s = pass.runs.iter().map(|r| r.train_s).sum();
    pass
}

/// Collect a finished run's kernel table and, on the traced pass, its guard
/// trips, latent width and checkpoint-store timings.
fn finish_run(
    mut run: RunResult,
    trace: Option<&TraceRecorder>,
    trips_before: u64,
    data: &TrainData,
    model: &dyn GaeModel,
    dir: &Path,
    pass: &mut Pass,
) {
    merge(&mut run.kernels, &take_kernels());
    if let Some(t) = trace {
        merge(&mut run.kernels, &t.take_flushed());
        run.guard_trips = t.guard_trips() - trips_before;
        run.latent = model.embed(data).cols();
        let _ = take_kernels(); // the embed above is not training work
        match time_checkpoint(dir) {
            Ok(timing) => pass.ckpt.push(timing),
            Err(e) if run.error.is_none() => run.error = Some(e),
            Err(_) => {}
        }
    }
    pass.runs.push(run);
}

/// Time `CheckpointStore::save` and `load_best` on the run's final
/// checkpoint payload, in a store of their own, and check the round trip.
fn time_checkpoint(run_dir: &Path) -> Result<CkptTiming, String> {
    let err = |e: rgae_ckpt::Error| format!("checkpoint store: {e}");
    let latest = CheckpointStore::open(run_dir).map_err(err)?.latest_path();
    let payload = rgae_ckpt::read_checkpoint(&latest).map_err(err)?;
    let store = CheckpointStore::open(&run_dir.join("timed")).map_err(err)?;
    let t = Instant::now();
    store.save(&payload).map_err(err)?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let loaded = store.load_best().map_err(err)?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    if loaded.map(|(bytes, _, _)| bytes) != Some(payload) {
        return Err("checkpoint round trip changed the payload".into());
    }
    Ok(CkptTiming { save_ms, load_ms })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of a tiny pair in its own directory inside the package.
    fn tiny_pass(name: &str, trace: Option<&TraceRecorder>) -> Pass {
        let job = Job {
            seed: 7,
            ..Job::pair(ModelKind::Dgae, DatasetKind::BrazilAir, 0.3)
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("test-{name}-{}", std::process::id()));
        let pass = train(setup(vec![job], &dir).unwrap(), 1, trace);
        std::fs::remove_dir_all(&dir).unwrap();
        pass
    }

    fn signatures(p: &Pass) -> Vec<Vec<u64>> {
        p.runs.iter().map(RunResult::signature).collect()
    }

    // One test: the kernel registry is process-wide, so passes must not
    // run on parallel test threads.
    #[test]
    fn passes_repeat_exactly_and_tracing_changes_nothing() {
        let a = tiny_pass("a", None);
        let b = tiny_pass("b", None);
        assert_eq!(a.runs.len(), 2);
        for r in &a.runs {
            assert_eq!(r.failure(), None, "{}", r.label);
            assert!(r.kernels.contains_key("fused_gram_bce_fwd_bwd"));
        }
        assert_eq!(signatures(&a), signatures(&b));
        assert_eq!(a.steps(), b.steps());

        let (r1, r2) = (TraceRecorder::new(), TraceRecorder::new());
        let t1 = tiny_pass("t1", Some(&r1));
        let t2 = tiny_pass("t2", Some(&r2));
        assert_eq!(signatures(&t1), signatures(&a));
        assert_eq!(r1.work_counts(), r2.work_counts());
        let (saves, bytes) = r1.ckpt_saves();
        assert!(saves > 0 && bytes > 0);
        assert!(r1.span("upsilon").calls > 0 && r1.span("step").calls > 0);
        assert_eq!(t1.ckpt.len(), 2);
        assert_eq!(t2.ckpt.len(), 2);
        assert!(t1.runs.iter().all(|r| r.latent > 0 && r.guard_trips == 0));
    }
}
