//! Shared harness utilities for the experiment binaries (`src/bin/*`):
//! CLI options, the model/dataset registries, per-model hyper-parameters
//! (Appendix C), trial runners, and table formatting.

use std::path::PathBuf;

use rgae_core::{Arm, CheckpointOpts, GuardConfig, Metrics, RConfig, RReport, RTrainer, XiConfig};
use rgae_graph::AttributedGraph;
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, GaeModel, TrainData};
use rgae_obs::{timestamp_ms, Event, JsonlSink, NoopRecorder, Recorder, RunManifest};
use rgae_viz::CsvWriter;

/// Options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Shrink datasets and epoch counts for a fast smoke run.
    pub quick: bool,
    /// Node-count scale applied to every dataset preset.
    pub scale: f64,
    /// Base seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Number of trials for mean/std tables.
    pub trials: usize,
    /// Output directory for CSV artefacts.
    pub out_dir: PathBuf,
    /// Restrict multi-dataset binaries to one dataset (preset name).
    pub only_dataset: Option<String>,
    /// JSONL run-log path (`--trace-out`); `None` disables tracing.
    pub trace_out: Option<PathBuf>,
    /// Root directory for crash-safe checkpoints (`--checkpoint-dir`); each
    /// run gets its own sub-directory. `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint save period in epochs (`--checkpoint-every`).
    pub checkpoint_every: usize,
    /// Resume runs from their newest readable checkpoint (`--resume`).
    pub resume: bool,
    /// Enable the numerical-health guard layer (`--guard`). Also switched
    /// on automatically when `RGAE_FAULT` schedules fault injections.
    pub guard: bool,
    /// Guard recovery budget: rollback+retry attempts per training phase
    /// (`--max-retries N`).
    pub max_retries: usize,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            quick: false,
            scale: 0.35,
            seed: 42,
            trials: 3,
            out_dir: PathBuf::from("results"),
            only_dataset: None,
            trace_out: None,
            checkpoint_dir: None,
            checkpoint_every: 25,
            resume: false,
            guard: false,
            max_retries: 2,
        }
    }
}

impl HarnessOpts {
    /// Parse `--quick`, `--scale S`, `--seed N`, `--trials N`, `--out DIR`,
    /// `--dataset NAME`, `--trace-out PATH`, `--checkpoint-dir DIR`,
    /// `--checkpoint-every N`, `--resume`, `--guard`, `--max-retries N`
    /// from the process arguments. A non-empty `RGAE_FAULT` environment
    /// variable implies `--guard` (injected faults need the recovery layer).
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let value = |args: &[String], i: usize, flag: &str| -> String {
            args.get(i)
                .unwrap_or_else(|| panic!("`{flag}` requires a value"))
                .clone()
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--full" => opts.scale = 1.0,
                "--scale" => {
                    i += 1;
                    opts.scale = value(&args, i, "--scale")
                        .parse()
                        .expect("--scale takes a float");
                }
                "--seed" => {
                    i += 1;
                    opts.seed = value(&args, i, "--seed")
                        .parse()
                        .expect("--seed takes an integer");
                }
                "--trials" => {
                    i += 1;
                    opts.trials = value(&args, i, "--trials")
                        .parse()
                        .expect("--trials takes an integer");
                }
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(value(&args, i, "--out"));
                }
                "--dataset" => {
                    i += 1;
                    opts.only_dataset = Some(value(&args, i, "--dataset"));
                }
                "--trace-out" => {
                    i += 1;
                    opts.trace_out = Some(PathBuf::from(value(&args, i, "--trace-out")));
                }
                "--checkpoint-dir" => {
                    i += 1;
                    opts.checkpoint_dir = Some(PathBuf::from(value(&args, i, "--checkpoint-dir")));
                }
                "--checkpoint-every" => {
                    i += 1;
                    opts.checkpoint_every = value(&args, i, "--checkpoint-every")
                        .parse()
                        .expect("--checkpoint-every takes an integer");
                }
                "--resume" => opts.resume = true,
                "--guard" => opts.guard = true,
                "--max-retries" => {
                    i += 1;
                    opts.max_retries = value(&args, i, "--max-retries")
                        .parse()
                        .expect("--max-retries takes an integer");
                }
                other => panic!(
                    "unknown option `{other}` (known: --quick --full --scale --seed --trials --out --dataset --trace-out --checkpoint-dir --checkpoint-every --resume --guard --max-retries)"
                ),
            }
            i += 1;
        }
        if std::env::var("RGAE_FAULT").is_ok_and(|v| !v.trim().is_empty()) {
            opts.guard = true;
        }
        if opts.quick {
            opts.scale = opts.scale.min(0.2);
            opts.trials = opts.trials.min(2);
        }
        opts
    }

    /// The guard configuration selected by `--guard` / `--max-retries`,
    /// with the `RGAE_FAULT` injection schedule folded in. `None` when the
    /// guard layer is off.
    pub fn guard_config(&self) -> Option<GuardConfig> {
        if !self.guard {
            return None;
        }
        let mut g = GuardConfig::from_env();
        g.max_retries = self.max_retries;
        Some(g)
    }

    /// Effective dataset scale.
    pub fn dataset_scale(&self) -> f64 {
        self.scale
    }

    /// Whether this dataset should run under the `--dataset` filter.
    pub fn wants(&self, dataset: DatasetKind) -> bool {
        self.only_dataset
            .as_deref()
            .is_none_or(|d| d == dataset.name())
    }

    /// Checkpoint options for one run, when `--checkpoint-dir` was given:
    /// its own sub-directory keyed by the run identity, with the harness's
    /// save period and resume flag applied.
    pub fn ckpt_for(
        &self,
        binary: &str,
        dataset: &str,
        model: &str,
        variant: &str,
        seed: u64,
    ) -> Option<CheckpointOpts> {
        let root = self.checkpoint_dir.as_ref()?;
        let dir = root.join(format!("{binary}-{dataset}-{model}-{variant}-{seed}"));
        Some(
            CheckpointOpts::new(dir)
                .every(self.checkpoint_every)
                .resume(self.resume),
        )
    }

    /// The run-log recorder selected by `--trace-out`: a [`JsonlSink`] when
    /// a path was given, the no-op recorder otherwise. Call once per binary
    /// and pass `&*recorder` down to the runs.
    pub fn recorder(&self) -> Box<dyn Recorder> {
        match &self.trace_out {
            Some(path) => Box::new(
                JsonlSink::create(path)
                    .unwrap_or_else(|e| panic!("cannot create trace log {path:?}: {e}")),
            ),
            None => Box::new(NoopRecorder),
        }
    }
}

/// The executable's name (for run manifests), from `argv[0]`.
pub fn bin_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .and_then(|p| {
            std::path::Path::new(p)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Emit the [`RunManifest`] that opens one training run in the run log.
/// No-op when tracing is off; the closing summary comes from the trainer.
#[allow(clippy::too_many_arguments)]
pub fn emit_run_start(
    rec: &dyn Recorder,
    binary: &str,
    model: &str,
    dataset: &str,
    variant: &str,
    seed: u64,
    cfg: &RConfig,
) {
    if !rec.enabled() {
        return;
    }
    rec.record(&Event::RunStart(RunManifest {
        run_id: format!(
            "{binary}-{dataset}-{model}-{variant}-{seed}-{}",
            timestamp_ms()
        ),
        binary: binary.to_owned(),
        dataset: dataset.to_owned(),
        model: model.to_owned(),
        variant: variant.to_owned(),
        seed,
        workspace_version: env!("CARGO_PKG_VERSION").to_owned(),
        config: cfg.to_json(),
    }));
}

/// The six models of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Graph auto-encoder (first group).
    Gae,
    /// Variational GAE (first group).
    Vgae,
    /// Adversarially regularised GAE (first group).
    Argae,
    /// Adversarially regularised VGAE (first group).
    Arvgae,
    /// Discriminative GAE (second group, Appendix B).
    Dgae,
    /// GMM-VGAE (second group).
    GmmVgae,
}

impl ModelKind {
    /// All six models, first group first (Table 1 ordering).
    pub fn all() -> [ModelKind; 6] {
        [
            ModelKind::Gae,
            ModelKind::Vgae,
            ModelKind::Argae,
            ModelKind::Arvgae,
            ModelKind::Dgae,
            ModelKind::GmmVgae,
        ]
    }

    /// The joint-clustering (second-group) models.
    pub fn second_group() -> [ModelKind; 2] {
        [ModelKind::GmmVgae, ModelKind::Dgae]
    }

    /// Paper name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Gae => "GAE",
            ModelKind::Vgae => "VGAE",
            ModelKind::Argae => "ARGAE",
            ModelKind::Arvgae => "ARVGAE",
            ModelKind::Dgae => "DGAE",
            ModelKind::GmmVgae => "GMM-VGAE",
        }
    }

    /// Whether this model performs joint clustering.
    pub fn is_second_group(&self) -> bool {
        matches!(self, ModelKind::Dgae | ModelKind::GmmVgae)
    }

    /// Instantiate the model for a dataset.
    pub fn build(&self, num_features: usize, k: usize, rng: &mut Rng64) -> Box<dyn GaeModel> {
        match self {
            ModelKind::Gae => Box::new(ComposedModel::gae(num_features, rng)),
            ModelKind::Vgae => Box::new(ComposedModel::vgae(num_features, rng)),
            ModelKind::Argae => Box::new(ComposedModel::argae(num_features, rng)),
            ModelKind::Arvgae => Box::new(ComposedModel::arvgae(num_features, rng)),
            ModelKind::Dgae => Box::new(ComposedModel::dgae(num_features, k, rng)),
            ModelKind::GmmVgae => Box::new(ComposedModel::gmm_vgae(num_features, k, rng)),
        }
    }

    /// Instantiate plus an already-cloned twin for shared-pretraining pairs.
    pub fn build_pair(
        &self,
        num_features: usize,
        k: usize,
        rng: &mut Rng64,
    ) -> (Box<dyn GaeModel>, Box<dyn GaeModel>) {
        let m = self.build(num_features, k, rng);
        (m.clone(), m)
    }
}

/// The six benchmark presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// Cora-like citation network.
    CoraLike,
    /// Citeseer-like citation network.
    CiteseerLike,
    /// Pubmed-like citation network.
    PubmedLike,
    /// USA air-traffic-like network.
    UsaAir,
    /// Europe air-traffic-like network.
    EuropeAir,
    /// Brazil air-traffic-like network.
    BrazilAir,
}

impl DatasetKind {
    /// The three citation-like datasets (Tables 1–2).
    pub fn citation() -> [DatasetKind; 3] {
        [
            DatasetKind::CoraLike,
            DatasetKind::CiteseerLike,
            DatasetKind::PubmedLike,
        ]
    }

    /// The three air-traffic-like datasets (Tables 3–4).
    pub fn air() -> [DatasetKind; 3] {
        [
            DatasetKind::UsaAir,
            DatasetKind::EuropeAir,
            DatasetKind::BrazilAir,
        ]
    }

    /// Preset name (matches `RConfig::for_dataset`).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::CoraLike => "cora-like",
            DatasetKind::CiteseerLike => "citeseer-like",
            DatasetKind::PubmedLike => "pubmed-like",
            DatasetKind::UsaAir => "usa-air-like",
            DatasetKind::EuropeAir => "europe-air-like",
            DatasetKind::BrazilAir => "brazil-air-like",
        }
    }

    /// Generate the dataset at a scale and seed.
    pub fn build(&self, scale: f64, seed: u64) -> AttributedGraph {
        use rgae_datasets::presets::*;
        let built = match self {
            DatasetKind::CoraLike => cora_like(scale, seed),
            DatasetKind::CiteseerLike => citeseer_like(scale, seed),
            DatasetKind::PubmedLike => pubmed_like(scale, seed),
            DatasetKind::UsaAir => usa_air_like(scale, seed),
            DatasetKind::EuropeAir => europe_air_like(scale, seed),
            DatasetKind::BrazilAir => brazil_air_like(scale, seed),
        };
        built.expect("preset parameters are valid by construction")
    }
}

/// Appendix-C hyper-parameters: per-(model, dataset) Ξ/Υ schedule overrides
/// on top of `RConfig::for_dataset`, plus each model's γ.
pub fn rconfig_for(model: ModelKind, dataset: DatasetKind, quick: bool) -> RConfig {
    let mut cfg = RConfig::for_dataset(dataset.name());
    // Per-model Appendix-C overrides that differ from the dataset default.
    match (model, dataset) {
        (ModelKind::Argae | ModelKind::Arvgae, DatasetKind::CoraLike) => {
            cfg.m1 = 50;
            cfg.m2 = 1;
        }
        (ModelKind::Argae | ModelKind::Arvgae, DatasetKind::CiteseerLike) => {
            cfg.xi = XiConfig::new(0.1);
        }
        (ModelKind::Dgae, DatasetKind::CoraLike) => {
            cfg.m1 = 20;
            cfg.m2 = 15;
        }
        (ModelKind::Dgae, DatasetKind::PubmedLike) => {
            cfg.xi = XiConfig::new(0.3);
        }
        (ModelKind::Dgae, DatasetKind::EuropeAir) => {
            cfg.xi = XiConfig::new(0.08);
            cfg.m1 = 20;
            cfg.m2 = 15;
        }
        (ModelKind::Dgae, DatasetKind::UsaAir) => {
            cfg.xi = XiConfig::new(0.1);
        }
        _ => {}
    }
    // γ: reconstruction weight relative to the clustering loss.
    cfg.gamma = match model {
        ModelKind::Dgae => 0.001,
        _ => 1.0,
    };
    if quick {
        cfg = cfg.quick();
    } else {
        cfg.pretrain_epochs = 150;
        cfg.max_epochs = 150;
    }
    cfg.eval_every = 5;
    cfg
}

/// [`rconfig_for`] plus the harness-level overrides carried by
/// [`HarnessOpts`] — currently the numerical-health guard layer.
pub fn rconfig_for_opts(model: ModelKind, dataset: DatasetKind, opts: &HarnessOpts) -> RConfig {
    let mut cfg = rconfig_for(model, dataset, opts.quick);
    cfg.guard = opts.guard_config();
    cfg
}

/// One full R run of `model` on `graph`, pretraining included, with the
/// model and its RNG seeded by `--seed` (Figs. 4 and 9). It is logged as run
/// `r` and, with `--checkpoint-dir`, checkpointed under the `r` key.
pub fn run_r(
    opts: &HarnessOpts,
    rec: &dyn Recorder,
    model: ModelKind,
    dataset: DatasetKind,
    graph: &AttributedGraph,
    cfg: RConfig,
) -> RReport {
    let binary = bin_name();
    let data = TrainData::from_graph(graph);
    let mut rng = Rng64::seed_from_u64(opts.seed);
    let mut m = model.build(data.num_features(), graph.num_classes(), &mut rng);
    emit_run_start(
        rec,
        &binary,
        model.name(),
        dataset.name(),
        "r",
        opts.seed,
        &cfg,
    );
    let mut trainer = RTrainer::with_recorder(cfg, rec);
    if let Some(ckpt) = opts.ckpt_for(&binary, dataset.name(), model.name(), "r", opts.seed) {
        trainer = trainer.with_checkpoints(ckpt);
    }
    trainer.train(m.as_mut(), graph, &mut rng).unwrap()
}

/// One arm of a shared-pretrain sweep (see [`sweep_variants`]).
pub struct SweepVariant {
    /// Which model the arm trains.
    pub arm: Arm,
    /// Run label; see [`SweepVariant::run_name`].
    pub label: String,
    /// The arm's full configuration.
    pub cfg: RConfig,
}

impl SweepVariant {
    /// An R-𝒟 arm.
    pub fn r(label: impl Into<String>, cfg: RConfig) -> Self {
        SweepVariant {
            arm: Arm::R,
            label: label.into(),
            cfg,
        }
    }

    /// A plain 𝒟 arm.
    pub fn plain(label: impl Into<String>, cfg: RConfig) -> Self {
        SweepVariant {
            arm: Arm::Plain,
            label: label.into(),
            cfg,
        }
    }

    /// The Tables 1–5 pair: a plain 𝒟 arm, then an R-𝒟 arm, both on `cfg`.
    pub fn plain_and_r(label: &str, cfg: &RConfig) -> Vec<Self> {
        vec![
            SweepVariant::plain(label, cfg.clone()),
            SweepVariant::r(label, cfg.clone()),
        ]
    }

    /// The run-log variant and checkpoint key: `<arm>-<label>`, or the bare
    /// arm name (`plain` / `r`) when the label is empty.
    pub fn run_name(&self) -> String {
        if self.label.is_empty() {
            self.arm.name().to_owned()
        } else {
            format!("{}-{}", self.arm.name(), self.label)
        }
    }
}

/// The plain-vs-R protocol of every table and figure that compares arms
/// (Tables 1–9 and 17, Figs. 5–8 and 10–13): pretrain `model` once, then run
/// every arm, in the given order, from that one pretrained model.
///
/// RNG protocol: the model is built from `Rng64::seed_from_u64(seed)`, and
/// pretraining plus head initialisation consume a second stream,
/// `Rng64::seed_from_u64(seed ^ 0x5151)`. Every arm then gets a clone of
/// the pretrained model and a clone of that stream as it stands after
/// pretraining, so every arm reports bit-equal `pretrain_metrics`, and a
/// plain or R arm is bit-identical to a solo full run
/// ([`rgae_core::train_plain_ckpt`] or [`RTrainer::train`]) on the same
/// model and stream.
///
/// Each arm runs only the clustering phase, is logged as its own run and,
/// with `--checkpoint-dir`, checkpoints into its own
/// [`SweepVariant::run_name`] directory. The shared pretrain is not a run in
/// the log (its spans come ahead of the arms' `run_start`s) and checkpoints
/// under the `pretrain` key, so a resume re-runs neither it nor a finished
/// arm. When every arm carries the same non-empty label, that key is
/// `pretrain-<label>`: Figs. 7–8 run one sweep per corrupted graph with the
/// same model and seed, and the label keeps their pretrains apart. Returns
/// one report per arm, in arm order.
#[allow(clippy::too_many_arguments)]
pub fn sweep_variants(
    opts: &HarnessOpts,
    rec: &dyn Recorder,
    model: ModelKind,
    dataset: DatasetKind,
    graph: &AttributedGraph,
    base_cfg: &RConfig,
    seed: u64,
    variants: Vec<SweepVariant>,
) -> Vec<RReport> {
    let binary = bin_name();
    let data = TrainData::from_graph(graph);
    let ckpt = |run: &str| opts.ckpt_for(&binary, dataset.name(), model.name(), run, seed);
    let mut pretrained = model.build(
        data.num_features(),
        graph.num_classes(),
        &mut Rng64::seed_from_u64(seed),
    );
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5151);
    let mut trainer = RTrainer::with_recorder(base_cfg.clone(), rec);
    let pretrain_key = match variants.first() {
        Some(v) if !v.label.is_empty() && variants.iter().all(|w| w.label == v.label) => {
            format!("pretrain-{}", v.label)
        }
        _ => "pretrain".to_owned(),
    };
    if let Some(c) = ckpt(&pretrain_key) {
        trainer = trainer.with_checkpoints(c);
    }
    trainer
        .pretrain(pretrained.as_mut(), &data, &mut rng)
        .unwrap();
    variants
        .into_iter()
        .map(|v| {
            let run = v.run_name();
            emit_run_start(
                rec,
                &binary,
                model.name(),
                dataset.name(),
                &run,
                seed,
                &v.cfg,
            );
            let mut trainer = RTrainer::with_recorder(v.cfg, rec).with_arm(v.arm);
            if let Some(c) = ckpt(&run) {
                trainer = trainer.with_checkpoints(c);
            }
            let report = trainer
                .train_clustering_phase(
                    pretrained.clone_box().as_mut(),
                    graph,
                    &data,
                    &mut rng.clone(),
                )
                .unwrap();
            eprintln!(
                "  {run} {} seed {seed}: {}",
                model.name(),
                report.final_metrics
            );
            report
        })
        .collect()
}

/// The cora-like R sweeps (Tables 6–9, Figs. 11–12): for each second-group
/// model, run the R arms `variants(base_cfg)` through [`sweep_variants`] at
/// `--seed`, where `base_cfg` is the model's [`rconfig_for_opts`] and each
/// arm is `(CSV key cells, run label, config)`. Writes `<out>/<csv_name>`
/// with one row `model, <key cells…>, acc, nmi, ari` per arm, `key_headers`
/// naming the key columns. Returns each model's final metrics in arm order.
pub fn cora_r_sweep(
    opts: &HarnessOpts,
    csv_name: &str,
    key_headers: &[&str],
    variants: impl Fn(&RConfig) -> Vec<(Vec<String>, String, RConfig)>,
) -> Vec<(ModelKind, Vec<Metrics>)> {
    let trace = opts.recorder();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.dataset_scale(), opts.seed);
    let header: Vec<&str> = ["model"]
        .into_iter()
        .chain(key_headers.iter().copied())
        .chain(["acc", "nmi", "ari"])
        .collect();
    let mut csv = CsvWriter::create(opts.out_dir.join(csv_name), &header).expect("csv");
    let mut out = Vec::new();
    for model in ModelKind::second_group() {
        let base_cfg = rconfig_for_opts(model, dataset, opts);
        let (keys, arms): (Vec<_>, Vec<_>) = variants(&base_cfg)
            .into_iter()
            .map(|(keys, label, cfg)| (keys, SweepVariant::r(label, cfg)))
            .unzip();
        let reports = sweep_variants(
            opts,
            trace.as_ref(),
            model,
            dataset,
            &graph,
            &base_cfg,
            opts.seed,
            arms,
        );
        let ms: Vec<Metrics> = reports.iter().map(|r| r.final_metrics).collect();
        for (mut row, m) in keys.into_iter().zip(&ms) {
            row.insert(0, model.name().into());
            row.extend([m.acc, m.nmi, m.ari].map(|x| format!("{x:.4}")));
            csv.row_strs(&row).expect("csv row");
        }
        out.push((model, ms));
    }
    csv.finish().expect("csv flush");
    out
}

/// One table row per model of a [`cora_r_sweep`]: `R-<model>`, then
/// `ACC/NMI/ARI` in percent for each arm.
pub fn triple_rows(results: &[(ModelKind, Vec<Metrics>)]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|(model, ms)| {
            let cells = ms
                .iter()
                .map(|m| format!("{}/{}/{}", pct(m.acc), pct(m.nmi), pct(m.ari)));
            [format!("R-{}", model.name())]
                .into_iter()
                .chain(cells)
                .collect()
        })
        .collect()
}

/// Tables 1–4: every model of `models`, plain and R, over `--trials` seeds
/// on each wanted dataset of `datasets` built at `scale`. Writes one CSV row
/// per (dataset, model, arm, trial) to `<out>/<name>.csv` and prints the
/// best-of-trials table (`titles[0]`) and the mean ± std table
/// (`titles[1]`).
pub fn plain_vs_r_tables(
    opts: &HarnessOpts,
    name: &str,
    datasets: [DatasetKind; 3],
    models: &[ModelKind],
    scale: f64,
    titles: [&str; 2],
) {
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let csv_path = opts.out_dir.join(format!("{name}.csv"));
    let mut best_rows: Vec<Vec<String>> = Vec::new();
    let mut mean_rows: Vec<Vec<String>> = Vec::new();
    let mut csv = CsvWriter::create(
        &csv_path,
        &["dataset", "model", "variant", "trial", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for dataset in datasets {
        if !opts.wants(dataset) {
            continue;
        }
        let graph = dataset.build(scale, opts.seed);
        eprintln!(
            "[{name}] {} : N={} E={} J={} K={}",
            dataset.name(),
            graph.num_nodes(),
            graph.num_edges(),
            graph.num_features(),
            graph.num_classes()
        );
        for &model in models {
            let cfg = rconfig_for_opts(model, dataset, opts);
            let mut plain_ms: Vec<Metrics> = Vec::new();
            let mut r_ms: Vec<Metrics> = Vec::new();
            for trial in 0..opts.trials {
                let seed = opts.seed + trial as u64;
                let arms = SweepVariant::plain_and_r("", &cfg);
                let reports = sweep_variants(opts, rec, model, dataset, &graph, &cfg, seed, arms);
                let [plain, r]: [RReport; 2] = reports.try_into().expect("two arms");
                for (variant, m) in [("plain", plain.final_metrics), ("r", r.final_metrics)] {
                    csv.row_strs(&[
                        dataset.name().into(),
                        model.name().into(),
                        variant.into(),
                        trial.to_string(),
                        format!("{:.4}", m.acc),
                        format!("{:.4}", m.nmi),
                        format!("{:.4}", m.ari),
                    ])
                    .expect("csv row");
                }
                plain_ms.push(plain.final_metrics);
                r_ms.push(r.final_metrics);
            }
            for (label, ms) in [
                (model.name().to_string(), &plain_ms),
                (format!("R-{}", model.name()), &r_ms),
            ] {
                let b = best_metrics(ms);
                best_rows.push(vec![
                    dataset.name().into(),
                    label.clone(),
                    pct(b.acc),
                    pct(b.nmi),
                    pct(b.ari),
                ]);
                let (a, n, r) = metric_stats(ms);
                mean_rows.push(vec![
                    dataset.name().into(),
                    label,
                    pct_pm(a),
                    pct_pm(n),
                    pct_pm(r),
                ]);
            }
        }
    }
    csv.finish().expect("csv flush");
    let headers = ["dataset", "method", "ACC", "NMI", "ARI"];
    print_table(titles[0], &headers, &best_rows);
    print_table(titles[1], &headers, &mean_rows);
    println!("\nCSV written to {}", csv_path.display());
}

/// Mean and (population) standard deviation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

/// Compute [`Stats`] of a slice.
pub fn stats(xs: &[f64]) -> Stats {
    if xs.is_empty() {
        return Stats::default();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Stats {
        mean,
        std: var.sqrt(),
    }
}

/// Aggregate per-trial metrics.
pub fn metric_stats(ms: &[Metrics]) -> (Stats, Stats, Stats) {
    let acc: Vec<f64> = ms.iter().map(|m| m.acc).collect();
    let nmi: Vec<f64> = ms.iter().map(|m| m.nmi).collect();
    let ari: Vec<f64> = ms.iter().map(|m| m.ari).collect();
    (stats(&acc), stats(&nmi), stats(&ari))
}

/// Best trial (by ACC).
pub fn best_metrics(ms: &[Metrics]) -> Metrics {
    ms.iter()
        .copied()
        .max_by(|a, b| a.acc.partial_cmp(&b.acc).expect("finite"))
        .unwrap_or_default()
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::from("| ");
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:<w$} | ", w = w));
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Format a percentage with one decimal (the paper's table style).
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Format `mean ± std` in percent.
pub fn pct_pm(s: Stats) -> String {
    format!("{:.1} ± {:.1}", s.mean * 100.0, s.std * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgae_obs::MemorySink;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let empty = stats(&[]);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn registries_cover_everything() {
        assert_eq!(ModelKind::all().len(), 6);
        assert_eq!(DatasetKind::citation().len(), 3);
        assert_eq!(DatasetKind::air().len(), 3);
        for m in ModelKind::all() {
            assert!(!m.name().is_empty());
        }
    }

    #[test]
    fn build_pair_produces_identical_twins() {
        let mut rng = Rng64::seed_from_u64(1);
        let g = DatasetKind::BrazilAir.build(0.5, 3);
        let data = TrainData::from_graph(&g);
        let (a, b) = ModelKind::Dgae.build_pair(data.num_features(), g.num_classes(), &mut rng);
        let za = a.embed(&data);
        let zb = b.embed(&data);
        assert!(za.max_abs_diff(&zb) < 1e-12);
    }

    #[test]
    fn rconfig_overrides_apply() {
        let cfg = rconfig_for(ModelKind::Dgae, DatasetKind::CoraLike, false);
        assert_eq!(cfg.m2, 15);
        assert!((cfg.gamma - 0.001).abs() < 1e-12);
        let cfg = rconfig_for(ModelKind::Gae, DatasetKind::CoraLike, false);
        assert!((cfg.gamma - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ckpt_for_builds_per_run_dirs() {
        let mut opts = HarnessOpts::default();
        assert!(opts.ckpt_for("b", "d", "m", "r", 1).is_none());
        opts.checkpoint_dir = Some(PathBuf::from("ckpts"));
        opts.checkpoint_every = 10;
        opts.resume = true;
        let c = opts
            .ckpt_for("table1_2", "cora-like", "DGAE", "r", 7)
            .unwrap();
        assert!(c.dir.ends_with("table1_2-cora-like-DGAE-r-7"));
        assert_eq!(c.every, 10);
        assert!(c.resume);
    }

    #[test]
    fn sweep_checkpoints_each_arm_and_resumes_bit_identically() {
        let dataset = DatasetKind::BrazilAir;
        let graph = dataset.build(0.5, 3);
        let mut cfg = rconfig_for(ModelKind::Dgae, dataset, true);
        cfg.pretrain_epochs = 12;
        cfg.max_epochs = 10;
        cfg.min_epochs = 10;
        let root = std::env::temp_dir().join(format!("rgae-xp-test-{}-sweep", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut opts = HarnessOpts {
            seed: 4,
            checkpoint_every: 3,
            ..HarnessOpts::default()
        };
        let sweep = |opts: &HarnessOpts, rec: &dyn Recorder| {
            let arms = SweepVariant::plain_and_r("lbl", &cfg);
            let reports =
                sweep_variants(opts, rec, ModelKind::Dgae, dataset, &graph, &cfg, 4, arms);
            assert_eq!(reports.len(), 2);
            reports
        };
        let bits = |reports: &[RReport]| -> Vec<Vec<u64>> {
            reports
                .iter()
                .map(|r| {
                    let m = r.final_metrics;
                    let mut v = vec![m.acc.to_bits(), m.nmi.to_bits(), m.ari.to_bits()];
                    v.extend(r.epochs.iter().map(|e| e.loss.to_bits()));
                    v
                })
                .collect()
        };

        let reference = sweep(&opts, &NoopRecorder);
        opts.checkpoint_dir = Some(root.clone());
        let fresh = sweep(&opts, &NoopRecorder);
        let dir = |key: &str| root.join(format!("{}-brazil-air-like-DGAE-{key}-lbl-4", bin_name()));
        for key in ["pretrain", "plain", "r"] {
            assert!(dir(key).is_dir(), "missing checkpoint directory {key}");
        }
        // The R arm never started: it must run from the resumed pretrain.
        std::fs::remove_dir_all(dir("r")).unwrap();
        opts.resume = true;
        let log = MemorySink::new();
        let resumed = sweep(&opts, &log);
        let _ = std::fs::remove_dir_all(&root);
        let loaded = log
            .of_kind("checkpoint")
            .iter()
            .filter(|e| matches!(e, Event::Checkpoint { action, .. } if action == "loaded"))
            .count();
        assert_eq!(loaded, 2, "the pretrain and the plain arm resume");

        assert_eq!(
            bits(&reference),
            bits(&fresh),
            "checkpointing changed a run"
        );
        assert_eq!(bits(&fresh), bits(&resumed), "resume changed a run");
        assert_eq!(reference[0].epochs.len(), 10);
        assert_eq!(reference[0].converged_at, None);
    }

    /// A short quick-preset config on a small air graph, for sweep tests.
    fn small_air(model: ModelKind) -> (DatasetKind, AttributedGraph, RConfig) {
        let dataset = DatasetKind::BrazilAir;
        let mut cfg = rconfig_for(model, dataset, true);
        cfg.pretrain_epochs = 15;
        cfg.max_epochs = 12;
        cfg.min_epochs = 6;
        (dataset, dataset.build(0.5, 3), cfg)
    }

    fn metric_bits(m: &Metrics) -> [u64; 3] {
        [m.acc.to_bits(), m.nmi.to_bits(), m.ari.to_bits()]
    }

    fn assert_same_run(a: &RReport, b: &RReport, what: &str) {
        let losses =
            |r: &RReport| -> Vec<u64> { r.epochs.iter().map(|e| e.loss.to_bits()).collect() };
        assert_eq!(losses(a), losses(b), "{what}: per-epoch losses");
        let pa = metric_bits(&a.pretrain_metrics);
        assert_eq!(
            pa,
            metric_bits(&b.pretrain_metrics),
            "{what}: pretrain metrics"
        );
        let fa = metric_bits(&a.final_metrics);
        assert_eq!(fa, metric_bits(&b.final_metrics), "{what}: final metrics");
    }

    /// Sharing one pretrain between the arms changes no result: each arm
    /// equals a solo full run on the same model seed and RNG stream.
    #[test]
    fn shared_pretrain_matches_solo_full_runs() {
        let seed = 21;
        for model in [ModelKind::Gae, ModelKind::Dgae, ModelKind::GmmVgae] {
            let (dataset, graph, cfg) = small_air(model);
            let arms = SweepVariant::plain_and_r("", &cfg);
            let opts = HarnessOpts::default();
            let swept = sweep_variants(
                &opts,
                &NoopRecorder,
                model,
                dataset,
                &graph,
                &cfg,
                seed,
                arms,
            );
            let solo = |arm: Arm| {
                let data = TrainData::from_graph(&graph);
                let mut rng = Rng64::seed_from_u64(seed);
                let mut m = model.build(data.num_features(), graph.num_classes(), &mut rng);
                let mut rng = Rng64::seed_from_u64(seed ^ 0x5151);
                match arm {
                    Arm::Plain => rgae_core::train_plain_ckpt(
                        m.as_mut(),
                        &graph,
                        &cfg,
                        &mut rng,
                        &NoopRecorder,
                        None,
                    ),
                    Arm::R => RTrainer::new(cfg.clone()).train(m.as_mut(), &graph, &mut rng),
                }
                .unwrap()
            };
            assert_same_run(
                &swept[0],
                &solo(Arm::Plain),
                &format!("plain {}", model.name()),
            );
            assert_same_run(&swept[1], &solo(Arm::R), &format!("R {}", model.name()));
        }
    }

    /// Every arm of a sweep starts its clustering phase from the same
    /// pretrained model, head included, so all report bit-equal pretrain
    /// metrics, whatever their arm or configuration.
    #[test]
    fn every_arm_starts_from_the_same_model() {
        for model in ModelKind::second_group() {
            let (dataset, graph, cfg) = small_air(model);
            let mut delayed = cfg.clone();
            delayed.delay_xi = 5;
            let mut arms = SweepVariant::plain_and_r("", &cfg);
            arms.push(SweepVariant::r("delayed", delayed.clone()));
            arms.push(SweepVariant::plain("delayed", delayed));
            let opts = HarnessOpts::default();
            let reports =
                sweep_variants(&opts, &NoopRecorder, model, dataset, &graph, &cfg, 8, arms);
            let first = metric_bits(&reports[0].pretrain_metrics);
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(
                    metric_bits(&r.pretrain_metrics),
                    first,
                    "{} arm {i}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.767), "76.7");
        let s = Stats {
            mean: 0.55,
            std: 0.049,
        };
        assert_eq!(pct_pm(s), "55.0 ± 4.9");
    }
}
