//! Smoke coverage of the experiment-harness pathways: every table/figure
//! binary's core routine must run end to end at tiny scale. (The binaries
//! themselves are exercised by `cargo run`; these tests cover the library
//! plumbing they share.)

use rgae_core::{train_plain_ckpt, Metrics, RReport, RTrainer};
use rgae_linalg::Rng64;
use rgae_models::baselines::{daegc_lite_data, spectral_lite};
use rgae_models::{ComposedModel, GaeModel, StepSpec, TrainData};
use rgae_viz::{ascii_lines, ascii_scatter, CsvWriter};
use rgae_xp::{
    best_metrics, metric_stats, pct, pct_pm, rconfig_for, stats, sweep_variants, DatasetKind,
    HarnessOpts, ModelKind, SweepVariant,
};

/// One plain and one R arm from one shared pretrain (the Tables 1–5
/// protocol), untraced and without checkpoints.
fn plain_and_r(
    model: ModelKind,
    dataset: DatasetKind,
    graph: &rgae_graph::AttributedGraph,
    cfg: &rgae_core::RConfig,
    seed: u64,
) -> [RReport; 2] {
    let arms = SweepVariant::plain_and_r("", cfg);
    let opts = HarnessOpts::default();
    sweep_variants(
        &opts,
        &rgae_obs::NOOP,
        model,
        dataset,
        graph,
        cfg,
        seed,
        arms,
    )
    .try_into()
    .expect("two arms")
}

#[test]
fn harness_defaults_are_sane() {
    let opts = HarnessOpts::default();
    assert!(opts.scale > 0.0 && opts.scale <= 1.0);
    assert!(opts.trials >= 1);
}

#[test]
fn tables_1_to_4_pathway() {
    // One model × one dataset of each family, 2 trials.
    for (model, dataset) in [
        (ModelKind::Dgae, DatasetKind::CoraLike),
        (ModelKind::GmmVgae, DatasetKind::BrazilAir),
    ] {
        let graph = dataset.build(0.12, 1);
        let cfg = rconfig_for(model, dataset, true);
        let mut plain_ms: Vec<Metrics> = Vec::new();
        let mut r_ms: Vec<Metrics> = Vec::new();
        for trial in 0..2 {
            let [plain, r] = plain_and_r(model, dataset, &graph, &cfg, 100 + trial);
            plain_ms.push(plain.final_metrics);
            r_ms.push(r.final_metrics);
        }
        let b = best_metrics(&r_ms);
        assert!(b.acc > 0.2, "{} on {}", model.name(), dataset.name());
        let (a, n, r) = metric_stats(&plain_ms);
        assert!(a.mean > 0.0 && n.mean >= 0.0 && r.mean > -1.0);
        // Formatting used by the table printers.
        assert!(!pct(b.acc).is_empty());
        assert!(pct_pm(a).contains('±'));
    }
}

#[test]
fn table5_pathway_times_are_positive() {
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(0.1, 2);
    let cfg = rconfig_for(ModelKind::Dgae, dataset, true);
    let [plain, r] = plain_and_r(ModelKind::Dgae, dataset, &graph, &cfg, 5);
    assert!(plain.train_seconds > 0.0);
    assert!(r.train_seconds > 0.0);
    let s = stats(&[plain.train_seconds, r.train_seconds]);
    assert!(s.mean > 0.0);
}

#[test]
fn table17_pathway_daegc_lite() {
    let graph = DatasetKind::CoraLike.build(0.1, 3);
    let data = daegc_lite_data(&graph);
    let mut rng = Rng64::seed_from_u64(1);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
    let spec = StepSpec::pretrain(std::rc::Rc::clone(&data.adjacency));
    for _ in 0..20 {
        model.train_step(&data, &spec, &mut rng).unwrap();
    }
    model.init_clustering(&data, &mut rng).unwrap();
    let p = model.soft_assignments(&data).unwrap().unwrap();
    assert_eq!(p.rows(), graph.num_nodes());
    let pred = spectral_lite(&graph, 8, &mut rng).unwrap();
    assert_eq!(pred.len(), graph.num_nodes());
}

#[test]
fn fig4_and_fig10_snapshot_pathway() {
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(0.08, 4);
    let data = TrainData::from_graph(&graph);
    let mut cfg = rconfig_for(ModelKind::GmmVgae, dataset, true);
    cfg.snapshot_epochs = vec![0, 5, 10];
    cfg.max_epochs = 12;
    cfg.min_epochs = 12;
    let mut rng = Rng64::seed_from_u64(5);
    let mut model = ModelKind::GmmVgae.build(data.num_features(), graph.num_classes(), &mut rng);
    let report = RTrainer::new(cfg.clone())
        .train(model.as_mut(), &graph, &mut rng)
        .unwrap();
    assert_eq!(report.snapshots.len(), 3);
    for (epoch, z, a) in &report.snapshots {
        assert!(cfg.snapshot_epochs.contains(epoch));
        assert_eq!(z.rows(), graph.num_nodes());
        assert_eq!(a.rows(), graph.num_nodes());
    }
    // Plain side too.
    let mut model2 = ModelKind::GmmVgae.build(data.num_features(), graph.num_classes(), &mut rng);
    let plain = train_plain_ckpt(
        model2.as_mut(),
        &graph,
        &cfg,
        &mut rng,
        &rgae_obs::NOOP,
        None,
    )
    .unwrap();
    assert_eq!(plain.snapshots.len(), 3);
}

#[test]
fn fig5_6_diagnostic_series_pathway() {
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(0.08, 6);
    let data = TrainData::from_graph(&graph);
    let mut cfg = rconfig_for(ModelKind::Dgae, dataset, true);
    cfg.track_diagnostics = true;
    cfg.max_epochs = 8;
    cfg.min_epochs = 8;
    let mut rng = Rng64::seed_from_u64(6);
    let mut model = ModelKind::Dgae.build(data.num_features(), graph.num_classes(), &mut rng);
    let report = RTrainer::new(cfg)
        .train(model.as_mut(), &graph, &mut rng)
        .unwrap();
    assert_eq!(report.epochs.len(), 8);
    assert!(report
        .epochs
        .iter()
        .all(|e| e.lambda_fd_current.is_some() && e.lambda_fd_vanilla.is_some()));
}

#[test]
fn csv_and_ascii_outputs_compose() {
    let dir = std::env::temp_dir().join("rgae_smoke_csv");
    let mut w = CsvWriter::create(dir.join("x.csv"), &["a", "b"]).unwrap();
    w.row(&[1.0, 2.0]).unwrap();
    w.finish().unwrap();
    assert!(dir.join("x.csv").exists());
    std::fs::remove_dir_all(&dir).ok();

    let chart = ascii_lines(&[("acc", &[0.1, 0.5, 0.9])], 40, 8);
    assert!(chart.contains("acc"));
    let scatter = ascii_scatter(&[(0.0, 0.0), (1.0, 1.0)], &[0, 1], 20, 8);
    assert!(scatter.contains('0') && scatter.contains('1'));
}

#[test]
fn clone_box_preserves_trained_state() {
    let graph = DatasetKind::CoraLike.build(0.08, 7);
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(7);
    let mut model: Box<dyn GaeModel> =
        ModelKind::Dgae.build(data.num_features(), graph.num_classes(), &mut rng);
    let spec = StepSpec::pretrain(std::rc::Rc::clone(&data.adjacency));
    for _ in 0..10 {
        model.train_step(&data, &spec, &mut rng).unwrap();
    }
    let twin = model.clone_box();
    assert!(model.embed(&data).max_abs_diff(&twin.embed(&data)) < 1e-12);
}
