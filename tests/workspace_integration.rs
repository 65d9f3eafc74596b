//! Cross-crate integration: dataset generation → training data → models →
//! R-trainer → metrics → figure tooling, exercised end to end.

use rgae_core::{evaluate, upsilon, xi, RConfig, RReport, RTrainer, UpsilonConfig, XiConfig};
use rgae_graph::{edge_homophily, GraphStats};
use rgae_linalg::Rng64;
use rgae_models::baselines::{agc_lite, mgae_lite};
use rgae_models::TrainData;
use rgae_viz::{tsne, TsneConfig};
use rgae_xp::{rconfig_for, sweep_variants, DatasetKind, HarnessOpts, ModelKind, SweepVariant};

#[test]
fn full_pipeline_on_every_dataset_preset() {
    // Every preset builds, produces consistent TrainData, and supports a
    // couple of pretraining steps of the cheapest model.
    for dataset in DatasetKind::citation()
        .into_iter()
        .chain(DatasetKind::air())
    {
        let graph = dataset.build(0.12, 3);
        let data = TrainData::from_graph(&graph);
        assert_eq!(data.num_nodes, graph.num_nodes());
        assert!(data.pos_weight >= 1.0, "{}: sparse graphs", dataset.name());
        let mut rng = Rng64::seed_from_u64(1);
        let mut model = ModelKind::Gae.build(data.num_features(), graph.num_classes(), &mut rng);
        let spec = rgae_models::StepSpec::pretrain(std::rc::Rc::clone(&data.adjacency));
        for _ in 0..3 {
            let loss = model.train_step(&data, &spec, &mut rng).unwrap();
            assert!(loss.is_finite(), "{}", dataset.name());
        }
        let m = evaluate(
            model.as_ref(),
            &data,
            graph.labels(),
            &mut rng,
            &rgae_obs::NOOP,
        )
        .unwrap();
        assert!(m.acc > 0.0 && m.acc <= 1.0);
    }
}

#[test]
fn operators_compose_on_real_embeddings() {
    let graph = DatasetKind::CoraLike.build(0.15, 5);
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(2);
    let mut model = ModelKind::Dgae.build(data.num_features(), graph.num_classes(), &mut rng);
    let trainer = RTrainer::new(RConfig::for_dataset("cora-like").quick());
    trainer.pretrain(model.as_mut(), &data, &mut rng).unwrap();

    let p = model.soft_assignments(&data).unwrap().unwrap();
    let omega = xi(&p, &XiConfig::new(0.3)).unwrap();
    assert!(
        !omega.is_empty(),
        "pretrained model should have confident nodes"
    );

    let z = model.embed(&data);
    let out = upsilon(
        &data.adjacency,
        &p,
        &z,
        &omega.indices,
        &UpsilonConfig::default(),
    )
    .unwrap();
    let before = GraphStats::compute(&data.adjacency, graph.labels());
    let after = GraphStats::compute(&out.graph, graph.labels());
    // The rewrite must keep the graph usable and not destroy homophily.
    assert!(after.num_edges > 0);
    let h_before = before.true_links as f64 / before.num_edges.max(1) as f64;
    let h_after = after.true_links as f64 / after.num_edges.max(1) as f64;
    assert!(h_after >= h_before - 0.05, "{h_before} -> {h_after}");
}

#[test]
fn plain_and_r_arms_start_from_one_pretrained_model() {
    let dataset = DatasetKind::BrazilAir;
    let graph = dataset.build(1.0, 4);
    let cfg = rconfig_for(ModelKind::GmmVgae, dataset, true);
    let arms = SweepVariant::plain_and_r("", &cfg);
    let opts = HarnessOpts::default();
    let [plain, r]: [RReport; 2] = sweep_variants(
        &opts,
        &rgae_obs::NOOP,
        ModelKind::GmmVgae,
        dataset,
        &graph,
        &cfg,
        9,
        arms,
    )
    .try_into()
    .expect("two arms");
    // Shared pretraining: both phases start from the same place, bit for bit.
    let bits = |m: &rgae_core::Metrics| [m.acc.to_bits(), m.nmi.to_bits(), m.ari.to_bits()];
    assert_eq!(bits(&plain.pretrain_metrics), bits(&r.pretrain_metrics));
    assert!(plain.final_metrics.acc > 0.25);
    assert!(r.final_metrics.acc > 0.25);
}

#[test]
fn baselines_run_on_presets() {
    let graph = DatasetKind::CiteseerLike.build(0.12, 6);
    let mut rng = Rng64::seed_from_u64(3);
    let (pred, _) = mgae_lite(&graph, 2, 0.2, 1e-2, &mut rng).unwrap();
    assert_eq!(pred.len(), graph.num_nodes());
    let pred2 = agc_lite(&graph, 3, &mut rng).unwrap();
    assert_eq!(pred2.len(), graph.num_nodes());
}

#[test]
fn figure_tooling_consumes_model_embeddings() {
    let graph = DatasetKind::CoraLike.build(0.08, 7);
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(4);
    let mut model = ModelKind::Vgae.build(data.num_features(), graph.num_classes(), &mut rng);
    let spec = rgae_models::StepSpec::pretrain(std::rc::Rc::clone(&data.adjacency));
    for _ in 0..10 {
        model.train_step(&data, &spec, &mut rng).unwrap();
    }
    let z = model.embed(&data);
    let y = tsne(
        &z,
        &TsneConfig {
            iterations: 30,
            ..TsneConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    assert_eq!(y.shape(), (graph.num_nodes(), 2));
    assert!(y.all_finite());
}

#[test]
fn homophily_survives_training_data_roundtrip() {
    // Sanity: the GCN filter preserves the graph's structure enough that
    // filter-propagated features are label-informative.
    let graph = DatasetKind::CoraLike.build(0.15, 8);
    let h = edge_homophily(graph.adjacency(), graph.labels());
    assert!(h > 0.7, "homophily {h}");
    let data = TrainData::from_graph(&graph);
    let smoothed = data.filter.spmm(&data.features).unwrap();
    // Mean cosine similarity of smoothed features: intra > inter.
    let mut rng = Rng64::seed_from_u64(5);
    let (mut intra, mut ni) = (0.0, 0);
    let (mut inter, mut nj) = (0.0, 0);
    for _ in 0..3000 {
        let a = rng.index(graph.num_nodes());
        let b = rng.index(graph.num_nodes());
        if a == b {
            continue;
        }
        let c = rgae_linalg::cosine(smoothed.row(a), smoothed.row(b));
        if graph.labels()[a] == graph.labels()[b] {
            intra += c;
            ni += 1;
        } else {
            inter += c;
            nj += 1;
        }
    }
    assert!(intra / ni as f64 > inter / nj as f64 + 0.03);
}
