//! Behavioural tests of the R-trainer: the paper's headline claims at
//! miniature scale, plus every protocol switch (delays, protection modes,
//! ablations).

mod common;

use common::{assert_metrics_bits_eq, test_graph};
use rgae_core::{train_plain, FdMode, RConfig, RTrainer};
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, GaeModel, TrainData};
use rgae_obs::{Event, MemorySink};

fn quick_cfg() -> RConfig {
    let mut cfg = RConfig::for_dataset("cora-like").quick();
    cfg.pretrain_epochs = 60;
    cfg.max_epochs = 60;
    cfg
}

#[test]
fn r_dgae_runs_and_reports() {
    let g = test_graph(1);
    let mut rng = Rng64::seed_from_u64(1);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let report = RTrainer::new(quick_cfg())
        .train(&mut model, &g, &mut rng)
        .unwrap();
    assert!(!report.epochs.is_empty());
    assert!(
        report.final_metrics.acc > 0.45,
        "{:?}",
        report.final_metrics
    );
    assert!(report.final_metrics.acc.is_finite());
    assert!(report.train_seconds > 0.0);
    // Ω should end large (convergence drive).
    let last = report.epochs.last().unwrap();
    assert!(last.omega_size > 0);
}

#[test]
fn omega_grows_and_is_purer_than_rest() {
    let g = test_graph(2);
    let mut rng = Rng64::seed_from_u64(2);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.max_epochs = 80;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    let first_sized = report
        .epochs
        .iter()
        .find(|e| e.omega_size < g.num_nodes())
        .map(|e| e.omega_size);
    let last = report.epochs.last().unwrap();
    if let Some(first) = first_sized {
        assert!(
            last.omega_size >= first,
            "Ω shrank: {} -> {}",
            first,
            last.omega_size
        );
    }
    // Fig. 9's claim: the decidable set is more accurately clustered than
    // the undecidable remainder (when both are non-trivial).
    let informative: Vec<_> = report
        .epochs
        .iter()
        .filter(|e| e.omega_size > 10 && e.omega_size + 10 < g.num_nodes())
        .collect();
    if informative.len() >= 3 {
        let omega_mean: f64 =
            informative.iter().map(|e| e.omega_acc).sum::<f64>() / informative.len() as f64;
        let rest_mean: f64 =
            informative.iter().map(|e| e.rest_acc).sum::<f64>() / informative.len() as f64;
        assert!(
            omega_mean > rest_mean,
            "Ω acc {omega_mean} vs rest {rest_mean}"
        );
    }
}

#[test]
fn r_beats_plain_from_shared_pretraining() {
    // The paper's Tables 1–2 protocol: 𝒟 and R-𝒟 share pretrained weights;
    // R-𝒟 should win on average. One seed at miniature scale is noisy, so
    // compare the mean over three seeds and allow a small slack.
    let mut acc_r = 0.0;
    let mut acc_plain = 0.0;
    let trials = 3;
    for seed in 0..trials {
        let g = test_graph(10 + seed);
        let data = TrainData::from_graph(&g);
        let mut rng = Rng64::seed_from_u64(100 + seed);
        let cfg = quick_cfg();
        let trainer = RTrainer::new(cfg.clone());
        let mut base = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
        trainer.pretrain(&mut base, &data, &mut rng).unwrap();

        let mut plain_model = base.clone();
        let mut r_model = base;

        // Plain clustering phase.
        let mut plain_cfg = cfg.clone();
        plain_cfg.pretrain_epochs = 0;
        let mut rng_plain = Rng64::seed_from_u64(7);
        let plain = train_plain(&mut plain_model, &g, &plain_cfg, &mut rng_plain).unwrap();

        // R clustering phase.
        let mut rng_r = Rng64::seed_from_u64(7);
        let r = trainer
            .train_clustering_phase(&mut r_model, &g, &data, &mut rng_r)
            .unwrap();
        acc_r += r.final_metrics.acc;
        acc_plain += plain.final_metrics.acc;
    }
    acc_r /= trials as f64;
    acc_plain /= trials as f64;
    assert!(
        acc_r + 0.02 >= acc_plain,
        "R-DGAE mean acc {acc_r} vs DGAE {acc_plain}"
    );
}

#[test]
fn first_group_r_variant_trains() {
    // R-GAE: Ξ/Υ reshape the reconstruction target during pretraining; no
    // clustering head involved.
    let g = test_graph(3);
    let mut rng = Rng64::seed_from_u64(3);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::gae(data.num_features(), &mut rng);
    let report = RTrainer::new(quick_cfg())
        .train(&mut model, &g, &mut rng)
        .unwrap();
    assert!(report.final_metrics.acc > 0.4, "{:?}", report.final_metrics);
    // Graph was actually rewritten at some point.
    assert!(report.epochs.iter().any(|e| {
        let (at, af) = e.added_links.unwrap_or((0, 0));
        let (dt, df) = e.dropped_links.unwrap_or((0, 0));
        at + af + dt + df > 0
    }));
}

#[test]
fn diagnostics_are_recorded_and_bounded() {
    let g = test_graph(4);
    let mut rng = Rng64::seed_from_u64(4);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::gmm_vgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.track_diagnostics = true;
    cfg.max_epochs = 15;
    cfg.pretrain_epochs = 40;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    let mut saw_fr = false;
    let mut saw_fd = false;
    for e in &report.epochs {
        for v in [
            e.lambda_fr_restricted,
            e.lambda_fr_full,
            e.lambda_fd_current,
            e.lambda_fd_vanilla,
        ]
        .into_iter()
        .flatten()
        {
            assert!(
                (-1.0 - 1e-9..=1.0 + 1e-9).contains(&v),
                "Λ out of range: {v}"
            );
        }
        saw_fr |= e.lambda_fr_restricted.is_some();
        saw_fd |= e.lambda_fd_current.is_some();
    }
    assert!(saw_fr && saw_fd);
    // Early in training the pseudo gradient should broadly agree with the
    // supervised one (the paper observes Λ_FR close to 1 initially).
    let first_fr = report.epochs.iter().find_map(|e| e.lambda_fr_full).unwrap();
    assert!(first_fr > 0.0, "early Λ_FR {first_fr}");
}

#[test]
fn xi_ablation_keeps_omega_full() {
    let g = test_graph(5);
    let mut rng = Rng64::seed_from_u64(5);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.xi.use_alpha1 = false;
    cfg.xi.use_alpha2 = false;
    cfg.max_epochs = 20;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    for e in &report.epochs {
        assert_eq!(e.omega_size, g.num_nodes());
    }
}

#[test]
fn upsilon_ablation_keeps_graph_static() {
    let g = test_graph(6);
    let mut rng = Rng64::seed_from_u64(6);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.upsilon.add_edges = false;
    cfg.upsilon.drop_edges = false;
    cfg.max_epochs = 20;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    for e in &report.epochs {
        assert_eq!(e.added_links, Some((0, 0)));
        assert_eq!(e.dropped_links, Some((0, 0)));
        assert_eq!(e.graph_stats.as_ref().unwrap().num_edges, g.num_edges());
    }
}

/// An operator whose guideline switches are all off is not computed at
/// all: its span never appears, while the other operator's still does.
#[test]
fn ablated_operators_are_not_computed() {
    let g = test_graph(8);
    let data = TrainData::from_graph(&g);
    let spans = |cfg: RConfig| {
        let sink = MemorySink::new();
        let mut rng = Rng64::seed_from_u64(8);
        let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
        RTrainer::with_recorder(cfg, &sink)
            .train(&mut model, &g, &mut rng)
            .unwrap();
        let paths: Vec<String> = sink
            .of_kind("span")
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanEnd { path, .. } => Some(path),
                _ => None,
            })
            .collect();
        let has = |op: &str| paths.iter().any(|p| p.rsplit('/').next() == Some(op));
        (has("xi"), has("upsilon"))
    };
    let mut cfg = quick_cfg();
    cfg.max_epochs = 20;
    cfg.min_epochs = 20;

    let mut no_xi = cfg.clone();
    no_xi.xi.use_alpha1 = false;
    no_xi.xi.use_alpha2 = false;
    assert_eq!(
        spans(no_xi),
        (false, true),
        "(xi, upsilon) spans, Xi ablated"
    );

    let mut no_upsilon = cfg;
    no_upsilon.upsilon.add_edges = false;
    no_upsilon.upsilon.drop_edges = false;
    assert_eq!(
        spans(no_upsilon),
        (true, false),
        "(xi, upsilon) spans, Upsilon ablated"
    );
}

#[test]
fn single_step_protection_mode_runs() {
    let g = test_graph(7);
    let mut rng = Rng64::seed_from_u64(7);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.fd_mode = FdMode::SingleStepProtection;
    cfg.max_epochs = 20;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    assert!(report.final_metrics.acc > 0.4);
    // The graph is transformed once up front and stays fixed.
    let first = &report.epochs[0];
    let last = report.epochs.last().unwrap();
    assert_eq!(
        first.graph_stats.as_ref().unwrap().num_edges,
        last.graph_stats.as_ref().unwrap().num_edges
    );
}

#[test]
fn delayed_xi_starts_with_full_omega() {
    let g = test_graph(8);
    let mut rng = Rng64::seed_from_u64(8);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.delay_xi = 10;
    cfg.m1 = 5;
    cfg.max_epochs = 25;
    cfg.min_epochs = 25;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    for e in report.epochs.iter().take(10) {
        assert_eq!(e.omega_size, g.num_nodes(), "epoch {}", e.epoch);
    }
    // After the delay, Ξ typically restricts Ω.
    assert!(report
        .epochs
        .iter()
        .skip(10)
        .any(|e| e.omega_size < g.num_nodes()));
}

#[test]
fn upsilon_moves_graph_towards_clustering_structure() {
    // Fig. 4 / Fig. 9's qualitative claim: over training the
    // self-supervision graph gains true links and loses false ones.
    let g = test_graph(9);
    let mut rng = Rng64::seed_from_u64(9);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.max_epochs = 60;
    cfg.min_epochs = 60;
    let report = RTrainer::new(cfg).train(&mut model, &g, &mut rng).unwrap();
    let last = report.epochs.last().unwrap();
    let (added_true, added_false) = last.added_links.unwrap();
    // Most added links should be true links.
    if added_true + added_false > 10 {
        assert!(
            added_true > added_false,
            "added {added_true} true vs {added_false} false"
        );
    }
    // Final graph homophily should not be worse than the input graph's.
    let input_h = rgae_graph::edge_homophily(g.adjacency(), g.labels());
    let last_gs = last.graph_stats.as_ref().unwrap();
    let final_h = last_gs.true_links as f64 / last_gs.num_edges.max(1) as f64;
    assert!(
        final_h >= input_h - 0.02,
        "homophily {input_h} -> {final_h}"
    );
}

#[test]
fn plain_trainer_tracks_diagnostics_too() {
    let g = test_graph(11);
    let mut rng = Rng64::seed_from_u64(11);
    let data = TrainData::from_graph(&g);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let mut cfg = quick_cfg();
    cfg.track_diagnostics = true;
    cfg.pretrain_epochs = 40;
    cfg.max_epochs = 10;
    let report = train_plain(&mut model, &g, &cfg, &mut rng).unwrap();
    assert_eq!(report.epochs.len(), 10);
    assert!(report.epochs.iter().any(|e| e.lambda_fd_vanilla.is_some()));
    assert!(report.final_metrics.acc > 0.4);
}

/// The plain model 𝒟 is the R-𝒟 loop with both operators off: with Ξ and Υ
/// disabled and no early convergence (`min_epochs = max_epochs`),
/// `RTrainer::train` reproduces `train_plain` bit for bit — per-epoch
/// losses, eval metrics, |Ω| and link diffs, plus the pretrain and final
/// metrics — for a first-group model and both second-group heads, serial and
/// parallel.
#[test]
fn plain_equals_r_with_operators_off() {
    type Build = fn(&TrainData, usize, &mut Rng64) -> Box<dyn GaeModel>;
    let models: [(&str, Build); 3] = [
        ("DGAE", |d, k, rng| {
            Box::new(ComposedModel::dgae(d.num_features(), k, rng))
        }),
        ("GMM-VGAE", |d, k, rng| {
            Box::new(ComposedModel::gmm_vgae(d.num_features(), k, rng))
        }),
        ("GAE", |d, _, rng| {
            Box::new(ComposedModel::gae(d.num_features(), rng))
        }),
    ];
    let g = test_graph(23);
    let data = TrainData::from_graph(&g);
    for threads in [1, 2] {
        let mut cfg = RConfig::for_dataset("cora-like").quick();
        cfg.pretrain_epochs = 20;
        cfg.max_epochs = 30;
        cfg.min_epochs = 30;
        cfg.eval_every = 5;
        cfg.xi.use_alpha1 = false;
        cfg.xi.use_alpha2 = false;
        cfg.upsilon.add_edges = false;
        cfg.upsilon.drop_edges = false;
        cfg.threads = Some(threads);
        for (name, build) in models {
            let what = format!("{name} @ {threads} threads");
            let mut rng = Rng64::seed_from_u64(23);
            let mut model = build(&data, g.num_classes(), &mut rng);
            let plain = train_plain(model.as_mut(), &g, &cfg, &mut rng).unwrap();
            let mut rng = Rng64::seed_from_u64(23);
            let mut model = build(&data, g.num_classes(), &mut rng);
            let r = RTrainer::new(cfg.clone())
                .train(model.as_mut(), &g, &mut rng)
                .unwrap();

            assert_eq!(r.converged_at, None, "{what}: converged_at");
            assert_eq!(plain.epochs.len(), r.epochs.len(), "{what}: epoch count");
            for (p, q) in plain.epochs.iter().zip(&r.epochs) {
                let e = p.epoch;
                assert_eq!(e, q.epoch, "{what}: epoch index");
                assert_eq!(p.loss.to_bits(), q.loss.to_bits(), "{what}: loss at {e}");
                assert_eq!(p.omega_size, q.omega_size, "{what}: |Ω| at {e}");
                match (&p.metrics, &q.metrics) {
                    (Some(a), Some(b)) => assert_metrics_bits_eq(a, b, &what),
                    (None, None) => {}
                    _ => panic!("{what}: metrics presence differs at epoch {e}"),
                }
                assert_eq!(p.added_links, q.added_links, "{what}: added at {e}");
                assert_eq!(p.dropped_links, q.dropped_links, "{what}: dropped at {e}");
            }
            assert_metrics_bits_eq(&plain.pretrain_metrics, &r.pretrain_metrics, &what);
            assert_metrics_bits_eq(&plain.final_metrics, &r.final_metrics, &what);
        }
    }
}
