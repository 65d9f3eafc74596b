//! End-to-end run-log test: a quick R-run recorded through a [`MemorySink`]
//! must produce a well-formed event stream — one manifest, monotonically
//! increasing epoch records, a convergence event exactly when the report
//! says the run converged, and a timing table consistent with the reported
//! wall-clock time.

use rgae_core::{RConfig, RTrainer};
use rgae_datasets::{citation_like, CitationSpec};
use rgae_graph::AttributedGraph;
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, TrainData};
use rgae_obs::{Event, MemorySink};
use rgae_xp::emit_run_start;

fn test_graph(seed: u64) -> AttributedGraph {
    citation_like(
        &CitationSpec {
            name: "cora-like".into(),
            num_nodes: 160,
            num_classes: 3,
            num_features: 80,
            avg_degree: 5.0,
            homophily: 0.82,
            degree_power: 2.6,
            words_per_node: 12,
            topic_purity: 0.8,
            class_proportions: vec![],
        },
        seed,
    )
    .unwrap()
}

#[test]
fn quick_r_run_emits_a_coherent_event_stream() {
    let g = test_graph(1);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(1);
    let mut cfg = RConfig::for_dataset("cora-like").quick();
    cfg.pretrain_epochs = 40;
    cfg.max_epochs = 40;

    let sink = MemorySink::new();
    emit_run_start(&sink, "run_log_test", "DGAE", "cora-like", "r", 1, &cfg);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let report = RTrainer::with_recorder(cfg, &sink)
        .train(&mut model, &g, &mut rng)
        .unwrap();

    // Exactly one manifest, carrying the full config.
    let starts = sink.of_kind("run_start");
    assert_eq!(starts.len(), 1);
    let Event::RunStart(manifest) = &starts[0] else {
        unreachable!()
    };
    assert_eq!(manifest.variant, "r");
    assert!(
        manifest.config.get("gamma").is_some(),
        "config not embedded"
    );

    // One epoch event per recorded epoch, indices strictly increasing.
    let epochs = sink.of_kind("epoch");
    assert_eq!(epochs.len(), report.epochs.len());
    let indices: Vec<usize> = epochs
        .iter()
        .map(|e| match e {
            Event::Epoch(ev) => ev.epoch,
            _ => unreachable!(),
        })
        .collect();
    assert!(
        indices.windows(2).all(|w| w[0] < w[1]),
        "epoch indices not strictly increasing: {indices:?}"
    );

    // Convergence event exactly when the report converged, same epoch.
    let convergences = sink.of_kind("convergence");
    match report.converged_at {
        Some(at) => {
            assert_eq!(convergences.len(), 1);
            assert_eq!(convergences[0], Event::Convergence { epoch: at });
        }
        None => assert!(convergences.is_empty()),
    }

    // One closing summary whose numbers match the report.
    let ends = sink.of_kind("run_end");
    assert_eq!(ends.len(), 1);
    let Event::RunEnd(summary) = &ends[0] else {
        unreachable!()
    };
    assert_eq!(summary.converged_at, report.converged_at);
    assert_eq!(summary.epochs_run, report.epochs.len());
    assert!((summary.train_seconds - report.train_seconds).abs() < 1e-9);
    assert!((summary.final_acc - report.final_metrics.acc).abs() < 1e-12);

    // The timing table precedes the run end and its clustering total is the
    // reported training time; the phase sub-spans account for most of it.
    let summaries = sink.of_kind("timing_summary");
    assert_eq!(summaries.len(), 1);
    let Event::TimingSummary(entries) = &summaries[0] else {
        unreachable!()
    };
    let clustering = entries
        .iter()
        .find(|e| e.path == "clustering")
        .expect("clustering span missing from timing table");
    assert!((clustering.total_seconds - report.train_seconds).abs() < 1e-9);
    // Direct children only — deeper descendants are already inside them.
    let sub_total: f64 = entries
        .iter()
        .filter(|e| {
            e.path.starts_with("clustering/") && !e.path["clustering/".len()..].contains('/')
        })
        .map(|e| e.total_seconds)
        .sum();
    assert!(
        sub_total <= clustering.total_seconds * 1.001,
        "sub-spans exceed the phase: {sub_total} vs {}",
        clustering.total_seconds
    );
    assert!(
        sub_total >= clustering.total_seconds * 0.9,
        "sub-spans cover too little of the phase: {sub_total} vs {}",
        clustering.total_seconds
    );
}

#[test]
fn plain_run_emits_epochs_and_summary() {
    let g = test_graph(2);
    let mut rng = Rng64::seed_from_u64(2);
    let data = TrainData::from_graph(&g);
    let mut cfg = RConfig::for_dataset("cora-like").quick();
    cfg.pretrain_epochs = 20;
    cfg.max_epochs = 15;

    let sink = MemorySink::new();
    emit_run_start(&sink, "run_log_test", "DGAE", "cora-like", "plain", 2, &cfg);
    let mut model = ComposedModel::dgae(data.num_features(), g.num_classes(), &mut rng);
    let report = rgae_core::train_plain_ckpt(&mut model, &g, &cfg, &mut rng, &sink, None).unwrap();

    assert_eq!(sink.of_kind("run_start").len(), 1);
    assert_eq!(sink.of_kind("epoch").len(), report.epochs.len());
    let ends = sink.of_kind("run_end");
    assert_eq!(ends.len(), 1);
    let Event::RunEnd(summary) = &ends[0] else {
        unreachable!()
    };
    assert_eq!(summary.converged_at, None);
    assert_eq!(summary.epochs_run, report.epochs.len());
}
