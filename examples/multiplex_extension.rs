//! The paper's §6 future-work direction: Υ on multiplex graphs (several
//! relation types over one node set).
//!
//! The scenario: a two-layer academic network — a high-homophily "citation"
//! layer and a noisier "co-authorship" layer. We train DGAE on the mean
//! multiplex filter and compare two self-supervision targets:
//!
//!   1. the raw union graph (no operators);
//!   2. the union graph rewritten by Υ, refreshed during training (the R
//!      recipe). Υ's drop rule judges one edge at a time and its centroid
//!      stars do not depend on the graph, so rewriting the union is the same
//!      as rewriting every layer and taking the union of the results.
//!
//! Both arms start from the same pretrained weights and train through
//! `RTrainer`, the plain one with `Arm::Plain`.
//!
//! ```text
//! cargo run --release -p rgae-xp --example multiplex_extension
//! ```

use std::rc::Rc;

use rgae_core::{Arm, RConfig, RTrainer};
use rgae_datasets::{multiplex_like, LayerSpec, MultiplexSpec};
use rgae_graph::edge_homophily;
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, TrainData};

fn main() {
    let mx = multiplex_like(
        &MultiplexSpec {
            name: "academic".into(),
            num_nodes: 260,
            num_classes: 4,
            num_features: 120,
            words_per_node: 10,
            topic_purity: 0.5,
            layers: vec![
                LayerSpec {
                    avg_degree: 4.0,
                    homophily: 0.85,
                }, // citations
                LayerSpec {
                    avg_degree: 3.0,
                    homophily: 0.50,
                }, // co-authorship
            ],
        },
        7,
    )
    .expect("valid spec");
    println!(
        "multiplex: {} nodes, {} layers (homophily {:.2} / {:.2})",
        mx.num_nodes(),
        mx.num_layers(),
        edge_homophily(&mx.layers()[0], mx.labels()),
        edge_homophily(&mx.layers()[1], mx.labels()),
    );

    // Flatten to the union for the base TrainData, but propagate through the
    // mean multiplex filter (shared-edge relations weigh more).
    let flat = mx.flatten_union();
    let mut data = TrainData::from_graph(&flat);
    data.filter = Rc::new(mx.mean_filter());

    let epochs = 80;
    let cfg = RConfig {
        pretrain_epochs: epochs,
        max_epochs: epochs,
        m1: 10,
        m2: 10,
        ..RConfig::default()
    };

    // Pretrain once on the raw union graph; both arms start from here.
    let mut rng = Rng64::seed_from_u64(1);
    let mut r_model = ComposedModel::dgae(data.num_features(), mx.num_classes(), &mut rng);
    let r_trainer = RTrainer::new(cfg.clone());
    r_trainer.pretrain(&mut r_model, &data, &mut rng).unwrap();
    let mut plain = r_model.clone();

    let plain_report = RTrainer::new(cfg)
        .with_arm(Arm::Plain)
        .train_clustering_phase(&mut plain, &flat, &data, &mut rng)
        .unwrap();
    let r_report = r_trainer
        .train_clustering_phase(&mut r_model, &flat, &data, &mut rng)
        .unwrap();
    let converged = r_report.converged_at.map_or_else(
        || "did not converge".to_owned(),
        |e| format!("converged at epoch {e}"),
    );

    println!(
        "after pretraining on the union graph : {}",
        plain_report.pretrain_metrics
    );
    println!(
        "DGAE   (static union target)          : {}",
        plain_report.final_metrics
    );
    println!(
        "R-DGAE (Upsilon on the union graph)   : {} ({converged})",
        r_report.final_metrics
    );
    println!(
        "final self-supervision homophily       : {:.2} (union was {:.2})",
        edge_homophily(&r_report.final_graph, mx.labels()),
        edge_homophily(&data.adjacency, mx.labels()),
    );
}
