//! The paper's §6 future-work direction, implemented: extending Υ to
//! multiplex graphs (several relation types over one node set).
//!
//! The scenario: a two-layer academic network — a high-homophily "citation"
//! layer and a noisier "co-authorship" layer. We train DGAE on the mean
//! multiplex filter and compare three self-supervision targets:
//!
//!   1. the raw union graph (no operators);
//!   2. the union of per-layer Υ-rewritten graphs, refreshed during
//!      training (the multiplex R recipe).
//!
//! ```text
//! cargo run --release -p rgae-xp --example multiplex_extension
//! ```

use std::rc::Rc;

use rgae_core::{
    evaluate, multiplex_self_supervision, upsilon_multiplex, xi, xi_assignments_or_kmeans,
    UpsilonConfig, XiConfig,
};
use rgae_datasets::{multiplex_like, LayerSpec, MultiplexSpec};
use rgae_graph::edge_homophily;
use rgae_linalg::Rng64;
use rgae_models::{ClusterStep, ComposedModel, GaeModel, StepSpec, TrainData};

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

    let mut rng = Rng64::seed_from_u64(1);
    let mut model = ComposedModel::dgae(data.num_features(), mx.num_classes(), &mut rng);
    // Pretrain on the raw union graph.
    let pre = StepSpec::pretrain(Rc::clone(&data.adjacency));
    for _ in 0..80 {
        model.train_step(&data, &pre, &mut rng).unwrap();
    }
    model.init_clustering(&data, &mut rng).unwrap();
    let baseline = evaluate(&model, &data, mx.labels(), &mut rng).unwrap();
    println!("after pretraining on the union graph : {baseline}");

    // Plain joint phase (static union target).
    let mut plain = model.clone();
    for _ in 0..80 {
        let target = plain.cluster_target(&data).unwrap().unwrap();
        let spec = StepSpec {
            recon_target: Some(Rc::clone(&data.adjacency)),
            gamma: 0.001,
            cluster: Some(ClusterStep {
                target,
                omega: None,
            }),
        };
        plain.train_step(&data, &spec, &mut rng).unwrap();
    }
    let plain_metrics = evaluate(&plain, &data, mx.labels(), &mut rng).unwrap();

    // Multiplex-R joint phase: Ξ picks Ω, Υ rewrites each layer, the target
    // is the union of the rewritten layers.
    let mut r_model = model;
    let xi_cfg = XiConfig::new(0.3);
    let mut target_graph = Rc::clone(&data.adjacency);
    for epoch in 0..80 {
        if epoch % 10 == 0 {
            let p = xi_assignments_or_kmeans(&r_model, &data, &mut rng).unwrap();
            let omega = xi(&p, &xi_cfg).unwrap();
            if !omega.is_empty() {
                let z = r_model.embed(&data);
                let out =
                    upsilon_multiplex(&mx, &p, &z, &omega.indices, &UpsilonConfig::default(), 0)
                        .unwrap();
                target_graph = Rc::new(multiplex_self_supervision(&out));
            }
        }
        let target = r_model.cluster_target(&data).unwrap().unwrap();
        let spec = StepSpec {
            recon_target: Some(Rc::clone(&target_graph)),
            gamma: 0.001,
            cluster: Some(ClusterStep {
                target,
                omega: None,
            }),
        };
        r_model.train_step(&data, &spec, &mut rng).unwrap();
    }
    let r_metrics = evaluate(&r_model, &data, mx.labels(), &mut rng).unwrap();

    println!("DGAE   (static union target)          : {plain_metrics}");
    println!("R-DGAE (per-layer Upsilon, multiplex) : {r_metrics}");
    println!(
        "final self-supervision homophily       : {:.2} (union was {:.2})",
        edge_homophily(&target_graph, mx.labels()),
        edge_homophily(&data.adjacency, mx.labels()),
    );
}
