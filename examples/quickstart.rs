//! Quickstart: generate a Cora-like attributed graph, train R-DGAE (the
//! paper's Appendix-B model wrapped with the Ξ/Υ operators), and print the
//! clustering metrics.
//!
//! ```text
//! cargo run --release -p rgae-xp --example quickstart
//! ```

use rgae_core::{RConfig, RTrainer};
use rgae_datasets::presets::cora_like;
use rgae_linalg::Rng64;
use rgae_models::{ComposedModel, TrainData};

fn main() {
    // 1. A synthetic stand-in for Cora (see DESIGN.md for the calibration).
    let graph = cora_like(0.25, 7).expect("valid preset");
    println!(
        "dataset: {} — N={} |E|={} J={} K={}",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_features(),
        graph.num_classes()
    );

    // 2. The model: DGAE (two GCN layers + DEC clustering head).
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(0);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);

    // 3. The R-trainer: Appendix-C hyper-parameters for this dataset,
    //    shrunk to a demo budget.
    let cfg = RConfig::for_dataset("cora-like").quick();
    let trainer = RTrainer::new(cfg);
    let report = trainer
        .train(&mut model, &graph, &mut rng)
        .expect("training succeeds");

    // 4. Results.
    println!("after pretraining : {}", report.pretrain_metrics);
    println!("after R-training  : {}", report.final_metrics);
    if let Some(epoch) = report.converged_at {
        println!("converged (|Omega| >= 0.9 N) at clustering epoch {epoch}");
    }
    let last = report.epochs.last().expect("at least one epoch");
    // The final epoch is always fully evaluated, so its graph stats exist.
    let gs = last
        .graph_stats
        .as_ref()
        .expect("final epoch carries stats");
    println!(
        "final self-supervision graph: {} edges ({} true / {} false)",
        gs.num_edges, gs.true_links, gs.false_links
    );
}
