//! Air-traffic tier discovery: the paper's second benchmark family. These
//! graphs have *no node attributes* — features are one-hot degree encodings
//! — so clustering must exploit pure structure. Runs GMM-VGAE vs
//! R-GMM-VGAE on a Brazil-air-like network (a compressed Table 3 row).
//!
//! ```text
//! cargo run --release -p rgae-xp --example airport_tiers
//! ```

use rgae_core::RReport;
use rgae_obs::NOOP;
use rgae_xp::{rconfig_for, sweep_variants, DatasetKind, HarnessOpts, ModelKind, SweepVariant};

fn main() {
    let dataset = DatasetKind::BrazilAir;
    let graph = dataset.build(1.0, 5);
    println!(
        "dataset: {} — N={} |E|={} tiers={}",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_classes()
    );
    // Degree profile per tier (the signal the model must recover).
    let mut deg_sum = vec![0usize; graph.num_classes()];
    let mut counts = vec![0usize; graph.num_classes()];
    for i in 0..graph.num_nodes() {
        deg_sum[graph.labels()[i]] += graph.adjacency().row_indices(i).len();
        counts[graph.labels()[i]] += 1;
    }
    for t in 0..graph.num_classes() {
        println!(
            "tier {t}: {} airports, mean degree {:.1}",
            counts[t],
            deg_sum[t] as f64 / counts[t].max(1) as f64
        );
    }

    let model = ModelKind::GmmVgae;
    let cfg = rconfig_for(model, dataset, true);
    let opts = HarnessOpts::default();
    let arms = SweepVariant::plain_and_r("", &cfg);
    let reports = sweep_variants(&opts, &NOOP, model, dataset, &graph, &cfg, 3, arms);
    let [plain, r]: [RReport; 2] = reports.try_into().expect("two arms");
    println!("\nGMM-VGAE   : {}", plain.final_metrics);
    println!("R-GMM-VGAE : {}", r.final_metrics);
    println!("\nThe R-variant's edge edits matter here: hub-to-hub links between");
    println!("different tiers are exactly the clustering-irrelevant edges Upsilon drops.");
}
