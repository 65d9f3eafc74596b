//! Citation-network clustering: the paper's motivating scenario. Runs every
//! GAE-family model (plain and R-variant) on one citation-like benchmark
//! and prints a mini leaderboard — a compressed version of Table 1.
//!
//! ```text
//! cargo run --release -p rgae-xp --example citation_clustering
//! ```

use rgae_core::RReport;
use rgae_obs::NOOP;
use rgae_xp::{
    pct, print_table, rconfig_for, sweep_variants, DatasetKind, HarnessOpts, ModelKind,
    SweepVariant,
};

fn main() {
    let dataset = DatasetKind::CiteseerLike;
    let graph = dataset.build(0.25, 11);
    println!(
        "dataset: {} — N={} |E|={} K={}",
        graph.name(),
        graph.num_nodes(),
        graph.num_edges(),
        graph.num_classes()
    );

    let opts = HarnessOpts::default();
    let mut rows = Vec::new();
    for model in ModelKind::all() {
        let cfg = rconfig_for(model, dataset, true);
        let arms = SweepVariant::plain_and_r("", &cfg);
        let reports = sweep_variants(&opts, &NOOP, model, dataset, &graph, &cfg, 1, arms);
        let [plain, r]: [RReport; 2] = reports.try_into().expect("two arms");
        let (plain, r) = (plain.final_metrics, r.final_metrics);
        println!("{:<9} plain {plain} | R {r}", model.name());
        rows.push(vec![
            model.name().into(),
            pct(plain.acc),
            pct(r.acc),
            pct(r.acc - plain.acc),
        ]);
    }
    print_table(
        "plain vs R (ACC, single quick trial)",
        &["model", "plain", "R", "delta"],
        &rows,
    );
    println!("\nSecond-group models (DGAE, GMM-VGAE) are where the operators");
    println!("matter most: they train clustering jointly, so Feature");
    println!("Randomness and Feature Drift both bite without Xi/Upsilon.");
}
