//! Tables 1 & 2: best and mean ± std clustering performance of the six GAE
//! models and their R-variants on the three citation-like datasets.
//!
//! ```text
//! cargo run --release -p rgae-xp --bin table1_2 [-- --quick --trials 3]
//! ```

use rgae_core::{Metrics, RReport};
use rgae_viz::CsvWriter;
use rgae_xp::{
    best_metrics, metric_stats, pct, pct_pm, print_table, rconfig_for_opts, sweep_variants,
    DatasetKind, HarnessOpts, ModelKind, SweepVariant,
};

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let mut best_rows: Vec<Vec<String>> = Vec::new();
    let mut mean_rows: Vec<Vec<String>> = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("table1_2.csv"),
        &["dataset", "model", "variant", "trial", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for dataset in DatasetKind::citation() {
        if !opts.wants(dataset) {
            continue;
        }
        let graph = dataset.build(opts.dataset_scale(), opts.seed);
        eprintln!(
            "[table1_2] {} : N={} E={} J={} K={}",
            dataset.name(),
            graph.num_nodes(),
            graph.num_edges(),
            graph.num_features(),
            graph.num_classes()
        );
        for model in ModelKind::all() {
            let cfg = rconfig_for_opts(model, dataset, &opts);
            let mut plain_ms: Vec<Metrics> = Vec::new();
            let mut r_ms: Vec<Metrics> = Vec::new();
            for trial in 0..opts.trials {
                let seed = opts.seed + trial as u64;
                let arms = SweepVariant::plain_and_r("", &cfg);
                let reports = sweep_variants(&opts, rec, model, dataset, &graph, &cfg, seed, arms);
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
    print_table(
        "Table 1: best clustering performance (citation-like)",
        &["dataset", "method", "ACC", "NMI", "ARI"],
        &best_rows,
    );
    print_table(
        "Table 2: mean ± std over trials (citation-like)",
        &["dataset", "method", "ACC", "NMI", "ARI"],
        &mean_rows,
    );
    println!(
        "\nCSV written to {}",
        opts.out_dir.join("table1_2.csv").display()
    );
}
