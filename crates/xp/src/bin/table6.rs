//! Table 6: protection vs correction against Feature Randomness.
//!
//! Protection = Ξ active from the first clustering epoch (`delay = 0`).
//! Correction = Ξ delayed by {10, 30, 50, 100, …} epochs so FR occurs first.
//! The paper's finding: protection wins and longer delays generally hurt.

use rgae_viz::CsvWriter;
use rgae_xp::{
    pct, print_table, rconfig_for_opts, sweep_variants, DatasetKind, HarnessOpts, ModelKind,
    SweepVariant,
};

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.dataset_scale(), opts.seed);
    let delays: Vec<usize> = if opts.quick {
        vec![0, 10, 30]
    } else {
        vec![0, 10, 30, 50, 100]
    };

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("table6.csv"),
        &["model", "delay", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for model in ModelKind::second_group() {
        let base_cfg = rconfig_for_opts(model, dataset, &opts);
        let variants = delays
            .iter()
            .map(|&delay| {
                let mut cfg = base_cfg.clone();
                cfg.delay_xi = delay;
                // Delayed runs must not converge before Ξ even starts.
                cfg.min_epochs = cfg.min_epochs.max(delay + base_cfg.m1);
                cfg.max_epochs = cfg.max_epochs.max(delay + base_cfg.m1 + 20);
                SweepVariant::r(format!("delay={delay}"), cfg)
            })
            .collect();
        let results = sweep_variants(
            &opts, rec, model, dataset, &graph, &base_cfg, opts.seed, variants,
        );

        let mut row = vec![format!("R-{}", model.name())];
        for (delay, m) in delays.iter().zip(results.iter().map(|r| &r.final_metrics)) {
            csv.row_strs(&[
                model.name().into(),
                delay.to_string(),
                format!("{:.4}", m.acc),
                format!("{:.4}", m.nmi),
                format!("{:.4}", m.ari),
            ])
            .expect("csv row");
            row.push(format!("{}/{}", pct(m.acc), pct(m.nmi)));
        }
        rows.push(row);
    }
    csv.finish().expect("csv flush");

    let mut headers: Vec<String> = vec!["method".into(), "protection (no delay) ACC/NMI".into()];
    for &d in delays.iter().skip(1) {
        headers.push(format!("correction after {d} ACC/NMI"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Table 6: protection vs correction against FR (cora-like)",
        &header_refs,
        &rows,
    );
}
