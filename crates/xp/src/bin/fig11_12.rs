//! Figures 11 & 12: sensitivity of R-GMM-VGAE and R-DGAE to the Ξ
//! confidence thresholds α₁ ∈ {0.1 … 0.4} and α₂ ∈ {0.05 … 0.25} on
//! cora-like.

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
    let alpha1s: Vec<f64> = if opts.quick {
        vec![0.1, 0.3]
    } else {
        vec![0.1, 0.2, 0.3, 0.4]
    };
    let alpha2s: Vec<f64> = if opts.quick {
        vec![0.05, 0.15]
    } else {
        vec![0.05, 0.10, 0.15, 0.20, 0.25]
    };
    let grid: Vec<(f64, f64)> = alpha1s
        .iter()
        .flat_map(|&a1| alpha2s.iter().map(move |&a2| (a1, a2)))
        .collect();

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig11_12.csv"),
        &["model", "alpha1", "alpha2", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for model in [ModelKind::GmmVgae, ModelKind::Dgae] {
        let base_cfg = rconfig_for_opts(model, dataset, &opts);
        let variants = grid
            .iter()
            .map(|&(a1, a2)| {
                let mut cfg = base_cfg.clone();
                cfg.xi.alpha1 = a1;
                cfg.xi.alpha2 = a2;
                SweepVariant::r(format!("a1={a1}-a2={a2}"), cfg)
            })
            .collect();
        let results = sweep_variants(
            &opts, rec, model, dataset, &graph, &base_cfg, opts.seed, variants,
        );

        for (&(a1, a2), m) in grid.iter().zip(results.iter().map(|r| &r.final_metrics)) {
            csv.row_strs(&[
                model.name().into(),
                a1.to_string(),
                a2.to_string(),
                format!("{:.4}", m.acc),
                format!("{:.4}", m.nmi),
                format!("{:.4}", m.ari),
            ])
            .expect("csv row");
            rows.push(vec![
                format!("R-{}", model.name()),
                a1.to_string(),
                a2.to_string(),
                pct(m.acc),
                pct(m.nmi),
                pct(m.ari),
            ]);
        }
    }
    csv.finish().expect("csv flush");
    print_table(
        "Figures 11-12: sensitivity to alpha1/alpha2 (cora-like)",
        &["method", "alpha1", "alpha2", "ACC", "NMI", "ARI"],
        &rows,
    );
}
