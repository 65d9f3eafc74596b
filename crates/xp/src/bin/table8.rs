//! Table 8: ablation of the Ξ confidence thresholds α₁ and α₂ on cora-like.
//! Four variants: drop the margin criterion (α₂), drop the confidence
//! criterion (α₁), drop both (no Ξ at all), and the full operator.

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
    let ablations = [
        ("ablate alpha2", false, true, false),
        ("ablate alpha1", true, false, false),
        ("ablate both", false, false, true),
        ("no ablation", false, false, false),
    ];

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("table8.csv"),
        &["model", "ablation", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for model in ModelKind::second_group() {
        let base_cfg = rconfig_for_opts(model, dataset, &opts);
        let variants = ablations
            .iter()
            .map(|&(label, no_a1, no_a2, no_xi)| {
                let mut cfg = base_cfg.clone();
                cfg.xi.use_alpha1 = !no_a1;
                cfg.xi.use_alpha2 = !no_a2;
                cfg.use_xi = !no_xi;
                SweepVariant::r(label.replace(' ', "_"), cfg)
            })
            .collect();
        let results = sweep_variants(
            &opts, rec, model, dataset, &graph, &base_cfg, opts.seed, variants,
        );

        let mut row = vec![format!("R-{}", model.name())];
        for ((label, ..), m) in ablations
            .iter()
            .zip(results.iter().map(|r| &r.final_metrics))
        {
            csv.row_strs(&[
                model.name().into(),
                (*label).into(),
                format!("{:.4}", m.acc),
                format!("{:.4}", m.nmi),
                format!("{:.4}", m.ari),
            ])
            .expect("csv row");
            row.push(format!("{}/{}/{}", pct(m.acc), pct(m.nmi), pct(m.ari)));
        }
        rows.push(row);
    }
    csv.finish().expect("csv flush");
    print_table(
        "Table 8: Xi threshold ablations (cora-like), ACC/NMI/ARI",
        &[
            "method",
            "ablate α2",
            "ablate α1",
            "ablate both",
            "no ablation",
        ],
        &rows,
    );
}
