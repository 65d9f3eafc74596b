//! Table 9: ablation of Υ's "add_edge" and "drop_edge" operations on
//! cora-like. Four variants: no dropping, no adding, neither (no Υ), full.

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
        ("ablate drop_edge", true, false, true),
        ("ablate add_edge", false, true, true),
        ("ablate both", false, false, false),
        ("no ablation", true, true, true),
    ];

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("table9.csv"),
        &["model", "ablation", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for model in ModelKind::second_group() {
        let base_cfg = rconfig_for_opts(model, dataset, &opts);
        let variants = ablations
            .iter()
            .map(|&(label, add, drop, use_upsilon)| {
                let mut cfg = base_cfg.clone();
                cfg.upsilon.add_edges = add;
                cfg.upsilon.drop_edges = drop;
                cfg.use_upsilon = use_upsilon;
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
        "Table 9: Upsilon add/drop ablations (cora-like), ACC/NMI/ARI",
        &[
            "method",
            "ablate drop_edge",
            "ablate add_edge",
            "ablate both",
            "no ablation",
        ],
        &rows,
    );
}
