//! Table 7: protection vs correction against Feature Drift.
//!
//! Protection = a single-step transform `Υ(A, P, 𝒱)` before the clustering
//! phase (eliminating reconstruction's general-purpose signal at once).
//! Correction = the paper's gradual rewrite. Finding: correction wins.

use rgae_core::FdMode;
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
    let modes = [
        (FdMode::SingleStepProtection, "protection"),
        (FdMode::GradualCorrection, "correction"),
    ];

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("table7.csv"),
        &["model", "mode", "acc", "nmi", "ari"],
    )
    .expect("csv");

    for model in ModelKind::second_group() {
        let base_cfg = rconfig_for_opts(model, dataset, &opts);
        let variants = modes
            .iter()
            .map(|&(mode, label)| {
                let mut cfg = base_cfg.clone();
                cfg.fd_mode = mode;
                SweepVariant::r(label, cfg)
            })
            .collect();
        let results = sweep_variants(
            &opts, rec, model, dataset, &graph, &base_cfg, opts.seed, variants,
        );

        let mut row = vec![format!("R-{}", model.name())];
        for ((_, label), m) in modes.iter().zip(results.iter().map(|r| &r.final_metrics)) {
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
        "Table 7: protection vs correction against FD (cora-like)",
        &["method", "protection ACC/NMI/ARI", "correction ACC/NMI/ARI"],
        &rows,
    );
}
