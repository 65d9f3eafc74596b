//! Figure 13: sensitivity of GMM-VGAE and R-GMM-VGAE to the balancing
//! hyper-parameter γ on cora-like. The paper's finding: the R-variant is
//! noticeably less sensitive because Υ removes the competition between the
//! clustering and reconstruction signals.

use rgae_viz::CsvWriter;
use rgae_xp::{
    pct, print_table, rconfig_for_opts, stats, sweep_variants, DatasetKind, HarnessOpts, ModelKind,
    SweepVariant,
};

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.scale, opts.seed);
    let gammas: Vec<f64> = if opts.quick {
        vec![0.001, 0.1, 1.0]
    } else {
        vec![0.0001, 0.001, 0.01, 0.1, 1.0]
    };

    let base_cfg = rconfig_for_opts(ModelKind::GmmVgae, dataset, &opts);
    let arms = gammas
        .iter()
        .flat_map(|&gamma| {
            let mut cfg = base_cfg.clone();
            cfg.gamma = gamma;
            SweepVariant::plain_and_r(&format!("gamma={gamma}"), &cfg)
        })
        .collect();
    let reports = sweep_variants(
        &opts,
        rec,
        ModelKind::GmmVgae,
        dataset,
        &graph,
        &base_cfg,
        opts.seed,
        arms,
    );

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig13.csv"),
        &["gamma", "gmmvgae_acc", "rgmmvgae_acc"],
    )
    .expect("csv");
    let mut plain_accs = Vec::new();
    let mut r_accs = Vec::new();
    for (&gamma, pair) in gammas.iter().zip(reports.chunks(2)) {
        let (p, r) = (&pair[0], &pair[1]);
        csv.row(&[gamma, p.final_metrics.acc, r.final_metrics.acc])
            .expect("csv row");
        rows.push(vec![
            gamma.to_string(),
            pct(p.final_metrics.acc),
            pct(r.final_metrics.acc),
        ]);
        plain_accs.push(p.final_metrics.acc);
        r_accs.push(r.final_metrics.acc);
    }
    csv.finish().expect("csv flush");
    print_table(
        "Figure 13: gamma sensitivity (cora-like, ACC)",
        &["gamma", "GMM-VGAE", "R-GMM-VGAE"],
        &rows,
    );
    let sp = stats(&plain_accs);
    let sr = stats(&r_accs);
    println!(
        "\nACC spread across gamma — GMM-VGAE std {:.3}, R-GMM-VGAE std {:.3}",
        sp.std, sr.std
    );
    println!("(the R-variant should be the flatter curve)");
}
