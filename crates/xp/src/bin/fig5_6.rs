//! Figures 5 & 6: the Λ_FR and Λ_FD diagnostics on cora-like.
//!
//! Three experiments per figure, as in the paper:
//!   (a/d) train **R-GMM-VGAE**, record both the restricted (R) and
//!         unrestricted (plain) Λ values at the R-model's parameters;
//!   (b/e) train **GMM-VGAE**, record both values at the plain model's
//!         parameters;
//!   (c/f) cross-compare the R value from run (a) with the plain value
//!         from run (b).
//! Each CSV row also carries the normalised cumulative difference (the
//! purple curves).

use rgae_core::{EpochRecord, RReport};
use rgae_viz::{ascii_lines, CsvWriter};
use rgae_xp::{
    rconfig_for_opts, sweep_variants, DatasetKind, HarnessOpts, ModelKind, SweepVariant,
};

fn series(records: &[EpochRecord], pick: impl Fn(&EpochRecord) -> Option<f64>) -> Vec<f64> {
    records
        .iter()
        .map(|e| pick(e).unwrap_or(f64::NAN))
        .collect()
}

/// Normalised cumulative difference of two series (the purple curves).
fn cumulative_diff(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut out = Vec::with_capacity(a.len());
    let mut max_abs: f64 = 1e-12;
    for (&x, &y) in a.iter().zip(b) {
        if x.is_finite() && y.is_finite() {
            acc += x - y;
        }
        out.push(acc);
        max_abs = max_abs.max(acc.abs());
    }
    for v in &mut out {
        *v /= max_abs;
    }
    out
}

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.dataset_scale(), opts.seed);
    let mut cfg = rconfig_for_opts(ModelKind::GmmVgae, dataset, &opts);
    cfg.track_diagnostics = true;
    cfg.eval_every = 1;
    cfg.min_epochs = cfg.max_epochs; // full trace, no early stop
    if !opts.quick {
        cfg.max_epochs = 140;
        cfg.min_epochs = 140;
    }

    // Experiment 1 trains R-GMM-VGAE, experiment 2 plain GMM-VGAE, both
    // from the same pretrained model and the same post-pretrain RNG stream.
    let arms = vec![
        SweepVariant::r("", cfg.clone()),
        SweepVariant::plain("", cfg.clone()),
    ];
    let [r_report, p_report]: [RReport; 2] = sweep_variants(
        &opts,
        rec,
        ModelKind::GmmVgae,
        dataset,
        &graph,
        &cfg,
        opts.seed,
        arms,
    )
    .try_into()
    .expect("one report per arm");

    // Assemble the series.
    let fr_r_at_r = series(&r_report.epochs, |e| e.lambda_fr_restricted); // blue (a)
    let fr_plain_at_r = series(&r_report.epochs, |e| e.lambda_fr_full); // green (a)
    let fr_r_at_p = series(&p_report.epochs, |e| e.lambda_fr_restricted); // gold (b)
    let fr_plain_at_p = series(&p_report.epochs, |e| e.lambda_fr_full); // red (b)
    let fd_r_at_r = series(&r_report.epochs, |e| e.lambda_fd_current);
    let fd_plain_at_r = series(&r_report.epochs, |e| e.lambda_fd_vanilla);
    let fd_r_at_p = series(&p_report.epochs, |e| e.lambda_fd_current);
    let fd_plain_at_p = series(&p_report.epochs, |e| e.lambda_fd_vanilla);

    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig5_6.csv"),
        &[
            "epoch",
            "fr_r_at_r",
            "fr_plain_at_r",
            "fr_cumdiff_a",
            "fr_r_at_p",
            "fr_plain_at_p",
            "fr_cumdiff_b",
            "fr_cumdiff_c",
            "fd_r_at_r",
            "fd_plain_at_r",
            "fd_cumdiff_a",
            "fd_r_at_p",
            "fd_plain_at_p",
            "fd_cumdiff_b",
            "fd_cumdiff_c",
        ],
    )
    .expect("csv");
    let fr_cd_a = cumulative_diff(&fr_r_at_r, &fr_plain_at_r);
    let fr_cd_b = cumulative_diff(&fr_r_at_p, &fr_plain_at_p);
    let fr_cd_c = cumulative_diff(&fr_r_at_r, &fr_plain_at_p);
    let fd_cd_a = cumulative_diff(&fd_r_at_r, &fd_plain_at_r);
    let fd_cd_b = cumulative_diff(&fd_r_at_p, &fd_plain_at_p);
    let fd_cd_c = cumulative_diff(&fd_r_at_r, &fd_plain_at_p);
    let n = fr_r_at_r.len().min(fr_r_at_p.len());
    for i in 0..n {
        csv.row(&[
            i as f64,
            fr_r_at_r[i],
            fr_plain_at_r[i],
            fr_cd_a[i],
            fr_r_at_p[i],
            fr_plain_at_p[i],
            fr_cd_b[i],
            fr_cd_c[i],
            fd_r_at_r[i],
            fd_plain_at_r[i],
            fd_cd_a[i],
            fd_r_at_p[i],
            fd_plain_at_p[i],
            fd_cd_b[i],
            fd_cd_c[i],
        ])
        .expect("csv row");
    }
    csv.finish().expect("csv flush");

    println!("\n== Figure 5 (Λ_FR on cora-like) ==");
    println!("(a) during R-GMM-VGAE training:");
    print!(
        "{}",
        ascii_lines(
            &[("R (restricted)", &fr_r_at_r), ("plain", &fr_plain_at_r)],
            70,
            12
        )
    );
    println!("(b) during GMM-VGAE training:");
    print!(
        "{}",
        ascii_lines(
            &[("R (restricted)", &fr_r_at_p), ("plain", &fr_plain_at_p)],
            70,
            12
        )
    );
    println!("\n== Figure 6 (Λ_FD on cora-like) ==");
    println!("(a) during R-GMM-VGAE training:");
    print!(
        "{}",
        ascii_lines(
            &[("R graph", &fd_r_at_r), ("vanilla A", &fd_plain_at_r)],
            70,
            12
        )
    );
    println!("(b) during GMM-VGAE training:");
    print!(
        "{}",
        ascii_lines(
            &[("R graph", &fd_r_at_p), ("vanilla A", &fd_plain_at_p)],
            70,
            12
        )
    );
    println!(
        "\nFinal ACC — R-GMM-VGAE: {} | GMM-VGAE: {}",
        r_report.final_metrics, p_report.final_metrics
    );
    println!("Full series: {}", opts.out_dir.join("fig5_6.csv").display());
}
