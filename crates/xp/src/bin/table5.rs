//! Table 5: execution time (seconds) of GMM-VGAE / R-GMM-VGAE and
//! DGAE / R-DGAE on the citation-like datasets — best, mean, and variance
//! over trials. The claim under test: the Ξ/Υ operators add no significant
//! overhead (their cost is near-linear; training is quadratic in N).

use rgae_core::RReport;
use rgae_viz::CsvWriter;
use rgae_xp::{
    print_table, rconfig_for_opts, stats, sweep_variants, DatasetKind, HarnessOpts, ModelKind,
    SweepVariant,
};

fn main() {
    let mut opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    // The paper uses ten trials for timing; keep that unless --quick.
    if !opts.quick && opts.trials < 10 {
        opts.trials = 10;
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("table5.csv"),
        &["dataset", "model", "variant", "trial", "seconds"],
    )
    .expect("csv");

    for dataset in DatasetKind::citation() {
        if !opts.wants(dataset) {
            continue;
        }
        let graph = dataset.build(opts.dataset_scale(), opts.seed);
        for model in ModelKind::second_group() {
            let cfg = rconfig_for_opts(model, dataset, &opts);
            let mut plain_t = Vec::new();
            let mut r_t = Vec::new();
            let mut plain_pe = Vec::new();
            let mut r_pe = Vec::new();
            for trial in 0..opts.trials {
                let seed = opts.seed + trial as u64;
                let arms = SweepVariant::plain_and_r("", &cfg);
                let reports = sweep_variants(&opts, rec, model, dataset, &graph, &cfg, seed, arms);
                let [plain, r]: [RReport; 2] = reports.try_into().expect("two arms");
                plain_t.push(plain.train_seconds);
                r_t.push(r.train_seconds);
                plain_pe.push(plain.train_seconds / plain.epochs.len().max(1) as f64);
                r_pe.push(r.train_seconds / r.epochs.len().max(1) as f64);
                for (variant, t) in [("plain", plain.train_seconds), ("r", r.train_seconds)] {
                    csv.row_strs(&[
                        dataset.name().into(),
                        model.name().into(),
                        variant.into(),
                        trial.to_string(),
                        format!("{t:.4}"),
                    ])
                    .expect("csv row");
                }
            }
            for (label, ts, pe) in [
                (model.name().to_string(), &plain_t, &plain_pe),
                (format!("R-{}", model.name()), &r_t, &r_pe),
            ] {
                let best = ts.iter().cloned().fold(f64::INFINITY, f64::min);
                let s = stats(ts);
                let spe = stats(pe);
                rows.push(vec![
                    dataset.name().into(),
                    label,
                    format!("{best:.3}"),
                    format!("{:.3}", s.mean),
                    format!("{:.4}", s.std * s.std),
                    format!("{:.4}", spe.mean),
                ]);
            }
        }
    }
    csv.finish().expect("csv flush");
    print_table(
        "Table 5: clustering-phase execution time (seconds)",
        &["dataset", "method", "best", "mean", "variance", "sec/epoch"],
        &rows,
    );
    println!("\nNote: absolute times are incomparable to the paper's server;");
    println!("the reproduced claim is the small R-overhead ratio per dataset.");
    println!("R whole-phase times can be *lower* because R runs stop at the");
    println!("|Omega| >= 0.9N convergence criterion; compare sec/epoch for the");
    println!("per-step operator overhead.");
}
