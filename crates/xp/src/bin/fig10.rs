//! Figure 10: 2-D t-SNE of the latent representations of GMM-VGAE and
//! R-GMM-VGAE at several training epochs (shared pretrained weights).
//! Emits per-snapshot CSV point clouds and ASCII previews, plus a
//! silhouette-style separability summary.

use rgae_core::RReport;
use rgae_linalg::{Mat, Rng64};
use rgae_viz::{ascii_scatter, tsne, CsvWriter, TsneConfig};
use rgae_xp::{
    rconfig_for_opts, sweep_variants, DatasetKind, HarnessOpts, ModelKind, SweepVariant,
};

/// Mean silhouette-like separation: (inter-centroid spread) / (mean
/// intra-cluster distance). Higher = better separated.
fn separation(y: &Mat, labels: &[usize], k: usize) -> f64 {
    let mut means = Mat::zeros(k, 2);
    let mut counts = vec![0usize; k];
    for (i, &l) in labels.iter().enumerate() {
        counts[l] += 1;
        for (m, &v) in means.row_mut(l).iter_mut().zip(y.row(i)) {
            *m += v;
        }
    }
    #[allow(clippy::needless_range_loop)]
    for c in 0..k {
        let inv = 1.0 / counts[c].max(1) as f64;
        for m in means.row_mut(c) {
            *m *= inv;
        }
    }
    let mut intra = 0.0;
    for (i, &l) in labels.iter().enumerate() {
        intra += y.row_sq_dist(i, means.row(l)).sqrt();
    }
    intra /= labels.len() as f64;
    let mut inter = 0.0;
    let mut pairs = 0;
    for a in 0..k {
        for b in a + 1..k {
            inter += rgae_linalg::euclidean(means.row(a), means.row(b));
            pairs += 1;
        }
    }
    inter / pairs.max(1) as f64 / intra.max(1e-9)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.dataset_scale().min(0.25), opts.seed);
    let snaps: Vec<usize> = if opts.quick {
        vec![0, 20, 40]
    } else {
        vec![0, 40, 80, 120]
    };
    let mut cfg = rconfig_for_opts(ModelKind::GmmVgae, dataset, &opts);
    cfg.snapshot_epochs = snaps.clone();
    cfg.max_epochs = cfg.max_epochs.max(snaps.last().unwrap() + 1);
    cfg.min_epochs = cfg.max_epochs;

    let arms = vec![
        SweepVariant::r("", cfg.clone()),
        SweepVariant::plain("", cfg.clone()),
    ];
    let [r, p]: [RReport; 2] = sweep_variants(
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

    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig10_points.csv"),
        &["model", "epoch", "node", "x", "y", "label"],
    )
    .expect("csv");
    let tsne_cfg = TsneConfig {
        iterations: if opts.quick { 150 } else { 300 },
        ..TsneConfig::default()
    };
    println!("\n== Figure 10: t-SNE of latent spaces on cora-like ==");
    let mut summarise = |name: &str, epoch: usize, z: &Mat| {
        let mut rng_t = Rng64::seed_from_u64(opts.seed ^ 0x75);
        let y = tsne(z, &tsne_cfg, &mut rng_t).expect("tsne");
        for i in 0..y.rows() {
            csv.row_strs(&[
                name.into(),
                epoch.to_string(),
                i.to_string(),
                format!("{:.4}", y[(i, 0)]),
                format!("{:.4}", y[(i, 1)]),
                graph.labels()[i].to_string(),
            ])
            .expect("csv row");
        }
        let sep = separation(&y, graph.labels(), graph.num_classes());
        println!("\n{name} @ epoch {epoch} — separation {sep:.2}");
        let pts: Vec<(f64, f64)> = (0..y.rows()).map(|i| (y[(i, 0)], y[(i, 1)])).collect();
        print!("{}", ascii_scatter(&pts, graph.labels(), 72, 18));
        sep
    };

    let mut final_sep = (0.0, 0.0);
    for (epoch, z, _) in &p.snapshots {
        let s = summarise("GMM-VGAE", *epoch, z);
        final_sep.0 = s;
    }
    for (epoch, z, _) in &r.snapshots {
        let s = summarise("R-GMM-VGAE", *epoch, z);
        final_sep.1 = s;
    }
    csv.finish().expect("csv flush");
    println!(
        "\nLast-snapshot separation — GMM-VGAE: {:.2} | R-GMM-VGAE: {:.2}",
        final_sep.0, final_sep.1
    );
    println!(
        "Final ACC — GMM-VGAE: {} | R-GMM-VGAE: {}",
        p.final_metrics, r.final_metrics
    );
    println!(
        "Point clouds: {}",
        opts.out_dir.join("fig10_points.csv").display()
    );
}
