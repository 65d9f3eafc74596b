//! Figures 7 & 8: robustness of DGAE vs R-DGAE on cora-like under four
//! corruptions — added random edges, added Gaussian feature noise, dropped
//! edges, dropped feature columns. Both models share the pretrained weights
//! *and* the corrupted dataset in every comparison.

use rgae_core::{Metrics, RConfig};
use rgae_datasets::{add_feature_noise, add_random_edges, drop_feature_columns, drop_random_edges};
use rgae_graph::AttributedGraph;
use rgae_linalg::Rng64;
use rgae_obs::Recorder;
use rgae_viz::CsvWriter;
use rgae_xp::{
    pct, print_table, rconfig_for_opts, sweep_variants, DatasetKind, HarnessOpts, ModelKind,
    SweepVariant,
};

/// DGAE then R-DGAE on one (corrupted) graph, from shared pretrained
/// weights; returns their final metrics.
fn run_both(
    graph: &AttributedGraph,
    opts: &HarnessOpts,
    cfg: &RConfig,
    variant: &str,
    rec: &dyn Recorder,
) -> (Metrics, Metrics) {
    let reports = sweep_variants(
        opts,
        rec,
        ModelKind::Dgae,
        DatasetKind::CoraLike,
        graph,
        cfg,
        opts.seed,
        SweepVariant::plain_and_r(variant, cfg),
    );
    (reports[0].final_metrics, reports[1].final_metrics)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let clean = dataset.build(opts.scale, opts.seed);
    let cfg = rconfig_for_opts(ModelKind::Dgae, dataset, &opts);
    let e = clean.num_edges();

    let added_edges: Vec<usize> = if opts.quick {
        vec![0, e / 4]
    } else {
        vec![0, e / 4, e / 2, e]
    };
    let noise_vars: Vec<f64> = if opts.quick {
        vec![0.0, 0.1]
    } else {
        vec![0.0, 0.05, 0.1, 0.2]
    };
    let dropped_edges: Vec<usize> = if opts.quick {
        vec![0, e / 8]
    } else {
        vec![0, e / 8, e / 4, e / 2]
    };
    let j = clean.num_features();
    let dropped_cols: Vec<usize> = if opts.quick {
        vec![0, j / 10]
    } else {
        vec![0, j / 10, j / 5, 2 * j / 5]
    };

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig7_8.csv"),
        &[
            "corruption",
            "level",
            "dgae_acc",
            "dgae_ari",
            "rdgae_acc",
            "rdgae_ari",
        ],
    )
    .expect("csv");
    let mut run_sweep = |name: &str,
                         levels: &[f64],
                         corrupt: &dyn Fn(f64, &mut Rng64) -> AttributedGraph,
                         rows: &mut Vec<Vec<String>>| {
        for &level in levels {
            // Identical corruption for both models: fixed seed per level.
            let mut crng = Rng64::seed_from_u64(opts.seed ^ (level.to_bits() >> 3));
            let graph = corrupt(level, &mut crng);
            let (p, r) = run_both(&graph, &opts, &cfg, &format!("{name}={level}"), rec);
            csv.row_strs(&[
                name.into(),
                level.to_string(),
                format!("{:.4}", p.acc),
                format!("{:.4}", p.ari),
                format!("{:.4}", r.acc),
                format!("{:.4}", r.ari),
            ])
            .expect("csv row");
            rows.push(vec![
                name.into(),
                level.to_string(),
                format!("{}/{}", pct(p.acc), pct(p.ari)),
                format!("{}/{}", pct(r.acc), pct(r.ari)),
            ]);
        }
    };

    run_sweep(
        "add_edges",
        &added_edges.iter().map(|&x| x as f64).collect::<Vec<_>>(),
        &|lvl, rng| {
            let requested = lvl as usize;
            let (g, added) = add_random_edges(&clean, requested, rng, rec).unwrap();
            if added < requested {
                eprintln!("  warning: add_edges delivered {added}/{requested} edges");
            }
            g
        },
        &mut rows,
    );
    run_sweep(
        "feature_noise_var",
        &noise_vars,
        &|lvl, rng| add_feature_noise(&clean, lvl.sqrt(), rng).unwrap(),
        &mut rows,
    );
    run_sweep(
        "drop_edges",
        &dropped_edges.iter().map(|&x| x as f64).collect::<Vec<_>>(),
        &|lvl, rng| drop_random_edges(&clean, lvl as usize, rng).unwrap(),
        &mut rows,
    );
    run_sweep(
        "drop_feature_cols",
        &dropped_cols.iter().map(|&x| x as f64).collect::<Vec<_>>(),
        &|lvl, rng| drop_feature_columns(&clean, lvl as usize, rng).unwrap(),
        &mut rows,
    );
    csv.finish().expect("csv flush");

    print_table(
        "Figures 7-8: robustness of DGAE vs R-DGAE (cora-like)",
        &["corruption", "level", "DGAE ACC/ARI", "R-DGAE ACC/ARI"],
        &rows,
    );
}
