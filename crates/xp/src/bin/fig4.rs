//! Figure 4: evolution of the self-supervision graph `A^self_clus` during
//! R-GMM-VGAE training on cora-like. The paper shows the graph converging
//! to K star-shaped sub-graphs; we report the snapshot statistics (edges,
//! true/false links, hub structure) plus a CSV edge dump per snapshot.

use rgae_graph::GraphStats;
use rgae_viz::CsvWriter;
use rgae_xp::{print_table, rconfig_for_opts, run_r, DatasetKind, HarnessOpts, ModelKind};

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.dataset_scale(), opts.seed);
    let mut cfg = rconfig_for_opts(ModelKind::GmmVgae, dataset, &opts);
    let snaps: Vec<usize> = if opts.quick {
        vec![0, 20, 40]
    } else {
        vec![0, 40, 80, 120]
    };
    cfg.snapshot_epochs = snaps.clone();
    cfg.max_epochs = cfg.max_epochs.max(snaps.last().unwrap() + 1);
    cfg.min_epochs = cfg.max_epochs;

    let report = run_r(&opts, rec, ModelKind::GmmVgae, dataset, &graph, cfg);

    let mut rows = Vec::new();
    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig4_snapshots.csv"),
        &[
            "epoch",
            "edges",
            "true_links",
            "false_links",
            "max_degree",
            "isolated",
        ],
    )
    .expect("csv");
    let mut edge_csv = CsvWriter::create(
        opts.out_dir.join("fig4_edges.csv"),
        &["epoch", "u", "v", "same_label"],
    )
    .expect("csv");

    for (epoch, _z, a_self) in &report.snapshots {
        let stats = GraphStats::compute(a_self, graph.labels());
        rows.push(vec![
            epoch.to_string(),
            stats.num_edges.to_string(),
            stats.true_links.to_string(),
            stats.false_links.to_string(),
            stats.max_degree.to_string(),
            stats.isolated.to_string(),
        ]);
        csv.row(&[
            *epoch as f64,
            stats.num_edges as f64,
            stats.true_links as f64,
            stats.false_links as f64,
            stats.max_degree as f64,
            stats.isolated as f64,
        ])
        .expect("csv row");
        for (u, v) in a_self.upper_edges() {
            edge_csv
                .row(&[
                    *epoch as f64,
                    u as f64,
                    v as f64,
                    (graph.labels()[u] == graph.labels()[v]) as usize as f64,
                ])
                .expect("edge row");
        }
    }
    // Final state.
    let final_stats = GraphStats::compute(&report.final_graph, graph.labels());
    rows.push(vec![
        "final".into(),
        final_stats.num_edges.to_string(),
        final_stats.true_links.to_string(),
        final_stats.false_links.to_string(),
        final_stats.max_degree.to_string(),
        final_stats.isolated.to_string(),
    ]);
    csv.finish().expect("csv flush");
    edge_csv.finish().expect("csv flush");

    print_table(
        "Figure 4: A^self_clus snapshots during R-GMM-VGAE on cora-like",
        &["epoch", "edges", "true", "false", "max_deg", "isolated"],
        &rows,
    );
    println!("\nStar-structure indicator: max_degree should approach cluster sizes");
    println!(
        "(K={} clusters over N={} nodes) while false links shrink.",
        graph.num_classes(),
        graph.num_nodes()
    );
    println!(
        "Edge dumps: {}",
        opts.out_dir.join("fig4_edges.csv").display()
    );
}
