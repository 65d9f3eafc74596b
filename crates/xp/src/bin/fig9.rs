//! Figure 9: learning dynamics of R-GMM-VGAE on cora-like —
//! (a) |Ω| over epochs, (b) overall ACC, (c) ACC of Ω vs 𝒱−Ω,
//! (d) links of A^self_clus (true/false), (e) added links, (f) dropped
//! links.

use rgae_viz::{ascii_lines, CsvWriter};
use rgae_xp::{rconfig_for_opts, run_r, DatasetKind, HarnessOpts, ModelKind};

fn main() {
    let opts = HarnessOpts::from_args();
    let trace = opts.recorder();
    let rec = trace.as_ref();
    let dataset = DatasetKind::CoraLike;
    let graph = dataset.build(opts.dataset_scale(), opts.seed);
    let mut cfg = rconfig_for_opts(ModelKind::GmmVgae, dataset, &opts);
    cfg.eval_every = 1;
    cfg.min_epochs = cfg.max_epochs; // full trace

    let report = run_r(&opts, rec, ModelKind::GmmVgae, dataset, &graph, cfg);

    let mut csv = CsvWriter::create(
        opts.out_dir.join("fig9.csv"),
        &[
            "epoch",
            "omega_size",
            "acc_all",
            "acc_omega",
            "acc_rest",
            "links",
            "true_links",
            "false_links",
            "added_true",
            "added_false",
            "dropped_true",
            "dropped_false",
        ],
    )
    .expect("csv");
    let mut omega_sz = Vec::new();
    let mut acc_all = Vec::new();
    let mut acc_omega = Vec::new();
    let mut acc_rest = Vec::new();
    let mut links = Vec::new();
    let mut false_links = Vec::new();
    for e in &report.epochs {
        let acc = e.metrics.map_or(f64::NAN, |m| m.acc);
        let gs = e.graph_stats.as_ref().expect("eval_every = 1");
        let added = e.added_links.expect("eval_every = 1");
        let dropped = e.dropped_links.expect("eval_every = 1");
        csv.row(&[
            e.epoch as f64,
            e.omega_size as f64,
            acc,
            e.omega_acc,
            e.rest_acc,
            gs.num_edges as f64,
            gs.true_links as f64,
            gs.false_links as f64,
            added.0 as f64,
            added.1 as f64,
            dropped.0 as f64,
            dropped.1 as f64,
        ])
        .expect("csv row");
        omega_sz.push(e.omega_size as f64);
        acc_all.push(acc);
        acc_omega.push(e.omega_acc);
        acc_rest.push(e.rest_acc);
        links.push(gs.num_edges as f64);
        false_links.push(gs.false_links as f64);
    }
    csv.finish().expect("csv flush");

    println!("\n== Figure 9: learning dynamics of R-GMM-VGAE on cora-like ==");
    println!(
        "(a) decidable nodes |Omega| (of N = {}):",
        graph.num_nodes()
    );
    print!("{}", ascii_lines(&[("omega", &omega_sz)], 70, 10));
    println!("(b)+(c) accuracy overall / on Omega / on rest:");
    print!(
        "{}",
        ascii_lines(
            &[
                ("all", &acc_all),
                ("omega", &acc_omega),
                ("rest", &acc_rest)
            ],
            70,
            12
        )
    );
    println!("(d) links of A_clus^self (total vs false):");
    print!(
        "{}",
        ascii_lines(&[("links", &links), ("false", &false_links)], 70, 10)
    );
    let last = report.epochs.last().unwrap();
    let last_added = last.added_links.expect("eval_every = 1");
    let last_dropped = last.dropped_links.expect("eval_every = 1");
    println!(
        "final: |Omega| = {} ({:.0}%), added true/false = {}/{}, dropped true/false = {}/{}",
        last.omega_size,
        100.0 * last.omega_size as f64 / graph.num_nodes() as f64,
        last_added.0,
        last_added.1,
        last_dropped.0,
        last_dropped.1
    );
    println!("Final metrics: {}", report.final_metrics);
    println!("Series: {}", opts.out_dir.join("fig9.csv").display());
}
