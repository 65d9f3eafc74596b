//! Table 9: ablation of Υ's "add_edge" and "drop_edge" operations on
//! cora-like. Four variants: no dropping, no adding, neither (no Υ), full.

use rgae_xp::{cora_r_sweep, print_table, triple_rows, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    // (label, add edges, drop edges); with both off Υ does not run.
    let ablations = [
        ("ablate drop_edge", true, false),
        ("ablate add_edge", false, true),
        ("ablate both", false, false),
        ("no ablation", true, true),
    ];
    let results = cora_r_sweep(&opts, "table9.csv", &["ablation"], |base| {
        ablations
            .iter()
            .map(|&(label, add, drop)| {
                let mut cfg = base.clone();
                cfg.upsilon.add_edges = add;
                cfg.upsilon.drop_edges = drop;
                (vec![label.into()], label.replace(' ', "_"), cfg)
            })
            .collect()
    });
    print_table(
        "Table 9: Upsilon add/drop ablations (cora-like), ACC/NMI/ARI",
        &[
            "method",
            "ablate drop_edge",
            "ablate add_edge",
            "ablate both",
            "no ablation",
        ],
        &triple_rows(&results),
    );
}
