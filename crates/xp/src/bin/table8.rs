//! Table 8: ablation of the Ξ confidence thresholds α₁ and α₂ on cora-like.
//! Four variants: drop the margin criterion (α₂), drop the confidence
//! criterion (α₁), drop both (no Ξ at all), and the full operator.

use rgae_xp::{cora_r_sweep, print_table, triple_rows, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    // (label, use α₁, use α₂); with both off Ξ does not run and Ω = 𝒱.
    let ablations = [
        ("ablate alpha2", true, false),
        ("ablate alpha1", false, true),
        ("ablate both", false, false),
        ("no ablation", true, true),
    ];
    let results = cora_r_sweep(&opts, "table8.csv", &["ablation"], |base| {
        ablations
            .iter()
            .map(|&(label, a1, a2)| {
                let mut cfg = base.clone();
                cfg.xi.use_alpha1 = a1;
                cfg.xi.use_alpha2 = a2;
                (vec![label.into()], label.replace(' ', "_"), cfg)
            })
            .collect()
    });
    print_table(
        "Table 8: Xi threshold ablations (cora-like), ACC/NMI/ARI",
        &[
            "method",
            "ablate α2",
            "ablate α1",
            "ablate both",
            "no ablation",
        ],
        &triple_rows(&results),
    );
}
