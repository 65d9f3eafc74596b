//! Figures 11 & 12: sensitivity of R-GMM-VGAE and R-DGAE to the Ξ
//! confidence thresholds α₁ ∈ {0.1 … 0.4} and α₂ ∈ {0.05 … 0.25} on
//! cora-like.

use rgae_xp::{cora_r_sweep, pct, print_table, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let alpha1s: Vec<f64> = if opts.quick {
        vec![0.1, 0.3]
    } else {
        vec![0.1, 0.2, 0.3, 0.4]
    };
    let alpha2s: Vec<f64> = if opts.quick {
        vec![0.05, 0.15]
    } else {
        vec![0.05, 0.10, 0.15, 0.20, 0.25]
    };
    let grid: Vec<(f64, f64)> = alpha1s
        .iter()
        .flat_map(|&a1| alpha2s.iter().map(move |&a2| (a1, a2)))
        .collect();
    let results = cora_r_sweep(&opts, "fig11_12.csv", &["alpha1", "alpha2"], |base| {
        grid.iter()
            .map(|&(a1, a2)| {
                let mut cfg = base.clone();
                cfg.xi.alpha1 = a1;
                cfg.xi.alpha2 = a2;
                let keys = vec![a1.to_string(), a2.to_string()];
                (keys, format!("a1={a1}-a2={a2}"), cfg)
            })
            .collect()
    });

    let mut rows = Vec::new();
    for (model, ms) in &results {
        for (&(a1, a2), m) in grid.iter().zip(ms) {
            rows.push(vec![
                format!("R-{}", model.name()),
                a1.to_string(),
                a2.to_string(),
                pct(m.acc),
                pct(m.nmi),
                pct(m.ari),
            ]);
        }
    }
    print_table(
        "Figures 11-12: sensitivity to alpha1/alpha2 (cora-like)",
        &["method", "alpha1", "alpha2", "ACC", "NMI", "ARI"],
        &rows,
    );
}
