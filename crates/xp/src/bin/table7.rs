//! Table 7: protection vs correction against Feature Drift.
//!
//! Protection = a single-step transform `Υ(A, P, 𝒱)` before the clustering
//! phase (eliminating reconstruction's general-purpose signal at once).
//! Correction = the paper's gradual rewrite. Finding: correction wins.

use rgae_core::FdMode;
use rgae_xp::{cora_r_sweep, print_table, triple_rows, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let modes = [
        (FdMode::SingleStepProtection, "protection"),
        (FdMode::GradualCorrection, "correction"),
    ];
    let results = cora_r_sweep(&opts, "table7.csv", &["mode"], |base| {
        modes
            .iter()
            .map(|&(mode, label)| {
                let mut cfg = base.clone();
                cfg.fd_mode = mode;
                (vec![label.into()], label.into(), cfg)
            })
            .collect()
    });
    print_table(
        "Table 7: protection vs correction against FD (cora-like)",
        &["method", "protection ACC/NMI/ARI", "correction ACC/NMI/ARI"],
        &triple_rows(&results),
    );
}
