//! Table 6: protection vs correction against Feature Randomness.
//!
//! Protection = Ξ active from the first clustering epoch (`delay = 0`).
//! Correction = Ξ delayed by {10, 30, 50, 100, …} epochs so FR occurs first.
//! The paper's finding: protection wins and longer delays generally hurt.

use rgae_xp::{cora_r_sweep, pct, print_table, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    let delays: Vec<usize> = if opts.quick {
        vec![0, 10, 30]
    } else {
        vec![0, 10, 30, 50, 100]
    };
    let results = cora_r_sweep(&opts, "table6.csv", &["delay"], |base| {
        delays
            .iter()
            .map(|&delay| {
                let mut cfg = base.clone();
                cfg.delay_xi = delay;
                // Delayed runs must not converge before Ξ even starts.
                cfg.min_epochs = cfg.min_epochs.max(delay + base.m1);
                cfg.max_epochs = cfg.max_epochs.max(delay + base.m1 + 20);
                (vec![delay.to_string()], format!("delay={delay}"), cfg)
            })
            .collect()
    });

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(model, ms)| {
            let cells = ms.iter().map(|m| format!("{}/{}", pct(m.acc), pct(m.nmi)));
            [format!("R-{}", model.name())]
                .into_iter()
                .chain(cells)
                .collect()
        })
        .collect();
    let mut headers: Vec<String> = vec!["method".into(), "protection (no delay) ACC/NMI".into()];
    for &d in delays.iter().skip(1) {
        headers.push(format!("correction after {d} ACC/NMI"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Table 6: protection vs correction against FR (cora-like)",
        &header_refs,
        &rows,
    );
}
