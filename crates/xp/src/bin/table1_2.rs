//! Tables 1 & 2: best and mean ± std clustering performance of the six GAE
//! models and their R-variants on the three citation-like datasets.
//!
//! ```text
//! cargo run --release -p rgae-xp --bin table1_2 [-- --quick --trials 3]
//! ```

use rgae_xp::{plain_vs_r_tables, DatasetKind, HarnessOpts, ModelKind};

fn main() {
    let opts = HarnessOpts::from_args();
    plain_vs_r_tables(
        &opts,
        "table1_2",
        DatasetKind::citation(),
        &ModelKind::all(),
        opts.scale,
        [
            "Table 1: best clustering performance (citation-like)",
            "Table 2: mean ± std over trials (citation-like)",
        ],
    );
}
