//! Tables 3 & 4: best and mean ± std clustering performance of GMM-VGAE and
//! DGAE (± R) on the three air-traffic-like datasets.

use rgae_xp::{plain_vs_r_tables, DatasetKind, HarnessOpts, ModelKind};

fn main() {
    let opts = HarnessOpts::from_args();
    plain_vs_r_tables(
        &opts,
        "table3_4",
        DatasetKind::air(),
        &ModelKind::second_group(),
        // Air presets are already small; run them at full size.
        1.0,
        [
            "Table 3: best clustering performance (air-traffic-like)",
            "Table 4: mean ± std over trials (air-traffic-like)",
        ],
    );
}
