//! Large-N smoke test for the row-streaming fused decoder.
//!
//! At N = 6000 the legacy dense decoder needs three live N×N buffers in its
//! backward (logits, BCE gradient, transpose) — ~864 MB of transient f64 —
//! which OOMs or crawls on a CI runner. The fused kernel holds a few row
//! buffers per running task plus one copy of Zᵀ (well under a megabyte per
//! thread), so a full train step completes comfortably. Run with
//! `--ignored` (CI does, in release); it is too heavy for the default
//! `cargo test` sweep.

use std::rc::Rc;

use rgae_graph::AttributedGraph;
use rgae_linalg::{Mat, Rng64};
use rgae_models::{ComposedModel, GaeModel, StepSpec, TrainData};

const N: usize = 6000;
/// The GAE's latent width (`z.cols()`, checked after training).
const LATENT: usize = 16;

fn big_graph() -> AttributedGraph {
    let mut rng = Rng64::seed_from_u64(9);
    // Ring + random chords: connected, sparse (avg degree ≈ 6), no dense
    // structure anywhere.
    let mut edges: Vec<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    for _ in 0..2 * N {
        let (a, b) = (rng.index(N), rng.index(N));
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    let features = rgae_linalg::standard_normal(N, 8, &mut rng);
    let labels: Vec<usize> = (0..N).map(|i| i % 4).collect();
    AttributedGraph::from_edges("large-n", N, &edges, features, labels, 4).unwrap()
}

#[test]
#[ignore = "heavy: N=6000 full train steps; CI runs it in release"]
fn fused_decoder_trains_at_n_6000() {
    // The dense gram alone would be N²×8 bytes; the fused decoder's scratch
    // is O(N): at most 64 f64 row buffers' worth plus Zᵀ (N·d f64). Assert
    // the memory claim before spending time.
    let scratch = rgae_linalg::fused_scratch_bytes(N, LATENT);
    let bound = 64 * N * 8 + N * LATENT * 8;
    assert!(
        scratch <= bound,
        "decoder scratch ({scratch} B) must stay within O(N) ({bound} B)"
    );

    let graph = big_graph();
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(9);
    let mut model = ComposedModel::gae(data.num_features(), &mut rng);
    let spec = StepSpec::pretrain(Rc::clone(&data.adjacency));
    let mut losses = Vec::new();
    for _ in 0..3 {
        losses.push(model.train_step(&data, &spec, &mut rng).unwrap());
    }
    assert!(
        losses.iter().all(|l| l.is_finite()),
        "losses must stay finite: {losses:?}"
    );
    assert!(
        losses[2] < losses[0],
        "training must make progress: {losses:?}"
    );
    let z: Mat = model.embed(&data);
    assert_eq!(z.shape(), (N, LATENT));
    assert!(z.as_slice().iter().all(|v| v.is_finite()));
}
