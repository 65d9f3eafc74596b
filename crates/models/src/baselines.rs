//! Lightweight baselines for the paper's Table 17 comparison.
//!
//! These are deliberately compact re-implementations of the published
//! methods' cores (the "-lite" suffix marks documented simplifications, see
//! DESIGN.md):
//!
//! * [`mgae_lite`] — Marginalised Graph Auto-Encoder (Wang et al. 2017):
//!   stacked single-layer graph auto-encoders with marginalised-denoising
//!   closed-form weights, clusters by k-means on the last layer.
//! * [`agc_lite`] — Adaptive Graph Convolution (Zhang et al. 2019): k-order
//!   low-pass filtering `((I + Ã)/2)^k X` followed by k-means.
//! * [`spectral_lite`] — a spectral baseline standing in for the
//!   matrix-factorisation family (TADW): top-d eigenvectors of the
//!   normalised adjacency by orthogonal (subspace) iteration + k-means.
//! * [`daegc_lite_data`] — DAEGC's attention is approximated by a fixed
//!   2-hop proximity filter `(Ã + Ã²)/2`; training then reuses
//!   [`crate::ComposedModel::dgae`] (GCN + DEC head + reconstruction), which
//!   matches DAEGC's loss.

use std::rc::Rc;

use rgae_cluster::kmeans;
use rgae_graph::AttributedGraph;
use rgae_linalg::{Csr, Mat, Rng64};
use rgae_obs::NOOP;

use crate::{Result, TrainData};

/// Marginalised denoising graph auto-encoder (MGAE-lite).
///
/// Each layer computes `H ← Ã H W` where `W` is the marginalised-denoising
/// ridge solution of reconstructing `H` from its corrupted filtered version
/// with feature-dropout probability `corruption`.
/// Returns `(assignments, final_representation)`.
pub fn mgae_lite(
    graph: &AttributedGraph,
    layers: usize,
    corruption: f64,
    lambda: f64,
    rng: &mut Rng64,
) -> Result<(Vec<usize>, Mat)> {
    let filt = graph.gcn_filter();
    let mut h = graph.features().clone();
    let q = 1.0 - corruption;
    for _ in 0..layers.max(1) {
        let s = filt.spmm(&h).expect("filter applies");
        // Marginalised mDA: E[S̃ᵀS̃] scales off-diagonal entries by q² and
        // the diagonal by q; E[S̃ᵀH] scales by q.
        let sts = s.t_matmul(&s).expect("gram");
        let j = sts.rows();
        let mut lhs = sts.scale(q * q);
        for i in 0..j {
            lhs[(i, i)] = q * sts[(i, i)] + lambda;
        }
        let rhs = s.t_matmul(&h).expect("cross").scale(q);
        let w = lhs
            .solve_spd(&rhs)
            .map_err(|_| crate::Error::Invalid("mgae: ridge system not SPD"))?;
        h = s.matmul(&w).expect("layer shapes");
        // MGAE re-normalises layer outputs to keep the stack stable.
        h = h.row_l2_normalized();
    }
    let km = kmeans(&h, graph.num_classes(), 100, rng, &NOOP)?;
    Ok((km.assignments, h))
}

/// Adaptive graph convolution (AGC-lite): `((I + Ã)/2)^k X`, then k-means.
pub fn agc_lite(graph: &AttributedGraph, k_order: usize, rng: &mut Rng64) -> Result<Vec<usize>> {
    let filt = graph.gcn_filter();
    let mut h = graph.features().clone();
    for _ in 0..k_order.max(1) {
        let fh = filt.spmm(&h).expect("filter applies");
        h = h.add(&fh).expect("same shape").scale(0.5);
    }
    let km = kmeans(&h, graph.num_classes(), 100, rng, &NOOP)?;
    Ok(km.assignments)
}

/// Spectral baseline: top-`d` eigenvectors of Ã via orthogonal iteration,
/// then k-means on the (row-wise) spectral embedding.
pub fn spectral_lite(graph: &AttributedGraph, d: usize, rng: &mut Rng64) -> Result<Vec<usize>> {
    let filt = graph.gcn_filter();
    let n = graph.num_nodes();
    let d = d.min(n);
    let mut q = rgae_linalg::standard_normal(n, d, rng);
    gram_schmidt(&mut q);
    for _ in 0..60 {
        let aq = filt.spmm(&q).expect("square filter");
        q = aq;
        gram_schmidt(&mut q);
    }
    let km = kmeans(&q, graph.num_classes(), 100, rng, &NOOP)?;
    Ok(km.assignments)
}

/// Column-wise modified Gram–Schmidt orthonormalisation (in place).
fn gram_schmidt(q: &mut Mat) {
    let (n, d) = q.shape();
    for j in 0..d {
        for prev in 0..j {
            let mut dot = 0.0;
            for i in 0..n {
                dot += q[(i, j)] * q[(i, prev)];
            }
            for i in 0..n {
                q[(i, j)] -= dot * q[(i, prev)];
            }
        }
        let norm: f64 = (0..n).map(|i| q[(i, j)] * q[(i, j)]).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for i in 0..n {
                q[(i, j)] /= norm;
            }
        }
    }
}

/// Training data for DAEGC-lite: identical to [`TrainData::from_graph`] but
/// with the 2-hop proximity filter `(Ã + Ã²)/2` standing in for DAEGC's
/// learned attention. Feed the result to [`crate::ComposedModel::dgae`].
pub fn daegc_lite_data(graph: &AttributedGraph) -> TrainData {
    let mut data = TrainData::from_graph(graph);
    let a1 = data.filter.to_dense();
    let a2 = a1.matmul(&a1).expect("square");
    let mixed = a1.add(&a2).expect("same shape").scale(0.5);
    // Sparsify: keep entries that carry real propagation weight.
    let n = mixed.rows();
    let mut triplets = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let v = mixed[(i, j)];
            if v > 1e-6 {
                triplets.push((i, j, v));
            }
        }
    }
    data.filter = Rc::new(Csr::from_triplets(n, n, &triplets).expect("in range"));
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgae_cluster::accuracy;
    use rgae_datasets::{citation_like, CitationSpec};

    fn easy_graph(seed: u64) -> AttributedGraph {
        citation_like(
            &CitationSpec {
                name: "easy".into(),
                num_nodes: 180,
                num_classes: 3,
                num_features: 90,
                avg_degree: 6.0,
                homophily: 0.92,
                degree_power: 3.0,
                words_per_node: 14,
                topic_purity: 0.9,
                class_proportions: vec![],
            },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn mgae_lite_beats_chance_clearly() {
        let g = easy_graph(1);
        let mut rng = Rng64::seed_from_u64(10);
        let (pred, h) = mgae_lite(&g, 3, 0.2, 1e-2, &mut rng).unwrap();
        let acc = accuracy(&pred, g.labels());
        assert!(acc > 0.6, "mgae acc {acc}");
        assert_eq!(h.rows(), g.num_nodes());
    }

    #[test]
    fn agc_lite_beats_chance_clearly() {
        let g = easy_graph(2);
        let mut rng = Rng64::seed_from_u64(11);
        let pred = agc_lite(&g, 4, &mut rng).unwrap();
        let acc = accuracy(&pred, g.labels());
        assert!(acc > 0.6, "agc acc {acc}");
    }

    #[test]
    fn spectral_lite_beats_chance() {
        let g = easy_graph(3);
        let mut rng = Rng64::seed_from_u64(12);
        let pred = spectral_lite(&g, 6, &mut rng).unwrap();
        let acc = accuracy(&pred, g.labels());
        assert!(acc > 0.5, "spectral acc {acc}");
    }

    #[test]
    fn daegc_lite_filter_is_denser_than_one_hop() {
        let g = easy_graph(4);
        let one_hop = TrainData::from_graph(&g);
        let two_hop = daegc_lite_data(&g);
        assert!(two_hop.filter.nnz() > one_hop.filter.nnz());
        // Still a proper propagation operator: rows non-negative and finite.
        for (_, _, v) in two_hop.filter.iter() {
            assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn gram_schmidt_orthonormal() {
        let mut rng = Rng64::seed_from_u64(13);
        let mut q = rgae_linalg::standard_normal(30, 5, &mut rng);
        gram_schmidt(&mut q);
        let gram = q.t_matmul(&q).unwrap();
        assert!(gram.max_abs_diff(&Mat::eye(5)) < 1e-9);
    }
}
