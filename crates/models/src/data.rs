//! Precomputed per-dataset training context.

use std::rc::Rc;

use rgae_graph::AttributedGraph;
use rgae_linalg::{Csr, DecoderNumerics, Mat};

/// Everything a training step needs from the dataset, precomputed once:
/// the GCN filter Ã, the features, the default self-supervision target `A`,
/// the BCE class-balance constants the GAE reference implementation
/// derives from `A`, and how the fused decoder evaluates them.
#[derive(Clone)]
pub struct TrainData {
    /// The normalised filter `Ã = D̂^{-1/2}(A+I)D̂^{-1/2}`.
    pub filter: Rc<Csr>,
    /// Node features `X` (row-normalised upstream). Shared so every
    /// per-step tape can mount the same buffer as a constant node
    /// ([`rgae_autodiff::Graph::constant_shared`]) without a deep copy.
    pub features: Rc<Mat>,
    /// The original adjacency `A` — the default reconstruction target.
    pub adjacency: Rc<Csr>,
    /// `pos_weight = (N² − ΣA) / ΣA`: up-weights the rare positive entries.
    pub pos_weight: f64,
    /// `norm = N² / (2 (N² − ΣA))`: the GAE global loss rescaling.
    pub norm: f64,
    /// The decoder's softplus/σ evaluation: [`DecoderNumerics::Fast`] from
    /// [`TrainData::from_graph`]; [`TrainData::with_decoder`] selects
    /// [`DecoderNumerics::Exact`], the libm path bit-identical to the
    /// legacy dense chain. Per-instance, never process-global, so runs in
    /// one process cannot see each other's mode.
    pub decoder: DecoderNumerics,
    /// Number of nodes `N`.
    pub num_nodes: usize,
    /// Number of clusters `K` the models should form.
    pub num_classes: usize,
}

impl TrainData {
    /// Build from an attributed graph.
    pub fn from_graph(graph: &AttributedGraph) -> Self {
        let n = graph.num_nodes();
        let sum_a = (2 * graph.num_edges()) as f64;
        let n2 = (n * n) as f64;
        // Guard the degenerate empty graph (benchmarks never produce one,
        // corruption sweeps can).
        let pos_weight = if sum_a > 0.0 {
            (n2 - sum_a) / sum_a
        } else {
            1.0
        };
        let norm = if n2 - sum_a > 0.0 {
            n2 / (2.0 * (n2 - sum_a))
        } else {
            1.0
        };
        TrainData {
            filter: Rc::new(graph.gcn_filter()),
            features: Rc::new(graph.features().clone()),
            adjacency: Rc::new(graph.adjacency().clone()),
            pos_weight,
            norm,
            decoder: DecoderNumerics::Fast,
            num_nodes: n,
            num_classes: graph.num_classes(),
        }
    }

    /// The same data with the decoder evaluated under `numerics`.
    pub fn with_decoder(mut self, numerics: DecoderNumerics) -> Self {
        self.decoder = numerics;
        self
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_gae_reference_formulas() {
        let x = Mat::zeros(4, 2);
        let g =
            AttributedGraph::from_edges("t", 4, &[(0, 1), (1, 2)], x, vec![0, 0, 1, 1], 2).unwrap();
        let d = TrainData::from_graph(&g);
        // N=4, ΣA = 4 (two undirected edges), N² = 16.
        assert!((d.pos_weight - 12.0 / 4.0).abs() < 1e-12);
        assert!((d.norm - 16.0 / 24.0).abs() < 1e-12);
        assert_eq!(d.num_nodes, 4);
        assert_eq!(d.num_classes, 2);
        assert_eq!(d.decoder, DecoderNumerics::Fast);
        let exact = d.with_decoder(DecoderNumerics::Exact);
        assert_eq!(exact.decoder, DecoderNumerics::Exact);
    }

    #[test]
    fn empty_graph_guarded() {
        let x = Mat::zeros(3, 2);
        let g = AttributedGraph::from_edges("t", 3, &[], x, vec![0, 1, 0], 2).unwrap();
        let d = TrainData::from_graph(&g);
        assert_eq!(d.pos_weight, 1.0);
        assert!(d.norm.is_finite());
    }
}
