//! Multiplex attributed graphs — the paper's §6 future-work direction:
//! "we plan to investigate the extensibility of our operators to multiplex
//! graphs, in which each couple of nodes can be connected by multiple
//! edges."
//!
//! A [`MultiplexGraph`] carries several edge layers over one node set (e.g.
//! citation + co-authorship). Two aggregation strategies are provided for
//! feeding the existing GAE pipeline:
//!
//! * [`MultiplexGraph::flatten_union`] — an edge exists if it exists in any
//!   layer (the self-supervision target);
//! * [`MultiplexGraph::mean_filter`] — the average of the per-layer GCN
//!   filters (the propagation operator), which weights relations that agree
//!   across layers more heavily.

use rgae_linalg::{Csr, Mat};

use crate::{AttributedGraph, Error, Result};

/// A multiplex attributed graph: one node set, several edge layers.
#[derive(Clone, Debug)]
pub struct MultiplexGraph {
    layers: Vec<Csr>,
    features: Mat,
    labels: Vec<usize>,
    num_classes: usize,
    name: String,
}

impl MultiplexGraph {
    /// Assemble and validate: every layer must be a binary symmetric
    /// loop-free adjacency over the same node set.
    pub fn new(
        name: impl Into<String>,
        layers: Vec<Csr>,
        features: Mat,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self> {
        if layers.is_empty() {
            return Err(Error::Invalid("multiplex needs at least one layer"));
        }
        let n = features.rows();
        for layer in &layers {
            // Reuse the single-layer validator.
            AttributedGraph::new(
                "layer",
                layer.clone(),
                features.clone(),
                labels.clone(),
                num_classes,
            )?;
            if layer.rows() != n {
                return Err(Error::Invalid("layer size mismatch"));
            }
        }
        Ok(MultiplexGraph {
            layers,
            features,
            labels,
            num_classes,
            name: name.into(),
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The edge layers.
    pub fn layers(&self) -> &[Csr] {
        &self.layers
    }

    /// Node features.
    pub fn features(&self) -> &Mat {
        &self.features
    }

    /// Ground-truth labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Union adjacency: an edge exists if present in any layer.
    pub fn union_adjacency(&self) -> Csr {
        let n = self.num_nodes();
        let mut edges = std::collections::BTreeSet::new();
        for layer in &self.layers {
            for (u, v) in layer.upper_edges() {
                edges.insert((u, v));
            }
        }
        let edge_vec: Vec<(usize, usize)> = edges.into_iter().collect();
        Csr::adjacency_from_edges(n, &edge_vec).expect("valid edges by construction")
    }

    /// Flatten to a standard [`AttributedGraph`] over the union adjacency.
    pub fn flatten_union(&self) -> AttributedGraph {
        AttributedGraph::new(
            format!("{}-union", self.name),
            self.union_adjacency(),
            self.features.clone(),
            self.labels.clone(),
            self.num_classes,
        )
        .expect("validated layers produce a valid union")
    }

    /// Mean of the per-layer GCN filters `Ã_l`: relations present in many
    /// layers propagate more strongly.
    pub fn mean_filter(&self) -> Csr {
        let n = self.num_nodes();
        let w = 1.0 / self.layers.len() as f64;
        let mut triplets = Vec::new();
        for layer in &self.layers {
            let f = layer.gcn_normalized().expect("square layer");
            for (i, j, v) in f.iter() {
                triplets.push((i, j, v * w));
            }
        }
        Csr::from_triplets(n, n, &triplets).expect("in-range triplets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer() -> MultiplexGraph {
        let l0 = Csr::adjacency_from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let l1 = Csr::adjacency_from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let x = Mat::eye(4);
        MultiplexGraph::new("mx", vec![l0, l1], x, vec![0, 0, 1, 1], 2).unwrap()
    }

    #[test]
    fn union_merges_layers() {
        let g = two_layer();
        let u = g.union_adjacency();
        assert!(u.contains(0, 1));
        assert!(u.contains(2, 3));
        assert!(u.contains(1, 2));
        assert_eq!(u.nnz(), 6); // three undirected edges
    }

    #[test]
    fn flatten_union_is_valid_graph() {
        let g = two_layer().flatten_union();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.name().ends_with("-union"));
    }

    #[test]
    fn mean_filter_weights_shared_edges_higher() {
        let g = two_layer();
        let f = g.mean_filter();
        // Edge (0,1) exists in both layers; (2,3) only in layer 0.
        assert!(f.get(0, 1) > f.get(2, 3));
        // Symmetric.
        for (i, j, v) in f.iter() {
            assert!((f.get(j, i) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        let x = Mat::eye(4);
        assert!(MultiplexGraph::new("bad", vec![], x.clone(), vec![0; 4], 1).is_err());
        let l_small = Csr::adjacency_from_edges(3, &[(0, 1)]).unwrap();
        assert!(MultiplexGraph::new("bad", vec![l_small], x, vec![0; 4], 1).is_err());
    }
}
