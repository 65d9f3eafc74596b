//! The graph-transforming operator Υ (Algorithm 2): a correction mechanism
//! against Feature Drift.
//!
//! Υ rewrites the self-supervision graph `A` into a clustering-oriented
//! graph `A^self_clus`:
//!
//! 1. for each cluster, average the embeddings of its *reliable* members
//!    (nodes in Ω whose top assignment is that cluster) and find the
//!    reliable node nearest that mean — the cluster's **centroid node**
//!    (the list Π);
//! 2. connect every node of Ω to its cluster's centroid node, provided the
//!    centroid itself agrees about its own cluster (`k₁ = k₂` in Alg. 2);
//! 3. drop every edge between two Ω nodes assigned to different clusters.
//!
//! At convergence (`Ω → 𝒱`) the result is K star-shaped sub-graphs. Applying
//! Υ with `Ω = 𝒱` in one shot is the paper's *protection* variant (Table 7).

use rgae_graph::{apply_edits, EditSet};
use rgae_linalg::{Csr, Mat};

use crate::{Error, Result};

/// Configuration of Υ. The switches implement the Table 9 ablations.
#[derive(Clone, Debug)]
pub struct UpsilonConfig {
    /// Enable the "add_edge" operation (centroid links).
    pub add_edges: bool,
    /// Enable the "drop_edge" operation (inter-cluster pruning).
    pub drop_edges: bool,
}

impl Default for UpsilonConfig {
    fn default() -> Self {
        UpsilonConfig {
            add_edges: true,
            drop_edges: true,
        }
    }
}

/// The output of Υ: the rewritten graph plus bookkeeping for Figs. 4/9.
#[derive(Clone, Debug)]
pub struct UpsilonOutcome {
    /// The clustering-oriented self-supervision graph `A^self_clus`.
    pub graph: Csr,
    /// The centroid node per cluster (Π); `None` for clusters with no
    /// reliable members.
    pub centroids: Vec<Option<usize>>,
    /// Undirected edges added (centroid links).
    pub added: Vec<(usize, usize)>,
    /// Undirected edges dropped (inter-cluster links inside Ω).
    pub dropped: Vec<(usize, usize)>,
}

/// Apply Υ.
///
/// * `a` — the original graph `A` (binary symmetric CSR);
/// * `p_soft` — row-stochastic soft assignments `P` over all nodes;
/// * `z` — embeddings (for the 1-NN centroid search);
/// * `omega` — indices of decidable nodes (ascending, in range).
pub fn upsilon(
    a: &Csr,
    p_soft: &Mat,
    z: &Mat,
    omega: &[usize],
    cfg: &UpsilonConfig,
) -> Result<UpsilonOutcome> {
    let n = a.rows();
    let k = p_soft.cols();
    if a.cols() != n || p_soft.rows() != n || z.rows() != n {
        return Err(Error::Config("upsilon: inconsistent input sizes"));
    }
    if omega.iter().any(|&i| i >= n) {
        return Err(Error::Config("upsilon: omega index out of range"));
    }
    let assign = p_soft.row_argmax();

    // --- Guideline 1: centroid nodes Π ------------------------------------
    // μ̃_j = mean embedding of reliable nodes assigned to cluster j; then
    // Π[j] = 1-NN(μ̃_j, Ω) — nearest among *all* reliable nodes, matching
    // Algorithm 2's `1-NN(μ̃_j, Ω)`.
    let d = z.cols();
    let mut sums = Mat::zeros(k, d);
    let mut counts = vec![0usize; k];
    for &i in omega {
        let c = assign[i];
        counts[c] += 1;
        for (s, &v) in sums.row_mut(c).iter_mut().zip(z.row(i)) {
            *s += v;
        }
    }
    let mut centroids: Vec<Option<usize>> = vec![None; k];
    for c in 0..k {
        if counts[c] == 0 {
            continue;
        }
        let inv = 1.0 / counts[c] as f64;
        let mean: Vec<f64> = sums.row(c).iter().map(|&s| s * inv).collect();
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for &i in omega {
            let dist = z.row_sq_dist(i, &mean);
            if dist < best_d {
                best_d = dist;
                best = Some(i);
            }
        }
        centroids[c] = best;
    }

    // --- Guideline 2: rewrite the graph ------------------------------------
    let omega_mask = {
        let mut m = vec![false; n];
        for &i in omega {
            m[i] = true;
        }
        m
    };
    let mut edits = EditSet::new();
    let mut added = Vec::new();
    let mut dropped = Vec::new();
    for &i in omega {
        let k1 = assign[i];
        if cfg.add_edges {
            if let Some(j) = centroids[k1] {
                // Alg. 2 line 9: link i to its centroid when absent and the
                // centroid's own top cluster agrees (k₁ = k₂).
                if j != i && !a.contains(i, j) && assign[j] == k1 && edits.add_edge(i, j).is_ok() {
                    added.push(if i < j { (i, j) } else { (j, i) });
                }
            }
        }
        if cfg.drop_edges {
            for (l, _) in a.row_iter(i) {
                // Count each undirected drop once.
                if l <= i {
                    continue;
                }
                if omega_mask[l] && assign[l] != k1 {
                    edits
                        .drop_edge(i, l)
                        .map_err(|_| Error::Config("upsilon: unexpected self-loop in adjacency"))?;
                    dropped.push((i, l));
                }
            }
        }
    }
    added.sort_unstable();
    added.dedup();
    let graph = apply_edits(a, &edits)?;
    Ok(UpsilonOutcome {
        graph,
        centroids,
        added,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgae_graph::{edge_homophily, MultiplexGraph};

    /// Two clusters: nodes 0–2 near the origin, nodes 3–5 near (10, 0).
    /// Edges: a path inside each cluster plus one cross-link 2–3.
    fn fixture() -> (Csr, Mat, Mat) {
        let a = Csr::adjacency_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]).unwrap();
        let z = Mat::from_rows(&[
            vec![0.0, 0.0],
            vec![0.5, 0.0],
            vec![1.0, 0.0],
            vec![9.0, 0.0],
            vec![9.5, 0.0],
            vec![10.0, 0.0],
        ])
        .unwrap();
        let p = Mat::from_rows(&[
            vec![0.95, 0.05],
            vec![0.90, 0.10],
            vec![0.85, 0.15],
            vec![0.10, 0.90],
            vec![0.05, 0.95],
            vec![0.10, 0.90],
        ])
        .unwrap();
        (a, p, z)
    }

    #[test]
    fn full_omega_builds_stars_and_prunes_cross_links() {
        let (a, p, z) = fixture();
        let omega: Vec<usize> = (0..6).collect();
        let out = upsilon(&a, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        // Centroid of cluster 0 is the node nearest (0.5, 0) → node 1;
        // cluster 1 → node 4.
        assert_eq!(out.centroids, vec![Some(1), Some(4)]);
        // The cross-link 2–3 is dropped.
        assert!(!out.graph.contains(2, 3));
        assert_eq!(out.dropped, vec![(2, 3)]);
        // Every cluster member links to its centroid.
        assert!(out.graph.contains(0, 1));
        assert!(out.graph.contains(2, 1));
        assert!(out.graph.contains(3, 4));
        assert!(out.graph.contains(5, 4));
        // Added: 2–1? 2 was not linked to 1? It was (path 1-2) — so only
        // 0–1 exists, 2–1 exists... path edges are (0,1),(1,2): both
        // centroid links pre-exist for cluster 0. Cluster 1: (3,4),(4,5)
        // pre-exist. So no additions.
        assert!(out.added.is_empty());
    }

    #[test]
    fn adds_missing_centroid_links() {
        // Star-less cluster: 0-1-2-3 path all one cluster, centroid ends up
        // mid-path; far nodes gain links.
        let a = Csr::adjacency_from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let z = Mat::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let p = Mat::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let omega = vec![0, 1, 2, 3];
        let out = upsilon(&a, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        // Mean 1.5 → nearest is node 1 or 2 (tie broken by scan order → 1).
        let c = out.centroids[0].unwrap();
        assert!(c == 1 || c == 2);
        // Node 3 is not adjacent to node 1 → a link is added.
        assert!(out.graph.contains(3, c) || a.contains(3, c));
        assert!(!out.added.is_empty());
    }

    #[test]
    fn restricted_omega_leaves_outside_untouched() {
        let (a, p, z) = fixture();
        // Only cluster-0 nodes are reliable.
        let omega = vec![0, 1, 2];
        let out = upsilon(&a, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        // Cross-link 2–3 survives: node 3 is not in Ω.
        assert!(out.graph.contains(2, 3));
        // Cluster-1 structure untouched.
        assert!(out.graph.contains(3, 4));
        assert!(out.graph.contains(4, 5));
        // Cluster 1 has no reliable members → no centroid.
        assert_eq!(out.centroids[1], None);
    }

    #[test]
    fn add_edges_ablation() {
        let (a, p, z) = fixture();
        let omega: Vec<usize> = (0..6).collect();
        let cfg = UpsilonConfig {
            add_edges: false,
            drop_edges: true,
        };
        let out = upsilon(&a, &p, &z, &omega, &cfg).unwrap();
        assert!(out.added.is_empty());
        assert!(!out.graph.contains(2, 3));
    }

    #[test]
    fn drop_edges_ablation() {
        let (a, p, z) = fixture();
        let omega: Vec<usize> = (0..6).collect();
        let cfg = UpsilonConfig {
            add_edges: true,
            drop_edges: false,
        };
        let out = upsilon(&a, &p, &z, &omega, &cfg).unwrap();
        assert!(out.dropped.is_empty());
        assert!(out.graph.contains(2, 3), "cross link kept");
    }

    #[test]
    fn both_ablated_is_identity() {
        let (a, p, z) = fixture();
        let omega: Vec<usize> = (0..6).collect();
        let cfg = UpsilonConfig {
            add_edges: false,
            drop_edges: false,
        };
        let out = upsilon(&a, &p, &z, &omega, &cfg).unwrap();
        assert_eq!(out.graph, a);
    }

    #[test]
    fn empty_omega_is_identity() {
        let (a, p, z) = fixture();
        let out = upsilon(&a, &p, &z, &[], &UpsilonConfig::default()).unwrap();
        assert_eq!(out.graph, a);
        assert!(out.centroids.iter().all(Option::is_none));
    }

    #[test]
    fn output_stays_symmetric_binary_loopless() {
        let (a, p, z) = fixture();
        let omega: Vec<usize> = (0..6).collect();
        let out = upsilon(&a, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        for (i, j, v) in out.graph.iter() {
            assert_eq!(v, 1.0);
            assert_ne!(i, j);
            assert!(out.graph.contains(j, i));
        }
    }

    #[test]
    fn rejects_inconsistent_inputs() {
        let (a, p, z) = fixture();
        assert!(upsilon(&a, &p, &z, &[99], &UpsilonConfig::default()).is_err());
        let p_bad = Mat::zeros(5, 2);
        assert!(upsilon(&a, &p_bad, &z, &[0], &UpsilonConfig::default()).is_err());
    }

    #[test]
    fn converged_omega_yields_star_subgraphs() {
        // With Ω = 𝒱 and perfectly separated assignments, every node ends up
        // within one hop of its centroid and no inter-cluster edge survives.
        let (a, p, z) = fixture();
        let omega: Vec<usize> = (0..6).collect();
        let out = upsilon(&a, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        let assign = p.row_argmax();
        for (i, j, _) in out.graph.iter() {
            assert_eq!(assign[i], assign[j], "inter-cluster edge {i}-{j} survived");
        }
        for (c, ctr) in out.centroids.iter().enumerate() {
            let ctr = ctr.unwrap();
            for i in 0..6 {
                if assign[i] == c && i != ctr {
                    assert!(
                        out.graph.contains(i, ctr),
                        "node {i} not linked to centroid {ctr}"
                    );
                }
            }
        }
    }

    /// Two clusters over 6 nodes in two layers: layer 0 has a cross-link
    /// 2–3, layer 1 a different cross-link 0–5. The multiplex Υ is plain Υ
    /// on the union graph, because the drop rule judges one edge at a time
    /// and the centroid stars do not depend on the graph.
    fn multiplex_fixture() -> (MultiplexGraph, Mat, Mat) {
        let l0 = Csr::adjacency_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]).unwrap();
        let l1 = Csr::adjacency_from_edges(6, &[(0, 2), (3, 5), (0, 5)]).unwrap();
        let g = MultiplexGraph::new("mx", vec![l0, l1], Mat::eye(6), vec![0, 0, 0, 1, 1, 1], 2)
            .unwrap();
        let z = Mat::from_rows(&[
            vec![0.0],
            vec![0.4],
            vec![0.8],
            vec![9.0],
            vec![9.5],
            vec![10.0],
        ])
        .unwrap();
        let p = Mat::from_rows(&[
            vec![0.9, 0.1],
            vec![0.9, 0.1],
            vec![0.8, 0.2],
            vec![0.1, 0.9],
            vec![0.1, 0.9],
            vec![0.2, 0.8],
        ])
        .unwrap();
        (g, p, z)
    }

    #[test]
    fn drops_cross_links_in_every_layer() {
        let (g, p, z) = multiplex_fixture();
        let omega: Vec<usize> = (0..6).collect();
        let union = g.union_adjacency();
        let out = upsilon(&union, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        assert!(!out.graph.contains(2, 3), "layer 0 cross-link");
        assert!(!out.graph.contains(0, 5), "layer 1 cross-link");
        // Intra-cluster structure of layer 1 preserved.
        assert!(out.graph.contains(0, 2));
        assert!(out.graph.contains(3, 5));
    }

    #[test]
    fn union_target_is_clustering_oriented() {
        let (g, p, z) = multiplex_fixture();
        let labels = [0, 0, 0, 1, 1, 1];
        let omega: Vec<usize> = (0..6).collect();
        let union = g.union_adjacency();
        let before = edge_homophily(&union, &labels);
        let out = upsilon(&union, &p, &z, &omega, &UpsilonConfig::default()).unwrap();
        let after = edge_homophily(&out.graph, &labels);
        assert!(after > before, "homophily {before} -> {after}");
        assert!((after - 1.0).abs() < 1e-12, "all cross links dropped");
    }
}
