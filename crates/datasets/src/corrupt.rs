//! Corruption utilities for the robustness experiments (Figs. 7–8):
//! randomly add/drop edges, add Gaussian feature noise, drop feature columns.

use rgae_graph::{apply_edits, AttributedGraph, EditSet};
use rgae_linalg::Rng64;
use rgae_obs::Recorder;

use crate::Result;

/// Add up to `count` random edges between currently-unlinked node pairs.
///
/// Returns the corrupted graph together with the number of edges actually
/// added: on dense (or small) graphs the rejection sampler can exhaust its
/// attempt budget — or the supply of unlinked pairs — before reaching
/// `count`, and callers calibrating a corruption *level* need the delivered
/// amount, not the requested one. Any shortfall is also surfaced in `rec` as
/// an `edges_add_shortfall` counter.
pub fn add_random_edges(
    graph: &AttributedGraph,
    count: usize,
    rng: &mut Rng64,
    rec: &dyn Recorder,
) -> Result<(AttributedGraph, usize)> {
    let n = graph.num_nodes();
    let a = graph.adjacency();
    let mut edits = EditSet::new();
    let mut attempts = 0;
    let max_attempts = count * 100 + 1000;
    while edits.num_additions() < count && attempts < max_attempts {
        attempts += 1;
        let u = rng.index(n);
        let v = rng.index(n);
        if u == v || a.contains(u, v) {
            continue;
        }
        edits.add_edge(u, v).expect("u != v");
    }
    let added = edits.num_additions();
    if added < count {
        rec.count("edges_add_shortfall", (count - added) as u64);
    }
    let adj = apply_edits(a, &edits)?;
    Ok((graph.clone().with_adjacency(adj)?, added))
}

/// Drop `count` random existing edges.
pub fn drop_random_edges(
    graph: &AttributedGraph,
    count: usize,
    rng: &mut Rng64,
) -> Result<AttributedGraph> {
    let mut edges = graph.edges();
    rng.shuffle(&mut edges);
    let mut edits = EditSet::new();
    for &(u, v) in edges.iter().take(count) {
        edits.drop_edge(u, v).expect("u != v");
    }
    let adj = apply_edits(graph.adjacency(), &edits)?;
    Ok(graph.clone().with_adjacency(adj)?)
}

/// Add iid Gaussian noise with standard deviation `std` to every feature.
pub fn add_feature_noise(
    graph: &AttributedGraph,
    std: f64,
    rng: &mut Rng64,
) -> Result<AttributedGraph> {
    let mut x = graph.features().clone();
    for v in x.as_mut_slice() {
        *v += rng.normal_with(0.0, std);
    }
    Ok(graph.clone().with_features(x)?)
}

/// Zero out `count` randomly chosen feature columns.
pub fn drop_feature_columns(
    graph: &AttributedGraph,
    count: usize,
    rng: &mut Rng64,
) -> Result<AttributedGraph> {
    let j = graph.num_features();
    let cols = rng.sample_indices(j, count.min(j));
    let mut x = graph.features().clone();
    for i in 0..x.rows() {
        let row = x.row_mut(i);
        for &c in &cols {
            row[c] = 0.0;
        }
    }
    Ok(graph.clone().with_features(x)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{citation_like, CitationSpec};
    use rgae_obs::NOOP;

    fn toy() -> AttributedGraph {
        citation_like(
            &CitationSpec {
                name: "toy".into(),
                num_nodes: 100,
                num_classes: 3,
                num_features: 30,
                avg_degree: 4.0,
                homophily: 0.8,
                degree_power: 2.5,
                words_per_node: 6,
                topic_purity: 0.8,
                class_proportions: vec![],
            },
            1,
        )
        .unwrap()
    }

    #[test]
    fn add_edges_increases_count() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(1);
        let (g2, added) = add_random_edges(&g, 40, &mut rng, &NOOP).unwrap();
        assert_eq!(added, 40);
        assert_eq!(g2.num_edges(), g.num_edges() + 40);
        // Features untouched.
        assert_eq!(g2.features().as_slice(), g.features().as_slice());
    }

    #[test]
    fn add_edges_reports_shortfall_when_pairs_run_out() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(8);
        // More edges than the 100-node graph has unlinked pairs: the
        // sampler must stop short and report the delivered amount.
        let requested = 10_000;
        let (g2, added) = add_random_edges(&g, requested, &mut rng, &NOOP).unwrap();
        assert!(added < requested);
        // The returned count is the exact delivery, not the request.
        assert_eq!(g2.num_edges(), g.num_edges() + added);
    }

    #[test]
    fn add_edges_traced_counts_the_shortfall() {
        let g = toy();
        let sink = rgae_obs::MemorySink::new();
        let mut rng = Rng64::seed_from_u64(9);
        let requested = 10_000;
        let (_, added) = add_random_edges(&g, requested, &mut rng, &sink).unwrap();
        assert_eq!(
            sink.counter_total("edges_add_shortfall"),
            (requested - added) as u64
        );

        // An exactly-delivered request emits no shortfall counter.
        let sink = rgae_obs::MemorySink::new();
        let mut rng = Rng64::seed_from_u64(10);
        let (_, added) = add_random_edges(&g, 5, &mut rng, &sink).unwrap();
        assert_eq!(added, 5);
        assert_eq!(sink.counter_total("edges_add_shortfall"), 0);
    }

    #[test]
    fn corruptions_are_deterministic_per_seed() {
        let g = toy();
        for seed in [11u64, 12, 13] {
            let (a1, n1) =
                add_random_edges(&g, 25, &mut Rng64::seed_from_u64(seed), &NOOP).unwrap();
            let (a2, n2) =
                add_random_edges(&g, 25, &mut Rng64::seed_from_u64(seed), &NOOP).unwrap();
            assert_eq!(n1, n2);
            assert_eq!(a1.edges(), a2.edges());

            let f1 = add_feature_noise(&g, 0.1, &mut Rng64::seed_from_u64(seed)).unwrap();
            let f2 = add_feature_noise(&g, 0.1, &mut Rng64::seed_from_u64(seed)).unwrap();
            assert_eq!(f1.features().as_slice(), f2.features().as_slice());

            let d1 = drop_random_edges(&g, 15, &mut Rng64::seed_from_u64(seed)).unwrap();
            let d2 = drop_random_edges(&g, 15, &mut Rng64::seed_from_u64(seed)).unwrap();
            assert_eq!(d1.edges(), d2.edges());
        }
        // Different seeds genuinely vary the draw.
        let (b1, _) = add_random_edges(&g, 25, &mut Rng64::seed_from_u64(1), &NOOP).unwrap();
        let (b2, _) = add_random_edges(&g, 25, &mut Rng64::seed_from_u64(2), &NOOP).unwrap();
        assert_ne!(b1.edges(), b2.edges());
    }

    #[test]
    fn drop_columns_is_bounded_by_request_and_width() {
        let g = toy();
        let j = g.num_features();
        let mut rng = Rng64::seed_from_u64(14);
        let g2 = drop_feature_columns(&g, 5, &mut rng).unwrap();
        let changed = (0..j)
            .filter(|&c| g.features().col(c) != g2.features().col(c))
            .count();
        assert!(changed <= 5);
        // Requests past the width clamp to the width instead of panicking.
        let mut rng = Rng64::seed_from_u64(15);
        let g3 = drop_feature_columns(&g, j + 100, &mut rng).unwrap();
        assert_eq!(g3.features().frob_norm(), 0.0);
        assert_eq!(g3.features().shape(), g.features().shape());
    }

    #[test]
    fn drop_edges_decreases_count() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(2);
        let g2 = drop_random_edges(&g, 30, &mut rng).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges() - 30);
    }

    #[test]
    fn drop_more_edges_than_exist_empties_graph() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(3);
        let g2 = drop_random_edges(&g, 10_000, &mut rng).unwrap();
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn feature_noise_perturbs_but_preserves_shape() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(4);
        let g2 = add_feature_noise(&g, 0.1, &mut rng).unwrap();
        assert_eq!(g2.features().shape(), g.features().shape());
        let diff = g2.features().sub(g.features()).unwrap().frob_norm();
        assert!(diff > 0.0);
        // Adjacency untouched.
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn zero_noise_is_identity() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(5);
        let g2 = add_feature_noise(&g, 0.0, &mut rng).unwrap();
        assert_eq!(g2.features().as_slice(), g.features().as_slice());
    }

    #[test]
    fn drop_columns_zeroes_exactly_that_many() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(6);
        let g2 = drop_feature_columns(&g, 10, &mut rng).unwrap();
        let zero_cols = (0..g2.num_features())
            .filter(|&c| g2.features().col(c).iter().all(|&v| v == 0.0))
            .count();
        assert!(zero_cols >= 10);
        assert_eq!(g2.features().shape(), g.features().shape());
        // Untouched columns are bit-identical.
        let changed = (0..g.num_features())
            .filter(|&c| g.features().col(c) != g2.features().col(c))
            .count();
        assert!(changed <= 10);
    }

    #[test]
    fn drop_all_columns_ok() {
        let g = toy();
        let mut rng = Rng64::seed_from_u64(7);
        let g2 = drop_feature_columns(&g, 10_000, &mut rng).unwrap();
        assert!(g2.features().frob_norm() == 0.0);
    }
}
