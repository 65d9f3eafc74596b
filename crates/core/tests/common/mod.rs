//! Fixtures and bit-exact report comparisons shared by the trainer
//! integration tests.

// Each test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;

use rgae_core::{EpochRecord, Metrics, RReport};
use rgae_datasets::{citation_like, CitationSpec};
use rgae_graph::AttributedGraph;

/// A small cora-like graph: 160 nodes, 3 classes, 80 features.
pub fn test_graph(seed: u64) -> AttributedGraph {
    citation_like(
        &CitationSpec {
            name: "cora-like".into(),
            num_nodes: 160,
            num_classes: 3,
            num_features: 80,
            avg_degree: 5.0,
            homophily: 0.82,
            degree_power: 2.6,
            words_per_node: 12,
            topic_purity: 0.8,
            class_proportions: vec![],
        },
        seed,
    )
    .unwrap()
}

/// A fresh (removed if present) per-process scratch directory path.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rgae-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn assert_metrics_bits_eq(a: &Metrics, b: &Metrics, what: &str) {
    assert_eq!(a.acc.to_bits(), b.acc.to_bits(), "{what} acc");
    assert_eq!(a.nmi.to_bits(), b.nmi.to_bits(), "{what} nmi");
    assert_eq!(a.ari.to_bits(), b.ari.to_bits(), "{what} ari");
}

pub fn assert_epochs_eq(a: &[EpochRecord], b: &[EpochRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: epoch count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.epoch, y.epoch, "{what}: epoch index");
        assert_eq!(
            x.loss.to_bits(),
            y.loss.to_bits(),
            "{what}: loss at epoch {}",
            x.epoch
        );
        assert_eq!(x.omega_size, y.omega_size, "{what}: |Ω| at {}", x.epoch);
        assert_eq!(
            x.omega_acc.to_bits(),
            y.omega_acc.to_bits(),
            "{what}: Ω acc at {}",
            x.epoch
        );
        match (&x.metrics, &y.metrics) {
            (Some(mx), Some(my)) => assert_metrics_bits_eq(mx, my, what),
            (None, None) => {}
            _ => panic!("{what}: metrics presence differs at epoch {}", x.epoch),
        }
        assert_eq!(x.added_links, y.added_links, "{what}: added at {}", x.epoch);
        assert_eq!(
            x.dropped_links, y.dropped_links,
            "{what}: dropped at {}",
            x.epoch
        );
    }
}

pub fn assert_r_reports_eq(a: &RReport, b: &RReport, what: &str) {
    assert_epochs_eq(&a.epochs, &b.epochs, what);
    assert_eq!(a.converged_at, b.converged_at, "{what}: converged_at");
    assert_metrics_bits_eq(&a.pretrain_metrics, &b.pretrain_metrics, what);
    assert_metrics_bits_eq(&a.final_metrics, &b.final_metrics, what);
    assert_eq!(a.final_graph.indptr(), b.final_graph.indptr(), "{what}");
    assert_eq!(a.final_graph.indices(), b.final_graph.indices(), "{what}");
    let se_a: Vec<usize> = a.snapshots.iter().map(|s| s.0).collect();
    let se_b: Vec<usize> = b.snapshots.iter().map(|s| s.0).collect();
    assert_eq!(se_a, se_b, "{what}: snapshot epochs");
    for ((_, za, _), (_, zb, _)) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(za.rows(), zb.rows(), "{what}: snapshot shape");
        for (va, vb) in za.as_slice().iter().zip(zb.as_slice()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}: snapshot Z bits");
        }
    }
    assert_eq!(a.degraded, b.degraded, "{what}: degraded flag");
}
