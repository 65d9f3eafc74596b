//! Training-step benches (the shape behind Table 5): one optimisation step
//! of each model with and without the R machinery. The decoder's O(N²)
//! weighted BCE dominates; the Ξ/Υ refreshes add only a small constant.

use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use rgae_core::soft_assignments_or_kmeans;
use rgae_core::{upsilon, xi, RConfig, RTrainer, UpsilonConfig, XiConfig};
use rgae_datasets::presets::cora_like;
use rgae_linalg::Rng64;
use rgae_models::{ClusterStep, ComposedModel, GaeModel, StepSpec, TrainData};

fn prepared_dgae() -> (rgae_graph::AttributedGraph, TrainData, ComposedModel, Rng64) {
    let graph = cora_like(0.2, 1).unwrap();
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(1);
    let mut model = ComposedModel::dgae(data.num_features(), graph.num_classes(), &mut rng);
    let trainer = RTrainer::new(RConfig::for_dataset("cora-like").quick());
    trainer.pretrain(&mut model, &data, &mut rng).unwrap();
    (graph, data, model, rng)
}

fn bench_plain_step(c: &mut Criterion) {
    let (_graph, data, mut model, mut rng) = prepared_dgae();
    let mut group = c.benchmark_group("train_step");
    group.sample_size(20);
    group.bench_function("dgae_plain_epoch", |b| {
        b.iter(|| {
            let target = model.cluster_target(&data).unwrap().unwrap();
            let spec = StepSpec {
                recon_target: Some(Rc::clone(&data.adjacency)),
                gamma: 0.001,
                cluster: Some(ClusterStep {
                    target,
                    omega: None,
                }),
            };
            model.train_step(&data, &spec, &mut rng).unwrap()
        })
    });
    group.finish();
}

fn bench_r_step(c: &mut Criterion) {
    let (graph, data, mut model, mut rng) = prepared_dgae();
    let mut group = c.benchmark_group("train_step");
    group.sample_size(20);
    group.bench_function("dgae_r_epoch_with_operator_refresh", |b| {
        b.iter(|| {
            // Worst case: both operators refresh on this epoch.
            let p = soft_assignments_or_kmeans(&model, &data, &mut rng, &rgae_obs::NOOP).unwrap();
            let omega = xi(&p, &XiConfig::new(0.3)).unwrap();
            let z = model.embed(&data);
            let out = upsilon(
                graph.adjacency(),
                &p,
                &z,
                &omega.indices,
                &UpsilonConfig::default(),
            )
            .unwrap();
            let target = model.cluster_target(&data).unwrap().unwrap();
            let spec = StepSpec {
                recon_target: Some(Rc::new(out.graph)),
                gamma: 0.001,
                cluster: Some(ClusterStep {
                    target,
                    omega: Some(omega.indices.clone()),
                }),
            };
            model.train_step(&data, &spec, &mut rng).unwrap()
        })
    });
    group.finish();
}

fn bench_gmm_vgae_step(c: &mut Criterion) {
    let graph = cora_like(0.2, 2).unwrap();
    let data = TrainData::from_graph(&graph);
    let mut rng = Rng64::seed_from_u64(2);
    let mut model = ComposedModel::gmm_vgae(data.num_features(), graph.num_classes(), &mut rng);
    let trainer = RTrainer::new(RConfig::for_dataset("cora-like").quick());
    trainer.pretrain(&mut model, &data, &mut rng).unwrap();
    let mut group = c.benchmark_group("train_step");
    group.sample_size(20);
    group.bench_function("gmm_vgae_plain_epoch", |b| {
        b.iter(|| {
            let target = model.cluster_target(&data).unwrap().unwrap();
            let spec = StepSpec {
                recon_target: Some(Rc::clone(&data.adjacency)),
                gamma: 0.1,
                cluster: Some(ClusterStep {
                    target,
                    omega: None,
                }),
            };
            model.train_step(&data, &spec, &mut rng).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_plain_step, bench_r_step, bench_gmm_vgae_step);
criterion_main!(benches);
