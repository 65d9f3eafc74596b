//! End-to-end training behaviour of every model on a small synthetic
//! benchmark: losses go down, embeddings become cluster-informative, the
//! gradient accessors behave, and misuse is rejected.

use std::rc::Rc;

use rgae_cluster::{accuracy, kmeans};
use rgae_datasets::{citation_like, CitationSpec};
use rgae_graph::AttributedGraph;
use rgae_linalg::{cosine, Csr, Rng64};
use rgae_models::{ClusterStep, ComposedModel, GaeModel, StepSpec, TrainData};

fn small_graph(seed: u64) -> AttributedGraph {
    citation_like(
        &CitationSpec {
            name: "small".into(),
            num_nodes: 150,
            num_classes: 3,
            num_features: 80,
            avg_degree: 5.0,
            homophily: 0.88,
            degree_power: 2.8,
            words_per_node: 12,
            topic_purity: 0.85,
            class_proportions: vec![],
        },
        seed,
    )
    .unwrap()
}

fn pretrain(
    model: &mut dyn GaeModel,
    data: &TrainData,
    epochs: usize,
    rng: &mut Rng64,
) -> Vec<f64> {
    let spec = StepSpec::pretrain(Rc::clone(&data.adjacency));
    (0..epochs)
        .map(|_| model.train_step(data, &spec, rng).unwrap())
        .collect()
}

fn kmeans_acc(z: &rgae_linalg::Mat, labels: &[usize], k: usize, rng: &mut Rng64) -> f64 {
    let km = kmeans(z, k, 100, rng).unwrap();
    accuracy(&km.assignments, labels)
}

#[test]
fn gae_pretraining_reduces_loss_and_clusters() {
    let g = small_graph(1);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(1);
    let mut model = ComposedModel::gae(data.num_features(), &mut rng);
    let losses = pretrain(&mut model, &data, 80, &mut rng);
    assert!(losses.iter().all(|l| l.is_finite()));
    assert!(
        losses.last().unwrap() < &(losses[0] * 0.9),
        "loss did not drop: {} -> {}",
        losses[0],
        losses.last().unwrap()
    );
    let z = model.embed(&data);
    let acc = kmeans_acc(&z, g.labels(), 3, &mut rng);
    assert!(acc > 0.55, "GAE embedding acc {acc}");
}

#[test]
fn vgae_pretraining_reduces_loss() {
    let g = small_graph(2);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(2);
    let mut model = ComposedModel::vgae(data.num_features(), &mut rng);
    let losses = pretrain(&mut model, &data, 80, &mut rng);
    assert!(losses.last().unwrap() < &losses[0]);
    let z = model.embed(&data);
    assert!(z.all_finite());
    let acc = kmeans_acc(&z, g.labels(), 3, &mut rng);
    assert!(acc > 0.5, "VGAE embedding acc {acc}");
}

#[test]
fn argae_and_arvgae_train_stably() {
    let g = small_graph(3);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(3);
    let mut a = ComposedModel::argae(data.num_features(), &mut rng);
    let mut av = ComposedModel::arvgae(data.num_features(), &mut rng);
    let la = pretrain(&mut a, &data, 50, &mut rng);
    let lv = pretrain(&mut av, &data, 50, &mut rng);
    assert!(la.iter().chain(lv.iter()).all(|l| l.is_finite()));
    assert!(a.embed(&data).all_finite());
    assert!(av.embed(&data).all_finite());
    // Latent codes should be pulled towards the prior: bounded scale.
    let z = a.embed(&data);
    let scale = z.frob_norm() / (z.rows() as f64).sqrt();
    assert!(scale < 50.0, "latent scale {scale}");
}

#[test]
fn first_group_rejects_cluster_steps() {
    let g = small_graph(4);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(4);
    let mut model = ComposedModel::gae(data.num_features(), &mut rng);
    let spec = StepSpec {
        recon_target: Some(Rc::clone(&data.adjacency)),
        gamma: 1.0,
        cluster: Some(ClusterStep {
            target: rgae_linalg::Mat::full(data.num_nodes, 3, 1.0 / 3.0),
            omega: None,
        }),
    };
    assert!(model.train_step(&data, &spec, &mut rng).is_err());
    assert!(model
        .clustering_grad(&data, &spec.cluster.as_ref().unwrap().target, None)
        .unwrap()
        .is_none());
}

#[test]
fn dgae_requires_init_then_improves() {
    let g = small_graph(5);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(5);
    let mut model = ComposedModel::dgae(data.num_features(), 3, &mut rng);

    // Cluster step before init must fail.
    let bad = StepSpec {
        recon_target: None,
        gamma: 0.0,
        cluster: Some(ClusterStep {
            target: rgae_linalg::Mat::full(data.num_nodes, 3, 1.0 / 3.0),
            omega: None,
        }),
    };
    assert!(model.train_step(&data, &bad, &mut rng).is_err());
    assert!(model.soft_assignments(&data).unwrap().is_none());

    pretrain(&mut model, &data, 80, &mut rng);
    model.init_clustering(&data, &mut rng).unwrap();
    let p0 = model.soft_assignments(&data).unwrap().unwrap();
    let acc_before = accuracy(&p0.row_argmax(), g.labels());

    // Joint phase: DEC target + γ-weighted reconstruction (Appendix B:
    // γ = 0.001).
    for _ in 0..60 {
        let target = model.cluster_target(&data).unwrap().unwrap();
        let spec = StepSpec {
            recon_target: Some(Rc::clone(&data.adjacency)),
            gamma: 0.001,
            cluster: Some(ClusterStep {
                target,
                omega: None,
            }),
        };
        model.train_step(&data, &spec, &mut rng).unwrap();
    }
    let p1 = model.soft_assignments(&data).unwrap().unwrap();
    let acc_after = accuracy(&p1.row_argmax(), g.labels());
    assert!(
        acc_after >= acc_before - 0.05,
        "DEC phase degraded: {acc_before} -> {acc_after}"
    );
    assert!(acc_after > 0.55, "DGAE acc {acc_after}");
}

#[test]
fn gmm_vgae_trains_jointly() {
    let g = small_graph(6);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(6);
    let mut model = ComposedModel::gmm_vgae(data.num_features(), 3, &mut rng);
    pretrain(&mut model, &data, 80, &mut rng);
    model.init_clustering(&data, &mut rng).unwrap();
    let acc_before = accuracy(
        &model.soft_assignments(&data).unwrap().unwrap().row_argmax(),
        g.labels(),
    );
    for _ in 0..40 {
        let target = model.cluster_target(&data).unwrap().unwrap();
        let spec = StepSpec {
            recon_target: Some(Rc::clone(&data.adjacency)),
            gamma: 1.0,
            cluster: Some(ClusterStep {
                target,
                omega: None,
            }),
        };
        let loss = model.train_step(&data, &spec, &mut rng).unwrap();
        assert!(loss.is_finite());
    }
    let acc_after = accuracy(
        &model.soft_assignments(&data).unwrap().unwrap().row_argmax(),
        g.labels(),
    );
    assert!(
        acc_after >= acc_before - 0.05,
        "GMM phase degraded: {acc_before} -> {acc_after}"
    );
    assert!(acc_after > 0.55, "GMM-VGAE acc {acc_after}");
}

#[test]
fn omega_restriction_changes_clustering_grad() {
    let g = small_graph(7);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(7);
    let mut model = ComposedModel::dgae(data.num_features(), 3, &mut rng);
    pretrain(&mut model, &data, 30, &mut rng);
    model.init_clustering(&data, &mut rng).unwrap();
    let target = model.cluster_target(&data).unwrap().unwrap();
    let full = model
        .clustering_grad(&data, &target, None)
        .unwrap()
        .unwrap();
    let omega: Vec<usize> = (0..30).collect();
    let restricted = model
        .clustering_grad(&data, &target, Some(&omega))
        .unwrap()
        .unwrap();
    assert_eq!(full.len(), restricted.len());
    let c = cosine(&full, &restricted);
    assert!(c < 0.999, "restriction had no effect (cos {c})");
    assert!(full.iter().all(|v| v.is_finite()));
}

#[test]
fn recon_grad_depends_on_target() {
    let g = small_graph(8);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(8);
    let mut model = ComposedModel::dgae(data.num_features(), 3, &mut rng);
    pretrain(&mut model, &data, 20, &mut rng);
    let grad_a = model.recon_grad(&data, &data.adjacency).unwrap();
    // Same target → identical gradient (determinism).
    let grad_a2 = model.recon_grad(&data, &data.adjacency).unwrap();
    assert!((cosine(&grad_a, &grad_a2) - 1.0).abs() < 1e-12);
    // A very different target → a different gradient direction.
    let empty = Rc::new(Csr::zeros(data.num_nodes, data.num_nodes));
    let grad_e = model.recon_grad(&data, &empty).unwrap();
    assert!(cosine(&grad_a, &grad_e) < 0.999);
}

#[test]
fn second_group_beats_first_group_on_easy_data() {
    // The paper's headline taxonomy claim, at miniature scale.
    let g = small_graph(9);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(9);

    let mut gae = ComposedModel::gae(data.num_features(), &mut rng);
    pretrain(&mut gae, &data, 60, &mut rng);
    let acc_first = kmeans_acc(&gae.embed(&data), g.labels(), 3, &mut rng);

    let mut dgae = ComposedModel::dgae(data.num_features(), 3, &mut rng);
    pretrain(&mut dgae, &data, 60, &mut rng);
    dgae.init_clustering(&data, &mut rng).unwrap();
    for _ in 0..50 {
        let target = dgae.cluster_target(&data).unwrap().unwrap();
        let spec = StepSpec {
            recon_target: Some(Rc::clone(&data.adjacency)),
            gamma: 0.001,
            cluster: Some(ClusterStep {
                target,
                omega: None,
            }),
        };
        dgae.train_step(&data, &spec, &mut rng).unwrap();
    }
    let acc_second = accuracy(
        &dgae.soft_assignments(&data).unwrap().unwrap().row_argmax(),
        g.labels(),
    );
    assert!(
        acc_second + 0.03 >= acc_first,
        "joint ({acc_second}) should not trail post-hoc ({acc_first}) badly"
    );
}

#[test]
fn xi_assignments_share_argmax_with_soft_assignments() {
    // The tempering calibration must never change which cluster a node is
    // assigned to — only the confidence landscape Ξ reads.
    let g = small_graph(10);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(10);
    let mut model = ComposedModel::gmm_vgae(data.num_features(), 3, &mut rng);
    pretrain(&mut model, &data, 40, &mut rng);
    model.init_clustering(&data, &mut rng).unwrap();
    let soft = model.soft_assignments(&data).unwrap().unwrap();
    let xi_p = model.xi_assignments(&data).unwrap().unwrap();
    assert_eq!(soft.row_argmax(), xi_p.row_argmax());
    // And the tempered landscape is strictly less saturated on average.
    let mean_top = |m: &rgae_linalg::Mat| -> f64 {
        (0..m.rows())
            .map(|i| m.row(i).iter().cloned().fold(f64::MIN, f64::max))
            .sum::<f64>()
            / m.rows() as f64
    };
    assert!(mean_top(&xi_p) < mean_top(&soft) + 1e-9);
}

#[test]
fn dgae_xi_assignments_default_to_soft() {
    let g = small_graph(11);
    let data = TrainData::from_graph(&g);
    let mut rng = Rng64::seed_from_u64(11);
    let mut model = ComposedModel::dgae(data.num_features(), 3, &mut rng);
    pretrain(&mut model, &data, 30, &mut rng);
    model.init_clustering(&data, &mut rng).unwrap();
    let a = model.soft_assignments(&data).unwrap().unwrap();
    let b = model.xi_assignments(&data).unwrap().unwrap();
    assert!(a.max_abs_diff(&b) < 1e-12, "DGAE must not be tempered");
}

/// Every model round-trips through export_params/import_params with a
/// bit-identical embedding and bit-identical continued training.
#[test]
fn export_import_round_trip_all_models() {
    let g = small_graph(12);
    let data = TrainData::from_graph(&g);
    type ModelBuilder = Box<dyn Fn(&mut Rng64) -> Box<dyn GaeModel>>;
    let builders: Vec<(&str, ModelBuilder)> = vec![
        (
            "GAE",
            Box::new(|r: &mut Rng64| Box::new(ComposedModel::gae(80, r)) as Box<dyn GaeModel>),
        ),
        (
            "VGAE",
            Box::new(|r: &mut Rng64| Box::new(ComposedModel::vgae(80, r))),
        ),
        (
            "ARGAE",
            Box::new(|r: &mut Rng64| Box::new(ComposedModel::argae(80, r))),
        ),
        (
            "ARVGAE",
            Box::new(|r: &mut Rng64| Box::new(ComposedModel::arvgae(80, r))),
        ),
        (
            "DGAE",
            Box::new(|r: &mut Rng64| Box::new(ComposedModel::dgae(80, 3, r))),
        ),
        (
            "GMM-VGAE",
            Box::new(|r: &mut Rng64| Box::new(ComposedModel::gmm_vgae(80, 3, r))),
        ),
    ];
    for (name, build) in &builders {
        let mut rng = Rng64::seed_from_u64(77);
        let mut model = build(&mut rng);
        pretrain(model.as_mut(), &data, 10, &mut rng);
        if matches!(*name, "DGAE" | "GMM-VGAE") {
            model.init_clustering(&data, &mut rng).unwrap();
        }
        let state = model.export_params();
        assert_eq!(&state.name, name);

        // Import into a model built from a *different* seed: every learned
        // quantity must be replaced.
        let mut other_rng = Rng64::seed_from_u64(999);
        let mut restored = build(&mut other_rng);
        restored.import_params(&state).unwrap();
        let z0 = model.embed(&data);
        let z1 = restored.embed(&data);
        for (a, b) in z0.as_slice().iter().zip(z1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} embed not bit-identical");
        }

        // Continued training from the restored state must also match
        // bit-for-bit (optimiser moments round-tripped too).
        let spec = StepSpec::pretrain(Rc::clone(&data.adjacency));
        let (s0, s1) = rng.state();
        let mut rng_b = Rng64::from_state(s0, s1);
        for _ in 0..3 {
            let la = model.train_step(&data, &spec, &mut rng).unwrap();
            let lb = restored.train_step(&data, &spec, &mut rng_b).unwrap();
            assert_eq!(la.to_bits(), lb.to_bits(), "{name} loss diverged");
        }
    }
}

/// Importing state from a different model family is rejected.
#[test]
fn import_rejects_wrong_model_state() {
    let mut rng = Rng64::seed_from_u64(5);
    let gae = ComposedModel::gae(80, &mut rng);
    let mut vgae = ComposedModel::vgae(80, &mut rng);
    assert!(vgae.import_params(&gae.export_params()).is_err());

    // Same family, different architecture (feature width) must also fail.
    let mut narrow = ComposedModel::gae(40, &mut rng);
    assert!(narrow.import_params(&gae.export_params()).is_err());
}

#[test]
fn scale_lr_and_grad_skip_counter_cover_every_model() {
    let g = small_graph(21);
    let data = TrainData::from_graph(&g);
    type ModelBuilder = Box<dyn Fn(&mut Rng64) -> Box<dyn GaeModel>>;
    let builders: Vec<ModelBuilder> = vec![
        Box::new(|r: &mut Rng64| Box::new(ComposedModel::gae(80, r)) as Box<dyn GaeModel>),
        Box::new(|r: &mut Rng64| Box::new(ComposedModel::vgae(80, r))),
        Box::new(|r: &mut Rng64| Box::new(ComposedModel::argae(80, r))),
        Box::new(|r: &mut Rng64| Box::new(ComposedModel::arvgae(80, r))),
        Box::new(|r: &mut Rng64| Box::new(ComposedModel::dgae(80, 3, r))),
        Box::new(|r: &mut Rng64| Box::new(ComposedModel::gmm_vgae(80, 3, r))),
    ];
    let spec = StepSpec::pretrain(Rc::clone(&data.adjacency));
    for build in &builders {
        let mut rng = Rng64::seed_from_u64(5);
        let mut scaled = build(&mut rng);
        let mut rng2 = Rng64::seed_from_u64(5);
        let mut plain = build(&mut rng2);
        let name = plain.name();

        // A poisoned step moves nothing and is counted; the twin model
        // trained normally diverges from the frozen one afterwards.
        assert_eq!(scaled.nonfinite_grad_steps(), 0, "{name}");
        rgae_autodiff::arm_grad_poison();
        scaled.train_step(&data, &spec, &mut rng).unwrap();
        rgae_autodiff::disarm_grad_poison();
        assert!(scaled.nonfinite_grad_steps() > 0, "{name} must count skips");
        let z_frozen = scaled.embed(&data);
        let z_init = plain.embed(&data);
        for (a, b) in z_frozen.as_slice().iter().zip(z_init.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name} poisoned step moved params"
            );
        }

        // scale_lr(0) freezes training entirely; a positive scale trains.
        scaled.scale_lr(0.0);
        for _ in 0..2 {
            scaled.train_step(&data, &spec, &mut rng).unwrap();
        }
        let z_still = scaled.embed(&data);
        for (a, b) in z_still.as_slice().iter().zip(z_frozen.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} lr=0 still moved params");
        }
        for _ in 0..2 {
            plain.train_step(&data, &spec, &mut rng2).unwrap();
        }
        let z_trained = plain.embed(&data);
        assert!(
            z_trained
                .as_slice()
                .iter()
                .zip(z_still.as_slice())
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "{name} unscaled twin should have trained"
        );
    }
}

type Build = fn(&mut Rng64) -> Box<dyn GaeModel>;

/// The six models on `small_graph`'s 80 features and 3 classes.
const SIX: [Build; 6] = [
    |r| Box::new(ComposedModel::gae(80, r)),
    |r| Box::new(ComposedModel::vgae(80, r)),
    |r| Box::new(ComposedModel::argae(80, r)),
    |r| Box::new(ComposedModel::arvgae(80, r)),
    |r| Box::new(ComposedModel::dgae(80, 3, r)),
    |r| Box::new(ComposedModel::gmm_vgae(80, 3, r)),
];

fn state_bytes(model: &dyn GaeModel) -> Vec<u8> {
    let mut w = rgae_ckpt::ByteWriter::new();
    model.export_params().encode(&mut w);
    w.into_bytes()
}

/// `recon_grad` is the gradient of the reconstruction loss alone: the
/// variational encoder's `w_logvar` (the trailing 32×16 block) feeds only the
/// KL term and the sample, so its gradient is exactly zero.
#[test]
fn variational_recon_grad_excludes_the_kl_term() {
    let g = small_graph(22);
    let data = TrainData::from_graph(&g);
    for build in [SIX[1], SIX[3], SIX[5]] {
        let mut rng = Rng64::seed_from_u64(22);
        let mut model = build(&mut rng);
        pretrain(model.as_mut(), &data, 5, &mut rng);
        let grad = model.recon_grad(&data, &data.adjacency).unwrap();
        let (head, w_logvar) = grad.split_at(grad.len() - 32 * 16);
        let name = model.name();
        assert!(w_logvar.iter().all(|&v| v == 0.0), "{name} w_logvar grad");
        assert!(head.iter().any(|&v| v != 0.0), "{name} trunk grad");
    }
}

/// γ weights the reconstruction term only: the KL and adversarial terms
/// keep weight one, so the loss is affine in γ with the other terms as its
/// intercept.
#[test]
fn gamma_scales_only_the_reconstruction_term() {
    let g = small_graph(23);
    let data = TrainData::from_graph(&g);
    for build in SIX {
        let mut rng = Rng64::seed_from_u64(23);
        let mut model = build(&mut rng);
        pretrain(model.as_mut(), &data, 3, &mut rng);
        let loss_at = |gamma: f64| {
            let mut twin = model.clone();
            let (words, spare) = rng.state();
            let mut rng = Rng64::from_state(words, spare);
            let spec = StepSpec {
                gamma,
                ..StepSpec::pretrain(Rc::clone(&data.adjacency))
            };
            twin.train_step(&data, &spec, &mut rng).unwrap()
        };
        let (l0, l1, lh) = (loss_at(0.0), loss_at(1.0), loss_at(0.5));
        let name = model.name();
        let affine = l0 + 0.5 * (l1 - l0);
        assert!(
            (lh - affine).abs() <= 1e-12 * l1.abs(),
            "{name}: {lh} vs {affine}"
        );
        if name == "GAE" || name == "DGAE" {
            assert_eq!(l0, 0.0, "{name} has no other term");
        } else {
            assert!(l0 > 0.0, "{name} lost its KL/adversarial term at γ=0");
        }
    }
}

/// A step without a clustering term leaves the head and its Adam slots
/// untouched, even after clustering steps have given them momentum.
#[test]
fn recon_only_step_leaves_the_head_alone() {
    let g = small_graph(24);
    let data = TrainData::from_graph(&g);
    for (build, keys) in [
        (SIX[4], &["centroids"][..]),
        (SIX[5], &["mix_means", "mix_logvars"][..]),
    ] {
        let mut rng = Rng64::seed_from_u64(24);
        let mut model = build(&mut rng);
        pretrain(model.as_mut(), &data, 5, &mut rng);
        model.init_clustering(&data, &mut rng).unwrap();
        for _ in 0..3 {
            let spec = StepSpec {
                recon_target: Some(Rc::clone(&data.adjacency)),
                gamma: 0.001,
                cluster: Some(ClusterStep {
                    target: model.cluster_target(&data).unwrap().unwrap(),
                    omega: None,
                }),
            };
            model.train_step(&data, &spec, &mut rng).unwrap();
        }
        let head = |m: &dyn GaeModel| {
            let st = m.export_params();
            let opt = st.adam("opt").unwrap();
            let slots = opt.m.len() - keys.len();
            let mut bits: Vec<u64> = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                for mat in [st.mat(key).unwrap(), &opt.m[slots + i], &opt.v[slots + i]] {
                    bits.extend(mat.as_slice().iter().map(|x| x.to_bits()));
                }
            }
            bits
        };
        let before = head(model.as_ref());
        assert!(before.iter().any(|&b| b != 0), "head has momentum");
        pretrain(model.as_mut(), &data, 2, &mut rng);
        assert!(
            head(model.as_ref()) == before,
            "{} head moved",
            model.name()
        );
    }
}

/// A step with neither a reconstruction target nor a clustering term is a
/// no-op: loss 0, no parameter or optimiser change, no RNG draw.
#[test]
fn empty_step_is_a_no_op() {
    let g = small_graph(25);
    let data = TrainData::from_graph(&g);
    let empty = StepSpec {
        recon_target: None,
        gamma: 1.0,
        cluster: None,
    };
    for build in SIX {
        let mut rng = Rng64::seed_from_u64(25);
        let mut model = build(&mut rng);
        pretrain(model.as_mut(), &data, 2, &mut rng);
        let state = state_bytes(model.as_ref());
        let rng_state = rng.state();
        let loss = model.train_step(&data, &empty, &mut rng).unwrap();
        let name = model.name();
        assert_eq!(loss, 0.0, "{name}");
        assert_eq!(rng.state(), rng_state, "{name} drew from the RNG");
        assert!(state_bytes(model.as_ref()) == state, "{name} state changed");
    }
}
