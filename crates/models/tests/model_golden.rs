//! Bit-level goldens for the six models.
//!
//! Each model runs a fixed script on one small graph: pretraining, then
//! either joint clustering (DGAE, GMM-VGAE) or reconstruction against a
//! second target (the first group). The test records every step's loss and
//! RNG state, plus FNV-1a digests of the model's outputs, gradient probes,
//! exported checkpoint state and skipped-update count. The expected values
//! are constants: any change to a model's arithmetic, RNG consumption or
//! checkpoint layout shows up here as a mismatch, and the failure message
//! prints the full table the code now produces.

use std::rc::Rc;

use rgae_ckpt::ByteWriter;
use rgae_datasets::{citation_like, CitationSpec};
use rgae_linalg::{Csr, Mat, Rng64};
use rgae_models::{ClusterStep, ComposedModel, GaeModel, StepSpec, TrainData};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
        self
    }
}

fn digest_f64s(xs: &[f64]) -> u64 {
    Fnv::new().f64s(xs).0
}

/// Digest of an optional matrix; `None` is 0.
fn digest_mat(m: Option<&Mat>) -> u64 {
    m.map_or(0, |m| {
        Fnv::new()
            .word(m.rows() as u64)
            .word(m.cols() as u64)
            .f64s(m.as_slice())
            .0
    })
}

fn digest_rng(rng: &Rng64) -> u64 {
    let (words, spare) = rng.state();
    let mut h = Fnv::new();
    for w in words {
        h.word(w);
    }
    match spare {
        Some(x) => h.word(1).word(x.to_bits()),
        None => h.word(0),
    };
    h.0
}

/// What the script records for one model.
#[derive(Debug, PartialEq)]
struct Golden {
    name: &'static str,
    /// `(loss bits, RNG digest)` after every step, in script order.
    steps: Vec<(u64, u64)>,
    /// RNG digest after `init_clustering` (0 for the first group).
    init_rng: u64,
    embed: u64,
    soft: u64,
    xi: u64,
    target: u64,
    clustering_grad: u64,
    /// 0 where the probe is deliberately not pinned (VGAE).
    recon_grad: u64,
    state: u64,
    nonfinite: u64,
}

fn graph_data() -> TrainData {
    let g = citation_like(
        &CitationSpec {
            name: "golden".into(),
            num_nodes: 48,
            num_classes: 3,
            num_features: 24,
            avg_degree: 4.0,
            homophily: 0.85,
            degree_power: 2.8,
            words_per_node: 6,
            topic_purity: 0.8,
            class_proportions: vec![],
        },
        17,
    )
    .unwrap();
    TrainData::from_graph(&g)
}

/// A second reconstruction target: the ring over all nodes.
fn ring(n: usize) -> Rc<Csr> {
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Rc::new(Csr::adjacency_from_edges(n, &edges).unwrap())
}

fn omega(n: usize) -> Vec<usize> {
    (0..n).filter(|i| i % 3 != 1).collect()
}

fn step(
    model: &mut dyn GaeModel,
    data: &TrainData,
    spec: &StepSpec,
    rng: &mut Rng64,
    steps: &mut Vec<(u64, u64)>,
) {
    let loss = model.train_step(data, spec, rng).unwrap();
    steps.push((loss.to_bits(), digest_rng(rng)));
}

fn run(mut model: Box<dyn GaeModel>, mut rng: Rng64, data: &TrainData) -> Golden {
    let name = model.name();
    let second_group = matches!(name, "DGAE" | "GMM-VGAE");
    let n = data.num_nodes;
    let mut steps = Vec::new();
    let pretrain = StepSpec::pretrain(Rc::clone(&data.adjacency));
    for _ in 0..5 {
        step(model.as_mut(), data, &pretrain, &mut rng, &mut steps);
    }
    let mut init_rng = 0;
    if second_group {
        model.init_clustering(data, &mut rng).unwrap();
        init_rng = digest_rng(&rng);
        for scope in [None, Some(omega(n))] {
            for _ in 0..5 {
                let spec = StepSpec {
                    recon_target: Some(Rc::clone(&data.adjacency)),
                    gamma: 0.001,
                    cluster: Some(ClusterStep {
                        target: model.cluster_target(data).unwrap().unwrap(),
                        omega: scope.clone(),
                    }),
                };
                step(model.as_mut(), data, &spec, &mut rng, &mut steps);
            }
        }
    } else {
        let spec = StepSpec::pretrain(ring(n));
        for _ in 0..3 {
            step(model.as_mut(), data, &spec, &mut rng, &mut steps);
        }
    }

    let target = model.cluster_target(data).unwrap();
    let probe_target = target
        .clone()
        .unwrap_or_else(|| Mat::full(n, data.num_classes, 1.0 / data.num_classes as f64));
    let mut cgrad = Fnv::new();
    let mut any_cgrad = false;
    for scope in [None, Some(omega(n))] {
        if let Some(gr) = model
            .clustering_grad(data, &probe_target, scope.as_deref())
            .unwrap()
        {
            cgrad.f64s(&gr);
            any_cgrad = true;
        }
    }
    let recon_grad = if name == "VGAE" {
        0
    } else {
        digest_f64s(&model.recon_grad(data, &data.adjacency).unwrap())
    };
    let mut w = ByteWriter::new();
    model.export_params().encode(&mut w);
    Golden {
        name,
        steps,
        init_rng,
        embed: digest_mat(Some(&model.embed(data))),
        soft: digest_mat(model.soft_assignments(data).unwrap().as_ref()),
        xi: digest_mat(model.xi_assignments(data).unwrap().as_ref()),
        target: digest_mat(target.as_ref()),
        clustering_grad: if any_cgrad { cgrad.0 } else { 0 },
        recon_grad,
        state: Fnv::new().bytes(&w.into_bytes()).0,
        nonfinite: model.nonfinite_grad_steps(),
    }
}

fn actual() -> Vec<Golden> {
    let data = graph_data();
    let f = data.num_features();
    let k = data.num_classes;
    type Build = fn(usize, usize, &mut Rng64) -> Box<dyn GaeModel>;
    let builders: [Build; 6] = [
        |f, _, r| Box::new(ComposedModel::gae(f, r)),
        |f, _, r| Box::new(ComposedModel::vgae(f, r)),
        |f, _, r| Box::new(ComposedModel::argae(f, r)),
        |f, _, r| Box::new(ComposedModel::arvgae(f, r)),
        |f, k, r| Box::new(ComposedModel::dgae(f, k, r)),
        |f, k, r| Box::new(ComposedModel::gmm_vgae(f, k, r)),
    ];
    builders
        .iter()
        .enumerate()
        .map(|(i, build)| {
            let mut rng = Rng64::seed_from_u64(100 + i as u64);
            let model = build(f, k, &mut rng);
            run(model, rng, &data)
        })
        .collect()
}

fn expected() -> Vec<Golden> {
    vec![
        Golden {
            name: "GAE",
            steps: vec![
                (0x3fe5adb674c2dc34, 0xf65ecfefeb00897d),
                (0x3fe568d1d51c69b8, 0xf65ecfefeb00897d),
                (0x3fe51a6e54020553, 0xf65ecfefeb00897d),
                (0x3fe4c2a3beb9f3da, 0xf65ecfefeb00897d),
                (0x3fe45b31b0432c47, 0xf65ecfefeb00897d),
                (0x3fe2ae3427ac5608, 0xf65ecfefeb00897d),
                (0x3fe24dd909dfb5c0, 0xf65ecfefeb00897d),
                (0x3fe1f20fed374377, 0xf65ecfefeb00897d),
            ],
            init_rng: 0x0000000000000000,
            embed: 0xec86333e51ce36ac,
            soft: 0x0000000000000000,
            xi: 0x0000000000000000,
            target: 0x0000000000000000,
            clustering_grad: 0x0000000000000000,
            recon_grad: 0xd989a0fc6d5f3046,
            state: 0x9b94baa70d4df404,
            nonfinite: 0,
        },
        Golden {
            name: "VGAE",
            steps: vec![
                (0x3ffcc2cdea9ce422, 0x2288b8d545b5db4b),
                (0x400037509755894b, 0x51a129da972837a4),
                (0x3ffb366bcd2a7092, 0x4ae2cda32246c8bf),
                (0x3ffd17ab64a1820a, 0x834357a10989d1d5),
                (0x3ffff0cf5b7c9d75, 0xcb5ff4ff9a9e1331),
                (0x3ff74954e695507d, 0x2391da77c070dc33),
                (0x3ff539f22a33079d, 0x8a93f2a8805d6dd8),
                (0x3ff4c2f8306427ee, 0xd464ea689244c652),
            ],
            init_rng: 0x0000000000000000,
            embed: 0xa96d69cca9abeda4,
            soft: 0x0000000000000000,
            xi: 0x0000000000000000,
            target: 0x0000000000000000,
            clustering_grad: 0x0000000000000000,
            recon_grad: 0x0000000000000000,
            state: 0xee23bd660be5453d,
            nonfinite: 0,
        },
        Golden {
            name: "ARGAE",
            steps: vec![
                (0x3ff5f8356df23360, 0x9d90ca1615115238),
                (0x3ff5831efe266bec, 0x33f4feda2748ff18),
                (0x3ff50b8eee4e9c50, 0xb3867da005937d46),
                (0x3ff48eb1eb1ad14a, 0x3c549ca726c0e118),
                (0x3ff4188c8835e344, 0xebda7893ac1a66fc),
                (0x3ff2d702612af0da, 0x7f2e50c29e15559a),
                (0x3ff2cae58a627b9d, 0x816ed7f1208cb384),
                (0x3ff2a557c3c45f79, 0x321a5847cd30ed52),
            ],
            init_rng: 0x0000000000000000,
            embed: 0x562642a89e090edf,
            soft: 0x0000000000000000,
            xi: 0x0000000000000000,
            target: 0x0000000000000000,
            clustering_grad: 0x0000000000000000,
            recon_grad: 0xafc4e7c948bc0713,
            state: 0x89f0bec3dfe0f852,
            nonfinite: 0,
        },
        Golden {
            name: "ARVGAE",
            steps: vec![
                (0x40043a02a8df50d9, 0xbce3e61c5f28b099),
                (0x4006efe064494a75, 0x5be2026a733e15ca),
                (0x4005860b82d8ba2f, 0xf72059e54606a44d),
                (0x4003592b80f5c3aa, 0xe1d2fce350a15438),
                (0x400293fde26eb0e9, 0xb26324f70d4f6254),
                (0x40002fb4013fb746, 0xaa6eb948e2848d10),
                (0x3ffccb1b1568dda6, 0x28f58ef652a7a03e),
                (0x3ffef61114dc29ec, 0xf1be655d7bd9d155),
            ],
            init_rng: 0x0000000000000000,
            embed: 0x6fc415a952f0c5b5,
            soft: 0x0000000000000000,
            xi: 0x0000000000000000,
            target: 0x0000000000000000,
            clustering_grad: 0x0000000000000000,
            recon_grad: 0x479788c1cfd35038,
            state: 0x7522b8c5d2ed950d,
            nonfinite: 0,
        },
        Golden {
            name: "DGAE",
            steps: vec![
                (0x3fe5ef50f33e151c, 0xa5573703692ab04f),
                (0x3fe5b33d2ead38aa, 0xa5573703692ab04f),
                (0x3fe5621d5eaf8218, 0xa5573703692ab04f),
                (0x3fe4fcfb682ecfa8, 0xa5573703692ab04f),
                (0x3fe4874e5c14450c, 0xa5573703692ab04f),
                (0x3fa5298dbf64c86f, 0xefd6d9b9295d4907),
                (0x3fa95291180459c7, 0xefd6d9b9295d4907),
                (0x3facfb55ae838a5b, 0xefd6d9b9295d4907),
                (0x3fafee72c280c98f, 0xefd6d9b9295d4907),
                (0x3fb1163408efab1f, 0xefd6d9b9295d4907),
                (0x3fb2748ca8da3020, 0xefd6d9b9295d4907),
                (0x3fb2f1ecad393334, 0xefd6d9b9295d4907),
                (0x3fb36d61a3758824, 0xefd6d9b9295d4907),
                (0x3fb3f0c842779330, 0xefd6d9b9295d4907),
                (0x3fb478b0b4f74f6d, 0xefd6d9b9295d4907),
            ],
            init_rng: 0xefd6d9b9295d4907,
            embed: 0xda0d8713893bc4f3,
            soft: 0x81b2d563481f1681,
            xi: 0x81b2d563481f1681,
            target: 0xfaccb1ccca12263a,
            clustering_grad: 0xa9ea0c0ed62ea6bc,
            recon_grad: 0xa1adfd6f34a40667,
            state: 0x488a97835062124e,
            nonfinite: 0,
        },
        Golden {
            name: "GMM-VGAE",
            steps: vec![
                (0x3ffe724308a6d9ca, 0x43dbeb63db9310e0),
                (0x3ffe51115a37acea, 0xb1d7fdb64a679a96),
                (0x3ffd222143ba3960, 0xa0fb0a636cf16f99),
                (0x3ff7ae0e9e968b14, 0xc1bc442e7d7cde38),
                (0x3ff9bf61a968a048, 0x29a291e0afea644f),
                (0x408dfe016632b317, 0x79d7c298f1dc151d),
                (0x407130d241df9e4e, 0x20d3023fd237292e),
                (0x406f382865b4c732, 0xfde6389cb6d82205),
                (0x406be0cc000de3f7, 0x3ff9bd25d7d4197b),
                (0x406bf077fde7ce27, 0x3189a4fe73ed5a4e),
                (0x406e8739e54d03ac, 0x1801aa88ea0a0141),
                (0x406a22aeb85be8c8, 0x59e302f57904864b),
                (0x4065fc2ff2fc689d, 0x4440b01637d5d754),
                (0x4069b0aa033b08eb, 0x36582e5b4efaa6cb),
                (0x40660dc18ec8eb06, 0x9025da877b140a92),
            ],
            init_rng: 0x375f71b056b85815,
            embed: 0x72e6f26c1fb8d990,
            soft: 0x517737a59e30de7d,
            xi: 0x0f2af0e16913a228,
            target: 0x517737a59e30de7d,
            clustering_grad: 0xca5c6b079bccb1d7,
            recon_grad: 0x2505539ff7550820,
            state: 0x1ef1bdfbe1e40eb0,
            nonfinite: 0,
        },
    ]
}

/// Render goldens as the Rust source of [`expected`].
fn render(goldens: &[Golden]) -> String {
    let mut s = String::from("vec![\n");
    for g in goldens {
        s += &format!(
            "    Golden {{\n        name: {:?},\n        steps: vec![\n",
            g.name
        );
        for (loss, rng) in &g.steps {
            s += &format!("            ({loss:#018x}, {rng:#018x}),\n");
        }
        s += "        ],\n";
        for (field, v) in [
            ("init_rng", g.init_rng),
            ("embed", g.embed),
            ("soft", g.soft),
            ("xi", g.xi),
            ("target", g.target),
            ("clustering_grad", g.clustering_grad),
            ("recon_grad", g.recon_grad),
            ("state", g.state),
        ] {
            s += &format!("        {field}: {v:#018x},\n");
        }
        s += &format!("        nonfinite: {},\n    }},\n", g.nonfinite);
    }
    s + "]"
}

#[test]
fn six_models_match_their_goldens_bit_for_bit() {
    let got = actual();
    assert!(
        got == expected(),
        "model goldens changed; the code now produces:\n{}",
        render(&got)
    );
}
