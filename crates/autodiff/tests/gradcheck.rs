//! Finite-difference gradient checks for every differentiable operation.
//!
//! Each case builds a scalar loss `f(θ)` from one or more leaf matrices,
//! compares the tape gradient against central differences
//! `(f(θ + h·e) − f(θ − h·e)) / 2h` entry by entry, and requires agreement to
//! a relative tolerance. This is the ground truth the whole training stack
//! rests on.

use std::rc::Rc;

use rgae_autodiff::{reference, Graph, Var};
use rgae_linalg::{Csr, DecoderNumerics, Mat, Rng64};

const H: f64 = 1e-5;
const TOL: f64 = 1e-5;

/// Compare the analytic gradients of `build` (w.r.t. every leaf) against
/// central finite differences.
fn grad_check(leaves: &[Mat], build: impl Fn(&mut Graph, &[Var]) -> Var) {
    // Analytic pass.
    let mut g = Graph::new();
    let vars: Vec<Var> = leaves.iter().map(|m| g.leaf(m.clone())).collect();
    let loss = build(&mut g, &vars);
    g.backward(loss).unwrap();
    let analytic: Vec<Mat> = vars.iter().map(|&v| g.grad(v).unwrap().clone()).collect();

    // Numeric pass, one perturbed entry at a time.
    let eval = |perturbed: &[Mat]| -> f64 {
        let mut g = Graph::new();
        let vars: Vec<Var> = perturbed.iter().map(|m| g.leaf(m.clone())).collect();
        let loss = build(&mut g, &vars);
        g.scalar(loss)
    };
    for (li, leaf) in leaves.iter().enumerate() {
        for idx in 0..leaf.as_slice().len() {
            let mut plus = leaves.to_vec();
            plus[li].as_mut_slice()[idx] += H;
            let mut minus = leaves.to_vec();
            minus[li].as_mut_slice()[idx] -= H;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * H);
            let got = analytic[li].as_slice()[idx];
            let denom = numeric.abs().max(got.abs()).max(1.0);
            assert!(
                ((numeric - got) / denom).abs() < TOL,
                "leaf {li} entry {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }
}

/// `σ(x) = 1 / (1 + e^{−x})`, composed from the tape's own ops.
fn sigmoid(g: &mut Graph, x: Var) -> Var {
    let neg = g.scale(x, -1.0);
    let e = g.exp(neg);
    g.recip_one_plus(e)
}

fn rand_mat(r: usize, c: usize, seed: u64) -> Mat {
    let mut rng = Rng64::seed_from_u64(seed);
    rgae_linalg::standard_normal(r, c, &mut rng)
}

#[test]
fn check_matmul_chain() {
    let a = rand_mat(3, 4, 1);
    let b = rand_mat(4, 2, 2);
    grad_check(&[a, b], |g, v| {
        let c = g.matmul(v[0], v[1]).unwrap();
        let c2 = g.hadamard(c, c).unwrap();
        let t = g.recip_one_plus(c2);
        g.sum(t)
    });
}

#[test]
fn check_gram() {
    let z = rand_mat(4, 3, 3);
    grad_check(&[z], |g, v| {
        let s = reference::gram(g, v[0]);
        let sq = g.hadamard(s, s).unwrap();
        let total = g.sum(sq);
        g.scale(total, 1.0 / 16.0)
    });
}

#[test]
fn check_spmm() {
    let x = rand_mat(4, 3, 4);
    let s = Rc::new(
        Csr::from_triplets(
            4,
            4,
            &[
                (0, 1, 0.5),
                (1, 0, 0.5),
                (2, 3, 1.5),
                (3, 2, 1.5),
                (0, 0, 1.0),
            ],
        )
        .unwrap(),
    );
    grad_check(&[x], move |g, v| {
        let y = g.spmm(&s, v[0]).unwrap();
        let y = g.relu(y);
        g.sum(y)
    });
}

#[test]
fn check_add_sub_hadamard_scale() {
    let a = rand_mat(2, 3, 5);
    let b = rand_mat(2, 3, 6);
    grad_check(&[a, b], |g, v| {
        let s = g.add(v[0], v[1]).unwrap();
        let neg_b = g.scale(v[1], -1.0);
        let d = g.add(v[0], neg_b).unwrap();
        let h = g.hadamard(s, d).unwrap();
        let sc = g.scale(h, -0.3);
        g.sum(sc)
    });
}

#[test]
fn check_add_bias() {
    let x = rand_mat(3, 4, 7);
    let b = rand_mat(1, 4, 8);
    grad_check(&[x, b], |g, v| {
        let y = g.add_bias(v[0], v[1]).unwrap();
        let y = sigmoid(g, y);
        g.sum(y)
    });
}

#[test]
fn check_activations() {
    // Shift away from relu's kink at zero.
    let mut x = rand_mat(3, 3, 9);
    for v in x.as_mut_slice() {
        if v.abs() < 0.05 {
            *v += 0.1;
        }
    }
    grad_check(&[x.clone()], |g, v| {
        let y = g.relu(v[0]);
        g.sum(y)
    });
    grad_check(&[x.clone()], |g, v| {
        let y = sigmoid(g, v[0]);
        g.sum(y)
    });
    grad_check(&[x.scale(0.3)], |g, v| {
        let y = g.exp(v[0]);
        g.sum(y)
    });
}

#[test]
fn check_recip_one_plus_and_row_normalize() {
    // Positive inputs (squared distances in practice).
    let x = rand_mat(3, 4, 10).map(|v| v * v + 0.1);
    grad_check(&[x], |g, v| {
        let y = g.recip_one_plus(v[0]);
        let p = g.row_normalize(y);
        // Weighted sum to give each entry a distinct downstream weight.
        let w = g.constant(Mat::from_vec(3, 4, (0..12).map(|i| i as f64 * 0.1).collect()).unwrap());
        let wp = g.hadamard(p, w).unwrap();
        g.sum(wp)
    });
}

#[test]
fn check_gather_rows() {
    let x = rand_mat(5, 3, 11);
    grad_check(&[x], |g, v| {
        let y = g.gather_rows(v[0], &[4, 0, 4, 2]).unwrap();
        let y = sigmoid(g, y);
        g.sum(y)
    });
}

#[test]
fn check_pairwise_sq_dists() {
    let z = rand_mat(4, 3, 12);
    let mu = rand_mat(2, 3, 13);
    grad_check(&[z, mu], |g, v| {
        let d = g.pairwise_sq_dists(v[0], v[1]).unwrap();
        let w = g
            .constant(Mat::from_vec(4, 2, (0..8).map(|i| 0.2 + i as f64 * 0.1).collect()).unwrap());
        let wd = g.hadamard(d, w).unwrap();
        g.sum(wd)
    });
}

#[test]
fn check_gauss_log_pdf() {
    let z = rand_mat(4, 2, 14);
    let mu = rand_mat(3, 2, 15);
    let lv = rand_mat(3, 2, 16).scale(0.3);
    grad_check(&[z, mu, lv], |g, v| {
        let l = g.gauss_log_pdf(v[0], v[1], v[2]).unwrap();
        let w = g.constant(
            Mat::from_vec(4, 3, (0..12).map(|i| 0.05 * (i as f64 + 1.0)).collect()).unwrap(),
        );
        let wl = g.hadamard(l, w).unwrap();
        g.sum(wl)
    });
}

#[test]
fn check_bce_logits_sparse() {
    let x = rand_mat(4, 4, 17);
    let t = Rc::new(
        Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0), (3, 1, 1.0)]).unwrap(),
    );
    grad_check(&[x], move |g, v| {
        reference::bce_logits_sparse(g, v[0], &t, 2.5, 0.8).unwrap()
    });
}

#[test]
fn check_bce_logits_sparse_through_gram() {
    // The actual GAE decoder pattern: loss(Z·Zᵀ).
    let z = rand_mat(4, 2, 18);
    let t = Rc::new(Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap());
    grad_check(&[z], move |g, v| {
        let s = reference::gram(g, v[0]);
        reference::bce_logits_sparse(g, s, &t, 3.0, 1.2).unwrap()
    });
}

/// Both decoder numerics modes: the fast path differentiates the same loss
/// to within a few ulp per term.
const MODES: [DecoderNumerics; 2] = [DecoderNumerics::Exact, DecoderNumerics::Fast];

#[test]
fn check_gram_bce_fused() {
    // The fused tiled decoder: loss(Z·Zᵀ) without materializing the gram.
    let z = rand_mat(4, 2, 18);
    let t = Rc::new(Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap());
    for numerics in MODES {
        let t = Rc::clone(&t);
        grad_check(std::slice::from_ref(&z), move |g, v| {
            g.gram_bce_logits_sparse(v[0], &t, 3.0, 1.2, numerics)
                .unwrap()
        });
    }
}

#[test]
fn check_gram_bce_fused_scaled_root() {
    // γ-scaled root exercises the non-unit upstream-gradient branch of the
    // fused backward (dZ_unit · γ).
    let z = rand_mat(5, 3, 35);
    let t = Rc::new(
        Csr::from_triplets(5, 5, &[(0, 1, 1.0), (1, 0, 1.0), (3, 4, 1.0), (4, 3, 1.0)]).unwrap(),
    );
    for numerics in MODES {
        let t = Rc::clone(&t);
        grad_check(std::slice::from_ref(&z), move |g, v| {
            let recon = g
                .gram_bce_logits_sparse(v[0], &t, 2.0, 0.8, numerics)
                .unwrap();
            g.scale(recon, 0.37)
        });
    }
}

#[test]
fn check_gram_bce_fused_through_encoder() {
    // The full GAE pattern with the fused decoder on top of a GCN layer.
    let w0 = rand_mat(3, 2, 36).scale(0.5);
    let x = rand_mat(5, 3, 37);
    let a = Rc::new(
        Csr::adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
            .unwrap()
            .gcn_normalized()
            .unwrap(),
    );
    let t = Rc::new(Csr::adjacency_from_edges(5, &[(0, 1), (2, 3)]).unwrap());
    for numerics in MODES {
        let (x, a, t) = (x.clone(), Rc::clone(&a), Rc::clone(&t));
        grad_check(std::slice::from_ref(&w0), move |g, v| {
            let xv = g.constant(x.clone());
            let h = g.spmm(&a, xv).unwrap();
            let z = g.matmul(h, v[0]).unwrap();
            g.gram_bce_logits_sparse(z, &t, 4.0, 1.0, numerics).unwrap()
        });
    }
}

#[test]
fn check_bce_logits_dense() {
    let x = rand_mat(3, 2, 19);
    let t = Rc::new(Mat::from_vec(3, 2, vec![1.0, 0.0, 0.5, 1.0, 0.0, 0.25]).unwrap());
    grad_check(&[x], move |g, v| g.bce_logits_dense(v[0], &t).unwrap());
}

#[test]
fn check_kl_div_const_q() {
    // p must be a positive distribution-ish matrix; build via softmax-free
    // normalisation of positive leaves.
    let x = rand_mat(3, 4, 20).map(|v| v * v + 0.2);
    let q_rows: Vec<f64> = vec![
        0.1, 0.2, 0.3, 0.4, //
        0.25, 0.25, 0.25, 0.25, //
        0.7, 0.1, 0.1, 0.1,
    ];
    let q = Rc::new(Mat::from_vec(3, 4, q_rows).unwrap());
    grad_check(&[x], move |g, v| {
        let p = g.row_normalize(v[0]);
        g.kl_div_const_q(p, &q).unwrap()
    });
}

#[test]
fn check_gaussian_kl() {
    let mu = rand_mat(3, 2, 21);
    let lv = rand_mat(3, 2, 22).scale(0.5);
    grad_check(&[mu, lv], |g, v| g.gaussian_kl(v[0], v[1]).unwrap());
}

#[test]
fn check_vgae_reparameterisation_path() {
    // z = μ + ε ∘ exp(0.5·lv); loss = mean(z²) + KL.
    let mu = rand_mat(3, 2, 25);
    let lv = rand_mat(3, 2, 26).scale(0.4);
    let eps = rand_mat(3, 2, 27);
    grad_check(&[mu, lv], move |g, v| {
        let e = g.constant(eps.clone());
        let half_lv = g.scale(v[1], 0.5);
        let std = g.exp(half_lv);
        let noise = g.hadamard(e, std).unwrap();
        let z = g.add(v[0], noise).unwrap();
        let zsq = g.hadamard(z, z).unwrap();
        let total = g.sum(zsq);
        let fit = g.scale(total, 1.0 / 6.0);
        let kl = g.gaussian_kl(v[0], v[1]).unwrap();
        let kl_scaled = g.scale(kl, 0.01);
        g.add(fit, kl_scaled).unwrap()
    });
}

#[test]
fn check_two_layer_gcn_path() {
    // The full GAE encoder pattern: Ã·relu(Ã·X·W0)·W1 then decoder BCE.
    let w0 = rand_mat(3, 4, 28).scale(0.5);
    let w1 = rand_mat(4, 2, 29).scale(0.5);
    let x = rand_mat(5, 3, 30);
    let a = Rc::new(
        Csr::adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
            .unwrap()
            .gcn_normalized()
            .unwrap(),
    );
    let t = Rc::new(Csr::adjacency_from_edges(5, &[(0, 1), (2, 3)]).unwrap());
    grad_check(&[w0, w1], move |g, v| {
        let xv = g.constant(x.clone());
        let h = g.spmm(&a, xv).unwrap();
        let h = g.matmul(h, v[0]).unwrap();
        let h = g.relu(h);
        let h = g.spmm(&a, h).unwrap();
        let z = g.matmul(h, v[1]).unwrap();
        let s = reference::gram(g, z);
        reference::bce_logits_sparse(g, s, &t, 4.0, 1.0).unwrap()
    });
}

#[test]
fn check_student_t_dec_path() {
    // DEC clustering: P from Student-t kernel over (Z, μ), loss KL(Q‖P).
    let z = rand_mat(5, 2, 31);
    let mu = rand_mat(3, 2, 32);
    let q = {
        let raw = rand_mat(5, 3, 33).map(|v| v * v + 0.1);
        let mut q = raw.clone();
        for i in 0..5 {
            let s: f64 = q.row(i).iter().sum();
            for e in q.row_mut(i) {
                *e /= s;
            }
        }
        Rc::new(q)
    };
    grad_check(&[z, mu], move |g, v| {
        let d = g.pairwise_sq_dists(v[0], v[1]).unwrap();
        let num = g.recip_one_plus(d);
        let p = g.row_normalize(num);
        g.kl_div_const_q(p, &q).unwrap()
    });
}

#[test]
fn backward_can_run_twice_from_different_roots() {
    // Two losses on one tape: backward from each in turn; the second call
    // replaces (not accumulates into) the stored gradients.
    let mut g = Graph::new();
    let x = g.leaf(Mat::from_vec(1, 2, vec![1.0, 2.0]).unwrap());
    let s1 = g.sum(x);
    let sq = g.hadamard(x, x).unwrap();
    let s2 = g.sum(sq);
    g.backward(s1).unwrap();
    assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0, 1.0]);
    g.backward(s2).unwrap();
    assert_eq!(g.grad(x).unwrap().as_slice(), &[2.0, 4.0]);
}

#[test]
fn scalar_edge_shapes() {
    // 1x1 everywhere: gram, sum, scale compose fine.
    let mut g = Graph::new();
    let x = g.leaf(Mat::full(1, 1, 3.0));
    let s = reference::gram(&mut g, x); // 3*3 = 9
    assert_eq!(g.scalar(s), 9.0);
    let l = g.scale(s, 0.5);
    g.backward(l).unwrap();
    assert_eq!(g.grad(x).unwrap().as_slice(), &[3.0]); // d(0.5 x²)/dx = x
}

#[test]
fn shape_errors_are_reported_not_panicked() {
    use rgae_autodiff::Error;
    let mut g = Graph::new();
    let a = g.leaf(Mat::zeros(2, 3));
    let b = g.leaf(Mat::zeros(2, 3));
    assert!(matches!(g.matmul(a, b), Err(Error::Shape(_))));
    let t = Rc::new(Csr::zeros(3, 3));
    assert!(reference::bce_logits_sparse(&mut g, a, &t, 1.0, 1.0).is_err());
    let q = Rc::new(Mat::zeros(3, 3));
    assert!(g.kl_div_const_q(a, &q).is_err());
}

#[test]
fn check_two_layer_gcn_path_with_three_threads() {
    // Re-run the heaviest finite-difference check with the parallel kernels
    // engaged (3 workers): the analytic/numeric agreement must be unaffected
    // by the thread count.
    rgae_par::with_threads(3, || {
        let w0 = rand_mat(3, 4, 28).scale(0.5);
        let w1 = rand_mat(4, 2, 29).scale(0.5);
        let x = rand_mat(5, 3, 30);
        let a = Rc::new(
            Csr::adjacency_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
                .unwrap()
                .gcn_normalized()
                .unwrap(),
        );
        let t = Rc::new(Csr::adjacency_from_edges(5, &[(0, 1), (2, 3)]).unwrap());
        grad_check(&[w0, w1], move |g, v| {
            let xv = g.constant(x.clone());
            let h = g.spmm(&a, xv).unwrap();
            let h = g.matmul(h, v[0]).unwrap();
            let h = g.relu(h);
            let h = g.spmm(&a, h).unwrap();
            let z = g.matmul(h, v[1]).unwrap();
            let s = reference::gram(g, z);
            reference::bce_logits_sparse(g, s, &t, 4.0, 1.0).unwrap()
        });
    });
}

#[test]
fn check_bce_through_gram_with_three_threads() {
    rgae_par::with_threads(3, || {
        let z = rand_mat(4, 2, 18);
        let t = Rc::new(Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap());
        grad_check(&[z], move |g, v| {
            let s = reference::gram(g, v[0]);
            reference::bce_logits_sparse(g, s, &t, 3.0, 1.2).unwrap()
        });
    });
}

#[test]
fn analytic_gradients_bitwise_stable_across_threads() {
    // The serial and 3-thread tapes must produce *identical bits*, not just
    // tolerance-level agreement: this is the determinism contract the
    // differential suite in `rgae-par` proves kernel by kernel, restated at
    // the level of a whole encoder/decoder backward pass.
    let run = || {
        let w0 = rand_mat(6, 4, 40).scale(0.5);
        let w1 = rand_mat(4, 3, 41).scale(0.5);
        let x = rand_mat(9, 6, 42);
        let a = Rc::new(
            Csr::adjacency_from_edges(
                9,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 8),
                    (8, 0),
                ],
            )
            .unwrap()
            .gcn_normalized()
            .unwrap(),
        );
        let t = Rc::new(Csr::adjacency_from_edges(9, &[(0, 1), (2, 3), (5, 7)]).unwrap());
        let mut g = Graph::new();
        let v0 = g.leaf(w0);
        let v1 = g.leaf(w1);
        let xv = g.constant(x);
        let h = g.spmm(&a, xv).unwrap();
        let h = g.matmul(h, v0).unwrap();
        let h = g.relu(h);
        let h = g.spmm(&a, h).unwrap();
        let z = g.matmul(h, v1).unwrap();
        let s = reference::gram(&mut g, z);
        let loss = reference::bce_logits_sparse(&mut g, s, &t, 4.0, 1.0).unwrap();
        g.backward(loss).unwrap();
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        (
            g.scalar(loss).to_bits(),
            bits(g.grad(v0).unwrap()),
            bits(g.grad(v1).unwrap()),
        )
    };
    let serial = rgae_par::with_threads(1, run);
    for t in [2usize, 3, 8] {
        let threaded = rgae_par::with_threads(t, run);
        assert_eq!(threaded, serial, "threads={t}");
    }
}

#[test]
fn zero_rows_gather_gives_empty_but_valid() {
    let mut g = Graph::new();
    let x = g.leaf(Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
    let y = g.gather_rows(x, &[]).unwrap();
    assert_eq!(g.value(y).shape(), (0, 2));
    let s = g.sum(y);
    g.backward(s).unwrap();
    assert_eq!(g.grad(x).unwrap().as_slice(), &[0.0; 4]);
}
